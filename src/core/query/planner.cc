#include "core/query/planner.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/having.h"
#include "core/operators/select_join.h"
#include "core/operators/selection.h"
#include "core/operators/star_join.h"

namespace qppt::query {

namespace {

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  for (const std::string& s : haystack) {
    if (s == needle) return true;
  }
  return false;
}

void AddUnique(std::vector<std::string>* list, const std::string& value) {
  if (!Contains(*list, value)) list->push_back(value);
}

// Columns an AggSpec reads from the assembled tuple.
std::vector<std::string> AggSourceColumns(const AggSpec& agg) {
  std::vector<std::string> cols;
  for (const AggTerm& term : agg.terms()) {
    if (term.fn == AggFn::kCount) continue;  // source ignored
    if (!term.source.lhs.empty()) AddUnique(&cols, term.source.lhs);
    if (term.source.op != ScalarExpr::Op::kColumn &&
        !term.source.rhs.empty()) {
      AddUnique(&cols, term.source.rhs);
    }
  }
  return cols;
}

std::string Describe(const KeyPredicate& p) {
  switch (p.kind) {
    case KeyPredicate::Kind::kAll:
      return "all";
    case KeyPredicate::Kind::kPoint:
      return "point(" + std::to_string(p.point) + ")";
    case KeyPredicate::Kind::kRange:
      return "range(" + std::to_string(p.lo) + ".." + std::to_string(p.hi) +
             ")";
    case KeyPredicate::Kind::kIn: {
      std::string out = "in{";
      for (size_t i = 0; i < p.in_points.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(p.in_points[i]);
      }
      return out + "}";
    }
  }
  return "?";
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

SideRef DimSide(const DimensionSpec& dim) {
  return dim.has_selection() ? SideRef::Slot(dim.SlotName())
                             : SideRef::Base(dim.probe_index);
}

// One join stage of the chain the arity rule produced.
struct Stage {
  const DimensionSpec* main = nullptr;
  std::vector<const DimensionSpec*> assists;
  std::string out_slot;
  std::vector<std::string> out_keys;
  bool final = false;
};

struct PlannedOp {
  std::string label;
  std::unique_ptr<Operator> op;
  std::string detail;  // explain annotation (wiring summary)
};

// The planner's product, shared by PlanQuery and ExplainPlan.
struct PlanSketch {
  std::vector<PlannedOp> ops;
  std::vector<ResultOrderKey> post_sort;
  std::string order_note;
  std::string result_slot;
};

// The intermediate the final join aggregates into when a HAVING filter
// follows it.
std::string PreHavingSlot(const QuerySpec& spec) {
  return spec.result_slot + "_agg";
}

// True for slot names the planner generates for chain intermediates.
bool IsReservedJoinSlot(const std::string& slot) {
  if (slot.size() < 5 || slot.compare(0, 4, "join") != 0) return false;
  for (size_t i = 4; i < slot.size(); ++i) {
    if (slot[i] < '0' || slot[i] > '9') return false;
  }
  return true;
}

Status ValidateSpec(const Database& db, const QuerySpec& spec) {
  if (spec.fact.index.empty()) {
    return Status::InvalidArgument("query has no fact index");
  }
  QPPT_RETURN_NOT_OK(db.index(spec.fact.index).status());
  if (spec.fact.columns.empty()) {
    return Status::InvalidArgument("query reads no fact columns");
  }
  if (spec.group_by.empty()) {
    return Status::InvalidArgument("query has no group-by/result keys");
  }
  // Slot collisions fail at planning, not on the execute hot path: every
  // ExecContext slot the plan will populate must be distinct.
  std::vector<std::string> slots = {spec.result_slot,
                                    spec.fact.selection_slot};
  if (!spec.having.empty()) slots.push_back(PreHavingSlot(spec));
  std::vector<std::string> names;
  for (const DimensionSpec& dim : spec.dimensions) {
    if (dim.name == "fact") {
      return Status::InvalidArgument(
          "dimension name 'fact' is reserved for parameter bindings");
    }
    if (Contains(names, dim.name)) {
      return Status::InvalidArgument("duplicate dimension name '" +
                                     dim.name + "'");
    }
    names.push_back(dim.name);
    if (dim.has_selection()) {
      std::string slot = dim.SlotName();
      if (Contains(slots, slot) || IsReservedJoinSlot(slot)) {
        return Status::InvalidArgument("slot name '" + slot +
                                       "' collides with another plan slot");
      }
      slots.push_back(slot);
    }
  }
  if (spec.result_slot == spec.fact.selection_slot ||
      IsReservedJoinSlot(spec.result_slot) ||
      IsReservedJoinSlot(spec.fact.selection_slot)) {
    return Status::InvalidArgument("result/fact slot names collide with "
                                   "planner-generated join slots");
  }
  for (const DimensionSpec& dim : spec.dimensions) {
    if (dim.name.empty()) {
      return Status::InvalidArgument("dimension without a name");
    }
    if (dim.fact_probe_column.empty()) {
      return Status::InvalidArgument("dimension '" + dim.name +
                                     "' has no fact probe column");
    }
    if (dim.has_selection() == !dim.probe_index.empty()) {
      return Status::InvalidArgument(
          "dimension '" + dim.name +
          "' must set exactly one of Select(index) or Probe(index)");
    }
    if (dim.has_selection()) {
      QPPT_RETURN_NOT_OK(db.index(dim.select_index).status());
      if (dim.key_column.empty()) {
        return Status::InvalidArgument("dimension '" + dim.name +
                                       "' selection has no Key() column");
      }
    } else {
      QPPT_RETURN_NOT_OK(db.index(dim.probe_index).status());
      if (dim.predicate.kind != KeyPredicate::Kind::kAll ||
          !dim.residuals.empty()) {
        return Status::InvalidArgument(
            "dimension '" + dim.name +
            "' uses Probe() but carries a filter; use Select() instead");
      }
    }
  }
  // Every referenced output column must originate somewhere.
  std::vector<std::string> origins = spec.fact.columns;
  for (const DimensionSpec& dim : spec.dimensions) {
    for (const std::string& col : dim.carry_columns) {
      if (Contains(origins, col)) {
        return Status::InvalidArgument("column '" + col +
                                       "' provided by two query inputs");
      }
      origins.push_back(col);
    }
  }
  std::vector<std::string> final_refs = spec.group_by;
  for (const std::string& col : AggSourceColumns(spec.aggregates)) {
    AddUnique(&final_refs, col);
  }
  for (const std::string& col : final_refs) {
    if (!Contains(origins, col)) {
      return Status::InvalidArgument(
          "column '" + col + "' is not a fact column or a dimension carry");
    }
  }
  std::vector<std::string> result_columns = spec.group_by;
  for (const AggTerm& term : spec.aggregates.terms()) {
    result_columns.push_back(term.out_name);
  }
  for (const OrderKey& key : spec.order_by) {
    if (!Contains(result_columns, key.column)) {
      return Status::InvalidArgument("ORDER BY column '" + key.column +
                                     "' is not in the result");
    }
  }
  if (!spec.having.empty() && spec.aggregates.empty()) {
    return Status::InvalidArgument(
        "HAVING requires aggregates (filter plain rows with a selection "
        "residual instead)");
  }
  for (const Residual& residual : spec.having) {
    if (!Contains(result_columns, residual.column)) {
      return Status::InvalidArgument("HAVING column '" + residual.column +
                                     "' is not in the result");
    }
  }
  return Status::OK();
}

// Appends the HAVING stage: filters the aggregated intermediate's group
// rows into the result slot ("the logical selection and having operators
// are physically the same operator", §4.1).
void AppendHavingStage(const QuerySpec& spec, PlanSketch* sketch) {
  if (spec.having.empty()) return;
  HavingSpec having;
  having.input_slot = PreHavingSlot(spec);
  having.residuals = spec.having;
  having.output_slot = spec.result_slot;
  std::string detail = "-> " + spec.result_slot + " " +
                       std::to_string(spec.having.size()) + " residual(s)";
  sketch->ops.push_back({"having:" + spec.result_slot,
                         std::make_unique<HavingOp>(std::move(having)),
                         std::move(detail)});
}

// ORDER-BY strategy: free when it is an ascending prefix of the result
// keys (the output index already iterates in that order, §3).
void PlanOrderBy(const QuerySpec& spec, PlanSketch* sketch) {
  if (OrderByIsFree(spec)) {
    sketch->order_note = "index order (free)";
    return;
  }
  std::string note = "post-sort(";
  for (size_t i = 0; i < spec.order_by.size(); ++i) {
    if (i > 0) note += ", ";
    note += spec.order_by[i].column;
    note += spec.order_by[i].descending ? " desc" : " asc";
    sketch->post_sort.push_back(
        {spec.order_by[i].column, spec.order_by[i].descending});
  }
  sketch->order_note = note + ")";
}

std::string AggNote(const AggSpec& agg) {
  if (agg.empty()) return "";
  std::string note = " agg=[";
  for (size_t i = 0; i < agg.terms().size(); ++i) {
    const AggTerm& t = agg.terms()[i];
    if (i > 0) note += ",";
    note += std::string(AggFnToString(t.fn)) + "(" + t.source.ToString() +
            ")->" + t.out_name;
  }
  return note + "]";
}

Result<PlanSketch> BuildSketch(const Database& db, const QuerySpec& spec,
                               const PlanKnobs& knobs) {
  QPPT_RETURN_NOT_OK(ValidateSpec(db, spec));
  PlanSketch sketch;
  sketch.result_slot = spec.result_slot;
  const FactSpec& fact = spec.fact;

  // Stage 0a: dimension selections, in declaration order.
  for (const DimensionSpec& dim : spec.dimensions) {
    if (!dim.has_selection()) continue;
    SelectionSpec sel;
    sel.input_index = dim.select_index;
    sel.predicate = dim.predicate;
    sel.residuals = dim.residuals;
    sel.carry_columns = {dim.key_column};
    for (const std::string& col : dim.carry_columns) {
      AddUnique(&sel.carry_columns, col);
    }
    sel.output = {dim.SlotName(), {dim.key_column}, {}};
    std::string detail = "-> " + dim.SlotName() + "[" + dim.key_column +
                         "] where=" + Describe(dim.predicate);
    if (!dim.residuals.empty()) {
      detail += "+" + std::to_string(dim.residuals.size()) + " residual(s)";
    }
    if (!dim.carry_columns.empty()) {
      detail += " carry=[" + JoinNames(dim.carry_columns) + "]";
    }
    sketch.ops.push_back({"sel:" + dim.SlotName(),
                          std::make_unique<SelectionOp>(std::move(sel)),
                          std::move(detail)});
  }

  // The slot the final aggregating stage writes: the result itself, or
  // the pre-HAVING intermediate.
  const std::string final_slot =
      spec.having.empty() ? spec.result_slot : PreHavingSlot(spec);

  // No dimensions: the whole query is one (possibly aggregating)
  // selection into the result slot.
  if (spec.dimensions.empty()) {
    SelectionSpec sel;
    sel.input_index = fact.index;
    sel.predicate = fact.predicate;
    sel.residuals = fact.residuals;
    sel.carry_columns = fact.columns;
    sel.output = {final_slot, spec.group_by, spec.aggregates};
    std::string detail = "-> " + final_slot + "[" +
                         JoinNames(spec.group_by) +
                         "] where=" + Describe(fact.predicate) +
                         AggNote(spec.aggregates);
    sketch.ops.push_back({"sel:" + final_slot,
                          std::make_unique<SelectionOp>(std::move(sel)),
                          std::move(detail)});
    AppendHavingStage(spec, &sketch);
    PlanOrderBy(spec, &sketch);
    return sketch;
  }

  // Arity rule: compose non-deferred dimensions greedily into the first
  // join up to knobs.max_join_ways; everything left over (capped-out or
  // defer_join) becomes its own 2-way join in the chain.
  std::vector<const DimensionSpec*> core;
  std::vector<const DimensionSpec*> chain;
  for (const DimensionSpec& dim : spec.dimensions) {
    (dim.defer_join ? chain : core).push_back(&dim);
  }
  if (core.empty()) {  // all deferred: the first still has to lead
    core.push_back(chain.front());
    chain.erase(chain.begin());
  }
  size_t first_assists = core.size() - 1;
  if (knobs.max_join_ways != 0) {
    size_t cap = knobs.max_join_ways < 2
                     ? size_t{2}
                     : static_cast<size_t>(knobs.max_join_ways);
    first_assists = std::min(first_assists, cap - 2);
  }

  std::vector<Stage> stages;
  Stage first;
  first.main = core[0];
  for (size_t i = 1; i <= first_assists; ++i) first.assists.push_back(core[i]);
  stages.push_back(std::move(first));
  for (size_t i = first_assists + 1; i < core.size(); ++i) {
    stages.push_back(Stage{core[i], {}, "", {}, false});
  }
  for (const DimensionSpec* dim : chain) {
    stages.push_back(Stage{dim, {}, "", {}, false});
  }
  const size_t num_stages = stages.size();
  for (size_t i = 0; i < num_stages; ++i) {
    Stage& stage = stages[i];
    stage.final = i + 1 == num_stages;
    if (stage.final) {
      stage.out_slot = final_slot;
      stage.out_keys = spec.group_by;
    } else {
      stage.out_slot = "join" + std::to_string(i + 1);
      stage.out_keys = {stages[i + 1].main->fact_probe_column};
    }
  }

  // Probe columns are read from the assembled fact row for every
  // dimension except the first stage's main (joined through the index
  // key); those must be fact columns.
  for (size_t i = 0; i < num_stages; ++i) {
    for (const DimensionSpec* dim : stages[i].assists) {
      if (!Contains(fact.columns, dim->fact_probe_column)) {
        return Status::InvalidArgument(
            "fact columns must include probe column '" +
            dim->fact_probe_column + "' for dimension '" + dim->name + "'");
      }
    }
    if (i > 0 && !Contains(fact.columns, stages[i].main->fact_probe_column)) {
      return Status::InvalidArgument(
          "fact columns must include probe column '" +
          stages[i].main->fact_probe_column + "' for dimension '" +
          stages[i].main->name + "'");
    }
  }

  // Requirement sets, back to front: R[i] = columns stages >= i still
  // read (assist probes, intermediate keys, final group/agg inputs).
  std::vector<std::string> final_refs = spec.group_by;
  for (const std::string& col : AggSourceColumns(spec.aggregates)) {
    AddUnique(&final_refs, col);
  }
  std::vector<std::vector<std::string>> required(num_stages);
  std::vector<std::string> acc = final_refs;
  for (size_t i = num_stages; i-- > 0;) {
    if (!stages[i].final) AddUnique(&acc, stages[i].out_keys[0]);
    for (const DimensionSpec* dim : stages[i].assists) {
      AddUnique(&acc, dim->fact_probe_column);
    }
    required[i] = acc;
  }

  // Fact entry: fused select-join, materialized fact selection, or a
  // direct base-index main.
  const DimensionSpec& lead = *stages[0].main;
  const bool fuse = knobs.use_select_join && fact.filtered();
  const bool materialize_fact = fact.filtered() && !fuse;
  if (fact.filtered() && !Contains(fact.columns, lead.fact_probe_column)) {
    return Status::InvalidArgument(
        "fact columns must include probe column '" + lead.fact_probe_column +
        "' when the fact side is filtered");
  }
  if (!fact.filtered()) {
    QPPT_ASSIGN_OR_RETURN(const BaseIndex* entry, db.index(fact.index));
    if (entry->num_key_columns() != 1 ||
        entry->key_column_names()[0] != lead.fact_probe_column) {
      return Status::InvalidArgument(
          "fact index '" + fact.index + "' must be keyed on '" +
          lead.fact_probe_column + "' (the first joined dimension's probe)");
    }
  }

  SideRef left = SideRef::Base(fact.index);
  std::vector<std::string> left_contents = fact.columns;
  std::vector<std::string> dim_cols;  // carries of joined dims, join order
  if (materialize_fact) {
    SelectionSpec sel;
    sel.input_index = fact.index;
    sel.predicate = fact.predicate;
    sel.residuals = fact.residuals;
    sel.carry_columns = fact.columns;
    sel.output = {fact.selection_slot, {lead.fact_probe_column}, {}};
    std::string detail = "-> " + fact.selection_slot + "[" +
                         lead.fact_probe_column +
                         "] where=" + Describe(fact.predicate);
    if (!fact.residuals.empty()) {
      detail += "+" + std::to_string(fact.residuals.size()) + " residual(s)";
    }
    sketch.ops.push_back({"sel:" + fact.selection_slot,
                          std::make_unique<SelectionOp>(std::move(sel)),
                          std::move(detail)});
    left = SideRef::Slot(fact.selection_slot);
  }

  for (size_t i = 0; i < num_stages; ++i) {
    const Stage& stage = stages[i];
    const DimensionSpec& main = *stage.main;
    std::vector<AssistSpec> assists;
    std::vector<std::string> assist_names;
    for (const DimensionSpec* dim : stage.assists) {
      assists.push_back(
          {DimSide(*dim), dim->fact_probe_column, dim->carry_columns});
      assist_names.push_back(DimSide(*dim).name);
    }
    OutputSpec output = {stage.out_slot, stage.out_keys,
                         stage.final ? spec.aggregates : AggSpec{}};

    // The columns this stage pulls from its left input: everything the
    // remaining stages still read, dimension carries first, the consumed
    // join key dropped.
    std::vector<std::string> left_columns;
    const bool base_entry = i == 0 && !materialize_fact && !fuse;
    if (i == 0 && (base_entry || fuse)) {
      left_columns = fact.columns;  // base/scan entry reads the fact row
    } else {
      // Note the consumed join key (left_key) drops out here unless the
      // requirement set still reads it as a column downstream.
      for (const std::string& col : dim_cols) {
        if (Contains(left_contents, col) && Contains(required[i], col)) {
          left_columns.push_back(col);
        }
      }
      for (const std::string& col : fact.columns) {
        if (Contains(left_contents, col) && Contains(required[i], col)) {
          left_columns.push_back(col);
        }
      }
    }

    std::string detail = "-> " + stage.out_slot + "[" +
                         JoinNames(stage.out_keys) + "]";
    if (!assist_names.empty()) {
      detail += " assists=[" + JoinNames(assist_names) + "]";
    }
    if (stage.final) detail += AggNote(spec.aggregates);

    if (i == 0 && fuse) {
      SelectJoinSpec sj;
      sj.input_index = fact.index;
      sj.predicate = fact.predicate;
      sj.residuals = fact.residuals;
      sj.left_columns = left_columns;
      sj.probe_column = main.fact_probe_column;
      sj.right = DimSide(main);
      sj.right_columns = main.carry_columns;
      sj.assists = std::move(assists);
      sj.output = output;
      detail += " where=" + Describe(fact.predicate);
      sketch.ops.push_back({"sjoin:" + stage.out_slot,
                            std::make_unique<SelectJoinOp>(std::move(sj)),
                            std::move(detail)});
    } else {
      StarJoinSpec join;
      join.left = left;
      join.left_columns = left_columns;
      join.right = DimSide(main);
      join.right_columns = main.carry_columns;
      join.assists = std::move(assists);
      join.output = output;
      sketch.ops.push_back({"join:" + stage.out_slot,
                            std::make_unique<StarJoinOp>(std::move(join)),
                            std::move(detail)});
    }

    // This stage's output becomes the next stage's left side.
    std::vector<std::string> contents = left_columns;
    for (const std::string& col : main.carry_columns) {
      AddUnique(&contents, col);
    }
    for (const DimensionSpec* dim : stage.assists) {
      for (const std::string& col : dim->carry_columns) {
        AddUnique(&contents, col);
      }
    }
    for (const std::string& col : main.carry_columns) {
      AddUnique(&dim_cols, col);
    }
    for (const DimensionSpec* dim : stage.assists) {
      for (const std::string& col : dim->carry_columns) {
        AddUnique(&dim_cols, col);
      }
    }
    left_contents = std::move(contents);
    left = SideRef::Slot(stage.out_slot);
  }

  AppendHavingStage(spec, &sketch);
  PlanOrderBy(spec, &sketch);
  return sketch;
}

}  // namespace

bool OrderByIsFree(const QuerySpec& spec) {
  for (size_t i = 0; i < spec.order_by.size(); ++i) {
    if (i >= spec.group_by.size() || spec.order_by[i].descending ||
        spec.order_by[i].column != spec.group_by[i]) {
      return false;
    }
  }
  return true;
}

Result<Plan> PlanQuery(const Database& db, const QuerySpec& spec,
                       const PlanKnobs& knobs) {
  QPPT_ASSIGN_OR_RETURN(PlanSketch sketch, BuildSketch(db, spec, knobs));
  Plan plan;
  for (PlannedOp& planned : sketch.ops) {
    planned.op->set_label(planned.label);
    plan.Add(std::move(planned.op));
  }
  plan.set_result_slot(sketch.result_slot);
  plan.set_result_order(std::move(sketch.post_sort));
  return plan;
}

Result<std::string> ExplainPlan(const Database& db, const QuerySpec& spec,
                                const PlanKnobs& knobs) {
  QPPT_ASSIGN_OR_RETURN(PlanSketch sketch, BuildSketch(db, spec, knobs));
  std::string out = "plan " + (spec.id.empty() ? "(unnamed)" : spec.id) +
                    " [select_join=" +
                    (knobs.use_select_join ? "on" : "off") + " join_ways=" +
                    (knobs.max_join_ways == 0
                         ? std::string("multi")
                         : std::to_string(knobs.max_join_ways)) +
                    "]\n";
  for (const PlannedOp& planned : sketch.ops) {
    std::string line = "  " + planned.label;
    line.resize(std::max(line.size() + 1, size_t{20}), ' ');
    line += planned.op->name();
    line.resize(std::max(line.size() + 1, size_t{62}), ' ');
    out += line + planned.detail + "\n";
  }
  out += "  order-by: " + sketch.order_note + "\n";
  return out;
}

}  // namespace qppt::query
