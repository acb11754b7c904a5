#include "baseline/common.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/query/planner.h"

namespace qppt::baseline {

namespace {

// The one table of `db` whose schema has `column`.
Result<std::string> TableOf(const Database& db, const std::string& column) {
  std::string found;
  for (const std::string& name : db.table_names()) {
    QPPT_ASSIGN_OR_RETURN(const RowTable* table, db.table(name));
    if (!table->schema().HasColumn(column)) continue;
    if (!found.empty()) {
      return Status::InvalidArgument("column '" + column +
                                     "' is ambiguous: in tables '" + found +
                                     "' and '" + name + "'");
    }
    found = name;
  }
  if (found.empty()) {
    return Status::InvalidArgument("unknown column '" + column + "'");
  }
  return found;
}

Status CheckColumnIn(const Database& db, const std::string& table,
                     const std::string& column) {
  QPPT_ASSIGN_OR_RETURN(std::string owner, TableOf(db, column));
  if (owner != table) {
    return Status::InvalidArgument("column '" + column + "' is in table '" +
                                   owner + "', not '" + table + "'");
  }
  return Status::OK();
}

// The key predicate on `index` (the column it is named after), then each
// residual, all over columns of `table`.
Result<std::vector<ColumnFilter>> LowerFilters(
    const Database& db, const std::string& table, const std::string& index,
    const KeyPredicate& key, const std::vector<Residual>& residuals) {
  std::vector<ColumnFilter> filters;
  if (key.kind != KeyPredicate::Kind::kAll) filters.push_back({index, key});
  for (const Residual& r : residuals) filters.push_back({r.column, r});
  for (const ColumnFilter& f : filters) {
    QPPT_RETURN_NOT_OK(CheckColumnIn(db, table, f.column));
  }
  return filters;
}

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

}  // namespace

Result<StarQuery> LowerStarQuery(const Database& db,
                                 const query::QuerySpec& spec) {
  if (!spec.having.empty()) {
    return Status::InvalidArgument("baselines do not run HAVING");
  }
  const auto& terms = spec.aggregates.terms();
  if (terms.size() != 1 || terms[0].fn != AggFn::kSum) {
    return Status::InvalidArgument("baselines run exactly one SUM aggregate");
  }
  if (spec.dimensions.size() > kMaxDims) {
    return Status::InvalidArgument("baselines join at most " +
                                   std::to_string(kMaxDims) + " dimensions");
  }
  if (spec.group_by.size() > kMaxGroupKeys) {
    return Status::InvalidArgument("baselines group on at most " +
                                   std::to_string(kMaxGroupKeys) + " keys");
  }

  StarQuery q;
  QPPT_ASSIGN_OR_RETURN(q.fact_table, TableOf(db, spec.fact.index));
  QPPT_ASSIGN_OR_RETURN(
      q.fact_filters, LowerFilters(db, q.fact_table, spec.fact.index,
                                   spec.fact.predicate, spec.fact.residuals));
  q.agg_source = terms[0].source;
  QPPT_RETURN_NOT_OK(CheckColumnIn(db, q.fact_table, q.agg_source.lhs));
  if (q.agg_source.op != ScalarExpr::Op::kColumn) {
    QPPT_RETURN_NOT_OK(CheckColumnIn(db, q.fact_table, q.agg_source.rhs));
  }

  for (const query::DimensionSpec& dim : spec.dimensions) {
    bool probe_filtered = dim.predicate.kind != KeyPredicate::Kind::kAll ||
                          !dim.residuals.empty();
    if (dim.has_selection() == !dim.probe_index.empty() ||
        (!dim.has_selection() && probe_filtered)) {
      return Status::InvalidArgument(
          "dimension '" + dim.name +
          "' must either Select(index) with filters or Probe(index) without");
    }
    DimJoin join;
    join.key_column = dim.has_selection() ? dim.key_column : dim.probe_index;
    join.fact_column = dim.fact_probe_column;
    QPPT_ASSIGN_OR_RETURN(join.table, TableOf(db, join.key_column));
    QPPT_RETURN_NOT_OK(CheckColumnIn(db, q.fact_table, join.fact_column));
    QPPT_ASSIGN_OR_RETURN(
        join.filters, LowerFilters(db, join.table, dim.select_index,
                                   dim.predicate, dim.residuals));
    // The baselines read carried columns only as group keys.
    for (const std::string& col : dim.carry_columns) {
      if (!Contains(spec.group_by, col)) continue;
      QPPT_RETURN_NOT_OK(CheckColumnIn(db, join.table, col));
      join.carry.push_back(col);
    }
    q.dims.push_back(std::move(join));
  }

  std::vector<ColumnDef> result_cols;
  for (const std::string& name : spec.group_by) {
    size_t d = 0;
    while (d < q.dims.size() && !Contains(q.dims[d].carry, name)) ++d;
    if (d == q.dims.size()) {
      return Status::InvalidArgument("group key '" + name +
                                     "' is not carried by any dimension");
    }
    const std::vector<std::string>& carry = q.dims[d].carry;
    size_t pos = std::find(carry.begin(), carry.end(), name) - carry.begin();
    q.group_refs.push_back({d, pos});
    QPPT_ASSIGN_OR_RETURN(const RowTable* table, db.table(q.dims[d].table));
    QPPT_ASSIGN_OR_RETURN(size_t idx, table->schema().ColumnIndex(name));
    result_cols.push_back(table->schema().column(idx));
  }
  result_cols.push_back({terms[0].out_name, ValueType::kInt64, nullptr});
  q.result_schema = Schema(std::move(result_cols));

  if (!query::OrderByIsFree(spec)) {
    for (const query::OrderKey& key : spec.order_by) {
      if (!q.result_schema.HasColumn(key.column)) {
        return Status::InvalidArgument("ORDER BY column '" + key.column +
                                       "' is not in the result");
      }
      q.post_sort.push_back({key.column, key.descending});
    }
  }
  return q;
}

Result<std::vector<uint32_t>> SelectRows(
    const ColumnTable& table, const std::vector<ColumnFilter>& filters) {
  size_t n = table.num_rows();
  std::vector<uint32_t> sel;
  bool have_sel = false;
  for (const ColumnFilter& filter : filters) {
    QPPT_ASSIGN_OR_RETURN(const auto* col, table.ColumnByName(filter.column));
    std::vector<uint32_t> next;
    // Dispatch once per filter so the row loops inline one evaluator.
    std::visit(
        [&](const auto& pred) {
          if (!have_sel) {
            next.reserve(n / 4);
            for (size_t i = 0; i < n; ++i) {
              if (pred.Eval(Int64FromSlot((*col)[i]))) {
                next.push_back(static_cast<uint32_t>(i));
              }
            }
          } else {
            next.reserve(sel.size());
            for (uint32_t i : sel) {
              if (pred.Eval(Int64FromSlot((*col)[i]))) next.push_back(i);
            }
          }
        },
        filter.pred);
    sel = std::move(next);
    have_sel = true;
  }
  if (!have_sel) {
    sel.resize(n);
    for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  }
  return sel;
}

namespace {

Result<DimHash> BuildDimHash(const ColumnTable& table, const DimJoin& dim) {
  DimHash out;
  out.carry_width = dim.carry.size();
  QPPT_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                        SelectRows(table, dim.filters));
  QPPT_ASSIGN_OR_RETURN(const auto* key_col,
                        table.ColumnByName(dim.key_column));
  std::vector<const std::vector<uint64_t>*> carry_cols;
  for (const auto& c : dim.carry) {
    QPPT_ASSIGN_OR_RETURN(const auto* col, table.ColumnByName(c));
    carry_cols.push_back(col);
  }
  for (uint32_t i : sel) {
    uint64_t payload_idx = out.carry_width == 0
                               ? 0
                               : out.payload_flat.size() / out.carry_width;
    for (size_t c = 0; c < carry_cols.size(); ++c) {
      int64_t v = Int64FromSlot((*carry_cols[c])[i]);
      if (v < 0 || v >= kGroupCodeLimit) {
        return Status::InvalidArgument(
            "group key '" + dim.carry[c] + "' value " + std::to_string(v) +
            " is outside the baselines' 16-bit group codes");
      }
      out.payload_flat.push_back(v);
    }
    out.table.Upsert((*key_col)[i], payload_idx);
  }
  return out;
}

}  // namespace

Result<std::vector<DimHash>> BuildDimHashes(ssb::SsbData& data,
                                            const StarQuery& q) {
  std::vector<DimHash> hashes;
  for (const DimJoin& dim : q.dims) {
    QPPT_ASSIGN_OR_RETURN(DimHash hash,
                          BuildDimHash(data.Columnar(dim.table), dim));
    hashes.push_back(std::move(hash));
  }
  return hashes;
}

Result<QueryResult> AssembleResult(const StarQuery& q,
                                   const std::map<uint64_t, int64_t>& groups) {
  QueryResult result;
  result.schema = q.result_schema;
  size_t g_n = q.group_refs.size();
  for (const auto& [packed, total] : groups) {
    std::vector<Value> row(g_n + 1);
    uint64_t rest = packed;
    for (size_t g = g_n; g-- > 0;) {
      int64_t code = static_cast<int64_t>(rest & 0xFFFF);
      rest >>= 16;
      const ColumnDef& def = result.schema.column(g);
      if (def.type == ValueType::kString && def.dictionary != nullptr) {
        row[g] = Value::Str(def.dictionary->StringOf(code));
      } else {
        row[g] = Value::Int(code);
      }
    }
    row[g_n] = Value::Int(total);
    result.rows.push_back(std::move(row));
  }
  QPPT_RETURN_NOT_OK(SortResult(q.post_sort, &result));
  return result;
}

}  // namespace qppt::baseline
