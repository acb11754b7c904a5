#include "core/operators/common.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qppt {

Result<BoundSide> BoundSide::Bind(const ExecContext& ctx, const SideRef& ref,
                                  const std::vector<std::string>& columns) {
  BoundSide side;
  if (ref.kind == SideRef::Kind::kBaseIndex) {
    QPPT_ASSIGN_OR_RETURN(side.base_, ctx.db().index(ref.name));
    if (side.base_->mvcc() != nullptr) {
      side.mvcc_ = side.base_->mvcc();
      side.read_ts_ = ctx.read_ts();
    }
    const Schema& schema = side.base_->table().schema();
    for (const auto& col : columns) {
      QPPT_ASSIGN_OR_RETURN(auto acc, side.base_->BindColumn(col));
      side.base_accessors_.push_back(acc);
      if (col == "@rid") {
        side.defs_.push_back({"@rid", ValueType::kInt64, nullptr});
      } else {
        QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        side.defs_.push_back(schema.column(idx));
      }
    }
  } else {
    QPPT_ASSIGN_OR_RETURN(side.inter_, ctx.Get(ref.name));
    if (side.inter_->aggregated()) {
      return Status::InvalidArgument(
          "operator input '" + ref.name +
          "' is an aggregated table; joins expect plain indexed tables");
    }
    const Schema& schema = side.inter_->schema();
    for (const auto& col : columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
      side.inter_positions_.push_back(idx);
      side.defs_.push_back(schema.column(idx));
    }
  }
  return side;
}

Result<std::vector<BoundResidual>> BindResiduals(
    const BaseIndex& index, const std::vector<Residual>& residuals) {
  std::vector<BoundResidual> bound;
  bound.reserve(residuals.size());
  for (const auto& r : residuals) {
    QPPT_ASSIGN_OR_RETURN(auto acc, index.BindColumn(r.column));
    bound.push_back({r, acc});
  }
  return bound;
}

Result<std::unique_ptr<IndexedTable>> MakeOutputTable(
    const OutputSpec& spec, const Schema& assembled,
    const IndexedTable::Options& options) {
  if (spec.agg.empty()) {
    return IndexedTable::Create(assembled, spec.key_columns, options);
  }
  std::vector<ColumnDef> key_defs;
  key_defs.reserve(spec.key_columns.size());
  for (const auto& name : spec.key_columns) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(name));
    key_defs.push_back(assembled.column(idx));
  }
  return IndexedTable::CreateAggregated(std::move(key_defs), spec.agg,
                                        assembled, options);
}

Result<std::vector<BoundAssist>> BindAssists(
    const ExecContext& ctx, const std::vector<AssistSpec>& assists,
    std::vector<ColumnDef>* defs) {
  std::vector<BoundAssist> bound_assists;
  for (const auto& aspec : assists) {
    BoundAssist bound;
    bound.name = aspec.index.name;
    QPPT_ASSIGN_OR_RETURN(
        bound.side, BoundSide::Bind(ctx, aspec.index, aspec.carry_columns));
    // The probe column must already be assembled when this assist runs.
    // alloc-exempt: O(columns) schema copy, once per assist bind.
    Schema so_far{std::vector<ColumnDef>(*defs)};
    QPPT_ASSIGN_OR_RETURN(bound.probe_pos,
                          so_far.ColumnIndex(aspec.probe_column));
    bound.carry_offset = defs->size();
    defs->insert(defs->end(), bound.side.column_defs().begin(),
                 bound.side.column_defs().end());
    bound_assists.push_back(std::move(bound));
  }
  return bound_assists;
}

CandidatePipeline::CandidatePipeline(const PipelineShape& shape,
                                     IndexedTable* output)
    : assists_(shape.assists),
      width_(shape.row_width),
      output_(output),
      key_positions_(shape.key_positions),
      key_slots_(key_positions_.size()),
      buffer_rows_(shape.buffer_rows < 1 ? 1 : shape.buffer_rows),
      funnel_(assists_.size()) {
  candidates_.reserve(buffer_rows_ * width_);
}

void CandidatePipeline::AddFunnelTo(OperatorStats* stats) const {
  stats->candidate_rows += candidate_rows_;
  stats->funnel.resize(funnel_.size());
  for (size_t i = 0; i < funnel_.size(); ++i) {
    stats->funnel[i].index = assists_[i].name;
    stats->funnel[i].rows_in += funnel_[i].rows_in;
    stats->funnel[i].rows_out += funnel_[i].rows_out;
  }
  stats->inserted_rows += inserted_rows_;
}

uint64_t* CandidatePipeline::AddRow() {
  size_t at = candidates_.size();
  candidates_.resize(at + width_, 0);
  return candidates_.data() + at;
}

void CandidatePipeline::Process() {
  if (candidates_.empty()) return;
  Timer phase;
  std::vector<uint64_t>* rows = &candidates_;
  candidate_rows_ += rows->size() / width_;
  for (size_t a = 0; a < assists_.size(); ++a) {
    const BoundAssist& assist = assists_[a];
    size_t n = rows->size() / width_;
    if (n == 0) break;
    funnel_[a].rows_in += n;
    next_stage_.clear();
    const KissTree* kiss = assist.side.kiss();
    auto expand = [&](const uint64_t* row, uint64_t assist_value) {
      if (!assist.side.Visible(assist_value)) return;
      size_t at = next_stage_.size();
      next_stage_.insert(next_stage_.end(), row, row + width_);
      assist.side.Fill(assist_value,
                       next_stage_.data() + at + assist.carry_offset);
    };
    if (kiss != nullptr && buffer_rows_ > 1) {
      // Batched probes with prefetch pipelining (the joinbuffer payoff).
      jobs_.clear();
      jobs_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        jobs_[i].key = IndexedTable::KissKeyOf(
            (*rows)[i * width_ + assist.probe_pos]);
      }
      kiss->BatchLookup(jobs_);
      for (size_t i = 0; i < n; ++i) {
        if (!jobs_[i].found) continue;
        const uint64_t* row = rows->data() + i * width_;
        assist.side.ForEachIn(jobs_[i].values,
                              [&](uint64_t v) { expand(row, v); });
      }
    } else if (kiss != nullptr) {
      // Unbuffered point probes (joinbuffer size 1, the "none" setting).
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* row = rows->data() + i * width_;
        KissTree::ValueRef values;
        if (!kiss->Lookup(IndexedTable::KissKeyOf(row[assist.probe_pos]),
                          &values)) {
          continue;
        }
        assist.side.ForEachIn(values, [&](uint64_t v) { expand(row, v); });
      }
    } else if (buffer_rows_ > 1) {
      // Prefix-tree assist, batched: the encoded probes walk the tree
      // level-synchronously with software prefetching (§2.3,
      // Algorithm 1), the same joinbuffer payoff the KISS probes get.
      const PrefixTree* prefix = assist.side.prefix();
      prefix_jobs_.clear();
      prefix_jobs_.resize(n);
      prefix_keys_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* row = rows->data() + i * width_;
        prefix_keys_[i].clear();
        prefix_keys_[i].AppendI64(Int64FromSlot(row[assist.probe_pos]));
        prefix_jobs_[i].key = prefix_keys_[i].data();
      }
      prefix->BatchLookup(prefix_jobs_);
      for (size_t i = 0; i < n; ++i) {
        if (prefix_jobs_[i].result == nullptr) continue;
        const uint64_t* row = rows->data() + i * width_;
        assist.side.ForEachIn(
            KissTree::ValueRef(prefix->ValuesOf(prefix_jobs_[i].result)),
            [&](uint64_t v) { expand(row, v); });
      }
    } else {
      // Prefix-tree assist: encoded single-attribute point probes.
      const PrefixTree* prefix = assist.side.prefix();
      KeyBuf key;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* row = rows->data() + i * width_;
        key.clear();
        key.AppendI64(Int64FromSlot(row[assist.probe_pos]));
        const ValueList* values = prefix->Lookup(key.data());
        if (values == nullptr) continue;
        assist.side.ForEachIn(KissTree::ValueRef(values),
                              [&](uint64_t v) { expand(row, v); });
      }
    }
    rows->swap(next_stage_);
    funnel_[a].rows_out += rows->size() / width_;
  }
  materialize_ms_ += phase.ElapsedMs();

  phase.Restart();
  size_t n = rows->size() / width_;
  inserted_rows_ += n;
  const bool aggregating = !key_positions_.empty();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row = rows->data() + i * width_;
    if (aggregating) {
      for (size_t k = 0; k < key_positions_.size(); ++k) {
        key_slots_[k] = row[key_positions_[k]];
      }
      output_->InsertAggregated(key_slots_.data(), row);
    } else {
      output_->Insert(row);
    }
  }
  index_ms_ += phase.ElapsedMs();
  candidates_.clear();
}

// ---- residual loops ----------------------------------------------------------

namespace {

template <Residual::Cmp kCmp>
inline bool Passes(int64_t v, int64_t a, int64_t b) {
  if constexpr (kCmp == Residual::Cmp::kEq) return v == a;
  if constexpr (kCmp == Residual::Cmp::kNe) return v != a;
  if constexpr (kCmp == Residual::Cmp::kLt) return v < a;
  if constexpr (kCmp == Residual::Cmp::kLe) return v <= a;
  if constexpr (kCmp == Residual::Cmp::kGt) return v > a;
  if constexpr (kCmp == Residual::Cmp::kGe) return v >= a;
  if constexpr (kCmp == Residual::Cmp::kBetween) return (v >= a) & (v <= b);
  return false;
}

}  // namespace

template <Residual::Cmp kCmp, bool kHeap>
size_t ResidualLoop::Range(const ResidualLoop& loop, uint64_t first,
                           size_t n, uint64_t* sel) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t o = first + i;
    sel[k] = o;
    k += Passes<kCmp>(loop.Read<kHeap>(o), loop.a_, loop.b_);
  }
  return k;
}

template <Residual::Cmp kCmp, bool kHeap>
size_t ResidualLoop::Selection(const ResidualLoop& loop, uint64_t* sel,
                               size_t n) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t o = sel[i];
    sel[k] = o;
    k += Passes<kCmp>(loop.Read<kHeap>(o), loop.a_, loop.b_);
  }
  return k;
}

template <Residual::Cmp kCmp, bool kHeap>
void ResidualLoop::Use() {
  range_ = &Range<kCmp, kHeap>;
  selection_ = &Selection<kCmp, kHeap>;
}

template <bool kHeap>
void ResidualLoop::Pick(Residual::Cmp cmp) {
  using C = Residual::Cmp;
  switch (cmp) {
    case C::kEq: return Use<C::kEq, kHeap>();
    case C::kNe: return Use<C::kNe, kHeap>();
    case C::kLt: return Use<C::kLt, kHeap>();
    case C::kLe: return Use<C::kLe, kHeap>();
    case C::kGt: return Use<C::kGt, kHeap>();
    case C::kGe: return Use<C::kGe, kHeap>();
    case C::kBetween: return Use<C::kBetween, kHeap>();
  }
}

ResidualLoop::ResidualLoop(const BoundResidual& bound)
    : a_(bound.residual.a),
      b_(bound.residual.b),
      column_(bound.accessor.heap_column()),
      stride_(bound.accessor.heap_stride()),
      accessor_(bound.accessor) {
  if (column_ != nullptr) {
    Pick<true>(bound.residual.cmp);
  } else {
    Pick<false>(bound.residual.cmp);
  }
}

// ---- the selection scan ---------------------------------------------------------

SelectionScan::SelectionScan(const BaseIndex& index, const KeyPredicate& pred,
                             const BoundSide& side,
                             const std::vector<BoundResidual>& residuals)
    : side_(side), residuals_(residuals) {
  const bool clustered = index.clustered();
  // Keys are visited in ascending order, so a range's runs coalesce into
  // one.
  auto add = [&](const KissTree::ValueRef& entry) {
    if (!clustered) {
      entries_.push_back(entry);
      slices_.Add(entry.size(), /*grain=*/entry.size());
      return;
    }
    const BaseIndex::Run run = index.RunOf(entry);
    if (!runs_.empty() && runs_.back().end == run.begin) {
      runs_.back().end = run.end;
    } else {
      runs_.push_back(run);
    }
  };
  switch (pred.kind) {
    case KeyPredicate::Kind::kPoint:
      index.ForEachMatchEntry(SlotFromInt64(pred.point), add);
      break;
    case KeyPredicate::Kind::kRange:
      index.ForEachEntryInRange(SlotFromInt64(pred.lo), SlotFromInt64(pred.hi),
                                add);
      break;
    case KeyPredicate::Kind::kIn:
      for (int64_t point : pred.in_points) {
        index.ForEachMatchEntry(SlotFromInt64(point), add);
      }
      break;
    case KeyPredicate::Kind::kAll:
      if (!clustered) {
        index.ForEachEntry(add);
      } else if (index.num_rows() > 0) {
        runs_.push_back({0, index.num_rows()});
      }
      break;
  }
  if (!clustered) return;
  for (const BaseIndex::Run& run : runs_) slices_.Add(run.size());
  loops_.reserve(residuals.size());
  for (const BoundResidual& r : residuals) loops_.emplace_back(r);
}

void SelectionScan::ScanUnits(ScanSink* sink, uint64_t begin,
                              uint64_t end) const {
  ScanTimer timer(sink);
  slices_.ForEachPiece(begin, end, [&](size_t item, uint64_t lo, uint64_t hi) {
    if (!entries_.empty()) {  // one chunk: lo == 0
      entries_[item].ForEach([&](uint64_t value) {
        sink->cancel.Tick();
        StageIfQualifies(side_, residuals_, sink, value);
      });
      return;
    }
    ScanOrdinals(sink, runs_[item].begin + lo, runs_[item].begin + hi);
  });
}

void SelectionScan::ScanOrdinals(ScanSink* sink, uint64_t begin,
                                 uint64_t end) const {
  uint64_t sel[kBlock];
  for (uint64_t first = begin; first < end; first += kBlock) {
    const size_t n = static_cast<size_t>(std::min<uint64_t>(kBlock, end - first));
    sink->cancel.Tick(static_cast<uint32_t>(n));
    if (loops_.empty()) {
      for (size_t i = 0; i < n; ++i) Emit(sink, first + i);
      continue;
    }
    size_t k = loops_[0].FilterRange(first, n, sel);
    for (size_t r = 1; r < loops_.size() && k > 0; ++r) {
      k = loops_[r].FilterSelection(sel, k);
    }
    for (size_t i = 0; i < k; ++i) Emit(sink, sel[i]);
  }
}

size_t SelectionScan::operator()(const engine::MorselSite* site,
                                 std::vector<ScanSink>& sinks) const {
  if (site == nullptr) {
    ScanUnits(&sinks[0], 0, slices_.total());
    return 0;
  }
  return engine::RunSliceMorsels(
      *site, slices_, [&](size_t w, uint64_t begin, uint64_t end) {
        ScanUnits(&sinks[w], begin, end);
      });
}

void FillOutputStats(const IndexedTable& table, OperatorStats* stats) {
  stats->output_tuples = table.num_tuples();
  stats->output_keys = table.num_keys();
  stats->output_bytes = table.MemoryUsage();
  std::string desc =
      table.kind() == IndexedTable::Kind::kKiss ? "kiss(" : "prefix(";
  const Schema& schema = table.schema();
  const auto& key_positions = table.key_column_positions();
  for (size_t i = 0; i < key_positions.size(); ++i) {
    if (i > 0) desc += ",";
    desc += schema.column(key_positions[i]).name;
  }
  desc += table.aggregated() ? ") aggregated" : ")";
  stats->output_desc = desc;
}

}  // namespace qppt
