// Shared building blocks for QPPT plan operators: input-side references,
// bound column access, predicate descriptors, the candidate pipeline, and
// RunScan — the one serial-or-parallel runner of the scan operators.

#ifndef QPPT_CORE_OPERATORS_COMMON_H_
#define QPPT_CORE_OPERATORS_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/base_index.h"
#include "core/indexed_table.h"
#include "core/plan.h"
#include "core/stats.h"
#include "engine/parallel_ops.h"
#include "util/cancel.h"
#include "util/status.h"

namespace qppt {

// Refers to one operator input: either a base index in the database or an
// intermediate indexed table in a context slot.
struct SideRef {
  enum class Kind : uint8_t { kBaseIndex, kSlot };
  Kind kind = Kind::kBaseIndex;
  std::string name;

  static SideRef Base(std::string index_name) {
    return {Kind::kBaseIndex, std::move(index_name)};
  }
  static SideRef Slot(std::string slot_name) {
    return {Kind::kSlot, std::move(slot_name)};
  }
};

// A bound input side: index handles plus resolved accessors for the subset
// of columns the operator carries.
class BoundSide {
 public:
  static Result<BoundSide> Bind(const ExecContext& ctx, const SideRef& ref,
                                const std::vector<std::string>& columns);

  bool is_base() const { return base_ != nullptr; }
  const BaseIndex* base() const { return base_; }
  const IndexedTable* intermediate() const { return inter_; }
  const KissTree* kiss() const {
    return is_base() ? base_->kiss() : inter_->kiss();
  }
  const PrefixTree* prefix() const {
    return is_base() ? base_->prefix() : inter_->prefix();
  }
  bool is_kiss() const { return kiss() != nullptr; }

  size_t num_columns() const { return defs_.size(); }
  const std::vector<ColumnDef>& column_defs() const { return defs_; }

  // Copies the bound columns of the tuple behind index value `value` into
  // `dst` (num_columns() slots).
  void Fill(uint64_t value, uint64_t* dst) const {
    if (is_base()) {
      for (size_t i = 0; i < base_accessors_.size(); ++i) {
        dst[i] = base_accessors_[i].Get(value);
      }
    } else {
      const uint64_t* tuple = inter_->Tuple(value);
      for (size_t i = 0; i < inter_positions_.size(); ++i) {
        dst[i] = tuple[inter_positions_[i]];
      }
    }
  }

  uint64_t num_input_tuples() const {
    return is_base() ? base_->num_rows() : inter_->num_tuples();
  }

  // True if the row behind index value `value` is visible at the query
  // snapshot. Always true for non-versioned inputs (plain base indexes
  // and intermediates) — one well-predicted branch on the hot path. Live
  // indexes retain superseded and uncommitted version rows; this is the
  // single filter that turns their scans into snapshot reads.
  bool Visible(uint64_t value) const {
    return mvcc_ == nullptr ||
           mvcc_->RidVisibleAt(base_->RidOf(value), read_ts_);
  }

 private:
  const BaseIndex* base_ = nullptr;
  const IndexedTable* inter_ = nullptr;
  const MvccTable* mvcc_ = nullptr;  // non-null iff bound to a live index
  Timestamp read_ts_ = 0;
  std::vector<BaseIndex::Accessor> base_accessors_;
  std::vector<size_t> inter_positions_;
  std::vector<ColumnDef> defs_;
};

// Predicate on the (single-column) key of a base index.
struct KeyPredicate {
  enum class Kind : uint8_t { kAll, kPoint, kRange, kIn };
  Kind kind = Kind::kAll;
  int64_t point = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<int64_t> in_points;  // kIn: one point lookup per entry

  static KeyPredicate All() { return {}; }
  static KeyPredicate Point(int64_t v) {
    return {Kind::kPoint, v, 0, 0, {}};
  }
  static KeyPredicate Range(int64_t lo, int64_t hi) {
    return {Kind::kRange, 0, lo, hi, {}};
  }
  static KeyPredicate In(std::vector<int64_t> points) {
    return {Kind::kIn, 0, 0, 0, std::move(points)};
  }

  // True if key value `v` qualifies (the scan-side twin of the index
  // lookups above; the baseline engines filter columns with it).
  bool Eval(int64_t v) const {
    switch (kind) {
      case Kind::kAll:
        return true;
      case Kind::kPoint:
        return v == point;
      case Kind::kRange:
        return v >= lo && v <= hi;
      case Kind::kIn:
        return std::find(in_points.begin(), in_points.end(), v) !=
               in_points.end();
    }
    return false;
  }
};

// Residual comparison evaluated per qualifying tuple (conjunctive with the
// key predicate and with each other). Values are int64 slots — dictionary
// codes for string columns.
struct Residual {
  enum class Cmp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };
  std::string column;
  Cmp cmp = Cmp::kEq;
  int64_t a = 0;
  int64_t b = 0;  // kBetween upper bound (inclusive)

  static Residual Eq(std::string col, int64_t v) {
    return {std::move(col), Cmp::kEq, v, 0};
  }
  static Residual Ne(std::string col, int64_t v) {
    return {std::move(col), Cmp::kNe, v, 0};
  }
  static Residual Lt(std::string col, int64_t v) {
    return {std::move(col), Cmp::kLt, v, 0};
  }
  static Residual Le(std::string col, int64_t v) {
    return {std::move(col), Cmp::kLe, v, 0};
  }
  static Residual Gt(std::string col, int64_t v) {
    return {std::move(col), Cmp::kGt, v, 0};
  }
  static Residual Ge(std::string col, int64_t v) {
    return {std::move(col), Cmp::kGe, v, 0};
  }
  static Residual Between(std::string col, int64_t lo, int64_t hi) {
    return {std::move(col), Cmp::kBetween, lo, hi};
  }

  bool Eval(int64_t v) const {
    switch (cmp) {
      case Cmp::kEq:
        return v == a;
      case Cmp::kNe:
        return v != a;
      case Cmp::kLt:
        return v < a;
      case Cmp::kLe:
        return v <= a;
      case Cmp::kGt:
        return v > a;
      case Cmp::kGe:
        return v >= a;
      case Cmp::kBetween:
        return v >= a && v <= b;
    }
    return false;
  }
};

// A residual bound to a base-index accessor.
struct BoundResidual {
  Residual residual;
  BaseIndex::Accessor accessor;

  bool Eval(uint64_t value) const {
    return residual.Eval(Int64FromSlot(accessor.Get(value)));
  }
};

Result<std::vector<BoundResidual>> BindResiduals(
    const BaseIndex& index, const std::vector<Residual>& residuals);

// Describes the output of an operator: slot name, key columns, and
// (optionally) aggregation. Without aggregation the output table carries
// all columns the operator assembles; with aggregation it carries the
// group keys plus the aggregate results.
struct OutputSpec {
  std::string slot;
  std::vector<std::string> key_columns;
  AggSpec agg;  // empty -> plain indexed table
};

// Builds the operator's output table for an assembled-tuple schema.
Result<std::unique_ptr<IndexedTable>> MakeOutputTable(
    const OutputSpec& spec, const Schema& assembled,
    const IndexedTable::Options& options);

// Fills an OperatorStats entry from a finished output table.
void FillOutputStats(const IndexedTable& table, OperatorStats* stats);

// ---- assisting indexes & the candidate pipeline (§4.2) -----------------------

// An assisting index of a composed join: probed per candidate combination
// with a key taken from the assembled tuple; a miss drops the combination,
// a hit appends the assist's carried columns (dimension lookup).
struct AssistSpec {
  SideRef index;
  std::string probe_column;
  std::vector<std::string> carry_columns;  // {} = pure semi-join
};

struct BoundAssist {
  std::string name;  // the assisting index or slot (funnel label)
  BoundSide side;
  size_t probe_pos = 0;     // position of the probe key in the assembled row
  size_t carry_offset = 0;  // where carried columns land in the row
};

// Binds `assists` against the growing assembled-tuple layout `defs`
// (extended in place with each assist's carried columns).
Result<std::vector<BoundAssist>> BindAssists(
    const ExecContext& ctx, const std::vector<AssistSpec>& assists,
    std::vector<ColumnDef>* defs);

// What a CandidatePipeline is built from, apart from its output table:
// the bound assists (none for a plain selection), the assembled row
// width, the output key positions and the joinbuffer size.
struct PipelineShape {
  std::vector<BoundAssist> assists;
  size_t row_width = 0;
  std::vector<size_t> key_positions;  // empty = plain output
  size_t buffer_rows = 1;
};

// Stages assembled candidate rows, pushes them through the assist probe
// pipeline in joinbuffer-sized batches (§2.3 batch lookups), and inserts
// survivors into the output index (aggregating on insert when the output
// table aggregates).
class CandidatePipeline {
 public:
  CandidatePipeline(const PipelineShape& shape, IndexedTable* output);

  // Reserves one zeroed assembled row; the caller fills the main-side
  // columns, then calls MaybeProcess() (which may invalidate the pointer).
  uint64_t* AddRow();
  void MaybeProcess() {
    if (candidates_.size() >= buffer_rows_ * width_) Process();
  }
  // Flushes any staged rows. Call exactly once after the input scan.
  void Finish() { Process(); }

  double materialize_ms() const { return materialize_ms_; }
  double index_ms() const { return index_ms_; }

  // Adds this pipeline's funnel counts to `stats`.
  void AddFunnelTo(OperatorStats* stats) const;

 private:
  void Process();

  std::vector<BoundAssist> assists_;
  size_t width_;
  IndexedTable* output_;
  std::vector<size_t> key_positions_;  // empty = plain output
  std::vector<uint64_t> key_slots_;
  size_t buffer_rows_;
  std::vector<uint64_t> candidates_;
  std::vector<uint64_t> next_stage_;
  std::vector<KissTree::LookupJob> jobs_;
  std::vector<PrefixTree::LookupJob> prefix_jobs_;
  std::vector<KeyBuf> prefix_keys_;
  double materialize_ms_ = 0;
  double index_ms_ = 0;
  uint64_t candidate_rows_ = 0;
  std::vector<AssistFunnel> funnel_;  // one per assist
  uint64_t inserted_rows_ = 0;
};

// ---- the scan runner --------------------------------------------------------

// One worker's end of an operator scan (RunScan): the candidate pipeline
// feeding that worker's output table, and the stride-based cancellation
// poll the scan ticks once per enumerated tuple. Cache-line aligned, so
// neighbouring workers' countdowns never share a line.
struct alignas(64) ScanSink {
  ScanSink(const PipelineShape& shape, IndexedTable* output,
           const CancelToken* token)
      : pipeline(shape, output), cancel(token) {}

  CandidatePipeline pipeline;
  CancelTicker cancel;
};

// Runs the input scan of a scan operator (selection, select-join, star
// join) into `output`, serially or as morsels on the query's worker pool.
// `scan(site, sinks)` is the operator's scan. Called with site == nullptr
// it scans its whole input into sinks[0] and returns 0; otherwise it
// hands its morsel body to an engine driver on *site — worker w feeding
// sinks[w] — and returns the driver's morsel count. RunScan forks when
// the context has a pool, knobs().threads > 1, and `split_tuples` (the
// size of the input the scan splits; 0 = it cannot split) reaches
// engine::kMinParallelInputTuples; each worker then fills a private
// partial output, merged into `output` at the end. Both runs poll the
// query's cancel token: the sinks' tickers every kCancelStride tuples,
// the site (parallel only) before every morsel and merge shard. Fills
// the scan fields of `stats`: morsels, materialize_ms and index_ms (of
// the slowest worker — the critical path, comparable to total_ms),
// merge_ms and merge_morsels, and the candidate funnel summed over the
// workers.
template <typename Scan>
void RunScan(const ExecContext& ctx, const std::string& label,
             const PipelineShape& shape, uint64_t split_tuples,
             IndexedTable* output, OperatorStats* stats, Scan&& scan) {
  std::vector<ScanSink> sinks;
  auto finish = [&] {
    for (ScanSink& sink : sinks) {
      sink.pipeline.Finish();
      stats->materialize_ms =
          std::max(stats->materialize_ms, sink.pipeline.materialize_ms());
      stats->index_ms = std::max(stats->index_ms, sink.pipeline.index_ms());
      sink.pipeline.AddFunnelTo(stats);
    }
  };
  if (ctx.worker_pool() == nullptr || ctx.knobs().threads <= 1 ||
      split_tuples < engine::kMinParallelInputTuples) {
    sinks.emplace_back(shape, output, ctx.cancel());
    scan(nullptr, sinks);
    finish();
    return;
  }
  engine::MorselSite site(ctx, label);
  const size_t workers = site.pool->num_workers();
  engine::PartialOutputs partials(*output, workers);
  sinks.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    sinks.emplace_back(shape, partials.worker(w), ctx.cancel());
  }
  stats->morsels = scan(&site, sinks);
  finish();
  Timer merge;
  stats->merge_morsels = partials.MergeInto(site, output);
  stats->merge_ms = merge.ElapsedMs();
}

// The selection scan of a base index, shared by SelectionOp and
// SelectJoinOp (§4.1, §4.3): each value matching the key predicate that
// is visible at the query snapshot and passes the residuals becomes a
// candidate row holding `side`'s columns. A KISS index under a range or
// all predicate splits into value morsels (engine::RunKissValueMorsels);
// other predicates and prefix-tree indexes scan whole. Pass the object
// itself to RunScan as the scan.
class SelectionScan {
 public:
  SelectionScan(const BaseIndex& index, const KeyPredicate& pred,
                const BoundSide& side,
                const std::vector<BoundResidual>& residuals)
      : index_(index), pred_(pred), side_(side), residuals_(residuals) {}

  // RunScan's split_tuples: the index size when the scan can split.
  uint64_t split_tuples() const;

  // Stages `value` into `sink` if it qualifies (the caller ticks).
  void Stage(ScanSink* sink, uint64_t value) const {
    if (!side_.Visible(value)) return;  // MVCC snapshot filter
    for (const auto& r : residuals_) {
      if (!r.Eval(value)) return;
    }
    uint64_t* row = sink->pipeline.AddRow();
    side_.Fill(value, row);
    sink->pipeline.MaybeProcess();
  }

  size_t operator()(const engine::MorselSite* site,
                    std::vector<ScanSink>& sinks) const;

 private:
  const BaseIndex& index_;
  const KeyPredicate& pred_;
  const BoundSide& side_;
  const std::vector<BoundResidual>& residuals_;
};

}  // namespace qppt

#endif  // QPPT_CORE_OPERATORS_COMMON_H_
