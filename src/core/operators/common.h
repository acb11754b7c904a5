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

  // The index values behind one entry of this side's tree: a clustered
  // base key's ordinal run (BaseIndex::ForEachIn), else the stored values
  // (rids, or an intermediate's tuple ids).
  template <typename F>
  void ForEachIn(const KissTree::ValueRef& entry, F&& fn) const {
    if (is_base()) {
      base_->ForEachIn(entry, fn);
    } else {
      entry.ForEach(fn);
    }
  }
  uint64_t CountIn(const KissTree::ValueRef& entry) const {
    return is_base() ? base_->CountIn(entry) : entry.size();
  }
  uint64_t FirstIn(const KissTree::ValueRef& entry) const {
    return is_base() ? base_->FirstIn(entry) : entry.front();
  }

  // The clustered base index behind this side, or nullptr.
  const BaseIndex* clustered_base() const {
    return is_base() && base_->clustered() ? base_ : nullptr;
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

// A residual compiled for the clustered selection scan: one typed,
// branch-free loop per (column kind, Residual::Cmp) that narrows a
// selection vector of heap ordinals (MonetDB/X100-style
// vector-at-a-time evaluation over the key-ordered heap). The column is
// read straight from the heap when the accessor has a heap column, else
// through the accessor.
class ResidualLoop {
 public:
  explicit ResidualLoop(const BoundResidual& bound);

  // Writes the ordinals of [first, first + n) that pass to sel[0..);
  // returns how many passed.
  size_t FilterRange(uint64_t first, size_t n, uint64_t* sel) const {
    return range_(*this, first, n, sel);
  }
  // Narrows sel[0..n) in place to the ordinals that pass; returns how
  // many remain.
  size_t FilterSelection(uint64_t* sel, size_t n) const {
    return selection_(*this, sel, n);
  }

 private:
  using RangeFn = size_t (*)(const ResidualLoop&, uint64_t, size_t,
                             uint64_t*);
  using SelectionFn = size_t (*)(const ResidualLoop&, uint64_t*, size_t);

  template <Residual::Cmp kCmp, bool kHeap>
  static size_t Range(const ResidualLoop& loop, uint64_t first, size_t n,
                      uint64_t* sel);
  template <Residual::Cmp kCmp, bool kHeap>
  static size_t Selection(const ResidualLoop& loop, uint64_t* sel,
                          size_t n);
  template <Residual::Cmp kCmp, bool kHeap>
  void Use();
  template <bool kHeap>
  void Pick(Residual::Cmp cmp);

  template <bool kHeap>
  int64_t Read(uint64_t ordinal) const {
    if constexpr (kHeap) {
      return Int64FromSlot(column_[ordinal * stride_]);
    } else {
      return Int64FromSlot(accessor_.Get(ordinal));
    }
  }

  int64_t a_;
  int64_t b_;
  const uint64_t* column_;  // heap column, or nullptr
  size_t stride_;
  BaseIndex::Accessor accessor_;
  RangeFn range_ = nullptr;
  SelectionFn selection_ = nullptr;
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
// feeding that worker's output table, the stride-based cancellation poll
// the scan ticks once per enumerated tuple, and the worker's scan time.
// Cache-line aligned, so neighbouring workers' countdowns never share a
// line.
struct alignas(64) ScanSink {
  ScanSink(const PipelineShape& shape, IndexedTable* output,
           const CancelToken* token)
      : pipeline(shape, output), cancel(token) {}

  double pipeline_ms() const {
    return pipeline.materialize_ms() + pipeline.index_ms();
  }

  CandidatePipeline pipeline;
  CancelTicker cancel;
  // Wall time of this worker's scan loops (key matching, residual loops,
  // fills), pipeline work excluded — see ScanTimer.
  double scan_ms = 0;
};

// Adds the wall time of its scope to sink->scan_ms, minus the time the
// sink's candidate pipeline (assist probes, output inserts) spent inside
// it, so scan_ms, materialize_ms and index_ms add up without overlap.
class ScanTimer {
 public:
  explicit ScanTimer(ScanSink* sink)
      : sink_(sink), pipeline_ms_(sink->pipeline_ms()) {}
  ~ScanTimer() {
    sink_->scan_ms +=
        timer_.ElapsedMs() - (sink_->pipeline_ms() - pipeline_ms_);
  }
  ScanTimer(const ScanTimer&) = delete;
  ScanTimer& operator=(const ScanTimer&) = delete;

 private:
  ScanSink* sink_;
  double pipeline_ms_;
  Timer timer_;
};

// Runs the input scan of a scan operator (selection, select-join, star
// join) into `output`, serially or as morsels on the query's worker pool.
// `scan(site, sinks)` is the operator's scan. Called with site == nullptr
// it scans its whole input into sinks[0] and returns 0; otherwise it
// hands its morsel body to an engine driver on *site — worker w feeding
// sinks[w] — and returns the driver's morsel count. RunScan forks when
// the context has a pool, knobs().threads > 1, and `split_tuples` (the
// qualifying work the scan can run in parallel — resolved index values
// or emitted pairs beside its largest uncut chunk,
// engine::SliceMap::splittable; 0 = it cannot split) reaches
// engine::kMinParallelInputTuples; each
// worker then fills a private partial output, merged into `output` at
// the end. Both runs poll the query's cancel token: the sinks' tickers
// every kCancelStride tuples, the site (parallel only) before every
// morsel and merge shard. Fills the scan fields of `stats`: morsels,
// scan_ms (added to what the operator already put there),
// materialize_ms and index_ms (each of the slowest worker — the critical
// path, comparable to total_ms), merge_ms and merge_morsels, and the
// candidate funnel summed over the workers.
template <typename Scan>
void RunScan(const ExecContext& ctx, const std::string& label,
             const PipelineShape& shape, uint64_t split_tuples,
             IndexedTable* output, OperatorStats* stats, Scan&& scan) {
  std::vector<ScanSink> sinks;
  auto finish = [&] {
    double scan_ms = 0;
    for (ScanSink& sink : sinks) {
      sink.pipeline.Finish();
      scan_ms = std::max(scan_ms, sink.scan_ms);
      stats->materialize_ms =
          std::max(stats->materialize_ms, sink.pipeline.materialize_ms());
      stats->index_ms = std::max(stats->index_ms, sink.pipeline.index_ms());
      sink.pipeline.AddFunnelTo(stats);
    }
    stats->scan_ms += scan_ms;
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

// Stages index value `value` of `side` into `sink` as a candidate row
// if it is visible at the query snapshot and passes `residuals` (the
// per-value selection path; the caller ticks).
inline void StageIfQualifies(const BoundSide& side,
                             const std::vector<BoundResidual>& residuals,
                             ScanSink* sink, uint64_t value) {
  if (!side.Visible(value)) return;  // MVCC snapshot filter
  for (const auto& r : residuals) {
    if (!r.Eval(value)) return;
  }
  uint64_t* row = sink->pipeline.AddRow();
  side.Fill(value, row);
  sink->pipeline.MaybeProcess();
}

// The selection scan of a base index, shared by SelectionOp and
// SelectJoinOp (§4.1, §4.3): each value matching the key predicate that
// is visible at the query snapshot and passes the residuals becomes a
// candidate row holding `side`'s columns. Pass the object itself to
// RunScan as the scan, with split_tuples() as its split size. At
// construction the key predicate resolves to items of an
// engine::SliceMap, one unit per qualifying index value; a parallel run
// cuts them into fixed-size slices (engine::RunSliceMorsels).
//
// On a clustered index the items are ordinal runs of the heap (adjacent
// runs coalesce, so a range is one run). The scan walks them kBlock
// ordinals at a time: every residual runs as one ResidualLoop over its
// heap column, narrowing a selection vector, and only the survivors are
// filled into the pipeline. A slice may cut a run anywhere. Live indexes
// are never clustered, so these slices need no MVCC filter.
//
// Secondary and live indexes keep the per-value path: the items are the
// matching keys' tree entries, each value goes through StageIfQualifies,
// and an entry is one chunk, scanned whole by the slice that holds its
// first value (a live entry may grow while it is scanned, so it is not
// cut at positions). A predicate that matches one key of such an index
// therefore cannot split and runs serially.
class SelectionScan {
 public:
  static constexpr size_t kBlock = 1024;

  SelectionScan(const BaseIndex& index, const KeyPredicate& pred,
                const BoundSide& side,
                const std::vector<BoundResidual>& residuals);

  // RunScan's split_tuples: the resolved index values that can run
  // beside the largest uncut entry (engine::SliceMap::splittable).
  uint64_t split_tuples() const { return slices_.splittable(); }

  size_t operator()(const engine::MorselSite* site,
                    std::vector<ScanSink>& sinks) const;

 private:
  void Emit(ScanSink* sink, uint64_t value) const {
    uint64_t* row = sink->pipeline.AddRow();
    side_.Fill(value, row);
    sink->pipeline.MaybeProcess();
  }
  // Scans the units [begin, end) of slices_.
  void ScanUnits(ScanSink* sink, uint64_t begin, uint64_t end) const;
  // Filters and fills the heap ordinals [begin, end).
  void ScanOrdinals(ScanSink* sink, uint64_t begin, uint64_t end) const;

  const BoundSide& side_;
  const std::vector<BoundResidual>& residuals_;
  // The resolved items — runs on a clustered index, else tree entries —
  // and their slice map; the compiled residuals (clustered only).
  std::vector<BaseIndex::Run> runs_;
  std::vector<KissTree::ValueRef> entries_;
  engine::SliceMap slices_;
  std::vector<ResidualLoop> loops_;
};

}  // namespace qppt

#endif  // QPPT_CORE_OPERATORS_COMMON_H_
