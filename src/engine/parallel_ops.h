// Parallel drivers for the hot operators (engine layer, §7).
//
// The pattern shared by every parallel operator: resolve the input to
// its qualifying work, cut that work into morsels with the one
// ordinal-slice splitter (SliceMap / RunSliceMorsels below), run the
// operator's tuple loop per morsel on the worker pool with *per-worker*
// partial output tables, and merge the partials into the real output
// once at the end. Both output shapes merge key-range-partitioned across
// the pool (plain tables re-insert tuples at pre-assigned row ids;
// aggregated tables fold accumulators via BoundAggSpec::MergeRange) —
// see PartialOutputs::MergeInto. The input trees are never mutated, so
// concurrent readers need no synchronization.
//
// Operators do not call these drivers on their own: the one scan runner,
// RunScan (core/operators/common.h), decides serial-or-parallel, builds
// the operator's MorselSite from its ExecContext, owns the per-worker
// partials and pipelines, and hands the site to the drivers below.
//
// Split counts are adaptive: each driver reports its batch's per-morsel
// wall times to its operator site's MorselTuner
// (WorkerPool::TunerFor, engine/scheduler.h), which refines the split
// when one straggler morsel dominates and coarsens it when scheduling
// overhead does — per site, so interleaved queries with different
// morsel cost profiles keep independent feedback loops.

#ifndef QPPT_ENGINE_PARALLEL_OPS_H_
#define QPPT_ENGINE_PARALLEL_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/indexed_table.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace qppt {
class ExecContext;  // core/plan.h
}  // namespace qppt

namespace qppt::engine {

// Scans whose qualifying work (RunScan's split_tuples: resolved index
// values or emitted pairs that can run in parallel) is smaller than
// this run serially — forking costs more than it saves on a few
// thousand tuples. It also sets RunSliceMorsels' smallest morsel.
inline constexpr size_t kMinParallelInputTuples = 4096;

// Aggregated outputs whose partials hold fewer group entries than this
// (summed across workers) merge serially — the accumulator fold is
// per-group work, so a handful of groups cannot amortize the fork-join.
inline constexpr size_t kMinParallelAggGroups = 64;

// Everything a parallel driver needs to know about its call site: which
// pool to fork on, which operator-site tuner to feed morsel times to,
// where to record trace spans (and under what stage label), and which
// token to poll for cancellation. Built only from the query's
// ExecContext, so every parallel run carries the query's cancel token.
struct MorselSite {
  // The site of stage `label` in the query running on `ctx`: the
  // context's pool, that pool's tuner for `label` (WorkerPool::TunerFor),
  // the query trace and the query cancel token. `ctx` must have a pool.
  MorselSite(const ExecContext& ctx, std::string_view label);

  WorkerPool* const pool;
  const std::shared_ptr<MorselTuner> tuner;  // held: TunerFor may evict
  obs::QueryTrace* const trace;              // nullptr = tracing off
  const std::string label;                   // stage label for trace spans
  // Query cancellation token (nullptr = not cancellable). Polled once
  // per morsel and per merge shard — the morsel boundary is the drivers'
  // cancellation granularity; scans inside a morsel tick their own
  // CancelTicker.
  const CancelToken* const cancel;
};

// Runs fn(worker, morsel) for every morsel, recording per-morsel wall
// times and feeding them to the site's tuner; when the site carries a
// trace, every morsel also records a kMorsel span on its worker's lane.
// When the site carries a cancel token, it is polled before each morsel
// body: a cancelled/expired query throws CancelledException, which the
// pool converts into skip-remaining-morsels and rethrows to the
// submitter (Plan::Run turns it back into a Status).
template <typename Fn>
void RunTimedMorsels(const MorselSite& site, size_t count, Fn&& fn) {
  std::vector<double> times(count, 0.0);
  obs::QueryTrace* trace = site.trace;
  const CancelToken* cancel = site.cancel;
  site.pool->Run(count, [&](size_t worker, size_t m) {
    if (cancel != nullptr) {
      Status st = cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(morsel_exec);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    Timer t;
    fn(worker, m);
    times[m] = t.ElapsedMs();
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMorsel, t0,
                    trace->NowUs());
    }
  });
  site.tuner->RecordBatch(&times);
}

// Validators for the merge-range plans below (exposed for tests): true
// iff `ranges` tile a superset of the partials' union key span —
// non-empty, ascending, gap-free, and covering [span_lo, span_hi]. A
// plan that fails this check would silently drop tuples (or leave
// pre-assigned row ids unwritten), so PartialOutputs::MergeInto checks
// it at runtime — in Release builds too — and falls back to the serial
// merge instead of corrupting the output.
namespace merge_detail {
bool KissRangesCoverSpan(const std::vector<IndexedTable::MergeKeyRange>& ranges,
                         uint32_t span_lo, uint32_t span_hi);
bool PrefixRangesCoverSpan(
    const std::vector<IndexedTable::MergeKeyRange>& ranges, size_t key_len,
    const uint8_t* span_lo, const uint8_t* span_hi);
}  // namespace merge_detail

// Per-worker partial outputs of one parallel operator, merged into the
// final table after the fork-join.
class PartialOutputs {
 public:
  PartialOutputs(const IndexedTable& final_table, size_t workers) {
    partials_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      partials_.push_back(final_table.CloneEmpty());
    }
  }

  IndexedTable* worker(size_t w) { return partials_[w].get(); }

  // Serial fallback: re-insert (plain) / accumulator-merge (aggregated)
  // each partial in turn.
  void MergeInto(IndexedTable* final_table) {
    for (auto& partial : partials_) {
      final_table->MergeFrom(*partial);
      partial.reset();  // free per-worker index memory eagerly
    }
  }

  // Key-range-partitioned parallel merge: outputs large enough to
  // amortize the fork-join are merged by range-owning workers — each
  // worker folds ALL partials' tuples (plain) or group accumulators
  // (aggregated) of one disjoint key range into the final table
  // concurrently; small outputs fall back to the serial path above.
  // Plain merges are single-pass: each partial's tuple count (maintained
  // by its build) pre-assigns it a contiguous row-id block, so no
  // separate counting scan runs. A range plan that fails the coverage
  // validation (merge_detail) also falls back to the serial path.
  // When the site carries a trace, every merge shard records a kMerge
  // span under the site's label. Returns the number of merge morsels
  // executed (0 = serial merge).
  size_t MergeInto(const MorselSite& site, IndexedTable* final_table);

  // Test hook: mutates every planned range list before validation, so
  // tests can inject non-covering plans and exercise the runtime
  // fallback. Pass nullptr to clear. Not thread-safe; tests only.
  using PlanMutator = std::function<void(
      std::vector<IndexedTable::MergeKeyRange>*)>;
  static void SetPlanMutatorForTest(PlanMutator mutator);

 private:
  size_t MergePlainInto(const MorselSite& site, IndexedTable* final_table);
  size_t MergeAggInto(const MorselSite& site, IndexedTable* final_table);

  std::vector<std::unique_ptr<IndexedTable>> partials_;
};

// ---- the ordinal-slice splitter -----------------------------------------------
//
// Every scan operator splits its work the same way. It first resolves
// its input to a list of items, each worth a number of units of work in
// scan order — the unit RunScan forks on: a selection's items are the
// ordinal runs its key predicate resolves to (one unit per qualifying
// index value), a star join's the matching key pairs (one unit per
// emitted pair). SliceMap lays the items end to end; a morsel is a
// fixed-size slice of that unit line. An item is cut into chunks of its
// *grain*: a clustered run is cut anywhere (grain 1), a star-join match
// at each ordinal of its clustered fact side, and what cannot be cut
// (a value list of a secondary or live index) is one chunk. A chunk is
// scanned whole by the slice that holds its first unit, so one heavy
// clustered key never holds back a morsel, and the morsels of a batch
// carry the same qualifying work up to one chunk — which keeps the
// site's MorselTuner from reading size differences as skew.
class SliceMap {
 public:
  // Adds an item of `units` units, cut at multiples of `grain` units
  // (grain >= units: the item is one chunk).
  void Add(uint64_t units, uint64_t grain = 1) {
    grain = std::max<uint64_t>(1, std::min(grain, units));
    ends_.push_back(total() + units);
    grains_.push_back(grain);
    max_grain_ = std::max(max_grain_, grain);
  }
  uint64_t total() const { return ends_.empty() ? 0 : ends_.back(); }
  size_t size() const { return ends_.size(); }

  // The units that can run beside the largest chunk: RunScan's
  // split_tuples. A scan whose work sits in one chunk cannot split, so
  // it stays serial.
  uint64_t splittable() const { return total() - max_grain_; }

  // Calls fn(item, lo, hi) for every item with a chunk whose first unit
  // lies in [begin, end), in item order; [lo, hi) are the indexes of
  // those chunks within the item (chunk c covers the item's units
  // [c * grain, (c + 1) * grain); for grain 1, chunks are units).
  template <typename Fn>
  void ForEachPiece(uint64_t begin, uint64_t end, Fn&& fn) const {
    size_t item = static_cast<size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), begin) - ends_.begin());
    for (; item < ends_.size() && begin < end; ++item) {
      const uint64_t item_begin = item == 0 ? 0 : ends_[item - 1];
      const uint64_t stop = std::min(end, ends_[item]);
      const uint64_t g = grains_[item];
      const uint64_t lo = (begin - item_begin + g - 1) / g;
      const uint64_t hi = (stop - item_begin + g - 1) / g;
      if (lo < hi) fn(item, lo, hi);
      begin = stop;
    }
  }

 private:
  std::vector<uint64_t> ends_;    // running unit totals, one per item
  std::vector<uint64_t> grains_;  // chunk size, one per item
  uint64_t max_grain_ = 0;
};

// Cuts the map's units into the site's morsel target of near-equal
// slices and runs fn(worker, begin, end) on the pool for each slice
// [begin, end) of units; the callback walks its slice with
// map.ForEachPiece. A slice holds at least half of
// kMinParallelInputTuples (or the whole map, if smaller), so a scan that
// just reaches the fork threshold still runs two morsels. Returns the number of morsels
// executed (0 = no units). Templated on the callback (rather than
// taking a std::function) so operator call sites never type-erase their
// capture state onto the heap — the driver sits on every parallel
// query's hot path.
template <typename Fn>
size_t RunSliceMorsels(const MorselSite& site, const SliceMap& map,
                       const Fn& fn) {
  const uint64_t total = map.total();
  const size_t target = static_cast<size_t>(std::clamp<uint64_t>(
      total / (kMinParallelInputTuples / 2), 1,
      site.tuner->MorselTarget(site.pool->num_workers())));
  const auto slices = SplitEvenly(total, target);
  if (slices.empty()) return 0;
  RunTimedMorsels(site, slices.size(), [&](size_t worker, size_t m) {
    fn(worker, uint64_t{slices[m].first}, uint64_t{slices[m].second});
  });
  return slices.size();
}

}  // namespace qppt::engine

#endif  // QPPT_ENGINE_PARALLEL_OPS_H_
