#include "engine/parallel_ops.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/plan.h"
#include "util/bits.h"

namespace qppt::engine {

MorselSite::MorselSite(const ExecContext& ctx, std::string_view label)
    : pool(ctx.worker_pool()),
      tuner(pool->TunerFor(label)),
      trace(ctx.trace()),
      label(label),
      cancel(ctx.cancel()) {}

namespace {

// Test-only mutation of planned merge ranges (injects non-covering
// plans); see PartialOutputs::SetPlanMutatorForTest.
PartialOutputs::PlanMutator g_plan_mutator_for_test;

// Bucket-aligned KISS key ranges tiling the union key span of all
// non-empty partials, with the outermost bounds clamped to the exact
// span (so the first/last range workers skip the empty key regions of
// their boundary buckets, and the span end points can be read back off
// ranges.front()/.back() for the key statistics). Bucket alignment
// guarantees no two merge workers ever touch the same level-2 node of
// the destination tree.
std::vector<IndexedTable::MergeKeyRange> PlanKissMergeRanges(
    const std::vector<std::unique_ptr<IndexedTable>>& partials,
    size_t shards) {
  uint32_t lo = std::numeric_limits<uint32_t>::max();
  uint32_t hi = 0;
  size_t l2 = 0;
  for (const auto& p : partials) {
    const KissTree* tree = p->kiss();
    if (tree->empty()) continue;
    lo = std::min(lo, tree->min_key());
    hi = std::max(hi, tree->max_key());
    l2 = tree->level2_bits();
  }
  std::vector<IndexedTable::MergeKeyRange> ranges;
  if (lo > hi) return ranges;  // all partials empty
  uint64_t first_bucket = lo >> l2;
  uint64_t last_bucket = hi >> l2;
  size_t buckets = static_cast<size_t>(last_bucket - first_bucket + 1);
  for (const auto& [begin, end] : SplitEvenly(buckets, shards)) {
    IndexedTable::MergeKeyRange r;
    r.kiss_lo = static_cast<uint32_t>((first_bucket + begin) << l2);
    r.kiss_hi = static_cast<uint32_t>(
        std::min<uint64_t>(((first_bucket + end) << l2) - 1,
                           std::numeric_limits<uint32_t>::max()));
    ranges.push_back(r);
  }
  ranges.front().kiss_lo = lo;
  ranges.back().kiss_hi = hi;
  return ranges;
}

void SetKeyBit(uint8_t* key, size_t bit, bool value) {
  size_t byte = bit >> 3;
  uint8_t mask = static_cast<uint8_t>(0x80 >> (bit & 7));
  if (value) {
    key[byte] |= mask;
  } else {
    key[byte] &= static_cast<uint8_t>(~mask);
  }
}

// Builds an inclusive range bound: the shared prefix of `prefix_key`
// above `bit_off`, fragment `frag` at [bit_off, bit_off + width), and
// all-zeros (lower bound) or all-ones (upper bound) below.
void BuildBoundKey(uint8_t* out, const uint8_t* prefix_key, size_t key_len,
                   size_t bit_off, size_t width, uint32_t frag,
                   bool fill_ones) {
  std::memcpy(out, prefix_key, key_len);
  for (size_t i = 0; i < width; ++i) {
    SetKeyBit(out, bit_off + i, ((frag >> (width - 1 - i)) & 1) != 0);
  }
  for (size_t bit = bit_off + width; bit < key_len * 8; ++bit) {
    SetKeyBit(out, bit, fill_ones);
  }
}

// Adds one to a big-endian `key` of `key_len` bytes in place. Returns
// false on overflow (the key was all-ones).
bool IncrementKey(uint8_t* key, size_t key_len) {
  for (size_t i = key_len; i-- > 0;) {
    if (++key[i] != 0) return true;
  }
  return false;
}

// Fragment-aligned encoded key ranges chopping the union key span of all
// partials at its *branching level* — the first fragment where the union
// min and max keys differ. Order-preserving encodings share long key
// prefixes (e.g. the sign byte of int64 keys), so partitioning any
// higher would yield a single degenerate range. The shared chain above
// the branch is pre-built in the destination (PrepareMergeChain) so
// concurrent workers only read it.
std::vector<IndexedTable::MergeKeyRange> PlanPrefixMergeRanges(
    const std::vector<std::unique_ptr<IndexedTable>>& partials,
    size_t shards, const uint8_t** chain_key, size_t* branch_bit_off,
    const uint8_t** span_lo, const uint8_t** span_hi) {
  const PrefixTree* any = partials.front()->prefix();
  size_t key_len = any->key_len();
  size_t key_bits = key_len * 8;
  size_t kprime = any->config().kprime;
  const uint8_t* min_key = nullptr;
  const uint8_t* max_key = nullptr;
  for (const auto& p : partials) {
    const PrefixTree::ContentNode* mn = p->prefix()->MinContent();
    if (mn == nullptr) continue;
    const PrefixTree::ContentNode* mx = p->prefix()->MaxContent();
    if (min_key == nullptr || CompareKeys(mn->key(), min_key, key_len) < 0) {
      min_key = mn->key();
    }
    if (max_key == nullptr || CompareKeys(mx->key(), max_key, key_len) > 0) {
      max_key = mx->key();
    }
  }
  if (min_key == nullptr ||
      CompareKeys(min_key, max_key, key_len) == 0) {
    return {};  // empty or single-key union: nothing to partition
  }
  size_t bit_off = 0;
  uint32_t frag_lo = 0;
  uint32_t frag_hi = 0;
  size_t width = 0;
  for (;;) {
    width = std::min(kprime, key_bits - bit_off);
    frag_lo = ExtractFragment(min_key, key_len, bit_off, width);
    frag_hi = ExtractFragment(max_key, key_len, bit_off, width);
    if (frag_lo != frag_hi) break;
    bit_off += width;
  }
  *chain_key = min_key;
  *branch_bit_off = bit_off;
  *span_lo = min_key;
  *span_hi = max_key;
  size_t span = static_cast<size_t>(frag_hi) - frag_lo + 1;
  std::vector<IndexedTable::MergeKeyRange> ranges;
  for (const auto& [begin, end] : SplitEvenly(span, shards)) {
    IndexedTable::MergeKeyRange r;
    BuildBoundKey(r.prefix_lo, min_key, key_len, bit_off, width,
                  static_cast<uint32_t>(frag_lo + begin),
                  /*fill_ones=*/false);
    BuildBoundKey(r.prefix_hi, min_key, key_len, bit_off, width,
                  static_cast<uint32_t>(frag_lo + end - 1),
                  /*fill_ones=*/true);
    ranges.push_back(r);
  }
  return ranges;
}

// One validated range plan shared by the plain and aggregated merge
// paths: plans against the destination's index family, applies the
// test-only mutator, checks the ranges tile the partials' union key
// span (the Release-mode guard against silent row-id / group
// corruption), and pre-builds the prefix destination's shared chain
// when the plan is usable.
struct MergeRangePlan {
  std::vector<IndexedTable::MergeKeyRange> ranges;
  uint32_t kiss_lo = 0;  // exact union key span (kKiss finals only)
  uint32_t kiss_hi = 0;
  bool covering = false;

  bool usable() const { return covering && ranges.size() > 1; }
};

MergeRangePlan PlanValidatedMergeRanges(
    const std::vector<std::unique_ptr<IndexedTable>>& partials,
    IndexedTable* final_table, size_t shards) {
  QPPT_FAILPOINT(merge_plan);
  MergeRangePlan plan;
  if (final_table->kind() == IndexedTable::Kind::kKiss) {
    plan.ranges = PlanKissMergeRanges(partials, shards);
    if (g_plan_mutator_for_test) g_plan_mutator_for_test(&plan.ranges);
    if (plan.ranges.empty()) return plan;
    // The clamped outermost bounds ARE the union key span.
    plan.kiss_lo = plan.ranges.front().kiss_lo;
    plan.kiss_hi = plan.ranges.back().kiss_hi;
    uint32_t lo = std::numeric_limits<uint32_t>::max();
    uint32_t hi = 0;
    for (const auto& p : partials) {
      if (p->kiss()->empty()) continue;
      lo = std::min(lo, p->kiss()->min_key());
      hi = std::max(hi, p->kiss()->max_key());
    }
    plan.covering = merge_detail::KissRangesCoverSpan(plan.ranges, lo, hi);
  } else if (final_table->num_tuples() == 0) {
    // The chain pre-build requires an empty destination; merging into a
    // populated prefix table (not an engine flow today) stays serial.
    const uint8_t* chain_key = nullptr;
    size_t branch_bit_off = 0;
    const uint8_t* span_lo = nullptr;
    const uint8_t* span_hi = nullptr;
    plan.ranges = PlanPrefixMergeRanges(partials, shards, &chain_key,
                                        &branch_bit_off, &span_lo, &span_hi);
    if (g_plan_mutator_for_test) g_plan_mutator_for_test(&plan.ranges);
    if (plan.ranges.empty()) return plan;
    plan.covering = merge_detail::PrefixRangesCoverSpan(
        plan.ranges, final_table->prefix()->key_len(), span_lo, span_hi);
    if (plan.usable()) {
      final_table->PrepareMergeChain(chain_key, branch_bit_off);
    }
  }
  return plan;
}

}  // namespace

namespace merge_detail {

bool KissRangesCoverSpan(
    const std::vector<IndexedTable::MergeKeyRange>& ranges, uint32_t span_lo,
    uint32_t span_hi) {
  if (ranges.empty()) return false;
  if (ranges.front().kiss_lo > span_lo) return false;
  if (ranges.back().kiss_hi < span_hi) return false;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].kiss_lo > ranges[i].kiss_hi) return false;
    if (i + 1 < ranges.size() &&
        (ranges[i].kiss_hi == std::numeric_limits<uint32_t>::max() ||
         ranges[i].kiss_hi + 1 != ranges[i + 1].kiss_lo)) {
      return false;
    }
  }
  return true;
}

bool PrefixRangesCoverSpan(
    const std::vector<IndexedTable::MergeKeyRange>& ranges, size_t key_len,
    const uint8_t* span_lo, const uint8_t* span_hi) {
  if (ranges.empty()) return false;
  if (CompareKeys(ranges.front().prefix_lo, span_lo, key_len) > 0) {
    return false;
  }
  if (CompareKeys(ranges.back().prefix_hi, span_hi, key_len) < 0) {
    return false;
  }
  uint8_t next[KeyBuf::kCapacity];
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (CompareKeys(ranges[i].prefix_lo, ranges[i].prefix_hi, key_len) > 0) {
      return false;
    }
    if (i + 1 < ranges.size()) {
      std::memcpy(next, ranges[i].prefix_hi, key_len);
      if (!IncrementKey(next, key_len) ||
          CompareKeys(next, ranges[i + 1].prefix_lo, key_len) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace merge_detail

void PartialOutputs::SetPlanMutatorForTest(PlanMutator mutator) {
  g_plan_mutator_for_test = std::move(mutator);
}

size_t PartialOutputs::MergeInto(const MorselSite& site,
                                 IndexedTable* final_table) {
  if (site.pool->num_workers() <= 1) {
    MergeInto(final_table);
    return 0;
  }
  return final_table->aggregated() ? MergeAggInto(site, final_table)
                                   : MergePlainInto(site, final_table);
}

size_t PartialOutputs::MergePlainInto(const MorselSite& site,
                                      IndexedTable* final_table) {
  WorkerPool* pool = site.pool;
  size_t total = 0;
  for (const auto& p : partials_) total += p->num_tuples();
  if (total < kMinParallelInputTuples) {
    MergeInto(final_table);
    return 0;
  }

  // A plan that does not tile the span would leave pre-assigned row ids
  // unwritten and drop tuples — checked at runtime (Release included),
  // never just asserted; the serial path is always correct.
  MergeRangePlan plan =
      PlanValidatedMergeRanges(partials_, final_table, pool->morsel_target());
  if (!plan.usable()) {
    MergeInto(final_table);
    return 0;
  }
  const std::vector<IndexedTable::MergeKeyRange>& ranges = plan.ranges;

  // Per-partial contiguous row-id blocks: partial p's tuple ids are
  // dense in [0, n_p), so block bases derived from the tuple counts the
  // builds already maintain pre-assign every destination row id without
  // a counting scan — the merge below is the only pass over the data.
  uint64_t first_id = final_table->BeginParallelMerge(total);
  std::vector<uint64_t> base(partials_.size(), 0);
  uint64_t at = first_id;
  for (size_t p = 0; p < partials_.size(); ++p) {
    base[p] = at;
    at += partials_[p]->num_tuples();
  }

  // One parallel pass: each range worker folds ALL partials' tuples of
  // its key range into the final table. Ranges are bucket/root-slot
  // aligned, so index mutations stay within disjoint subtrees; row
  // writes are disjoint because (partial, source id) determines the
  // destination id; shard statistics are summed and applied once.
  std::vector<IndexedTable::MergeShardStats> shard_stats(ranges.size());
  obs::QueryTrace* trace = site.trace;
  const CancelToken* cancel = site.cancel;
  pool->Run(ranges.size(), [&](size_t worker, size_t m) {
    // Shard boundary doubles as a cancellation boundary: a cancelled
    // merge abandons the final table (it is a context-owned intermediate
    // the error path drops) without waiting for the remaining shards.
    if (cancel != nullptr) {
      Status st = cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(merge_shard);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    for (size_t p = 0; p < partials_.size(); ++p) {
      final_table->MergeRangeFrom(*partials_[p], ranges[m], base[p],
                                  &shard_stats[m]);
    }
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMerge, t0,
                    trace->NowUs());
    }
  });

  IndexedTable::MergeShardStats summed;
  for (const auto& s : shard_stats) {
    summed.tuples += s.tuples;
    summed.new_keys += s.new_keys;
    summed.new_inner_nodes += s.new_inner_nodes;
  }
  assert(summed.tuples == total && "validated ranges must cover every tuple");
  final_table->EndParallelMerge(summed, plan.kiss_lo, plan.kiss_hi);
  for (auto& partial : partials_) partial.reset();
  return ranges.size();
}

size_t PartialOutputs::MergeAggInto(const MorselSite& site,
                                    IndexedTable* final_table) {
  WorkerPool* pool = site.pool;
  size_t folded_tuples = 0;
  size_t group_entries = 0;
  for (const auto& p : partials_) {
    folded_tuples += p->num_tuples();
    group_entries += p->num_keys();
  }
  if (group_entries < kMinParallelAggGroups) {
    MergeInto(final_table);
    return 0;
  }

  // Same runtime guarantee as the plain path: a non-covering plan would
  // silently drop groups, so it falls back to the serial merge.
  MergeRangePlan plan =
      PlanValidatedMergeRanges(partials_, final_table, pool->morsel_target());
  if (!plan.usable()) {
    MergeInto(final_table);
    return 0;
  }
  const std::vector<IndexedTable::MergeKeyRange>& ranges = plan.ranges;

  std::vector<const IndexedTable*> views;
  views.reserve(partials_.size());
  for (const auto& p : partials_) views.push_back(p.get());

  final_table->BeginParallelAggMerge();
  std::vector<IndexedTable::MergeShardStats> shard_stats(ranges.size());
  obs::QueryTrace* trace = site.trace;
  const CancelToken* cancel = site.cancel;
  pool->Run(ranges.size(), [&](size_t worker, size_t m) {
    if (cancel != nullptr) {
      Status st = cancel->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
    QPPT_FAILPOINT(merge_shard);
    double t0 = trace != nullptr ? trace->NowUs() : 0.0;
    final_table->MergeAggRangeFrom(views, ranges[m], &shard_stats[m]);
    if (trace != nullptr) {
      trace->Record(worker, site.label, obs::SpanKind::kMerge, t0,
                    trace->NowUs());
    }
  });

  IndexedTable::MergeShardStats summed;
  for (const auto& s : shard_stats) {
    summed.new_keys += s.new_keys;
    summed.new_inner_nodes += s.new_inner_nodes;
  }
  final_table->EndParallelAggMerge(summed, plan.kiss_lo, plan.kiss_hi,
                                   folded_tuples);
  for (auto& partial : partials_) partial.reset();
  return ranges.size();
}

}  // namespace qppt::engine
