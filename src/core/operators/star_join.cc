#include "core/operators/star_join.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sync_scan.h"

namespace qppt {

namespace {

// Probe batch for the mixed kiss/prefix main pair: large enough to keep
// the §2.3 prefetch pipeline busy, small enough for stack staging.
constexpr size_t kMixedProbeBatch = 64;

}  // namespace

Status StarJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();
  Timer total;

  QPPT_ASSIGN_OR_RETURN(auto left,
                        BoundSide::Bind(*ctx, spec_.left, spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(
      auto right, BoundSide::Bind(*ctx, spec_.right, spec_.right_columns));

  // Assembled-tuple layout: left ++ right ++ assist carries.
  // alloc-exempt: O(columns) schema copy, once per operator bind.
  std::vector<ColumnDef> defs = left.column_defs();
  defs.insert(defs.end(), right.column_defs().begin(),
              right.column_defs().end());
  PipelineShape shape;
  QPPT_ASSIGN_OR_RETURN(shape.assists,
                        BindAssists(*ctx, spec_.assists, &defs));
  Schema assembled(std::move(defs));
  shape.row_width = assembled.num_columns();
  shape.buffer_rows = ctx->knobs().join_buffer_size;
  const size_t left_width = left.num_columns();

  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  if (!spec_.output.agg.empty()) {
    for (const auto& k : spec_.output.key_columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(k));
      shape.key_positions.push_back(idx);
    }
  }

  stats.input_tuples = left.num_input_tuples() + right.num_input_tuples();

  // Cross-product emission shared by the three family scans (nested-loop
  // over the duplicate lists of one matched key, §4.2). Every pair ticks
  // its sink's cancel poll.
  auto emit_pair = [&](ScanSink* sink, uint64_t l, uint64_t r) {
    sink->cancel.Tick();
    // MVCC snapshot filter: no-op branches for non-versioned sides.
    if (!left.Visible(l) || !right.Visible(r)) return;
    uint64_t* row = sink->pipeline.AddRow();
    left.Fill(l, row);
    right.Fill(r, row + left_width);
    sink->pipeline.MaybeProcess();
  };
  auto emit_lists = [&](ScanSink* sink, const auto& lv, const auto& rv) {
    lv.ForEach([&](uint64_t l) {
      rv.ForEach([&](uint64_t r) { emit_pair(sink, l, r); });
    });
  };

  // One scan per main-family pairing. Each scans a morsel — a key range
  // or a slice of branching-level pair slots — into one worker's sink;
  // the serial run (site == nullptr) is the same scan over the whole
  // span or all pair slots, as a single morsel.
  const std::string label = display_name();
  if (left.is_kiss() && right.is_kiss()) {
    // The synchronous index scan over the two main indexes (Fig. 6): only
    // buckets used by both sides are descended into; each shared key
    // yields the cross product of the two duplicate lists (§4.2).
    // Morsels are disjoint key ranges of the shared span.
    const KissTree& lk = *left.kiss();
    const KissTree& rk = *right.kiss();
    auto scan_range = [&](ScanSink* sink, uint32_t lo, uint32_t hi) {
      SynchronousScanRange(lk, rk, lo, hi,
                           [&](uint32_t, const KissTree::ValueRef& lv,
                               const KissTree::ValueRef& rv) {
                             emit_lists(sink, lv, rv);
                           });
    };
    RunScan(*ctx, label, shape, left.num_input_tuples(), output.get(),
            &stats,
            [&](const engine::MorselSite* site,
                std::vector<ScanSink>& sinks) -> size_t {
              uint32_t lo = std::max(lk.min_key(), rk.min_key());
              uint32_t hi = std::min(lk.max_key(), rk.max_key());
              if (site == nullptr) {
                scan_range(&sinks[0], lo, hi);
                return 0;
              }
              return engine::RunKissRangeMorsels(
                  *site, lk, lo, hi,
                  [&](size_t w, uint32_t mlo, uint32_t mhi) {
                    scan_range(&sinks[w], mlo, mhi);
                  });
            });
  } else if (!left.is_kiss() && !right.is_kiss()) {
    // Prefix-tree mains: structural synchronous scan. Morsels are the
    // disjoint subtree pairs at the trees' branching level (§7:
    // deterministic key positions, no rebalancing).
    const PrefixTree& lp = *left.prefix();
    const PrefixTree& rp = *right.prefix();
    auto scan_slots = [&](ScanSink* sink, const PairScanLevel& level,
                          size_t begin, size_t end) {
      SynchronousScanPairSlots(lp, rp, level, begin, end,
                               [&](const uint8_t*, const ValueList* lv,
                                   const ValueList* rv) {
                                 emit_lists(sink, *lv, *rv);
                               });
    };
    RunScan(*ctx, label, shape, left.num_input_tuples(), output.get(),
            &stats,
            [&](const engine::MorselSite* site,
                std::vector<ScanSink>& sinks) -> size_t {
              if (site == nullptr) {
                PairScanLevel level = FindPairScanLevel(lp, rp);
                scan_slots(&sinks[0], level, 0, level.slots.size());
                return 0;
              }
              return engine::RunPrefixPairMorsels(
                  *site, lp, rp,
                  [&](size_t w, const PairScanLevel& level, size_t begin,
                      size_t end) {
                    scan_slots(&sinks[w], level, begin, end);
                  });
            });
  } else {
    // Mixed main families (one KISS, one prefix — e.g. a KISS-indexed
    // base main joined with a prefix-tree intermediate when prefer_kiss
    // is off): scan the prefix side's keys in order and probe the KISS
    // side with §2.3 batched, software-prefetched lookups
    // (KissTree::BatchLookup). Probing with KissKeyOf's 32-bit
    // truncation reproduces exactly the conflation a KISS x KISS scan
    // applies to every attribute value — no reconstruction heuristics.
    // Morsels are the prefix side's branching-level slots (self-pairing
    // reuses the pair-scan partitioner).
    const bool left_is_kiss = left.is_kiss();
    const KissTree& ktree = left_is_kiss ? *left.kiss() : *right.kiss();
    const PrefixTree& ptree =
        left_is_kiss ? *right.prefix() : *left.prefix();
    if (ptree.key_len() != 8) {
      return Status::InvalidArgument(
          "star join with mixed KISS/prefix mains requires the prefix main "
          "to be keyed on the single shared integer join attribute");
    }
    // Probes are staged and flushed through BatchLookup in
    // kMixedProbeBatch groups.
    auto scan_slots = [&](ScanSink* sink, const PairScanLevel& level,
                          size_t begin, size_t end) {
      KissTree::LookupJob jobs[kMixedProbeBatch];
      const ValueList* prefix_vals[kMixedProbeBatch];
      size_t n = 0;
      auto flush = [&] {
        if (n == 0) return;
        ktree.BatchLookup(std::span<KissTree::LookupJob>(jobs, n));
        for (size_t i = 0; i < n; ++i) {
          if (!jobs[i].found) continue;
          if (left_is_kiss) {
            emit_lists(sink, jobs[i].values, *prefix_vals[i]);
          } else {
            emit_lists(sink, *prefix_vals[i], jobs[i].values);
          }
        }
        n = 0;
      };
      SynchronousScanPairSlots(
          ptree, ptree, level, begin, end,
          [&](const uint8_t* key, const ValueList* vals, const ValueList*) {
            jobs[n].key = static_cast<uint32_t>(DecodeI64(key));  // KissKeyOf
            prefix_vals[n] = vals;
            if (++n == kMixedProbeBatch) flush();
          });
      flush();
    };
    // Fork on EITHER side being big: the scan runs over the prefix
    // side's keys, but the bulk of the work is emitting the KISS side's
    // duplicate lists — a huge fact main joined through a tiny dimension
    // intermediate still parallelizes by splitting the dimension's keys
    // (and their emit work) across morsels.
    RunScan(*ctx, label, shape,
            std::max(left.num_input_tuples(), right.num_input_tuples()),
            output.get(), &stats,
            [&](const engine::MorselSite* site,
                std::vector<ScanSink>& sinks) -> size_t {
              if (site == nullptr) {
                PairScanLevel level = FindPairScanLevel(ptree, ptree);
                scan_slots(&sinks[0], level, 0, level.slots.size());
                return 0;
              }
              return engine::RunPrefixPairMorsels(
                  *site, ptree, ptree,
                  [&](size_t w, const PairScanLevel& level, size_t begin,
                      size_t end) {
                    scan_slots(&sinks[w], level, begin, end);
                  });
            });
  }

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
