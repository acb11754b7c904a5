#include "core/operators/star_join.h"

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

// One key both main indexes hold: each side's tree entry for it.
struct Match {
  KissTree::ValueRef left;
  KissTree::ValueRef right;
};

// The synchronous index scan over the two main indexes (Fig. 6),
// resolving the keys both hold into `matches`. Only buckets used by both
// sides are descended into. Ticks `cancel` once per match.
Status ResolveMatches(const BoundSide& left, const BoundSide& right,
                      CancelTicker* cancel, std::vector<Match>* matches) {
  auto add = [&](const KissTree::ValueRef& l, const KissTree::ValueRef& r) {
    cancel->Tick();
    matches->push_back({l, r});
  };
  if (left.is_kiss() && right.is_kiss()) {
    SynchronousScan(*left.kiss(), *right.kiss(),
                    [&](uint32_t, const KissTree::ValueRef& lv,
                        const KissTree::ValueRef& rv) { add(lv, rv); });
    return Status::OK();
  }
  if (!left.is_kiss() && !right.is_kiss()) {
    // Prefix-tree mains: the structural synchronous scan.
    SynchronousScan(*left.prefix(), *right.prefix(),
                    [&](const uint8_t*, const ValueList* lv,
                        const ValueList* rv) {
                      add(KissTree::ValueRef(lv), KissTree::ValueRef(rv));
                    });
    return Status::OK();
  }
  // Mixed main families (one KISS, one prefix — e.g. a KISS-indexed base
  // main joined with a prefix-tree intermediate when prefer_kiss is off):
  // scan the prefix side's keys in order and probe the KISS side with
  // §2.3 batched, software-prefetched lookups (KissTree::BatchLookup).
  // Probing with KissKeyOf's 32-bit truncation reproduces exactly the
  // conflation a KISS x KISS scan applies to every attribute value — no
  // reconstruction heuristics.
  const bool left_is_kiss = left.is_kiss();
  const KissTree& ktree = left_is_kiss ? *left.kiss() : *right.kiss();
  const PrefixTree& ptree = left_is_kiss ? *right.prefix() : *left.prefix();
  if (ptree.key_len() != 8) {
    return Status::InvalidArgument(
        "star join with mixed KISS/prefix mains requires the prefix main "
        "to be keyed on the single shared integer join attribute");
  }
  KissTree::LookupJob jobs[kMixedProbeBatch];
  const ValueList* prefix_vals[kMixedProbeBatch];
  size_t n = 0;
  auto flush = [&] {
    if (n == 0) return;
    ktree.BatchLookup(std::span<KissTree::LookupJob>(jobs, n));
    for (size_t i = 0; i < n; ++i) {
      if (!jobs[i].found) continue;
      const KissTree::ValueRef p(prefix_vals[i]);
      if (left_is_kiss) {
        add(jobs[i].values, p);
      } else {
        add(p, jobs[i].values);
      }
    }
    n = 0;
  };
  ptree.ScanAll([&](const PrefixTree::ContentNode& c) {
    jobs[n].key = static_cast<uint32_t>(DecodeI64(c.key()));  // KissKeyOf
    prefix_vals[n] = ptree.ValuesOf(&c);
    if (++n == kMixedProbeBatch) flush();
  });
  flush();
  return Status::OK();
}

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
  shape.mains = {&left, &right};
  QPPT_ASSIGN_OR_RETURN(shape.assists,
                        BindAssists(*ctx, spec_.assists, &defs));
  Schema assembled(std::move(defs));
  shape.row_width = assembled.num_columns();
  shape.buffer_rows = ctx->knobs().join_buffer_size;

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

  // Two passes. The synchronous index scan resolves the keys both mains
  // hold (serial; it skips every subtree one side lacks), then the
  // emission pass expands each match into the cross product of its two
  // value sets (nested loop over the duplicate lists, §4.2) and streams
  // the (left, right) value pairs through the candidate pipeline.
  // Emission is the bulk of the work and the part that splits: each
  // match is worth its l x r pairs
  // (engine::SliceMap), and morsels are fixed-size slices of those
  // pairs. The *split side* is the clustered base main with more rows
  // (the fact index): a match is cut at each of its split-side
  // ordinals, so one heavy key's run spreads over morsels. Without a
  // clustered main a match is one chunk.
  Timer resolve;
  std::vector<Match> matches;
  CancelTicker resolve_cancel(ctx->cancel());
  QPPT_RETURN_NOT_OK(ResolveMatches(left, right, &resolve_cancel, &matches));
  const BaseIndex* left_run = left.clustered_base();
  const BaseIndex* right_run = right.clustered_base();
  const bool split_left =
      left_run != nullptr &&
      (right_run == nullptr || left_run->num_rows() >= right_run->num_rows());
  const bool split_right = !split_left && right_run != nullptr;
  engine::SliceMap slices;
  for (const Match& m : matches) {
    const uint64_t l = left.CountIn(m.left);
    const uint64_t r = right.CountIn(m.right);
    // Chunk c of a match is the pairs of split-side ordinal c.
    slices.Add(l * r, split_left ? r : split_right ? l : l * r);
  }
  stats.scan_ms = resolve.ElapsedMs();

  // Every pair ticks its sink's cancel poll; a visible pair is staged as
  // a candidate (its columns are filled only if it survives the assists).
  auto emit_pair = [&](ScanSink* sink, uint64_t l, uint64_t r) {
    sink->cancel.Tick();
    // MVCC snapshot filter: no-op branches for non-versioned sides.
    if (!left.Visible(l) || !right.Visible(r)) return;
    sink->pipeline.Stage(l, r);
  };
  // Emits the pairs [begin, end) of the slice map into `sink`.
  auto emit_units = [&](ScanSink* sink, uint64_t begin, uint64_t end) {
    ScanTimer timer(sink);
    slices.ForEachPiece(begin, end, [&](size_t item, uint64_t lo,
                                        uint64_t hi) {
      const Match& m = matches[item];
      if (split_left) {
        const uint64_t first = left_run->RunOf(m.left).begin;
        for (uint64_t l = first + lo; l < first + hi; ++l) {
          right.ForEachIn(m.right, [&](uint64_t r) { emit_pair(sink, l, r); });
        }
      } else if (split_right) {
        const uint64_t first = right_run->RunOf(m.right).begin;
        left.ForEachIn(m.left, [&](uint64_t l) {
          for (uint64_t r = first + lo; r < first + hi; ++r) {
            emit_pair(sink, l, r);
          }
        });
      } else {
        left.ForEachIn(m.left, [&](uint64_t l) {
          right.ForEachIn(m.right, [&](uint64_t r) { emit_pair(sink, l, r); });
        });
      }
    });
  };
  RunScan(*ctx, display_name(), shape, slices.splittable(), output.get(),
          &stats,
          [&](const engine::MorselSite* site,
              std::vector<ScanSink>& sinks) -> size_t {
            if (site == nullptr) {
              emit_units(&sinks[0], 0, slices.total());
              return 0;
            }
            return engine::RunSliceMorsels(
                *site, slices, [&](size_t w, uint64_t begin, uint64_t end) {
                  emit_units(&sinks[w], begin, end);
                });
          });

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
