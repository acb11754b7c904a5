#include "core/operators/selection.h"

#include <cstdint>
#include <string>
#include <vector>

namespace qppt {

Status SelectionOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();
  Timer total;

  QPPT_ASSIGN_OR_RETURN(const BaseIndex* index,
                        ctx->db().index(spec_.input_index));
  QPPT_ASSIGN_OR_RETURN(auto side, BoundSide::Bind(*ctx, SideRef::Base(spec_.input_index),
                                                   spec_.carry_columns));
  QPPT_ASSIGN_OR_RETURN(auto residuals,
                        BindResiduals(*index, spec_.residuals));

  Schema assembled(side.column_defs());
  QPPT_ASSIGN_OR_RETURN(
      auto output,
      MakeOutputTable(spec_.output, assembled, ctx->knobs().table_options));

  // A selection is a select-join without assists: qualifying tuples
  // stream through an assist-free candidate pipeline into the output.
  PipelineShape shape;
  shape.row_width = side.num_columns();
  shape.buffer_rows = ctx->knobs().join_buffer_size;
  if (!spec_.output.agg.empty()) {
    for (const auto& k : spec_.output.key_columns) {
      QPPT_ASSIGN_OR_RETURN(size_t idx, assembled.ColumnIndex(k));
      shape.key_positions.push_back(idx);
    }
  }

  stats.input_tuples = index->num_rows();
  const std::string label = display_name();
  if (spec_.composite_range.empty()) {
    // A clustered selection without residuals or aggregation outputs
    // every row it resolves, so a fork would insert each row twice (into
    // a worker's partial, then through the merge) — doubled work that
    // concurrent queries pay for. It stays serial: on ssb-prefix-parallel
    // (SF 0.5, 3 workers, 4-vCPU host) forking these dimension
    // selections lowered flight_speedup_vs_column from 9.0x to 7.9x and
    // query_speedup_vs_column from 14.3x to 13.3x (medians of 6 runs).
    SelectionScan select(*index, spec_.predicate, side, residuals);
    const bool copy_only = index->clustered() && residuals.empty() &&
                           spec_.output.agg.empty();
    RunScan(*ctx, label, shape, copy_only ? 0 : select.split_tuples(),
            output.get(), &stats, select);
  } else {
    // Conjunctive predicate over a multidimensional index (§4.1). The
    // composite encoding is scanned over the lexicographic range; the
    // per-component box bounds are verified on each hit (a lexicographic
    // range is a superset of the box for the middle leading-component
    // values). Always a whole (serial) scan.
    size_t dims = spec_.composite_range.size();
    if (dims != index->num_key_columns()) {
      return Status::InvalidArgument(
          "composite_range must give one (lo, hi) pair per index key "
          "column");
    }
    std::vector<BaseIndex::Accessor> key_accessors;
    for (const auto& key_name : index->key_column_names()) {
      QPPT_ASSIGN_OR_RETURN(auto acc, index->BindColumn(key_name));
      key_accessors.push_back(acc);
    }
    std::vector<uint64_t> lo(dims), hi(dims);
    for (size_t i = 0; i < dims; ++i) {
      lo[i] = SlotFromInt64(spec_.composite_range[i].first);
      hi[i] = SlotFromInt64(spec_.composite_range[i].second);
    }
    auto in_box = [&](uint64_t value) {
      for (size_t i = 0; i < dims; ++i) {
        int64_t v = Int64FromSlot(key_accessors[i].Get(value));
        if (v < spec_.composite_range[i].first ||
            v > spec_.composite_range[i].second) {
          return false;
        }
      }
      return true;
    };
    RunScan(*ctx, label, shape, /*split_tuples=*/0, output.get(), &stats,
            [&](const engine::MorselSite*, std::vector<ScanSink>& sinks) {
              ScanSink* sink = &sinks[0];
              ScanTimer timer(sink);
              index->ForEachInCompositeRange(
                  lo.data(), hi.data(), [&](uint64_t value) {
                    sink->cancel.Tick();
                    if (in_box(value)) {
                      StageIfQualifies(side, residuals, sink, value);
                    }
                  });
              return size_t{0};
            });
  }

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
