#include "core/operators/select_join.h"

#include <cstdint>
#include <vector>

namespace qppt {

Status SelectJoinOp::Execute(ExecContext* ctx) {
  OperatorStats stats;
  stats.name = name();
  Timer total;

  QPPT_ASSIGN_OR_RETURN(const BaseIndex* index,
                        ctx->db().index(spec_.input_index));
  QPPT_ASSIGN_OR_RETURN(
      auto left,
      BoundSide::Bind(*ctx, SideRef::Base(spec_.input_index),
                      spec_.left_columns));
  QPPT_ASSIGN_OR_RETURN(auto residuals,
                        BindResiduals(*index, spec_.residuals));

  // The probed main index behaves exactly like a leading assisting index:
  // probe with `probe_column`, extend with the right side's columns. The
  // remaining assists follow.
  std::vector<AssistSpec> all_assists;
  all_assists.push_back(
      {spec_.right, spec_.probe_column, spec_.right_columns});
  all_assists.insert(all_assists.end(), spec_.assists.begin(),
                     spec_.assists.end());

  // alloc-exempt: O(columns) schema copy, once per operator bind.
  std::vector<ColumnDef> defs = left.column_defs();
  PipelineShape shape;
  shape.mains = {&left};
  QPPT_ASSIGN_OR_RETURN(shape.assists, BindAssists(*ctx, all_assists, &defs));
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

  stats.input_tuples = index->num_rows();

  // Selection scan: qualifying tuples stream straight into the probe
  // pipeline — no intermediate index is ever materialized (§4.3). A
  // parallel run gives every worker a private pipeline and partial
  // output, so the §4.3 composition is preserved per worker.
  SelectionScan select(*index, spec_.predicate, left, residuals);
  RunScan(*ctx, display_name(), shape, select.split_tuples(), output.get(),
          &stats, select);

  FillOutputStats(*output, &stats);
  stats.total_ms = total.ElapsedMs();
  QPPT_RETURN_NOT_OK(ctx->Put(spec_.output.slot, std::move(output)));
  ctx->stats()->operators.push_back(std::move(stats));
  return Status::OK();
}

}  // namespace qppt
