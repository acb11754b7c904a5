#include "baseline/column_engine.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "baseline/common.h"

namespace qppt::baseline {

Result<QueryResult> RunColumnAtATime(ssb::SsbData& data, const StarQuery& q) {
  const ColumnTable& fact = data.Columnar(q.fact_table);

  // Build side: one hash table per dimension.
  QPPT_ASSIGN_OR_RETURN(std::vector<DimHash> dim_hashes,
                        BuildDimHashes(data, q));

  // Fact predicates, column at a time.
  QPPT_ASSIGN_OR_RETURN(std::vector<uint32_t> sel,
                        SelectRows(fact, q.fact_filters));

  // Join steps: for each dimension, materialize the gathered foreign-key
  // column (full tuple-reconstruction cost), probe the hash table, and
  // materialize the aligned payload-index column for survivors.
  std::vector<std::vector<int64_t>> dim_payload_cols(q.dims.size());
  for (size_t d = 0; d < q.dims.size(); ++d) {
    QPPT_ASSIGN_OR_RETURN(const auto* fk_col,
                          fact.ColumnByName(q.dims[d].fact_column));
    // Materialize the gathered key column for the current candidates.
    std::vector<int64_t> keys(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      keys[i] = Int64FromSlot((*fk_col)[sel[i]]);
    }
    // Probe; compact the selection vector and all previously materialized
    // payload columns (each join step rewrites them — the re-gathering
    // overhead of column-wise processing).
    std::vector<uint32_t> next_sel;
    next_sel.reserve(sel.size());
    std::vector<std::vector<int64_t>> next_payloads(d + 1);
    for (auto& p : next_payloads) p.reserve(sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      int64_t payload = dim_hashes[d].Probe(keys[i]);
      if (payload < 0) continue;
      next_sel.push_back(sel[i]);
      for (size_t e = 0; e < d; ++e) {
        next_payloads[e].push_back(dim_payload_cols[e][i]);
      }
      next_payloads[d].push_back(payload);
    }
    sel = std::move(next_sel);
    for (size_t e = 0; e <= d; ++e) {
      dim_payload_cols[e] = std::move(next_payloads[e]);
    }
  }

  // Aggregate: gather the aggregate source columns, compute the source
  // value column, then hash-aggregate on the packed group key.
  QPPT_ASSIGN_OR_RETURN(auto bound_agg,
                        BindScalarExpr(q.agg_source, fact.schema()));
  std::vector<const std::vector<uint64_t>*> fact_cols(
      fact.schema().num_columns());
  for (size_t c = 0; c < fact.schema().num_columns(); ++c) {
    fact_cols[c] = &fact.column(c);
  }
  std::vector<int64_t> agg_vals(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    // Assemble the (tiny) row view the expression needs.
    uint64_t row[16];
    row[bound_agg.lhs] = (*fact_cols[bound_agg.lhs])[sel[i]];
    if (q.agg_source.op != ScalarExpr::Op::kColumn) {
      row[bound_agg.rhs] = (*fact_cols[bound_agg.rhs])[sel[i]];
    }
    agg_vals[i] = Int64FromSlot(bound_agg.Eval(row));
  }

  std::map<uint64_t, int64_t> groups;  // ordered: ascending packed key
  size_t g_n = q.group_refs.size();
  for (size_t i = 0; i < sel.size(); ++i) {
    int64_t codes[kMaxGroupKeys];
    for (size_t g = 0; g < g_n; ++g) {
      const auto& ref = q.group_refs[g];
      codes[g] =
          dim_hashes[ref.dim].Payload(dim_payload_cols[ref.dim][i])[ref.pos];
    }
    groups[PackGroupKey(codes, g_n)] += agg_vals[i];
  }
  return AssembleResult(q, groups);
}

}  // namespace qppt::baseline
