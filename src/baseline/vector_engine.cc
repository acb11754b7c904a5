#include "baseline/vector_engine.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "baseline/common.h"

namespace qppt::baseline {

Result<QueryResult> RunVectorAtATime(ssb::SsbData& data, const StarQuery& q) {
  const ColumnTable& fact = data.Columnar(q.fact_table);
  size_t n = fact.num_rows();

  // Build side: one hash table per dimension.
  QPPT_ASSIGN_OR_RETURN(std::vector<DimHash> dim_hashes,
                        BuildDimHashes(data, q));

  // Resolve all columns touched per vector.
  std::vector<const std::vector<uint64_t>*> pred_cols;
  for (const auto& filter : q.fact_filters) {
    QPPT_ASSIGN_OR_RETURN(const auto* col, fact.ColumnByName(filter.column));
    pred_cols.push_back(col);
  }
  std::vector<const std::vector<uint64_t>*> fk_cols;
  for (const auto& dim : q.dims) {
    QPPT_ASSIGN_OR_RETURN(const auto* col, fact.ColumnByName(dim.fact_column));
    fk_cols.push_back(col);
  }
  QPPT_ASSIGN_OR_RETURN(auto bound_agg,
                        BindScalarExpr(q.agg_source, fact.schema()));
  QPPT_ASSIGN_OR_RETURN(const auto* agg_lhs_col,
                        fact.ColumnByName(q.agg_source.lhs));
  const std::vector<uint64_t>* agg_rhs_col = nullptr;
  if (q.agg_source.op != ScalarExpr::Op::kColumn) {
    QPPT_ASSIGN_OR_RETURN(agg_rhs_col, fact.ColumnByName(q.agg_source.rhs));
  }
  size_t g_n = q.group_refs.size();

  std::map<uint64_t, int64_t> groups;

  // Per-vector state: selection vector + per-dimension payload indexes,
  // all of vector (not table) length — the cache-resident intermediates
  // of the vectorized model.
  uint32_t sel[kVectorSize];
  uint32_t next_sel[kVectorSize];
  int64_t payloads[kMaxDims][kVectorSize];

  for (size_t base = 0; base < n; base += kVectorSize) {
    size_t len = std::min(kVectorSize, n - base);
    // Predicate primitives: the first fills the selection vector, later
    // ones shrink it.
    size_t count = 0;
    if (q.fact_filters.empty()) {
      for (size_t i = 0; i < len; ++i) sel[count++] = static_cast<uint32_t>(i);
    }
    for (size_t p = 0; p < q.fact_filters.size(); ++p) {
      const auto& col = *pred_cols[p];
      std::visit(
          [&](const auto& pred) {
            if (p == 0) {
              for (size_t i = 0; i < len; ++i) {
                if (pred.Eval(Int64FromSlot(col[base + i]))) {
                  sel[count++] = static_cast<uint32_t>(i);
                }
              }
              return;
            }
            size_t kept = 0;
            for (size_t i = 0; i < count; ++i) {
              if (pred.Eval(Int64FromSlot(col[base + sel[i]]))) {
                sel[kept++] = sel[i];
              }
            }
            count = kept;
          },
          q.fact_filters[p].pred);
    }
    if (count == 0) continue;

    // Hash-probe primitives, one dimension at a time within the vector.
    for (size_t d = 0; d < q.dims.size(); ++d) {
      const auto& fk = *fk_cols[d];
      size_t kept = 0;
      for (size_t i = 0; i < count; ++i) {
        int64_t payload =
            dim_hashes[d].Probe(Int64FromSlot(fk[base + sel[i]]));
        if (payload < 0) continue;
        next_sel[kept] = sel[i];
        for (size_t e = 0; e < d; ++e) {
          payloads[e][kept] = payloads[e][i];  // compact alongside
        }
        payloads[d][kept] = payload;
        ++kept;
      }
      // Compaction wrote next_sel; swap into sel.
      for (size_t i = 0; i < kept; ++i) sel[i] = next_sel[i];
      count = kept;
      if (count == 0) break;
    }
    if (count == 0) continue;

    // Aggregation primitive.
    for (size_t i = 0; i < count; ++i) {
      size_t row_idx = base + sel[i];
      uint64_t row[16];
      row[bound_agg.lhs] = (*agg_lhs_col)[row_idx];
      if (agg_rhs_col != nullptr) row[bound_agg.rhs] = (*agg_rhs_col)[row_idx];
      int64_t value = Int64FromSlot(bound_agg.Eval(row));
      int64_t codes[kMaxGroupKeys];
      for (size_t g = 0; g < g_n; ++g) {
        const auto& ref = q.group_refs[g];
        codes[g] = dim_hashes[ref.dim].Payload(payloads[ref.dim][i])[ref.pos];
      }
      groups[PackGroupKey(codes, g_n)] += value;
    }
  }
  return AssembleResult(q, groups);
}

}  // namespace qppt::baseline
