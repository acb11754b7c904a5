// Vector-at-a-time baseline engine — the commercial-DBMS proxy of §5
// (VectorWise-style processing, MonetDB/X100 lineage).
//
// Processing happens in cache-resident vectors of 1024 tuples: each vector
// of the fact table is pushed through predicate evaluation, the dimension
// hash-join probes, and the aggregation in one pass, with per-vector
// selection vectors instead of full-column intermediates. This keeps
// intermediates in cache (the vector model's strength) but still pays the
// tuple-reconstruction cost of gathering one column per touched attribute
// per vector (the columnar weakness the paper exploits on 4.x queries).

#ifndef QPPT_BASELINE_VECTOR_ENGINE_H_
#define QPPT_BASELINE_VECTOR_ENGINE_H_

#include "baseline/common.h"
#include "core/plan.h"
#include "ssb/dbgen.h"

namespace qppt::baseline {

inline constexpr size_t kVectorSize = 1024;

// Executes `q` vector-at-a-time over the columnar copies in `data`.
Result<QueryResult> RunVectorAtATime(ssb::SsbData& data, const StarQuery& q);

}  // namespace qppt::baseline

#endif  // QPPT_BASELINE_VECTOR_ENGINE_H_
