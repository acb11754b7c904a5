// SSB queries on the baseline engines (the Fig. 7 comparators).
//
// The baselines answer the planner's own query::QuerySpec: each run
// lowers the spec (baseline::LowerStarQuery) and interprets it in the
// engine's processing model, so the 13 queries are written once, in
// queries_qppt.cc. Rows are ordered per the spec's ORDER BY.

#ifndef QPPT_SSB_QUERIES_BASELINE_H_
#define QPPT_SSB_QUERIES_BASELINE_H_

#include <string>

#include "core/plan.h"
#include "core/query/query_spec.h"
#include "ssb/dbgen.h"

namespace qppt::ssb {

// Runs a star-shaped spec column-at-a-time (MonetDB proxy). Fails with
// InvalidArgument on shapes the baselines do not run (see LowerStarQuery).
Result<QueryResult> RunColumn(SsbData& data, const query::QuerySpec& spec);

// Runs a star-shaped spec vector-at-a-time (commercial-DBMS proxy).
Result<QueryResult> RunVector(SsbData& data, const query::QuerySpec& spec);

// Runs SSB query `query_id` ("1.1" .. "4.3"; BuildQuerySpec) on each.
// Neither needs base indexes in `data`.
Result<QueryResult> RunColumn(SsbData& data, const std::string& query_id);
Result<QueryResult> RunVector(SsbData& data, const std::string& query_id);

}  // namespace qppt::ssb

#endif  // QPPT_SSB_QUERIES_BASELINE_H_
