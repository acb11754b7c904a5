#include "ssb/queries_baseline.h"

#include <string>

#include "baseline/column_engine.h"
#include "baseline/vector_engine.h"
#include "ssb/queries_qppt.h"

namespace qppt::ssb {

Result<QueryResult> RunColumn(SsbData& data, const query::QuerySpec& spec) {
  QPPT_ASSIGN_OR_RETURN(baseline::StarQuery q,
                        baseline::LowerStarQuery(data.db, spec));
  return baseline::RunColumnAtATime(data, q);
}

Result<QueryResult> RunVector(SsbData& data, const query::QuerySpec& spec) {
  QPPT_ASSIGN_OR_RETURN(baseline::StarQuery q,
                        baseline::LowerStarQuery(data.db, spec));
  return baseline::RunVectorAtATime(data, q);
}

Result<QueryResult> RunColumn(SsbData& data, const std::string& query_id) {
  QPPT_ASSIGN_OR_RETURN(query::QuerySpec spec, BuildQuerySpec(data, query_id));
  return RunColumn(data, spec);
}

Result<QueryResult> RunVector(SsbData& data, const std::string& query_id) {
  QPPT_ASSIGN_OR_RETURN(query::QuerySpec spec, BuildQuerySpec(data, query_id));
  return RunVector(data, spec);
}

}  // namespace qppt::ssb
