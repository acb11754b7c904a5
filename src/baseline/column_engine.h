// Column-at-a-time baseline engine — the MonetDB proxy of §5.
//
// Every operator consumes and produces *full columns*: predicate
// evaluation materializes a complete selection vector, every join step
// gathers the (full-length) foreign-key column through the current
// selection vector before probing, and every carried attribute becomes
// another materialized column. This faithfully reproduces the processing
// model whose weakness the paper targets: with a growing number of join
// columns, more and more full-length intermediate columns have to be
// materialized and re-gathered — the tuple reconstruction overhead that
// makes the 4.x queries degrade (Fig. 7).

#ifndef QPPT_BASELINE_COLUMN_ENGINE_H_
#define QPPT_BASELINE_COLUMN_ENGINE_H_

#include "baseline/common.h"
#include "core/plan.h"
#include "ssb/dbgen.h"

namespace qppt::baseline {

// Executes `q` column-at-a-time over the columnar copies in `data`.
// Rows come in ascending group-key order, post-sorted per q.post_sort.
Result<QueryResult> RunColumnAtATime(ssb::SsbData& data, const StarQuery& q);

}  // namespace qppt::baseline

#endif  // QPPT_BASELINE_COLUMN_ENGINE_H_
