// Rule-based planner: QuerySpec -> physical Plan (ISSUE 3 tentpole).
//
// PlanQuery owns, once and centrally, the plan-shape decisions the SSB
// drivers used to hand-wire per query:
//
//   - selection ordering: dimension selections first (spec order), then
//     the fact selection when one is needed;
//   - select-join fusion (knobs.use_select_join): a filtered fact side is
//     streamed straight into the first join instead of materializing the
//     selection output (§4.3, Fig. 8);
//   - star-join arity (knobs.max_join_ways): non-deferred dimensions are
//     composed greedily into the first join up to the cap; every
//     remaining dimension (capped-out or defer_join) gets its own 2-way
//     join in a chain of materialized intermediates (§4.2, Fig. 9);
//   - output wiring: every intermediate is keyed on the next join's probe
//     column and carries exactly the columns later stages still need; the
//     final stage groups/aggregates into the result slot;
//   - ORDER-BY strategy: an ORDER BY that is an ascending prefix of the
//     group-by falls out of the output index for free; anything else
//     becomes a post-sort attached to the plan (Plan::set_result_order).
//
// Every emitted operator carries a stage label ("sel:date_sel",
// "join:join1", ...) so ExplainPlan() and executed PlanStats rows line up
// line-for-line.

#ifndef QPPT_CORE_QUERY_PLANNER_H_
#define QPPT_CORE_QUERY_PLANNER_H_

#include <string>

#include "core/base_index.h"
#include "core/plan.h"
#include "core/query/query_spec.h"
#include "util/status.h"

namespace qppt::query {

// Compiles `spec` into an executable Plan against `db`'s catalog.
Result<Plan> PlanQuery(const Database& db, const QuerySpec& spec,
                       const PlanKnobs& knobs);

// True when `spec`'s ORDER BY is an ascending prefix of its group-by, so
// rows in output-index (group-key) order already satisfy it; anything
// else needs a post-sort. The baseline engines apply the same rule.
bool OrderByIsFree(const QuerySpec& spec);

// Renders the plan PlanQuery would emit, without executing anything:
// one line per stage (label, physical operator, wiring) plus the
// ORDER-BY strategy.
Result<std::string> ExplainPlan(const Database& db, const QuerySpec& spec,
                                const PlanKnobs& knobs);

}  // namespace qppt::query

#endif  // QPPT_CORE_QUERY_PLANNER_H_
