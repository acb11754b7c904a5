// Execution statistics (demonstrator appendix A).
//
// The QPPT demonstrator visualizes, per plan operator: total time and its
// split between tuple materialization and output indexing, input/output
// index sizes and types, and cardinalities. PlanStats collects the same.

#ifndef QPPT_CORE_STATS_H_
#define QPPT_CORE_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qppt {

namespace obs {
class QueryTrace;  // obs/trace.h — per-query span timeline
}  // namespace obs

class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Rows entering and surviving one assist probe of a scan operator's
// candidate pipeline (§4.2).
struct AssistFunnel {
  std::string index;  // the assisting index or slot
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

struct OperatorStats {
  std::string name;
  std::string output_desc;       // e.g. "kiss(orderdate) 1.2M tuples"
  double total_ms = 0;
  double materialize_ms = 0;     // gathering/assembling tuples
  double index_ms = 0;           // building the output index
  double merge_ms = 0;           // folding per-worker partial outputs into
                                 // the final table — covers plain tuple
                                 // merges AND aggregated accumulator
                                 // merges (0 = no parallel path)
  uint64_t input_tuples = 0;
  uint64_t output_tuples = 0;
  uint64_t output_keys = 0;      // distinct keys / groups
  uint64_t output_bytes = 0;     // output index memory
  uint64_t morsels = 0;          // engine morsels executed (0 = serial path)
  uint64_t merge_morsels = 0;    // partitioned-merge shards, plain or
                                 // aggregated (0 = serial merge)
  // The candidate funnel of a scan operator (selection, select-join,
  // star join), summed over workers: the rows its scan staged, each
  // assist's rows in and out in probe order, and the rows inserted into
  // the output. The counts chain: candidate_rows is the first assist's
  // rows_in, each rows_out the next rows_in, the last rows_out (or
  // candidate_rows, with no assist) inserted_rows.
  uint64_t candidate_rows = 0;
  std::vector<AssistFunnel> funnel;
  uint64_t inserted_rows = 0;

  // "1195912 -> supp_sel 232339 -> part_sel 92790 -> 92790 inserted";
  // empty for operators without a candidate pipeline.
  std::string FunnelString() const;
};

struct PlanStats {
  std::vector<OperatorStats> operators;
  double total_ms = 0;   // operator execution only (Plan::Run)
  double wall_ms = 0;    // end-to-end query wall time, incl. result
                         // extraction and final ORDER BY (set by the
                         // query driver / engine runner)
  size_t threads = 1;    // morsel workers the query was admitted with
  uint64_t read_ts = 0;  // MVCC snapshot the query ran at (0 = no
                         // versioned tables in scope)
  // Span timeline of the execution that produced these stats, present
  // only when PlanKnobs::trace was set (obs/trace.h; export with
  // obs::TraceToJson). Shared so the handle survives the ExecContext.
  std::shared_ptr<obs::QueryTrace> trace;

  // Contract: PlanStats accumulates — Plan::Run appends operator rows
  // and the drivers *assign* total_ms/wall_ms. A caller that reuses one
  // PlanStats across executions must Clear() in between, or the operator
  // list grows while the totals cover only the last run (double
  // reporting). The engine runner and the SSB drivers Clear() caller
  // stats defensively at entry.
  void Clear() {
    operators.clear();
    total_ms = 0;
    wall_ms = 0;
    threads = 1;
    read_ts = 0;
    trace.reset();
  }

  // Total engine morsels across all operators (0 = fully serial plan).
  uint64_t TotalMorsels() const {
    uint64_t total = 0;
    for (const auto& op : operators) total += op.morsels;
    return total;
  }

  // Total wall time spent merging per-worker partial outputs — the
  // post-fork-join cost the partitioned parallel merge attacks (plain
  // and aggregated). Reported separately so the merge bottleneck stays
  // measurable.
  double TotalMergeMs() const {
    double total = 0;
    for (const auto& op : operators) total += op.merge_ms;
    return total;
  }

  // Total partitioned-merge shards across all operators (0 = every
  // merge ran serially).
  uint64_t TotalMergeMorsels() const {
    uint64_t total = 0;
    for (const auto& op : operators) total += op.merge_morsels;
    return total;
  }

  // Demonstrator-style per-operator breakdown.
  std::string ToString() const;
};

}  // namespace qppt

#endif  // QPPT_CORE_STATS_H_
