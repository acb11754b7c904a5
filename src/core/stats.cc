#include "core/stats.h"

#include <cstdio>
#include <string>

namespace qppt {

std::string OperatorStats::FunnelString() const {
  if (candidate_rows == 0 && inserted_rows == 0) return "";
  std::string out = std::to_string(candidate_rows);
  for (const AssistFunnel& stage : funnel) {
    out += " -> " + stage.index + " " + std::to_string(stage.rows_out);
  }
  out += " -> " + std::to_string(inserted_rows) + " inserted";
  return out;
}

std::string PlanStats::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-28s %9s %9s %9s %9s %12s %10s %10s %8s\n", "operator",
                "total_ms", "mat_ms", "idx_ms", "merge_ms", "out_tuples",
                "out_keys", "out_MiB", "morsels");
  out += line;
  for (const auto& op : operators) {
    std::snprintf(line, sizeof(line),
                  "%-28s %9.2f %9.2f %9.2f %9.2f %12llu %10llu %10.2f %8llu\n",
                  op.name.c_str(), op.total_ms, op.materialize_ms,
                  op.index_ms, op.merge_ms,
                  static_cast<unsigned long long>(op.output_tuples),
                  static_cast<unsigned long long>(op.output_keys),
                  static_cast<double>(op.output_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(op.morsels));
    out += line;
    if (!op.output_desc.empty()) {
      out += "    -> ";
      out += op.output_desc;
      out += "\n";
    }
    const std::string funnel = op.FunnelString();
    if (!funnel.empty()) out += "    funnel: " + funnel + "\n";
  }
  std::snprintf(line, sizeof(line),
                "%-28s %9.2f  (wall %.2f ms, %zu thread%s, %llu morsels, "
                "merge %.2f ms / %llu shards)\n",
                "TOTAL", total_ms, wall_ms, threads, threads == 1 ? "" : "s",
                static_cast<unsigned long long>(TotalMorsels()),
                TotalMergeMs(),
                static_cast<unsigned long long>(TotalMergeMorsels()));
  out += line;
  return out;
}

}  // namespace qppt
