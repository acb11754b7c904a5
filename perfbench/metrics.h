// Metric arithmetic for the QPPT benchmark (main.cc).
//
// Kept separate and free of engine types other than the registry
// snapshot so that `qppt_perfbench --self-test` can check every formula
// on fixed inputs before a run is trusted.
#ifndef QPPT_PERFBENCH_METRICS_H_
#define QPPT_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace qppt::perfbench {

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it (rank ceil(p/100 * n), 1-based). Returns 0 for
// an empty sample. Every reported sample quantile goes through this one
// definition so medians and tails are comparable across metrics.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double exact = p / 100.0 * static_cast<double>(samples.size());
  // Guard against 0.9 * 10 = 9.000000000000002 rounding up to rank 10.
  auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50);
}

// Geometric mean over query ids of each id's median latency. Every id
// weighs the same however many times it ran, so a speed-up of any one
// query moves the result by the same factor (unlike a mixed-query
// median, which only ever reports the query that lands in the middle).
inline double GeomeanOfMedians(
    const std::map<std::string, std::vector<double>>& by_id) {
  double log_sum = 0;
  size_t n = 0;
  for (const auto& [id, samples] : by_id) {
    if (samples.empty()) continue;
    log_sum += std::log(Median(samples));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

// Change of one metric between two registry snapshots. Counters and
// histograms are monotonic, so after - before is exact once writers have
// quiesced; a metric absent from `before` counts from zero.
struct MetricDelta {
  uint64_t counter = 0;
  uint64_t count = 0;                  // histogram observations
  double sum = 0;                      // histogram sum
  std::vector<double> bounds;          // histogram bucket upper bounds
  std::vector<uint64_t> bucket_counts; // per bucket, +Inf last
};

inline MetricDelta Delta(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after,
                         std::string_view name) {
  MetricDelta d;
  const obs::MetricValue* a = after.Find(name);
  if (a == nullptr) return d;
  const obs::MetricValue* b = before.Find(name);
  d.counter = a->counter - (b != nullptr ? b->counter : 0);
  d.count = a->count - (b != nullptr ? b->count : 0);
  d.sum = a->sum - (b != nullptr ? b->sum : 0);
  d.bounds = a->bounds;
  d.bucket_counts = a->bucket_counts;
  if (b != nullptr && b->bucket_counts.size() == d.bucket_counts.size()) {
    for (size_t i = 0; i < d.bucket_counts.size(); ++i) {
      d.bucket_counts[i] -= b->bucket_counts[i];
    }
  }
  return d;
}

// Nearest-rank percentile of a histogram delta, resolved to the upper
// bound of the bucket holding that rank (the +Inf bucket reports the
// last finite bound). 0 when the delta is empty.
inline double HistogramPercentile(const MetricDelta& d, double p) {
  uint64_t total = 0;
  for (uint64_t c : d.bucket_counts) total += c;
  if (total == 0 || d.bounds.empty()) return 0;
  auto rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, total);
  uint64_t seen = 0;
  for (size_t i = 0; i < d.bucket_counts.size(); ++i) {
    seen += d.bucket_counts[i];
    if (seen >= rank) return d.bounds[std::min(i, d.bounds.size() - 1)];
  }
  return d.bounds.back();
}

// Open-loop request timing. Request i of a generator started at time 0
// with rate r is due at i / r; it is timed from when it was due, not from
// when the generator got round to sending it, so a stall that delays
// later requests is charged to them (no coordinated omission). Lateness
// is how far behind schedule the generator itself issued the request.
struct OpenLoopTiming {
  double latency_s = 0;   // done - due
  double lateness_s = 0;  // issued - due (>= 0)
};

inline double DueTime(uint64_t i, double rate_per_s) {
  return static_cast<double>(i) / rate_per_s;
}

inline OpenLoopTiming TimeFromDue(double due_s, double issued_s,
                                  double done_s) {
  return {done_s - due_s, std::max(0.0, issued_s - due_s)};
}

}  // namespace qppt::perfbench

#endif  // QPPT_PERFBENCH_METRICS_H_
