// qppt_perfbench — the repository benchmark: three named workloads run
// against the public engine API, every output checked, one JSON result.
//
//   qppt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>] [--git-describe <text>]
//   qppt_perfbench --self-test
//
// Workloads (README.md has the why of each):
//   ssb-kiss-serial      SF 1, KISS base indexes, 1 worker, closed-loop flights
//   ssb-prefix-parallel  SF 1, prefix-tree family, 3 workers + 1 client
//   htap-mixed           SF 0.5, versioned lineorder, serial OLAP client plus
//                        an open-loop writer (500 txn/s, periodic reclaim)
//                        and an open-loop point reader (2,000 reads/s)
//
// A run: oracle (column engine on a plain twin of the data) -> timed
// set-up, repeated kSetupReps times -> one warm-up flight checked against
// the oracle -> the measured window of whole 13-query flights -> post-window
// checks. --trace 1 splits the window into an untraced and a traced half,
// records spans from this file only, and reports per-layer metrics; --trace 0
// reports the end-to-end metrics. The last stdout line is the result object.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/base_index.h"
#include "core/plan.h"
#include "core/query/planner.h"
#include "core/query/query_spec.h"
#include "engine/retry.h"
#include "engine/session.h"
#include "engine/write_session.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "ssb/dbgen.h"
#include "ssb/queries_baseline.h"
#include "ssb/queries_qppt.h"
#include "util/rng.h"

#ifndef QPPT_BENCH_BUILD_TYPE
#define QPPT_BENCH_BUILD_TYPE "unknown"
#endif

namespace qppt::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  double sf;
  bool prefer_kiss;
  bool versioned;
  size_t workers;
  double commit_rate;  // open-loop writer, txn/s (0 = no writer)
  double read_rate;    // open-loop point reader, reads/s (0 = no reader)
};

constexpr Workload kWorkloads[] = {
    {"ssb-kiss-serial", 0.5, true, false, 1, 0, 0},
    {"ssb-prefix-parallel", 0.5, false, false, 3, 0, 0},
    {"htap-mixed", 0.5, true, true, 1, 500, 2000},
};

// Set-up is repeated and its median reported: one set-up is a single
// sample of a multi-second, allocation-heavy phase.
constexpr int kSetupReps = 5;
// Writer transactions mirror bench_engine_htap's WriterLoop shape.
constexpr size_t kTxnInserts = 8;
constexpr size_t kTxnUpdates = 4;
constexpr double kReclaimPeriodS = 1.0;
// Mixed-phase queries replayed at their snapshot after the window.
constexpr size_t kMaxReplays = 26;
constexpr size_t kLookupKeys = size_t{1} << 18;
constexpr int kPlanReps = 5;

const Clock::time_point g_origin = Clock::now();

double NowS() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---- host diagnostics (recorded, never gated or used to normalize) --------

struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuJiffies ReadProcStat() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return j;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealPct(const CpuJiffies& a, const CpuJiffies& b) {
  uint64_t total = b.total - a.total;
  return total == 0 ? 0 : 100.0 * static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(total);
}

volatile uint64_t g_calib_sink = 0;

// Fixed-work integer kernel: its time tracks how fast the host runs this
// process, independent of the engine.
double CalibrateMs() {
  Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 2654435761ULL;
  }
  g_calib_sink = acc;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---- result fingerprints ---------------------------------------------------

void Mix(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

uint64_t Fingerprint(const QueryResult& r) {
  uint64_t h = r.rows.size();
  for (const auto& row : r.rows) {
    Mix(&h, row.size());
    for (const Value& v : row) {
      Mix(&h, static_cast<uint64_t>(v.type()));
      if (v.is_int()) {
        Mix(&h, static_cast<uint64_t>(v.AsInt()));
      } else if (v.is_double()) {
        double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        Mix(&h, bits);
      } else {
        for (char c : v.AsString()) Mix(&h, static_cast<uint8_t>(c));
      }
    }
  }
  return h;
}

// Order-independent fingerprint of a point read's tuple ids (PointRead
// returns duplicates in unspecified order).
struct IdSetPrint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t mixed = 0;
  bool operator==(const IdSetPrint&) const = default;
};

IdSetPrint IdSetFingerprint(const std::vector<uint64_t>& ids) {
  IdSetPrint p;
  p.count = ids.size();
  for (uint64_t id : ids) {
    p.sum += id;
    p.mixed += (id + 1) * 0xff51afd7ed558ccdULL ^ (id >> 17);
  }
  return p;
}

// ---- spans (traced runs only) ----------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request
  int thread = 0;
};

std::atomic<uint64_t> g_next_span{1};

// One per recording thread; merged after the threads join.
struct SpanLog {
  int thread = 0;
  std::vector<Span> spans;
  uint64_t Add(std::string name, double start_s, double end_s,
               uint64_t parent, uint64_t request) {
    uint64_t id = g_next_span.fetch_add(1, std::memory_order_relaxed);
    spans.push_back(
        {std::move(name), start_s, end_s, id, parent, request, thread});
    return id;
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// chrome://tracing "complete" events; parent and request ids in args.
void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  if (!out) Die("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                    s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
      out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << s.thread << "," << buf << ",\"args\":{\"id\":"
          << s.id << ",\"parent\":" << s.parent << ",\"request\":"
          << s.request << "}}";
    }
  }
  out << "\n]}\n";
}

// ---- the OLAP client ----------------------------------------------------------

struct QueryRun {
  size_t id_index = 0;
  double start_s = 0;
  double ms = 0;
  double column_ms = 0;  // the paired column-engine run of the same query
  uint64_t read_ts = 0;
  uint64_t fingerprint = 0;
  bool ok = false;
};

struct OpStats {
  double star_join_ms = 0, select_join_ms = 0, selection_ms = 0,
         other_ms = 0, materialize_ms = 0, index_ms = 0, merge_ms = 0,
         unattributed_ms = 0;
  uint64_t input_tuples = 0, result_rows = 0, output_bytes = 0, morsels = 0;
  std::vector<double> query_self_ms;

  void Add(const PlanStats& st, size_t rows) {
    double total = 0;
    for (const OperatorStats& op : st.operators) {
      double* bucket = &other_ms;
      if (op.name.starts_with("join:")) {
        bucket = &star_join_ms;
      } else if (op.name.starts_with("sjoin:")) {
        bucket = &select_join_ms;
      } else if (op.name.starts_with("sel:")) {
        bucket = &selection_ms;
      }
      *bucket += op.total_ms;
      total += op.total_ms;
      materialize_ms += op.materialize_ms;
      index_ms += op.index_ms;
      merge_ms += op.merge_ms;
      unattributed_ms +=
          op.total_ms - op.materialize_ms - op.index_ms - op.merge_ms;
      input_tuples += op.input_tuples;
      output_bytes += op.output_bytes;
      morsels += op.morsels;
    }
    result_rows += rows;
    query_self_ms.push_back(st.wall_ms - total);
  }
};

struct OlapWindow {
  std::vector<QueryRun> runs;
  double elapsed_s = 0;
  size_t flights = 0;
  OpStats ops;  // traced windows only
};

struct OlapSummary {
  double qps = 0;  // QPPT queries per second of QPPT execution time
  double geomean_ms = 0;
  double p90_ms = 0;
  double column_geomean_ms = 0;
  double column_p90_ms = 0;
  // QPPT against the column engine run right after it on the same query,
  // so both see the same host state (see README.md).
  double query_speedup = 0;   // geomean over ids of median column/QPPT
  double flight_speedup = 0;  // median over flights of column/QPPT time
};

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed) : w_(w), seed_(seed) {
    knobs_.table_options.prefer_kiss = w.prefer_kiss;
    ids_ = ssb::AllQueryIds();
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  ssb::SsbConfig Config(bool build_indexes, bool versioned) const {
    ssb::SsbConfig cfg;
    cfg.scale_factor = w_.sf;
    cfg.seed = seed_;
    cfg.prefer_kiss = w_.prefer_kiss;
    cfg.build_indexes = build_indexes;
    cfg.versioned_lineorder = versioned;
    return cfg;
  }

  // The column engine on a plain, index-free twin of the data is both
  // the oracle and the baseline every QPPT query is paired with in the
  // window. It is built before set-up and not charged to it.
  void BuildOracle() {
    twin_ = Unwrap(ssb::Generate(Config(false, false)), "oracle data");
    for (const std::string& id : ids_) {
      expected_.push_back(
          Unwrap(ssb::RunColumn(*twin_, id), "column oracle Q" + id).rows);
      reference_.push_back(Fingerprint({{}, expected_.back()}));
    }
  }

  // One timed set-up: generation + base-index build (+ the point-read
  // table on htap-mixed). Frees the previous instance first so repeated
  // set-ups never hold two copies.
  void Setup(double* generate_s, double* materialize_s) {
    by_date_ = nullptr;
    mat_ctx_.reset();
    runner_.reset();
    data_.reset();
    double t0 = NowS();
    data_ = Unwrap(ssb::Generate(Config(true, w_.versioned)), "ssb generate");
    double t1 = NowS();
    if (w_.read_rate > 0) Materialize();
    *generate_s = t1 - t0;
    *materialize_s = NowS() - t1;
  }

  void StartRunner() {
    engine::EngineConfig cfg;
    cfg.threads = w_.workers;
    runner_ = std::make_unique<engine::EngineRunner>(cfg);
    if (runner_->threads() != w_.workers) {
      Die("host has too few hardware threads for " + std::string(w_.name));
    }
  }

  // Warm-up flight: each QPPT result must equal the oracle's rows, whose
  // fingerprints every measured execution is then held to.
  void WarmUpAndCheck() {
    for (size_t i = 0; i < ids_.size(); ++i) {
      ++attempted;
      auto r = ssb::RunQppt(*runner_, *data_, ids_[i], knobs_);
      if (!r.ok() || r->rows != expected_[i]) {
        ++failed;
        std::fprintf(stderr, "perfbench: Q%s differs from the column oracle\n",
                     ids_[i].c_str());
      }
    }
    expected_.clear();
  }

  // Runs whole flights until `seconds` have elapsed, so every query id
  // is sampled equally often. Each QPPT query is followed by the same
  // query on the column engine, so both see the same host state. `check`
  // holds QPPT results to the reference (static data); otherwise their
  // fingerprints are kept for snapshot replay. Column results always are.
  OlapWindow RunFlights(double seconds, bool check, SpanLog* spans) {
    OlapWindow win;
    double t0 = NowS();
    do {
      uint64_t flight_span = 0;
      size_t flight_at = 0;
      if (spans != nullptr) {
        flight_at = spans->spans.size();
        flight_span = spans->Add("flight", NowS(), NowS(), 0, ++requests_);
      }
      for (size_t i = 0; i < ids_.size(); ++i) {
        PlanStats st;
        QueryRun run;
        run.id_index = i;
        run.start_s = NowS();
        auto r = ssb::RunQppt(*runner_, *data_, ids_[i], knobs_, &st);
        double end = NowS();
        run.ms = (end - run.start_s) * 1e3;
        run.read_ts = st.read_ts;
        ++attempted;
        if (r.ok()) {
          run.fingerprint = Fingerprint(*r);
          run.ok = !check || run.fingerprint == reference_[i];
        }
        if (!run.ok) {
          ++failed;
          std::fprintf(stderr, "perfbench: Q%s %s\n", ids_[i].c_str(),
                       r.ok() ? "result differs from reference"
                              : r.status().ToString().c_str());
        }
        double column_start = NowS();
        auto c = ssb::RunColumn(*twin_, ids_[i]);
        double column_end = NowS();
        run.column_ms = (column_end - column_start) * 1e3;
        ++attempted;
        if (!c.ok() || Fingerprint(*c) != reference_[i]) {
          ++failed;
          std::fprintf(stderr, "perfbench: column Q%s differs from the oracle\n",
                       ids_[i].c_str());
        }
        if (spans != nullptr) {
          win.ops.Add(st, r.ok() ? r->rows.size() : 0);
          uint64_t request = ++requests_;
          uint64_t q = spans->Add("query." + ids_[i], run.start_s, end,
                                  flight_span, request);
          // PlanStats rows become child spans laid end to end from the
          // query's start; the query's self time is what they leave.
          double at = run.start_s;
          for (const OperatorStats& op : st.operators) {
            spans->Add("op." + op.name, at, at + op.total_ms * 1e-3, q,
                       request);
            at += op.total_ms * 1e-3;
          }
          spans->Add("baseline.column." + ids_[i], column_start, column_end,
                     flight_span, ++requests_);
        }
        win.runs.push_back(run);
      }
      if (spans != nullptr) spans->spans[flight_at].end_s = NowS();
      ++win.flights;
    } while (NowS() - t0 < seconds);
    win.elapsed_s = NowS() - t0;
    return win;
  }

  // `runs` holds whole flights in order (RunFlights appends them so).
  OlapSummary Summarize(const std::vector<QueryRun>& runs) const {
    OlapSummary s;
    std::map<std::string, std::vector<double>> by_id, column_by_id, ratio_by_id;
    std::vector<double> all, column_all, flight_ratios;
    double qppt_ms = 0, flight_q = 0, flight_c = 0;
    for (const QueryRun& r : runs) {
      const std::string& id = ids_[r.id_index];
      by_id[id].push_back(r.ms);
      column_by_id[id].push_back(r.column_ms);
      ratio_by_id[id].push_back(Ratio(r.column_ms, r.ms));
      all.push_back(r.ms);
      column_all.push_back(r.column_ms);
      qppt_ms += r.ms;
      flight_q += r.ms;
      flight_c += r.column_ms;
      if (r.id_index + 1 == ids_.size()) {
        flight_ratios.push_back(Ratio(flight_c, flight_q));
        flight_q = flight_c = 0;
      }
    }
    s.qps = Ratio(static_cast<double>(runs.size()), qppt_ms * 1e-3);
    s.geomean_ms = GeomeanOfMedians(by_id);
    s.p90_ms = NearestRank(all, 90);
    s.column_geomean_ms = GeomeanOfMedians(column_by_id);
    s.column_p90_ms = NearestRank(column_all, 90);
    s.query_speedup = GeomeanOfMedians(ratio_by_id);
    s.flight_speedup = Median(flight_ratios);
    return s;
  }

  std::map<std::string, double> PerIdMedianMs(
      const std::vector<QueryRun>& runs) const {
    std::map<std::string, std::vector<double>> by_id;
    for (const QueryRun& r : runs) by_id[ids_[r.id_index]].push_back(r.ms);
    std::map<std::string, double> out;
    for (auto& [id, v] : by_id) out[id] = Median(v);
    return out;
  }

  // ---- htap-mixed: point-read table, writer, reader -----------------------

  // Lineorder keyed on lo_orderdate, as examples/engine_server serves
  // "order activity on day X" reads from it.
  void Materialize() {
    query::QueryBuilder mb("perfbench.by_date");
    mb.From("lineorder")
        .FactIndex("lo_discount")
        .FactColumns({"lo_orderdate", "lo_extendedprice"})
        .GroupBy({"lo_orderdate"})
        .ResultSlot("by_date");
    Plan plan = Unwrap(query::PlanQuery(data_->db, std::move(mb).Build(),
                                        PlanKnobs{}),
                       "plan by_date");
    mat_ctx_ = std::make_unique<ExecContext>(&data_->db);
    Status st = plan.Run(mat_ctx_.get());
    if (!st.ok()) Die("materialize by_date: " + st.ToString());
    by_date_ = Unwrap(mat_ctx_->Get("by_date"), "by_date slot");
  }

  // Reference for every day key: the tuple-id set one uncontended
  // PointRead returns, whose size must equal the number of lineorder rows
  // on that day (counted from the rows themselves).
  void BuildReadReference() {
    const RowTable& date = *Unwrap(data_->db.table("date"), "date table");
    size_t dk = Unwrap(date.schema().ColumnIndex("d_datekey"), "d_datekey");
    const RowTable& lo = LineorderRows();
    size_t od = Unwrap(lo.schema().ColumnIndex("lo_orderdate"), "lo_orderdate");
    std::unordered_map<int64_t, uint64_t> rows_per_day;
    for (Rid r = 0; r < lo.num_rows(); ++r) {
      ++rows_per_day[Int64FromSlot(lo.GetSlot(r, od))];
    }
    for (Rid r = 0; r < date.num_rows(); ++r) {
      int64_t key = Int64FromSlot(date.GetSlot(r, dk));
      auto ids = runner_->PointRead(*by_date_, key);
      ++attempted;
      if (!ids.ok() || ids->size() != rows_per_day[key]) {
        ++failed;
        std::fprintf(stderr, "perfbench: point read of day %" PRId64
                     " disagrees with the row count\n", key);
        continue;
      }
      read_keys_.push_back(key);
      read_ref_.push_back(IdSetFingerprint(*ids));
    }
    if (read_keys_.empty()) Die("no day key passed its reference read");
  }

  const RowTable& LineorderRows() const {
    if (w_.versioned) {
      return Unwrap(data_->db.versioned_table("lineorder"), "lineorder")
          ->storage();
    }
    return *Unwrap(data_->db.table("lineorder"), "lineorder");
  }

  struct GeneratorResult {
    std::vector<double> latency_ms;
    std::vector<double> lateness_ms;
    uint64_t issued = 0;  // due inside the measured window
    uint64_t total = 0;   // including the verification flight after it
    uint64_t failed = 0;
    std::vector<double> reclaim_ms;
    std::vector<double> versions_per_sweep;
    SpanLog spans;

    void Record(double due, double issued_at, double done,
                const std::atomic<double>& window_end) {
      ++total;
      if (due >= window_end.load(std::memory_order_acquire)) return;
      OpenLoopTiming t = TimeFromDue(due, issued_at, done);
      latency_ms.push_back(t.latency_s * 1e3);
      lateness_ms.push_back(t.lateness_s * 1e3);
      ++issued;
    }
  };

  // Open-loop writer: transaction i is due at start + i / rate whatever
  // happened to earlier ones. Reclamation runs on a fixed period between
  // transactions, so the version population stays stationary.
  void WriterLoop(double start_s, const std::atomic<double>& window_end,
                  const std::atomic<bool>& stop,
                  const std::atomic<bool>& tracing, GeneratorResult* out) {
    MvccTable& lineorder =
        *Unwrap(data_->db.versioned_table("lineorder"), "lineorder");
    const RowTable& storage = lineorder.storage();
    const size_t initial = lineorder.num_logical_rows();
    const size_t width = storage.schema().num_columns();
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<uint64_t> row(width);
    auto fill_from = [&](size_t rid) {
      for (size_t c = 0; c < width; ++c) row[c] = storage.GetSlot(rid, c);
      int64_t quantity = 1 + static_cast<int64_t>(rng.NextBounded(50));
      int64_t discount = static_cast<int64_t>(rng.NextBounded(11));
      int64_t price = 90000 + static_cast<int64_t>(rng.NextBounded(1000000));
      row[4] = SlotFromInt64(quantity);
      row[5] = SlotFromInt64(price);
      row[6] = SlotFromInt64(discount);
      row[7] = SlotFromInt64(price * (100 - discount) / 100);
    };
    double next_reclaim = start_s + kReclaimPeriodS;
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      double due = start_s + DueTime(i, w_.commit_rate);
      if (NowS() >= next_reclaim &&
          reclaim_on_.load(std::memory_order_acquire)) {
        double r0 = NowS();
        reclaim_fence_.store(data_->db.txn_manager().last_commit_ts(),
                             std::memory_order_release);
        size_t versions = runner_->ReclaimVersions(&data_->db);
        double r1 = NowS();
        out->reclaim_ms.push_back((r1 - r0) * 1e3);
        out->versions_per_sweep.push_back(static_cast<double>(versions));
        if (tracing.load(std::memory_order_relaxed)) {
          out->spans.Add("mvcc.reclaim", r0, r1, 0, 0);
        }
        next_reclaim += kReclaimPeriodS;
      }
      SleepUntil(due, stop);
      if (stop.load(std::memory_order_acquire)) break;
      double issued = NowS();
      engine::RetryOptions backoff;
      backoff.seed = rng.Next();
      Status st = engine::RetryTxn(
          runner_.get(), &data_->db,
          [&](engine::WriteSession& ws) -> Status {
            for (size_t k = 0; k < kTxnInserts; ++k) {
              fill_from(rng.NextBounded(initial));
              QPPT_RETURN_NOT_OK(ws.Insert("lineorder", row).status());
            }
            for (size_t k = 0; k < kTxnUpdates; ++k) {
              MvccTable::LogicalId id = rng.NextBounded(initial);
              fill_from(id);
              QPPT_RETURN_NOT_OK(ws.Update("lineorder", id, row));
            }
            return Status::OK();
          },
          backoff);
      double done = NowS();
      out->Record(due, issued, done, window_end);
      if (!st.ok()) ++out->failed;
      if (tracing.load(std::memory_order_relaxed)) {
        out->spans.Add("write.commit", issued, done, 0, i + 1);
      }
    }
  }

  // Open-loop point reader over the day keys, checked against the
  // set-up reference.
  void ReaderLoop(double start_s, const std::atomic<double>& window_end,
                  const std::atomic<bool>& stop,
                  const std::atomic<bool>& tracing, GeneratorResult* out) {
    Rng rng(seed_ * 0xbf58476d1ce4e5b9ULL + 2);
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      double due = start_s + DueTime(i, w_.read_rate);
      size_t k = rng.NextBounded(read_keys_.size());
      SleepUntil(due, stop);
      if (stop.load(std::memory_order_acquire)) break;
      double issued = NowS();
      auto ids = runner_->PointRead(*by_date_, read_keys_[k]);
      double done = NowS();
      out->Record(due, issued, done, window_end);
      if (!ids.ok() || !(IdSetFingerprint(*ids) == read_ref_[k])) {
        ++out->failed;
      }
      if (tracing.load(std::memory_order_relaxed)) {
        out->spans.Add("read.point", issued, done, 0, i + 1);
      }
    }
  }

  // Ends periodic reclamation, so the snapshots of queries admitted from
  // now on stay readable for ReplayAtSnapshots.
  void StopReclaim() { reclaim_on_.store(false, std::memory_order_release); }

  // Replays mixed-phase queries admitted after the last reclamation
  // sweep (older snapshots may have lost versions to it) at their pinned
  // snapshot; rows must be identical. Returns the number replayed.
  size_t ReplayAtSnapshots(const std::vector<QueryRun>& runs) {
    Timestamp fence = reclaim_fence_.load(std::memory_order_acquire);
    size_t replayed = 0;
    for (auto it = runs.rbegin(); it != runs.rend() && replayed < kMaxReplays;
         ++it) {
      if (!it->ok || it->read_ts < fence) continue;
      PlanKnobs pinned = knobs_;
      pinned.read_ts = it->read_ts;
      auto r = ssb::RunQppt(*runner_, *data_, ids_[it->id_index], pinned);
      ++attempted;
      ++replayed;
      if (!r.ok() || Fingerprint(*r) != it->fingerprint) {
        ++failed;
        std::fprintf(stderr, "perfbench: Q%s @ts=%" PRIu64
                     " differs from its snapshot replay\n",
                     ids_[it->id_index].c_str(), it->read_ts);
      }
    }
    return replayed;
  }

  // ---- per-layer probes (traced runs, after the window) --------------------

  double PlanMedianUs() const {
    std::vector<double> us;
    for (int rep = 0; rep < kPlanReps; ++rep) {
      for (const std::string& id : ids_) {
        double t0 = NowS();
        auto plan = ssb::BuildQpptPlan(*data_, id, knobs_);
        us.push_back((NowS() - t0) * 1e6);
        if (!plan.ok()) Die("plan Q" + id + ": " + plan.status().ToString());
      }
    }
    return Median(us);
  }

  // KissTree::Lookup or PrefixTree::Lookup (by family) on the lineorder
  // lo_partkey index (the largest join-key domain) with seeded keys taken
  // from lineorder rows; every key must be found.
  double LookupNs() {
    const BaseIndex* idx =
        Unwrap(data_->db.index("lo_partkey"), "lo_partkey index");
    const RowTable& lo = LineorderRows();
    size_t col = Unwrap(lo.schema().ColumnIndex("lo_partkey"), "lo_partkey");
    Rng rng(seed_ * 0x94d049bb133111ebULL + 3);
    std::vector<uint64_t> keys(kLookupKeys);
    for (uint64_t& k : keys) k = lo.GetSlot(rng.NextBounded(lo.num_rows()), col);
    size_t hits = 0;
    double t0 = NowS();
    if (idx->kind() == BaseIndex::Kind::kKiss) {
      KissTree::ValueRef ref;
      for (uint64_t k : keys) {
        hits += idx->kiss()->Lookup(BaseIndex::KissKeyOf(k), &ref) ? 1 : 0;
      }
    } else {
      KeyBuf kb;
      for (uint64_t k : keys) {
        kb.clear();
        idx->EncodeKey(&k, &kb);
        hits += idx->prefix()->Lookup(kb.data()) != nullptr ? 1 : 0;
      }
    }
    double ns = (NowS() - t0) * 1e9 / static_cast<double>(keys.size());
    ++attempted;
    if (hits != keys.size()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %zu of %zu lookups missed\n",
                   keys.size() - hits, keys.size());
    }
    return ns;
  }

  // One BaseIndex::Build over lineorder keyed on lo_partkey, in M rows/s.
  double IndexBuildMkeysS() const {
    BaseIndex::Options opt;
    opt.prefer_kiss = w_.prefer_kiss;
    const RowTable& lo = LineorderRows();
    double t0 = NowS();
    auto idx = Unwrap(BaseIndex::Build(&lo, {"lo_partkey"}, {}, opt),
                      "index build");
    double s = NowS() - t0;
    return static_cast<double>(idx->num_rows()) / s / 1e6;
  }

  engine::EngineRunner& runner() { return *runner_; }
  size_t num_read_keys() const { return read_keys_.size(); }

 private:
  static void SleepUntil(double due_s, const std::atomic<bool>& stop) {
    double wait = due_s - NowS();
    if (wait > 0 && !stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
  }

  const Workload& w_;
  uint64_t seed_;
  PlanKnobs knobs_;
  std::vector<std::string> ids_;
  std::vector<std::vector<std::vector<Value>>> expected_;
  std::vector<uint64_t> reference_;
  std::unique_ptr<ssb::SsbData> twin_;  // plain data for the column engine
  std::unique_ptr<ssb::SsbData> data_;
  std::unique_ptr<ExecContext> mat_ctx_;
  const IndexedTable* by_date_ = nullptr;
  std::vector<int64_t> read_keys_;
  std::vector<IdSetPrint> read_ref_;
  std::atomic<Timestamp> reclaim_fence_{0};
  std::atomic<bool> reclaim_on_{true};
  uint64_t requests_ = 0;  // span request ids of the OLAP client
  // Declared last: destroyed first, before the data it reads.
  std::unique_ptr<engine::EngineRunner> runner_;
};

// ---- output --------------------------------------------------------------------

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<MetricOut>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

double PctChange(double traced, double untraced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_describe = "unknown";
};

int Run(const Options& opt) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wp = &w;
  }
  if (wp == nullptr) Die("unknown workload '" + opt.workload + "'");
  const Workload& w = *wp;
  const bool htap = w.commit_rate > 0;
  Bench bench(w, opt.seed);

  bench.BuildOracle();

  // ---- set-up (timed) -----------------------------------------------------
  double generate_only_s = 0;
  if (opt.trace) {
    double t0 = NowS();
    auto bare = Unwrap(ssb::Generate(bench.Config(false, w.versioned)),
                       "ssb generate (no indexes)");
    generate_only_s = NowS() - t0;
  }
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double gen = 0, mat = 0;
    bench.Setup(&gen, &mat);
    setup_s.push_back(gen + mat);
    generate_s.push_back(gen);
  }
  bench.StartRunner();
  bench.WarmUpAndCheck();
  if (htap) bench.BuildReadReference();

  // ---- measured window ----------------------------------------------------
  auto& reg = obs::MetricsRegistry::Global();
  engine::EngineRunner& runner = bench.runner();
  const double calib_before = CalibrateMs();
  const CpuJiffies jiffies0 = ReadProcStat();
  const obs::MetricsSnapshot reg0 = reg.Snapshot();
  const engine::EngineRunner::ReadStats reads0 = runner.read_stats();
  const engine::EngineRunner::WriteStats writes0 = runner.write_stats();

  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::atomic<double> window_end{HUGE_VAL};
  Bench::GeneratorResult writer, reader;
  writer.spans.thread = 2;
  reader.spans.thread = 3;
  std::vector<std::thread> generators;
  const double gen_start = NowS();
  if (htap) {
    generators.emplace_back(
        [&] { bench.WriterLoop(gen_start, window_end, stop, tracing, &writer); });
    generators.emplace_back(
        [&] { bench.ReaderLoop(gen_start, window_end, stop, tracing, &reader); });
  }

  OlapWindow untraced, traced;
  SpanLog olap_spans;
  olap_spans.thread = 1;
  obs::MetricsSnapshot reg_t0, reg_t1;
  double cpu_t0 = 0, cpu_t1 = 0;
  const bool check = !htap;
  if (!opt.trace) {
    untraced = bench.RunFlights(opt.seconds, check, nullptr);
  } else {
    untraced = bench.RunFlights(opt.seconds / 2, check, nullptr);
    reg_t0 = reg.Snapshot();
    cpu_t0 = ProcessCpuS();
    tracing.store(true, std::memory_order_relaxed);
    traced = bench.RunFlights(opt.seconds / 2, check, &olap_spans);
    cpu_t1 = ProcessCpuS();
    reg_t1 = reg.Snapshot();
  }
  const double window_s = NowS() - gen_start;
  window_end.store(gen_start + window_s, std::memory_order_release);
  tracing.store(false, std::memory_order_relaxed);
  // One unmeasured flight still racing the writer, with reclamation off,
  // guarantees mixed-phase queries whose snapshots survive to be replayed.
  OlapWindow verify;
  if (htap) {
    bench.StopReclaim();
    verify = bench.RunFlights(0, /*check=*/false, nullptr);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : generators) t.join();

  const CpuJiffies jiffies1 = ReadProcStat();
  const obs::MetricsSnapshot reg1 = reg.Snapshot();
  const engine::EngineRunner::ReadStats reads1 = runner.read_stats();
  const engine::EngineRunner::WriteStats writes1 = runner.write_stats();
  const double calib_after = CalibrateMs();

  // ---- post-window checks ---------------------------------------------------
  std::vector<QueryRun> all_runs = untraced.runs;
  all_runs.insert(all_runs.end(), traced.runs.begin(), traced.runs.end());
  size_t replayed = 0;
  if (htap) {
    std::vector<QueryRun> candidates = all_runs;
    candidates.insert(candidates.end(), verify.runs.begin(), verify.runs.end());
    replayed = bench.ReplayAtSnapshots(candidates);
    if (replayed == 0) {
      ++bench.failed;
      std::fprintf(stderr, "perfbench: no mixed-phase query to replay\n");
    }
  }
  bench.attempted += writer.total + reader.total;

  // Two flights after the writer stopped, on the grown table: the base of
  // mvcc.snapshot_read_ratio.
  double quiesced_geomean = 0;
  if (htap && opt.trace) {
    OlapWindow q = bench.RunFlights(0, /*check=*/false, nullptr);
    OlapWindow q2 = bench.RunFlights(0, /*check=*/false, nullptr);
    q.runs.insert(q.runs.end(), q2.runs.begin(), q2.runs.end());
    quiesced_geomean = bench.Summarize(q.runs).geomean_ms;
  }
  bench.failed += writer.failed + reader.failed;

  // Stationarity: per-id medians over queries started in the first and
  // last thirds of the window.
  std::vector<QueryRun> first_third, last_third;
  if (!all_runs.empty()) {
    double t0 = all_runs.front().start_s;
    double span = all_runs.back().start_s - t0;
    for (const QueryRun& r : all_runs) {
      if (r.start_s < t0 + span / 3) first_third.push_back(r);
      if (r.start_s >= t0 + 2 * span / 3) last_third.push_back(r);
    }
  }
  const OlapSummary window = bench.Summarize(all_runs);
  const double first_geomean = bench.Summarize(first_third).geomean_ms;
  const double last_geomean = bench.Summarize(last_third).geomean_ms;

  const double commit_p50 = Median(writer.latency_ms);
  const double commit_p99 = NearestRank(writer.latency_ms, 99);
  const double read_p50_us = Median(reader.latency_ms) * 1e3;
  const double read_p99_us = NearestRank(reader.latency_ms, 99) * 1e3;

  // ---- report -----------------------------------------------------------------
  std::vector<MetricOut> metrics;
  if (!opt.trace) {
    OlapSummary s = bench.Summarize(untraced.runs);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"query_speedup_vs_column", s.query_speedup, "x"},
        {"flight_speedup_vs_column", s.flight_speedup, "x"},
    };
  } else {
    OlapSummary u = bench.Summarize(untraced.runs);
    OlapSummary t = bench.Summarize(traced.runs);
    const OpStats& ops = traced.ops;
    const double flights = static_cast<double>(std::max<size_t>(1, traced.flights));
    const double queries = static_cast<double>(std::max<size_t>(1, traced.runs.size()));
    const double gen_median = Median(generate_s);

    metrics.push_back({"qppt.qps", t.qps, "1/s"});
    metrics.push_back({"qppt.query_geomean_ms", t.geomean_ms, "ms"});
    metrics.push_back({"qppt.query_p90_ms", t.p90_ms, "ms"});
    metrics.push_back({"column.query_geomean_ms", t.column_geomean_ms, "ms"});
    metrics.push_back({"column.query_p90_ms", t.column_p90_ms, "ms"});
    metrics.push_back({"ssb.generate_s", generate_only_s, "s"});
    metrics.push_back({"ssb.index_build_s", gen_median - generate_only_s, "s"});
    metrics.push_back({"planner.plan_us", bench.PlanMedianUs(), "us"});
    metrics.push_back({"op.star_join_ms", ops.star_join_ms / flights, "ms"});
    metrics.push_back({"op.select_join_ms", ops.select_join_ms / flights, "ms"});
    metrics.push_back({"op.selection_ms", ops.selection_ms / flights, "ms"});
    metrics.push_back({"op.other_ms", ops.other_ms / flights, "ms"});
    metrics.push_back({"op.materialize_ms", ops.materialize_ms / flights, "ms"});
    metrics.push_back({"op.index_ms", ops.index_ms / flights, "ms"});
    metrics.push_back({"op.unattributed_ms", ops.unattributed_ms / flights, "ms"});
    metrics.push_back({"op.rows_examined_per_result",
                       Ratio(static_cast<double>(ops.input_tuples),
                             static_cast<double>(ops.result_rows)),
                       "ratio"});
    metrics.push_back({"op.intermediate_mib",
                       static_cast<double>(ops.output_bytes) / flights /
                           (1024.0 * 1024.0),
                       "MiB"});
    for (const auto& [id, ms] : bench.PerIdMedianMs(traced.runs)) {
      metrics.push_back({"query." + id + "_ms", ms, "ms"});
    }
    metrics.push_back({"span.query_self_ms", Median(ops.query_self_ms), "ms"});
    metrics.push_back({"index.lookup_ns", bench.LookupNs(), "ns"});
    metrics.push_back({"index.build_mkeys_s", bench.IndexBuildMkeysS(), "Mkeys/s"});

    MetricDelta busy = Delta(reg_t0, reg_t1, "engine_worker_busy_ns_total");
    MetricDelta idle = Delta(reg_t0, reg_t1, "engine_worker_idle_ns_total");
    MetricDelta executed = Delta(reg_t0, reg_t1, "engine_tasks_executed_total");
    MetricDelta stolen = Delta(reg_t0, reg_t1, "engine_tasks_stolen_total");
    metrics.push_back({"engine.morsels_per_query",
                       static_cast<double>(ops.morsels) / queries, "count"});
    metrics.push_back({"engine.worker_busy_frac",
                       Ratio(static_cast<double>(busy.counter),
                             static_cast<double>(busy.counter + idle.counter)),
                       "ratio"});
    metrics.push_back({"engine.steal_frac",
                       Ratio(static_cast<double>(stolen.counter),
                             static_cast<double>(executed.counter)),
                       "ratio"});
    metrics.push_back({"engine.cpu_util",
                       (cpu_t1 - cpu_t0) / traced.elapsed_s /
                           static_cast<double>(w.workers),
                       "ratio"});
    metrics.push_back({"engine.merge_ms", ops.merge_ms / flights, "ms"});
    metrics.push_back({"engine.tuner_refines",
                       static_cast<double>(
                           Delta(reg_t0, reg_t1, "engine_tuner_refines_total")
                               .counter),
                       "count"});
    metrics.push_back({"engine.tuner_coarsens",
                       static_cast<double>(
                           Delta(reg_t0, reg_t1, "engine_tuner_coarsens_total")
                               .counter),
                       "count"});

    MetricDelta publish = Delta(reg0, reg1, "engine_commit_publish_ms");
    MetricDelta chains = Delta(reg0, reg1, "engine_version_chain_length");
    const double commits = static_cast<double>(writer.issued);
    metrics.push_back({"reads.keys_per_scan",
                       Ratio(static_cast<double>(reads1.batched_keys -
                                                 reads0.batched_keys),
                             static_cast<double>(reads1.shared_scans -
                                                 reads0.shared_scans)),
                       "ratio"});
    metrics.push_back({"reads.p99_us", read_p99_us, "us"});
    metrics.push_back({"write.commit_publish_us",
                       Ratio(publish.sum, static_cast<double>(publish.count)) *
                           1e3,
                       "us"});
    metrics.push_back({"write.conflict_retries",
                       Ratio(static_cast<double>(writes1.retries -
                                                 writes0.retries),
                             commits),
                       "ratio"});
    metrics.push_back({"mvcc.reclaim_ms", Median(writer.reclaim_ms), "ms"});
    metrics.push_back({"mvcc.versions_per_sweep",
                       Median(writer.versions_per_sweep), "count"});
    metrics.push_back({"mvcc.chain_len_p50", HistogramPercentile(chains, 50),
                       "count"});
    metrics.push_back({"mvcc.snapshot_read_ratio",
                       htap ? Ratio(t.geomean_ms, quiesced_geomean) : 0,
                       "ratio"});
    metrics.push_back({"htap.commit_p50_ms", commit_p50, "ms"});
    metrics.push_back({"htap.commit_p99_ms", commit_p99, "ms"});
    metrics.push_back({"htap.read_p50_us", read_p50_us, "us"});
    metrics.push_back({"htap.writer_late_p99_ms",
                       NearestRank(writer.lateness_ms, 99), "ms"});
    metrics.push_back({"htap.reader_late_p99_us",
                       NearestRank(reader.lateness_ms, 99) * 1e3, "us"});
    metrics.push_back({"htap.geomean_first_third_ms", first_geomean, "ms"});
    metrics.push_back({"htap.geomean_last_third_ms", last_geomean, "ms"});
    metrics.push_back({"trace.overhead_query_speedup_pct",
                       PctChange(t.query_speedup, u.query_speedup), "%"});
    metrics.push_back({"trace.overhead_flight_speedup_pct",
                       PctChange(t.flight_speedup, u.flight_speedup), "%"});
    metrics.push_back({"trace.overhead_query_geomean_pct",
                       PctChange(t.geomean_ms, u.geomean_ms), "%"});
    metrics.push_back({"host.steal_pct", StealPct(jiffies0, jiffies1), "%"});
    metrics.push_back({"host.calib_before_ms", calib_before, "ms"});
    metrics.push_back({"host.calib_after_ms", calib_after, "ms"});

    if (!opt.trace_out.empty()) {
      std::vector<SpanLog> logs;
      logs.push_back(std::move(olap_spans));
      logs.push_back(std::move(writer.spans));
      logs.push_back(std::move(reader.spans));
      WriteSpans(opt.trace_out, logs);
    }
  }

  // Run record: configuration and host state, for tracing a noisy run.
  std::printf(
      "run: {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"sf\": %g, "
      "\"family\": \"%s\", \"workers\": %zu, \"generator_threads\": %d, "
      "\"commit_rate\": %g, \"read_rate\": %g, \"seconds\": %g, "
      "\"trace\": %d, \"build\": \"%s\", \"git\": \"%s\", "
      "\"window_s\": %.3f, \"flights\": %zu, \"setup_reps\": %d, "
      "\"commits_issued\": %" PRIu64 ", \"commits_expected\": %.0f, "
      "\"reads_issued\": %" PRIu64 ", \"reads_expected\": %.0f, "
      "\"replayed\": %zu, \"read_keys\": %zu, "
      "\"commit_p50_ms\": %.4f, \"commit_p99_ms\": %.4f, "
      "\"read_p50_us\": %.2f, \"reclaims\": %zu, "
      "\"geomean_first_third_ms\": %.3f, \"geomean_last_third_ms\": %.3f, "
      "\"qppt_qps\": %.4f, \"qppt_geomean_ms\": %.3f, \"qppt_p90_ms\": %.3f, "
      "\"column_geomean_ms\": %.3f, \"column_p90_ms\": %.3f, "
      "\"host_steal_pct\": %.3f, \"host_calib_before_ms\": %.2f, "
      "\"host_calib_after_ms\": %.2f}\n",
      w.name, opt.seed, w.sf, w.prefer_kiss ? "kiss" : "prefix", w.workers,
      htap ? 3 : 1, w.commit_rate, w.read_rate, opt.seconds,
      opt.trace ? 1 : 0, QPPT_BENCH_BUILD_TYPE, opt.git_describe.c_str(),
      window_s, untraced.flights + traced.flights, kSetupReps, writer.issued,
      w.commit_rate * window_s, reader.issued, w.read_rate * window_s,
      replayed, bench.num_read_keys(), commit_p50, commit_p99, read_p50_us,
      writer.reclaim_ms.size(), first_geomean, last_geomean, window.qps,
      window.geomean_ms, window.p90_ms, window.column_geomean_ms,
      window.column_p90_ms,
      StealPct(jiffies0, jiffies1), calib_before, calib_after);
  for (const MetricOut& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      bench.failed == 0 ? "true" : "false", bench.attempted, bench.failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return bench.failed == 0 ? 0 : 1;
}

// ---- self-test of the metric arithmetic ------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      std::fprintf(stderr, "self-test FAILED: %s = %.12g, want %.12g\n", what,
                   got, want);
      ++failures;
    }
  };
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect("p50 of 1..10", NearestRank(ten, 50), 5);
  expect("p90 of 1..10", NearestRank(ten, 90), 9);
  expect("p99 of 1..10", NearestRank(ten, 99), 10);
  expect("p0 of 1..10", NearestRank(ten, 0), 1);
  expect("p100 of 1..10", NearestRank(ten, 100), 10);
  expect("p50 of {7}", NearestRank({7}, 50), 7);
  expect("p50 of {}", NearestRank({}, 50), 0);
  expect("median of 4", Median({4, 1, 3, 2}), 2);

  // Two ids with medians 2 and 8: geomean 4, whatever the sample counts.
  std::map<std::string, std::vector<double>> by_id = {
      {"a", {1, 2, 100}}, {"b", {8}}, {"c", {}}};
  expect("geomean of medians", GeomeanOfMedians(by_id), 4);
  expect("geomean scales", GeomeanOfMedians({{"a", {3}}, {"b", {3}}}), 3);

  obs::MetricsSnapshot before, after;
  obs::MetricValue c;
  c.name = "c_total";
  c.counter = 5;
  before.metrics.push_back(c);
  c.counter = 12;
  after.metrics.push_back(c);
  obs::MetricValue h;
  h.name = "h_ms";
  h.type = obs::MetricType::kHistogram;
  h.bounds = {1, 2, 4};
  h.bucket_counts = {1, 0, 0, 0};
  h.count = 1;
  h.sum = 0.5;
  before.metrics.push_back(h);
  h.bucket_counts = {2, 3, 4, 1};
  h.count = 10;
  h.sum = 20.5;
  after.metrics.push_back(h);
  obs::MetricValue fresh;
  fresh.name = "new_total";
  fresh.counter = 3;
  after.metrics.push_back(fresh);
  // Snapshots are sorted by name (Find relies on it).
  auto by_name = [](const obs::MetricValue& a, const obs::MetricValue& b) {
    return a.name < b.name;
  };
  std::sort(before.metrics.begin(), before.metrics.end(), by_name);
  std::sort(after.metrics.begin(), after.metrics.end(), by_name);
  expect("counter delta", static_cast<double>(Delta(before, after, "c_total").counter), 7);
  expect("new counter delta",
         static_cast<double>(Delta(before, after, "new_total").counter), 3);
  MetricDelta hd = Delta(before, after, "h_ms");
  expect("histogram count delta", static_cast<double>(hd.count), 9);
  expect("histogram sum delta", hd.sum, 20);
  // Delta buckets {1,3,4,1}: rank 5 of 9 lies in the (2,4] bucket.
  expect("histogram p50", HistogramPercentile(hd, 50), 4);
  expect("histogram p10", HistogramPercentile(hd, 10), 1);
  expect("histogram p100 (+Inf bucket)", HistogramPercentile(hd, 100), 4);
  expect("missing metric", static_cast<double>(Delta(before, after, "nope").counter), 0);

  // Open loop at 500/s: request 3 is due at 6 ms. Issued at 9 ms (3 ms
  // late) and done at 10 ms: latency 4 ms from due, not 1 ms from issue.
  expect("due time", DueTime(3, 500), 0.006);
  OpenLoopTiming t = TimeFromDue(0.006, 0.009, 0.010);
  expect("latency from due", t.latency_s, 0.004);
  expect("generator lateness", t.lateness_s, 0.003);
  OpenLoopTiming early = TimeFromDue(0.006, 0.006, 0.0065);
  expect("on-time lateness", early.lateness_s, 0);
  expect("on-time latency", early.latency_s, 0.0005);

  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qppt::perfbench

int main(int argc, char** argv) {
  using qppt::perfbench::Options;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return qppt::perfbench::SelfTest();
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
      return 2;
    }
    std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else if (arg == "--git-describe") {
      opt.git_describe = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: qppt_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --self-test\n");
    return 2;
  }
  return qppt::perfbench::Run(opt);
}
