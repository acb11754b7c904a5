// Observability x SSB integration (ISSUE 7 acceptance): a traced
// 8-worker Q4.1 must produce morsel spans on at least two workers with
// driver-lane operator spans that agree with the executed PlanStats,
// the trace must export as well-formed chrome://tracing JSON, EXPLAIN
// ANALYZE must align line-for-line with ExplainPlan, and a reused
// PlanStats must never double-report. Runs under the TSan CI job
// (`ctest -L engine`).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/query/planner.h"
#include "engine/session.h"
#include "obs/trace.h"
#include "ssb/queries_qppt.h"

namespace qppt::ssb {
namespace {

class ObsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbConfig cfg;
    cfg.scale_factor = 0.02;  // above the morsel threshold, CI/TSan-sized
    cfg.seed = 11;
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok());
    data_ = data->release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static SsbData* data_;
};

SsbData* ObsEngineTest::data_ = nullptr;

TEST_F(ObsEngineTest, TracedQ41CoversMultipleWorkers) {
  engine::EngineConfig cfg;
  cfg.threads = 8;
  cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
  engine::EngineRunner runner(cfg);

  PlanKnobs knobs;
  knobs.trace = true;
  // Morsel spans must land on >= 2 distinct workers — the whole point of
  // the timeline is seeing the fan-out. On a single-vCPU box one worker
  // can occasionally drain the whole batch before the others wake, so
  // retry a few times; any multi-core machine passes on the first run.
  PlanStats stats;
  std::set<uint32_t> morsel_workers;
  double operator_span_ms = 0;
  size_t operator_spans = 0;
  for (int attempt = 0; attempt < 20 && morsel_workers.size() < 2;
       ++attempt) {
    morsel_workers.clear();
    operator_span_ms = 0;
    operator_spans = 0;
    auto result = RunQppt(runner, *data_, "4.1", knobs, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_NE(stats.trace, nullptr);
    EXPECT_EQ(stats.trace->num_worker_lanes(), 8u);
    ASSERT_GT(stats.trace->num_spans(), 0u);
    stats.trace->ForEachSpan([&](const obs::TraceSpan& span) {
      EXPECT_LE(span.t_start_us, span.t_end_us);
      if (span.kind == obs::SpanKind::kMorsel) {
        morsel_workers.insert(span.worker);
      } else if (span.kind == obs::SpanKind::kOperator) {
        operator_span_ms += (span.t_end_us - span.t_start_us) / 1000.0;
        ++operator_spans;
      }
    });
  }
  EXPECT_GE(morsel_workers.size(), 2u);

  // The driver lane records one span per plan operator; their summed
  // duration is the operator-execution time and must agree with
  // PlanStats::total_ms within 10% (they wrap the same Execute calls).
  EXPECT_EQ(operator_spans, stats.operators.size());
  ASSERT_GT(stats.total_ms, 0.0);
  EXPECT_NEAR(operator_span_ms, stats.total_ms,
              0.1 * stats.total_ms + 0.05);

  // And the export is loadable chrome://tracing JSON.
  std::string json = obs::TraceToJson(*stats.trace);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"operator\""), std::string::npos);
}

TEST_F(ObsEngineTest, TraceAbsentUnlessRequested) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.clamp_threads_to_hardware = false;
  engine::EngineRunner runner(cfg);
  PlanStats stats;
  auto result = RunQppt(runner, *data_, "1.1", PlanKnobs{}, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(stats.trace, nullptr);
}

TEST_F(ObsEngineTest, ExplainAnalyzeAlignsWithExplainPlan) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.clamp_threads_to_hardware = false;
  engine::EngineRunner runner(cfg);

  auto spec = BuildQuerySpec(*data_, "2.1");
  ASSERT_TRUE(spec.ok()) << spec.status();
  PlanKnobs knobs;
  auto explain = query::ExplainPlan(data_->db, *spec, knobs);
  ASSERT_TRUE(explain.ok()) << explain.status();
  PlanStats stats;
  auto analyze = runner.ExplainAnalyze(data_->db, *spec, knobs, &stats);
  ASSERT_TRUE(analyze.ok()) << analyze.status();

  // Every ExplainPlan line appears in ExplainAnalyze, in order — the
  // analyze output is the plan rendering with stats interleaved.
  size_t pos = 0;
  size_t line_start = 0;
  const std::string& plan_text = *explain;
  while (line_start < plan_text.size()) {
    size_t line_end = plan_text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = plan_text.size();
    std::string line =
        plan_text.substr(line_start, line_end - line_start);
    if (!line.empty()) {
      size_t found = analyze->find(line, pos);
      ASSERT_NE(found, std::string::npos)
          << "plan line missing from analyze: " << line;
      pos = found + line.size();
    }
    line_start = line_end + 1;
  }

  // One "    -> ..." stats row per executed operator (line-anchored:
  // the stage lines' detail column also contains "-> "), plus the
  // execution summary trailer.
  size_t stat_rows = 0;
  line_start = 0;
  while (line_start < analyze->size()) {
    if (analyze->compare(line_start, 7, "    -> ") == 0) ++stat_rows;
    size_t eol = analyze->find('\n', line_start);
    if (eol == std::string::npos) break;
    line_start = eol + 1;
  }
  EXPECT_GT(stats.operators.size(), 0u);
  EXPECT_EQ(stat_rows, stats.operators.size());
  EXPECT_NE(analyze->find("executed: total "), std::string::npos);
  EXPECT_NE(analyze->find("threads 2"), std::string::npos);
}

// Regression for the wall_ms double-reporting risk: PlanStats
// accumulates operator rows, so the engine runner and the SSB drivers
// Clear() caller stats at entry — a reused PlanStats must describe only
// the LAST execution.
TEST_F(ObsEngineTest, ReusedPlanStatsDescribeOnlyTheLastRun) {
  engine::EngineConfig cfg;
  cfg.threads = 2;
  cfg.clamp_threads_to_hardware = false;
  engine::EngineRunner runner(cfg);

  PlanStats stats;
  auto first = RunQppt(runner, *data_, "1.1", PlanKnobs{}, &stats);
  ASSERT_TRUE(first.ok()) << first.status();
  const size_t first_ops = stats.operators.size();
  ASSERT_GT(first_ops, 0u);

  auto second = RunQppt(runner, *data_, "1.1", PlanKnobs{}, &stats);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(stats.operators.size(), first_ops);

  // Same contract on the serial driver.
  auto serial = RunQppt(*data_, "1.1", PlanKnobs{}, &stats);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(stats.operators.size(), first_ops);
}

// The candidate funnel of SF-0.01 Q4.1 on both base-index families: per
// operator the counts chain (staged -> each assist -> inserted), the star
// join's assists cut the candidates down, and the serial and the
// 4-worker run count exactly the same rows. ToString and ExplainAnalyze
// print it.
TEST(CandidateFunnelTest, Q41FunnelChainsAndMatchesAcrossThreads) {
  for (bool kiss : {true, false}) {
    SCOPED_TRACE(kiss ? "kiss" : "prefix");
    SsbConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.seed = 11;
    cfg.prefer_kiss = kiss;
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    PlanKnobs knobs;
    knobs.table_options.prefer_kiss = kiss;

    std::vector<PlanStats> runs;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      engine::EngineConfig ecfg;
      ecfg.threads = threads;
      ecfg.clamp_threads_to_hardware = false;
      engine::EngineRunner runner(ecfg);
      PlanStats stats;
      auto result = RunQppt(runner, **data, "4.1", knobs, &stats);
      ASSERT_TRUE(result.ok()) << result.status();
      runs.push_back(std::move(stats));
    }

    const PlanStats& serial = runs[0];
    const PlanStats& parallel = runs[1];
    ASSERT_EQ(serial.operators.size(), parallel.operators.size());
    EXPECT_GT(parallel.TotalMorsels(), 0u) << "the t=4 run must fork";
    const OperatorStats* star = nullptr;
    for (size_t i = 0; i < serial.operators.size(); ++i) {
      const OperatorStats& op = serial.operators[i];
      SCOPED_TRACE(op.name);
      uint64_t rows = op.candidate_rows;
      for (const AssistFunnel& stage : op.funnel) {
        EXPECT_EQ(stage.rows_in, rows) << stage.index;
        EXPECT_LE(stage.rows_out, stage.rows_in) << stage.index;
        rows = stage.rows_out;
      }
      EXPECT_EQ(op.inserted_rows, rows);

      const OperatorStats& par = parallel.operators[i];
      EXPECT_EQ(par.candidate_rows, op.candidate_rows);
      EXPECT_EQ(par.inserted_rows, op.inserted_rows);
      ASSERT_EQ(par.funnel.size(), op.funnel.size());
      for (size_t a = 0; a < op.funnel.size(); ++a) {
        EXPECT_EQ(par.funnel[a].index, op.funnel[a].index);
        EXPECT_EQ(par.funnel[a].rows_in, op.funnel[a].rows_in);
        EXPECT_EQ(par.funnel[a].rows_out, op.funnel[a].rows_out);
      }
      if (op.funnel.size() >= 2) star = &op;
    }
    // Q4.1's star join probes supplier and part assists; each drops rows.
    ASSERT_NE(star, nullptr) << serial.ToString();
    EXPECT_GT(star->candidate_rows, star->funnel[0].rows_out);
    EXPECT_GT(star->funnel[0].rows_out, star->funnel.back().rows_out);
    EXPECT_GT(star->inserted_rows, 0u);
    EXPECT_NE(serial.ToString().find("    funnel: " + star->FunnelString()),
              std::string::npos)
        << serial.ToString();

    engine::EngineRunner runner(engine::EngineConfig{});
    auto spec = BuildQuerySpec(**data, "4.1");
    ASSERT_TRUE(spec.ok()) << spec.status();
    auto analyze = runner.ExplainAnalyze((*data)->db, *spec, knobs);
    ASSERT_TRUE(analyze.ok()) << analyze.status();
    EXPECT_NE(analyze->find(" | funnel " + star->FunnelString()),
              std::string::npos)
        << *analyze;
  }
}

// The time split of every Q4.1 scan operator adds up: its assists'
// probe_ms plus fill_ms is its materialize_ms (all of one worker, the
// one with the largest materialize_ms), and none is negative. ToString
// and ExplainAnalyze print the split on the funnel line.
TEST(CandidateFunnelTest, Q41ProbeAndFillTimesSumToMaterialize) {
  for (bool kiss : {true, false}) {
    SCOPED_TRACE(kiss ? "kiss" : "prefix");
    SsbConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.seed = 11;
    cfg.prefer_kiss = kiss;
    auto data = Generate(cfg);
    ASSERT_TRUE(data.ok()) << data.status();
    PlanKnobs knobs;
    knobs.table_options.prefer_kiss = kiss;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      engine::EngineConfig ecfg;
      ecfg.threads = threads;
      ecfg.clamp_threads_to_hardware = false;
      engine::EngineRunner runner(ecfg);
      PlanStats stats;
      auto result = RunQppt(runner, **data, "4.1", knobs, &stats);
      ASSERT_TRUE(result.ok()) << result.status();
      const OperatorStats* star = nullptr;
      for (const OperatorStats& op : stats.operators) {
        SCOPED_TRACE(op.name);
        double parts = op.fill_ms;
        EXPECT_GE(op.fill_ms, 0.0);
        for (const AssistFunnel& stage : op.funnel) {
          EXPECT_GE(stage.probe_ms, 0.0) << stage.index;
          parts += stage.probe_ms;
        }
        EXPECT_GE(op.materialize_ms, 0.0);
        EXPECT_NEAR(parts, op.materialize_ms, 1e-6);
        if (op.funnel.size() >= 2) star = &op;
      }
      ASSERT_NE(star, nullptr) << stats.ToString();
      EXPECT_GT(star->materialize_ms, 0.0);
      EXPECT_NE(stats.ToString().find(star->FunnelTimesString()),
                std::string::npos)
          << stats.ToString();
      EXPECT_NE(star->FunnelTimesString().find("fill_ms"), std::string::npos);
      EXPECT_NE(star->FunnelTimesString().find(
                    "probe_ms " + star->funnel[0].index),
                std::string::npos)
          << star->FunnelTimesString();
    }
    engine::EngineRunner runner(engine::EngineConfig{});
    auto spec = BuildQuerySpec(**data, "4.1");
    ASSERT_TRUE(spec.ok()) << spec.status();
    auto analyze = runner.ExplainAnalyze((*data)->db, *spec, knobs);
    ASSERT_TRUE(analyze.ok()) << analyze.status();
    EXPECT_NE(analyze->find("; probe_ms "), std::string::npos) << *analyze;
    EXPECT_NE(analyze->find(" fill_ms "), std::string::npos) << *analyze;
  }
}

}  // namespace
}  // namespace qppt::ssb
