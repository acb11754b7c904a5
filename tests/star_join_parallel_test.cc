// Parallel star join across index families (ISSUE 4).
//
// The star join's synchronous scan now has three main-pair shapes —
// KISS x KISS, prefix x prefix (branching-level pair morsels), and the
// mixed KISS x prefix batched-probe path — and all of them must produce
// results identical to the serial reference, across worker counts, on
// real SSB plans. The index families are steered two ways:
//   * SsbConfig::prefer_kiss=false builds prefix-tree BASE indexes,
//   * PlanKnobs::table_options.prefer_kiss=false builds prefix-tree
//     INTERMEDIATES,
// so the four combinations cover kiss x kiss, both mixed orientations,
// and prefix x prefix. Runs under the TSan CI job (label: engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/operators/star_join.h"
#include "core/plan.h"
#include "core/query/query_spec.h"
#include "core/sync_scan.h"
#include "engine/scheduler.h"
#include "engine/session.h"
#include "ssb/queries_qppt.h"
#include "util/rng.h"

namespace qppt::ssb {
namespace {

constexpr double kScaleFactor = 0.01;

class StarJoinParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbConfig kiss_cfg;
    kiss_cfg.scale_factor = kScaleFactor;
    kiss_cfg.seed = 7;
    auto kiss = Generate(kiss_cfg);
    ASSERT_TRUE(kiss.ok());
    kiss_data_ = kiss->release();

    SsbConfig prefix_cfg = kiss_cfg;
    prefix_cfg.prefer_kiss = false;  // prefix-tree base indexes
    auto prefix = Generate(prefix_cfg);
    ASSERT_TRUE(prefix.ok());
    prefix_data_ = prefix->release();
  }
  static void TearDownTestSuite() {
    delete kiss_data_;
    kiss_data_ = nullptr;
    delete prefix_data_;
    prefix_data_ = nullptr;
  }

  static void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                                const std::string& label) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << label << " row " << i;
      for (size_t c = 0; c < a.rows[i].size(); ++c) {
        ASSERT_EQ(a.rows[i][c], b.rows[i][c])
            << label << " row " << i << " col " << c;
      }
    }
  }

  static SsbData* kiss_data_;
  static SsbData* prefix_data_;
};

SsbData* StarJoinParallelTest::kiss_data_ = nullptr;
SsbData* StarJoinParallelTest::prefix_data_ = nullptr;

// The whole flight: every query's star join must agree in every family.
const std::vector<std::string>& GridQueries() { return AllQueryIds(); }

TEST_F(StarJoinParallelTest, AllFamilyCombosAgreeWithSerialAcrossThreads) {
  struct Combo {
    const char* name;
    SsbData* data;
    bool intermediates_kiss;
  };
  const Combo combos[] = {
      {"kiss x kiss", kiss_data_, true},
      {"kiss base x prefix intermediates (mixed)", kiss_data_, false},
      {"prefix base x kiss intermediates (mixed)", prefix_data_, true},
      {"prefix x prefix", prefix_data_, false},
  };
  for (const auto& combo : combos) {
    PlanKnobs knobs;
    knobs.table_options.prefer_kiss = combo.intermediates_kiss;
    for (const auto& id : GridQueries()) {
      auto reference = RunQppt(*kiss_data_, id, PlanKnobs{});
      ASSERT_TRUE(reference.ok()) << reference.status();
      for (size_t threads : {1, 2, 8}) {
        engine::EngineConfig cfg;
        cfg.threads = threads;
        cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
        engine::EngineRunner runner(cfg);
        PlanStats stats;
        auto got = RunQppt(runner, *combo.data, id, knobs, &stats);
        ASSERT_TRUE(got.ok())
            << combo.name << " Q" << id << " t=" << threads << ": "
            << got.status();
        ExpectSameResults(*reference, *got,
                          std::string(combo.name) + " Q" + id + " t=" +
                              std::to_string(threads));
      }
    }
  }
}

// Acceptance: the star join with prefix-tree mains must actually execute
// on the worker pool — PlanStats shows morsels > 1 at threads > 1 for
// the join operator, not just for upstream selections.
TEST_F(StarJoinParallelTest, PrefixMainsStarJoinRunsMorselParallel) {
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss = false;
  engine::EngineConfig cfg;
  cfg.threads = 8;
  cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
  engine::EngineRunner runner(cfg);
  for (const std::string id : {"2.1", "3.1"}) {
    PlanStats stats;
    auto result = RunQppt(runner, *prefix_data_, id, knobs, &stats);
    ASSERT_TRUE(result.ok()) << result.status();
    bool join_parallel = false;
    for (const auto& op : stats.operators) {
      if (op.name.rfind("join:", 0) == 0 && op.morsels > 1) {
        join_parallel = true;
      }
    }
    EXPECT_TRUE(join_parallel)
        << "Q" << id << " star join stayed serial:\n" << stats.ToString();
  }
}

// Deeper pair morsels: small dimension domains put the prefix-tree
// branching level at a couple of slots, fewer than the workers. The
// driver descends below it, so a t=4 prefix x prefix star join still runs
// at least one morsel per worker, with the serial result.
TEST(StarJoinPairMorselTest, NarrowBranchingLevelStillFeedsEveryWorker) {
  constexpr size_t kThreads = 4;
  constexpr int64_t kDimKeys = 300;  // keys 1..300 branch into 2 slots
  constexpr int64_t kFacts = 20000;
  Database db;
  Schema dim_schema({{"key", ValueType::kInt64, nullptr},
                     {"attr", ValueType::kInt64, nullptr}});
  auto dim = std::make_unique<RowTable>(dim_schema, "dim");
  for (int64_t k = 1; k <= kDimKeys; ++k) {
    uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k % 7)};
    dim->AppendRow(row);
  }
  ASSERT_TRUE(db.AddTable(std::move(dim)).ok());
  Schema fact_schema({{"key", ValueType::kInt64, nullptr},
                      {"amount", ValueType::kInt64, nullptr}});
  auto fact = std::make_unique<RowTable>(fact_schema, "fact");
  Rng rng(11);
  for (int64_t i = 0; i < kFacts; ++i) {
    uint64_t row[2] = {
        SlotFromInt64(1 + static_cast<int64_t>(rng.NextBounded(kDimKeys))),
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(1000)))};
    fact->AppendRow(row);
  }
  ASSERT_TRUE(db.AddTable(std::move(fact)).ok());
  BaseIndex::Options prefix;
  prefix.prefer_kiss = false;
  ASSERT_TRUE(db.BuildIndex("dim_pk", "dim", {"key"}, {"attr"}, prefix).ok());
  ASSERT_TRUE(
      db.BuildIndex("fact_key", "fact", {"key"}, {"amount"}, prefix).ok());
  const PrefixTree* fact_tree = db.index("fact_key").value()->prefix();
  const PrefixTree* dim_tree = db.index("dim_pk").value()->prefix();
  ASSERT_NE(fact_tree, nullptr);
  ASSERT_NE(dim_tree, nullptr);
  ASSERT_LT(FindPairScanLevel(*fact_tree, *dim_tree).slots.size(), kThreads)
      << "the premise: fewer branching-level pairs than workers";

  StarJoinSpec spec;
  spec.left = SideRef::Base("fact_key");
  spec.left_columns = {"key", "amount"};
  spec.right = SideRef::Base("dim_pk");
  spec.right_columns = {"attr"};
  spec.output.slot = "out";
  spec.output.key_columns = {"attr"};
  auto run = [&](size_t threads, engine::WorkerPool* pool, size_t* morsels) {
    PlanKnobs knobs;
    knobs.threads = threads;
    knobs.table_options.prefer_kiss = false;
    ExecContext ctx(&db, knobs);
    if (pool != nullptr) ctx.set_worker_pool(pool);
    StarJoinOp op(spec);
    EXPECT_TRUE(op.Execute(&ctx).ok());
    *morsels = ctx.stats()->operators.at(0).morsels;
    const IndexedTable* out = ctx.Get("out").value();
    const size_t width = out->schema().num_columns();
    std::vector<std::vector<uint64_t>> rows;
    for (uint64_t id = 0; id < out->num_tuples(); ++id) {
      rows.emplace_back(out->Tuple(id), out->Tuple(id) + width);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  size_t serial_morsels = 0;
  auto serial = run(1, nullptr, &serial_morsels);
  EXPECT_EQ(serial.size(), static_cast<size_t>(kFacts));
  engine::WorkerPool pool(kThreads);
  size_t morsels = 0;
  auto parallel = run(kThreads, &pool, &morsels);
  EXPECT_GE(morsels, kThreads);
  EXPECT_EQ(parallel, serial);
}

// The mixed kiss/prefix path morsel-parallelizes over the KISS side too.
TEST_F(StarJoinParallelTest, MixedMainsStarJoinRunsMorselParallel) {
  PlanKnobs knobs;
  knobs.table_options.prefer_kiss = false;  // intermediates prefix
  engine::EngineConfig cfg;
  cfg.threads = 8;
  cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
  engine::EngineRunner runner(cfg);
  PlanStats stats;
  auto result = RunQppt(runner, *kiss_data_, "2.1", knobs, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  bool join_parallel = false;
  for (const auto& op : stats.operators) {
    if (op.name.rfind("join:", 0) == 0 && op.morsels > 1) {
      join_parallel = true;
    }
  }
  EXPECT_TRUE(join_parallel)
      << "mixed-mains star join stayed serial:\n" << stats.ToString();
}

// Partitioned parallel merge on real plans: an unfused Q1.1 runs a big
// parallel selection with a plain output (the KISS case), and a chained
// ways=2 plan with prefix intermediates runs the mixed star join into a
// plain prefix output (the branching-level prefix case). Both must
// report merge morsels and agree with the serial reference.
TEST_F(StarJoinParallelTest, PartitionedMergeKicksInAndPreservesResults) {
  {
    PlanKnobs knobs;
    knobs.use_select_join = false;  // selection materializes a plain table
    auto reference = RunQppt(*kiss_data_, "1.1", knobs);
    ASSERT_TRUE(reference.ok()) << reference.status();
    engine::EngineConfig cfg;
    cfg.threads = 8;
    cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
    engine::EngineRunner runner(cfg);
    PlanStats stats;
    auto got = RunQppt(runner, *kiss_data_, "1.1", knobs, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResults(*reference, *got, "unfused Q1.1 kiss merge");
    uint64_t merge_morsels = 0;
    for (const auto& op : stats.operators) merge_morsels += op.merge_morsels;
    EXPECT_GT(merge_morsels, 1u)
        << "plain-output merge stayed serial:\n" << stats.ToString();
    EXPECT_GT(stats.TotalMergeMs(), 0.0);
  }
  {
    PlanKnobs knobs;
    knobs.max_join_ways = 2;  // chained joins with plain intermediates
    knobs.table_options.prefer_kiss = false;
    auto reference = RunQppt(*kiss_data_, "4.1", knobs);
    ASSERT_TRUE(reference.ok()) << reference.status();
    engine::EngineConfig cfg;
    cfg.threads = 8;
    cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
    engine::EngineRunner runner(cfg);
    PlanStats stats;
    auto got = RunQppt(runner, *kiss_data_, "4.1", knobs, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectSameResults(*reference, *got, "chained Q4.1 prefix merge");
    EXPECT_GT(stats.TotalMergeMorsels(), 1u)
        << "chained Q4.1 merges stayed serial:\n" << stats.ToString();
    auto serial_ref = RunQppt(*kiss_data_, "4.1", PlanKnobs{});
    ASSERT_TRUE(serial_ref.ok());
    ExpectSameResults(*serial_ref, *got, "chained Q4.1 vs default plan");
  }
}

// Aggregated outputs now merge key-range-partitioned too. At SF 0.01
// only operators scanning the lineorder fact (60 K tuples) fork, so the
// probe is a dimension-less aggregation over the fact index — the §3
// aggregation-on-insert shape with enough groups (one per order date)
// to partition: the aggregated operator itself must report merge shards
// at 8 threads, for a KISS final (single group key) and a prefix final
// (composite group key), with results identical to the serial merge.
TEST_F(StarJoinParallelTest, AggregatedMergePartitionsOnFactAggregation) {
  engine::EngineConfig serial_cfg;
  serial_cfg.threads = 1;
  engine::EngineRunner serial_runner(serial_cfg);
  engine::EngineConfig cfg;
  cfg.threads = 8;
  cfg.clamp_threads_to_hardware = false;  // tiny CI boxes
  engine::EngineRunner runner(cfg);

  struct Shape {
    const char* name;
    std::vector<std::string> group_by;
  };
  const Shape shapes[] = {
      {"kiss final (lo_orderdate)", {"lo_orderdate"}},
      {"prefix final (lo_orderdate, lo_discount)",
       {"lo_orderdate", "lo_discount"}},
  };
  for (const auto& shape : shapes) {
    query::QueryBuilder b(std::string("fact_agg:") + shape.name);
    b.From("lineorder").FactIndex("lo_discount").FactColumns(
        {"lo_orderdate", "lo_discount", "lo_extendedprice"});
    b.GroupBy(shape.group_by)
        .Aggregate(AggFn::kSum, ScalarExpr::Column("lo_extendedprice"),
                   "sum_price")
        .Aggregate(AggFn::kCount, ScalarExpr::Column("lo_extendedprice"),
                   "cnt")
        .Aggregate(AggFn::kMin, ScalarExpr::Column("lo_extendedprice"),
                   "min_price")
        .Aggregate(AggFn::kMax, ScalarExpr::Column("lo_extendedprice"),
                   "max_price");
    query::QuerySpec spec = std::move(b).Build();

    auto reference =
        serial_runner.Execute(kiss_data_->db, spec, PlanKnobs{});
    ASSERT_TRUE(reference.ok()) << shape.name << ": " << reference.status();
    PlanStats stats;
    auto got = runner.Execute(kiss_data_->db, spec, PlanKnobs{}, &stats);
    ASSERT_TRUE(got.ok()) << shape.name << ": " << got.status();
    ExpectSameResults(*reference, *got, shape.name);

    uint64_t agg_merge_morsels = 0;
    for (const auto& op : stats.operators) {
      if (op.output_desc.find("aggregated") != std::string::npos) {
        agg_merge_morsels += op.merge_morsels;
      }
    }
    EXPECT_GT(agg_merge_morsels, 1u)
        << shape.name << " aggregated-output merge stayed serial:\n"
        << stats.ToString();
  }
  // Each executed operator site carries its own adaptive morsel tuner.
  EXPECT_GE(runner.pool()->num_tuner_sites(), 1u);
}

}  // namespace
}  // namespace qppt::ssb
