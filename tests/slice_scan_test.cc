// The ordinal-slice splitter (engine::SliceMap / RunSliceMorsels) and the
// scans built on it: selections and select-joins over clustered and
// secondary indexes, and skewed star joins, must give the serial result
// under every morsel split. Labeled `engine`, so the TSan job covers the
// parallel runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/selection.h"
#include "core/operators/star_join.h"
#include "core/plan.h"
#include "storage/mvcc.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr size_t kThreads = 4;

// ---- SliceMap ----------------------------------------------------------------

// Reassembles [begin, end) from ForEachPiece: the pieces must tile the
// units exactly, in item order, and skip empty items.
TEST(SliceMapTest, PiecesTileEveryUnitOnce) {
  engine::SliceMap map;
  const std::vector<uint64_t> units = {5, 0, 1, 17, 0, 3, 1000};
  for (uint64_t u : units) map.Add(u);
  ASSERT_EQ(map.size(), units.size());
  ASSERT_EQ(map.total(), 1026u);
  for (uint64_t step : {1u, 2u, 7u, 100u, 2000u}) {
    std::vector<uint64_t> seen(units.size(), 0);
    size_t last_item = 0;
    for (uint64_t begin = 0; begin < map.total(); begin += step) {
      const uint64_t end = std::min(map.total(), begin + step);
      uint64_t covered = 0;
      map.ForEachPiece(begin, end, [&](size_t item, uint64_t lo,
                                       uint64_t hi) {
        ASSERT_LT(item, units.size());
        EXPECT_GE(item, last_item);
        EXPECT_LT(lo, hi);
        EXPECT_LE(hi, units[item]);
        EXPECT_EQ(lo, seen[item]) << "gap or overlap in item " << item;
        seen[item] = hi;
        covered += hi - lo;
        last_item = item;
      });
      EXPECT_EQ(covered, end - begin);
    }
    EXPECT_EQ(seen, units) << "step " << step;
  }
}

// Items cut at a grain: every chunk is visited exactly once, by the
// slice holding its first unit, and splittable() leaves out the largest
// chunk.
TEST(SliceMapTest, GrainedItemsVisitEveryChunkOnce) {
  engine::SliceMap map;
  const std::vector<std::pair<uint64_t, uint64_t>> items = {
      {12, 4}, {7, 7}, {0, 3}, {9, 1}, {10, 4}, {5, 100}};
  for (const auto& [units, grain] : items) map.Add(units, grain);
  ASSERT_EQ(map.total(), 43u);
  EXPECT_EQ(map.splittable(), 43u - 7u);  // the 7-unit item is one chunk
  for (uint64_t step : {1u, 3u, 5u, 50u}) {
    std::vector<std::vector<int>> visits(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const auto [units, grain] = items[i];
      const uint64_t g = std::max<uint64_t>(1, std::min(grain, units));
      visits[i].assign((units + g - 1) / g, 0);
    }
    for (uint64_t begin = 0; begin < map.total(); begin += step) {
      const uint64_t end = std::min(map.total(), begin + step);
      map.ForEachPiece(begin, end, [&](size_t item, uint64_t lo,
                                       uint64_t hi) {
        ASSERT_LT(item, items.size());
        EXPECT_LT(lo, hi);
        ASSERT_LE(hi, visits[item].size());
        for (uint64_t c = lo; c < hi; ++c) ++visits[item][c];
      });
    }
    for (size_t i = 0; i < items.size(); ++i) {
      for (int v : visits[i]) {
        EXPECT_EQ(v, 1) << "item " << i << " step " << step;
      }
    }
  }
}

TEST(SliceMapTest, EmptyMapRunsNoMorsel) {
  engine::WorkerPool pool(kThreads);
  Database db;
  PlanKnobs knobs;
  knobs.threads = kThreads;
  ExecContext ctx(&db, knobs);
  ctx.set_worker_pool(&pool);
  const engine::MorselSite site(ctx, "empty");
  engine::SliceMap map;
  map.Add(0);
  size_t bodies = 0;
  EXPECT_EQ(engine::RunSliceMorsels(site, map,
                                    [&](size_t, uint64_t, uint64_t) {
                                      ++bodies;
                                    }),
            0u);
  EXPECT_EQ(bodies, 0u);
}

// Skewed items (one key holding most units, a Zipf-like tail): every
// morsel carries the same units within one, so none holds more than 2x
// the average — a heavy key is cut across morsels instead.
TEST(SliceMapTest, SkewedItemsGiveBalancedMorsels) {
  engine::WorkerPool pool(kThreads);
  Database db;
  PlanKnobs knobs;
  knobs.threads = kThreads;
  ExecContext ctx(&db, knobs);
  ctx.set_worker_pool(&pool);
  const engine::MorselSite site(ctx, "skewed");
  engine::SliceMap map;
  map.Add(200000);  // the heavy key
  for (uint64_t k = 1; k <= 2000; ++k) map.Add(1 + 5000 / k);
  std::mutex mu;
  std::vector<uint64_t> morsel_units;
  std::vector<uint64_t> item_units(map.size(), 0);
  const size_t morsels = engine::RunSliceMorsels(
      site, map, [&](size_t, uint64_t begin, uint64_t end) {
        std::lock_guard<std::mutex> lock(mu);
        morsel_units.push_back(end - begin);
        map.ForEachPiece(begin, end, [&](size_t item, uint64_t lo,
                                         uint64_t hi) {
          item_units[item] += hi - lo;
        });
      });
  ASSERT_EQ(morsels, morsel_units.size());
  ASSERT_GE(morsels, kThreads);
  const double average = static_cast<double>(map.total()) / morsels;
  for (uint64_t u : morsel_units) {
    EXPECT_LE(static_cast<double>(u), 2 * average);
  }
  const auto [lo, hi] =
      std::minmax_element(morsel_units.begin(), morsel_units.end());
  EXPECT_LE(*hi - *lo, 1u);
  uint64_t total = 0;
  for (uint64_t u : item_units) total += u;
  EXPECT_EQ(total, map.total());
}

// ---- scans -------------------------------------------------------------------

// A fact table shaped like lineorder's lo_discount: one discount value
// holds ~95% of the rows (a one-key range over nearly all of them), the
// rest spread over ten values, negative keys included.
class SliceScanTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 60000;
  static constexpr int64_t kDims = 500;

  void SetUp() override {
    Schema fact_schema({{"disc", ValueType::kInt64, nullptr},
                        {"qty", ValueType::kInt64, nullptr},
                        {"dim", ValueType::kInt64, nullptr},
                        {"price", ValueType::kInt64, nullptr}});
    auto fact = std::make_unique<RowTable>(fact_schema, "fact");
    Rng rng(17);
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t disc =
          rng.NextBounded(100) < 95
              ? 4
              : static_cast<int64_t>(rng.NextBounded(10)) - 3;
      // Dimension keys are Zipf-like: low keys hold most fact rows.
      const int64_t dim = static_cast<int64_t>(
          rng.NextBounded(1 + rng.NextBounded(kDims)));
      uint64_t row[4] = {
          SlotFromInt64(disc),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(50))),
          SlotFromInt64(dim),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(100000)))};
      fact->AppendRow(row);
    }
    ASSERT_TRUE(db_.AddTable(std::move(fact)).ok());
    Schema dim_schema({{"key", ValueType::kInt64, nullptr},
                       {"attr", ValueType::kInt64, nullptr}});
    auto dim = std::make_unique<RowTable>(dim_schema, "dim");
    for (int64_t k = 0; k < kDims; ++k) {
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k % 13)};
      dim->AppendRow(row);
    }
    ASSERT_TRUE(db_.AddTable(std::move(dim)).ok());

    for (bool kiss : {true, false}) {
      BaseIndex::Options opt;
      opt.kiss_root_bits = 20;
      opt.prefer_kiss = kiss;
      const std::string s = kiss ? "_kiss" : "_prefix";
      ASSERT_TRUE(db_.BuildIndex("disc" + s, "fact", {"disc"},
                                 {"qty", "dim", "price"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildIndex("disc_secondary" + s, "fact", {"disc"}, {},
                                 opt)
                      .ok());
      ASSERT_TRUE(
          db_.BuildIndex("fact_dim" + s, "fact", {"dim"}, {"price"}, opt)
              .ok());
      ASSERT_TRUE(
          db_.BuildIndex("dim_pk" + s, "dim", {"key"}, {"attr"}, opt).ok());
    }
  }

  // Runs `op` serially or on a kThreads pool; returns the output rows
  // sorted, and the operator's morsel count.
  std::pair<std::vector<std::vector<uint64_t>>, uint64_t> Run(
      Operator& op, bool parallel, bool kiss_outputs) {
    PlanKnobs knobs;
    knobs.threads = parallel ? kThreads : 1;
    knobs.table_options.kiss_root_bits = 20;
    knobs.table_options.prefer_kiss = kiss_outputs;
    ExecContext ctx(&db_, knobs);
    if (parallel) ctx.set_worker_pool(&pool_);
    Status st = op.Execute(&ctx);
    EXPECT_TRUE(st.ok()) << st;
    std::vector<std::vector<uint64_t>> rows;
    if (!st.ok()) return {rows, 0};
    const IndexedTable* out = ctx.Get("out").value();
    const size_t width = out->schema().num_columns();
    for (uint64_t id = 0; id < out->num_tuples(); ++id) {
      rows.emplace_back(out->Tuple(id), out->Tuple(id) + width);
    }
    std::sort(rows.begin(), rows.end());
    return {rows, ctx.stats()->operators.at(0).morsels};
  }

  engine::WorkerPool pool_{kThreads};
  Database db_;
};

OutputSpec PlainOutput(std::vector<std::string> keys) {
  OutputSpec out;
  out.slot = "out";
  out.key_columns = std::move(keys);
  return out;
}

TEST_F(SliceScanTest, SelectionsMatchSerialUnderEverySplit) {
  const KeyPredicate preds[] = {
      KeyPredicate::Range(4, 4),   // one key, ~95% of the rows
      KeyPredicate::Point(4),
      KeyPredicate::Range(-3, 6),  // every key, negatives included
      KeyPredicate::In({6, 4, -2, 42}),
      KeyPredicate::All(),
      KeyPredicate::Point(42),     // no match
  };
  const std::vector<Residual> residual_sets[] = {
      {Residual::Between("qty", 1, 3)},
      {Residual::Lt("qty", 10), Residual::Ne("price", 7),
       Residual::Ge("dim", 2)},
  };
  for (const char* index : {"disc_kiss", "disc_prefix", "disc_secondary_kiss",
                            "disc_secondary_prefix"}) {
    for (size_t p = 0; p < std::size(preds); ++p) {
      for (const auto& residuals : residual_sets) {
        SCOPED_TRACE(std::string(index) + " predicate " + std::to_string(p) +
                     " residuals " + std::to_string(residuals.size()));
        SelectionSpec spec;
        spec.input_index = index;
        spec.predicate = preds[p];
        spec.residuals = residuals;
        spec.carry_columns = {"disc", "qty", "dim", "price"};
        spec.output = PlainOutput({"dim"});
        SelectionOp op(spec);
        auto serial = Run(op, false, true);
        auto parallel = Run(op, true, true);
        EXPECT_EQ(parallel.first, serial.first);
        EXPECT_EQ(serial.second, 0u);
        if (std::string(index).find("secondary") != std::string::npos) {
          // The heavy key's value list is one chunk, and the other keys
          // hold fewer than kMinParallelInputTuples rows: no split, so no
          // fork.
          EXPECT_EQ(parallel.second, 0u);
        } else if (serial.first.size() > 2000) {
          EXPECT_GT(parallel.second, 1u) << "did not fork";
        }
      }
    }
  }
}

TEST_F(SliceScanTest, SelectJoinsMatchSerialUnderEverySplit) {
  for (bool kiss : {true, false}) {
    const std::string s = kiss ? "_kiss" : "_prefix";
    for (const KeyPredicate& pred :
         {KeyPredicate::Range(4, 4), KeyPredicate::All(),
          KeyPredicate::In({-3, 5})}) {
      SCOPED_TRACE(s);
      SelectJoinSpec spec;
      spec.input_index = "disc" + s;
      spec.predicate = pred;
      spec.residuals = {Residual::Le("qty", 25)};
      spec.left_columns = {"qty", "dim", "price"};
      spec.probe_column = "dim";
      spec.right = SideRef::Base("dim_pk" + s);
      spec.right_columns = {"attr"};
      spec.output = PlainOutput({"attr"});
      SelectJoinOp op(spec);
      auto serial = Run(op, false, kiss);
      auto parallel = Run(op, true, kiss);
      ASSERT_FALSE(serial.first.empty());
      EXPECT_EQ(parallel.first, serial.first);
    }
  }
}

// A star join whose fact side is skewed (low dimension keys hold most
// fact rows): every family pairing gives the serial rows, split into at
// least one morsel per worker.
TEST_F(SliceScanTest, SkewedStarJoinMatchesSerial) {
  for (const auto& [fact, dim] :
       {std::pair{"fact_dim_kiss", "dim_pk_kiss"},
        std::pair{"fact_dim_prefix", "dim_pk_prefix"},
        std::pair{"fact_dim_kiss", "dim_pk_prefix"},
        std::pair{"dim_pk_prefix", "fact_dim_kiss"}}) {
    SCOPED_TRACE(std::string(fact) + " x " + dim);
    StarJoinSpec spec;
    spec.left = SideRef::Base(fact);
    spec.right = SideRef::Base(dim);
    const bool fact_left = std::string(fact).rfind("fact", 0) == 0;
    spec.left_columns = fact_left ? std::vector<std::string>{"dim", "price"}
                                  : std::vector<std::string>{"attr"};
    spec.right_columns = fact_left ? std::vector<std::string>{"attr"}
                                   : std::vector<std::string>{"dim", "price"};
    spec.output = PlainOutput({"attr"});
    StarJoinOp op(spec);
    auto serial = Run(op, false, true);
    auto parallel = Run(op, true, true);
    EXPECT_EQ(serial.first.size(), static_cast<size_t>(kRows));
    EXPECT_EQ(parallel.first, serial.first);
    EXPECT_GE(parallel.second, kThreads);
  }
}


// ---- live indexes ------------------------------------------------------------

// A versioned table behind live (secondary) indexes: their value lists
// are uncut chunks, so a scan splits between entries and forks only
// when the work beside its largest entry reaches the fork threshold.
class LiveSliceScanTest : public SliceScanTest {
 protected:
  static constexpr int64_t kItems = 40000;
  static constexpr int64_t kGroups = 8;     // "g": 8 heavy keys
  static constexpr int64_t kKeys = 1000;    // "k": 40 rows per key

  void SetUp() override {
    SliceScanTest::SetUp();
    auto table = std::make_unique<MvccTable>(
        Schema({{"g", ValueType::kInt64, nullptr},
                {"k", ValueType::kInt64, nullptr},
                {"v", ValueType::kInt64, nullptr}}),
        "items");
    TransactionManager& tm = db_.txn_manager();
    Transaction txn = tm.Begin();
    for (int64_t i = 0; i < kItems; ++i) {
      uint64_t row[3] = {SlotFromInt64(i % kGroups), SlotFromInt64(i % kKeys),
                         SlotFromInt64(i)};
      table->Insert(txn, row);
    }
    const Timestamp ts = tm.BeginCommit();
    table->CommitTransaction(txn, ts);
    tm.FinishCommit(txn, ts);
    ASSERT_TRUE(db_.AddVersionedTable(std::move(table)).ok());
    BaseIndex::Options opt;
    opt.kiss_root_bits = 20;
    ASSERT_TRUE(db_.BuildLiveIndex("items_by_g", "items", {"g"}, opt).ok());
    ASSERT_TRUE(db_.BuildLiveIndex("items_by_k", "items", {"k"}, opt).ok());
  }
};

TEST_F(LiveSliceScanTest, SelectionSplitsBetweenEntries) {
  for (const KeyPredicate& pred :
       {KeyPredicate::All(), KeyPredicate::Range(2, 5),
        KeyPredicate::Point(3)}) {
    SelectionSpec spec;
    spec.input_index = "items_by_g";
    spec.predicate = pred;
    spec.carry_columns = {"g", "k", "v"};
    spec.output = PlainOutput({"k"});
    SelectionOp op(spec);
    auto serial = Run(op, false, true);
    auto parallel = Run(op, true, true);
    ASSERT_FALSE(serial.first.empty());
    EXPECT_EQ(parallel.first, serial.first);
    if (pred.kind == KeyPredicate::Kind::kPoint) {
      EXPECT_EQ(parallel.second, 0u) << "forked without a split";
    } else {
      EXPECT_GE(parallel.second, kThreads);
    }
  }
}

// A live fact index joined with a clustered dimension index: each match
// (40 live rows) is one chunk, and the 1000 matches spread over the
// morsels.
TEST_F(LiveSliceScanTest, StarJoinMatchesSerial) {
  StarJoinSpec spec;
  spec.left = SideRef::Base("items_by_k");
  spec.right = SideRef::Base("dim_pk_kiss");
  spec.left_columns = {"k", "v"};
  spec.right_columns = {"attr"};
  spec.output = PlainOutput({"attr"});
  StarJoinOp op(spec);
  auto serial = Run(op, false, true);
  auto parallel = Run(op, true, true);
  EXPECT_EQ(serial.first.size(), static_cast<size_t>(kDims * kItems / kKeys));
  EXPECT_EQ(parallel.first, serial.first);
  EXPECT_GE(parallel.second, kThreads);
}

}  // namespace
}  // namespace qppt
