// Parallel cancellation: a query whose token is already cancelled must
// stop at the first morsel or merge-shard boundary of a parallel run.
// The operators are called directly (bypassing Plan::Run's per-operator
// boundary check) at four threads on inputs large enough to fork, so the
// only polls that can fire are the ones inside the parallel run: the
// MorselSite built from the ExecContext and the per-worker tickers.
// Labeled `engine`, so the sanitizer jobs also cover the unwinding of a
// cancelled morsel batch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/selection.h"
#include "core/operators/star_join.h"
#include "core/plan.h"
#include "engine/parallel_ops.h"
#include "engine/scheduler.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr size_t kThreads = 4;
constexpr int64_t kNumParts = 4096;
constexpr int64_t kNumSales = 20000;  // well above kMinParallelInputTuples
// Part keys step by this, so they spread over 64 KISS root buckets (at
// kiss_root_bits 20) and 16 prefix-tree branching-level slots: every
// family has more than one morsel to split.
constexpr int64_t kPartKeyStep = 64;

static_assert(kNumSales >= 4 * engine::kMinParallelInputTuples);

// Spans of `kind` recorded in the context's trace.
size_t CountSpans(const ExecContext& ctx, obs::SpanKind kind) {
  size_t n = 0;
  ctx.trace()->ForEachSpan([&](const obs::TraceSpan& span) {
    if (span.kind == kind) ++n;
  });
  return n;
}

// Runs `op` the way Plan::Run would, minus its boundary checks: a
// CancelledException escaping Execute becomes its Status.
Status ExecuteDirect(Operator& op, ExecContext* ctx) {
  try {
    return op.Execute(ctx);
  } catch (...) {
    return StatusFromException(std::current_exception());
  }
}

class ParallelCancelTest : public ::testing::Test {
 public:
  void SetUp() override {
    BaseIndex::Options kiss;
    kiss.kiss_root_bits = 20;
    BaseIndex::Options prefix = kiss;
    prefix.prefer_kiss = false;

    Schema part_schema({{"partkey", ValueType::kInt64, nullptr},
                        {"brand", ValueType::kInt64, nullptr}});
    auto part = std::make_unique<RowTable>(part_schema, "part");
    for (int64_t i = 0; i < kNumParts; ++i) {
      uint64_t row[2] = {SlotFromInt64(i * kPartKeyStep),
                         SlotFromInt64(i % 25)};
      part->AppendRow(row);
    }
    ASSERT_TRUE(db_.AddTable(std::move(part)).ok());

    Schema sales_schema({{"partkey", ValueType::kInt64, nullptr},
                         {"amount", ValueType::kInt64, nullptr}});
    auto sales = std::make_unique<RowTable>(sales_schema, "sales");
    Rng rng(7);
    for (int64_t i = 0; i < kNumSales; ++i) {
      uint64_t row[2] = {
          SlotFromInt64(kPartKeyStep *
                        static_cast<int64_t>(rng.NextBounded(kNumParts))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(100)))};
      sales->AppendRow(row);
    }
    ASSERT_TRUE(db_.AddTable(std::move(sales)).ok());

    for (const auto& [suffix, opt] :
         {std::pair{"kiss", kiss}, std::pair{"prefix", prefix}}) {
      const std::string s = suffix;
      ASSERT_TRUE(db_.BuildIndex("part_pk_" + s, "part", {"partkey"},
                                 {"brand"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildIndex("sales_pk_" + s, "sales", {"partkey"},
                                 {"amount"}, opt)
                      .ok());
    }
    ASSERT_TRUE(db_.BuildIndex("sales_amount", "sales", {"amount"},
                               {"partkey"}, kiss)
                    .ok());
    ASSERT_NE(db_.index("sales_pk_kiss").value()->kiss(), nullptr);
    ASSERT_NE(db_.index("sales_pk_prefix").value()->prefix(), nullptr);
  }

  // Executes `op` at kThreads on a traced context whose token is
  // cancelled before the call, and checks the parallel run stopped
  // before doing any work: Cancelled, no morsel body or merge shard
  // finished, nothing registered. A second, uncancelled run of the same
  // operator must fork — so the first one was stopped inside the
  // parallel path, not by a serial ticker.
  void ExpectCancelledBeforeAnyMorsel(Operator& op) {
    engine::WorkerPool pool(kThreads);
    CancelToken token;
    token.RequestCancel();
    PlanKnobs knobs;
    knobs.threads = kThreads;
    knobs.cancel = &token;
    knobs.trace = true;
    knobs.table_options.kiss_root_bits = 20;
    ExecContext ctx(&db_, knobs);
    ctx.set_worker_pool(&pool);
    ctx.EnsureTrace(pool.num_workers());

    Status st = ExecuteDirect(op, &ctx);
    EXPECT_TRUE(st.IsCancelled()) << op.name() << ": " << st;
    EXPECT_EQ(CountSpans(ctx, obs::SpanKind::kMorsel), 0u) << op.name();
    EXPECT_EQ(CountSpans(ctx, obs::SpanKind::kMerge), 0u) << op.name();
    EXPECT_FALSE(ctx.Get("out").ok()) << op.name() << ": output was Put";
    EXPECT_TRUE(ctx.stats()->operators.empty()) << op.name();

    knobs.cancel = nullptr;
    ExecContext live(&db_, knobs);
    live.set_worker_pool(&pool);
    ASSERT_TRUE(ExecuteDirect(op, &live).ok()) << op.name();
    ASSERT_EQ(live.stats()->operators.size(), 1u);
    EXPECT_GT(live.stats()->operators[0].morsels, 1u)
        << op.name() << " did not fork; the test proves nothing";
  }

  Database db_;
};

OutputSpec PlainOutput(std::vector<std::string> keys) {
  OutputSpec out;
  out.slot = "out";
  out.key_columns = std::move(keys);
  return out;
}

TEST_F(ParallelCancelTest, SelectionStopsBeforeAnyMorsel) {
  SelectionSpec spec;
  spec.input_index = "sales_amount";
  spec.predicate = KeyPredicate::Range(10, 90);
  spec.carry_columns = {"amount", "partkey"};
  spec.output = PlainOutput({"partkey"});
  SelectionOp op(spec);
  ExpectCancelledBeforeAnyMorsel(op);
}

TEST_F(ParallelCancelTest, SelectJoinStopsBeforeAnyMorsel) {
  SelectJoinSpec spec;
  spec.input_index = "sales_amount";
  spec.predicate = KeyPredicate::All();
  spec.left_columns = {"amount", "partkey"};
  spec.probe_column = "partkey";
  spec.right = SideRef::Base("part_pk_kiss");
  spec.right_columns = {"brand"};
  spec.output = PlainOutput({"brand"});
  SelectJoinOp op(spec);
  ExpectCancelledBeforeAnyMorsel(op);
}

// One star join per main-family pairing: kiss·kiss, prefix·prefix and
// mixed (KISS fact main, prefix dimension main).
TEST_F(ParallelCancelTest, StarJoinStopsBeforeAnyMorselInEveryFamily) {
  for (const auto& [fact, dim] :
       {std::pair{"sales_pk_kiss", "part_pk_kiss"},
        std::pair{"sales_pk_prefix", "part_pk_prefix"},
        std::pair{"sales_pk_kiss", "part_pk_prefix"}}) {
    SCOPED_TRACE(std::string(fact) + " x " + dim);
    StarJoinSpec spec;
    spec.left = SideRef::Base(fact);
    spec.left_columns = {"partkey", "amount"};
    spec.right = SideRef::Base(dim);
    spec.right_columns = {"brand"};
    spec.output = PlainOutput({"brand"});
    StarJoinOp op(spec);
    ExpectCancelledBeforeAnyMorsel(op);
  }
}

// ---- drivers ----------------------------------------------------------------

class CancelledSiteTest : public ::testing::Test {
 public:
  CancelledSiteTest() : ctx_(&db_, Knobs(&token_)) {
    token_.RequestCancel();
    ctx_.set_worker_pool(&pool_);
    ctx_.EnsureTrace(pool_.num_workers());
  }

  static PlanKnobs Knobs(const CancelToken* token) {
    PlanKnobs knobs;
    knobs.threads = kThreads;
    knobs.cancel = token;
    knobs.trace = true;
    return knobs;
  }

  engine::WorkerPool pool_{kThreads};
  CancelToken token_;
  Database db_;
  ExecContext ctx_;
};

// A site built from the context carries its token: the driver polls it
// before every morsel, so a cancelled query runs no morsel body.
TEST_F(CancelledSiteTest, MorselDriversRunNoBody) {
  const engine::MorselSite site(ctx_, "cancelled");
  ASSERT_EQ(site.cancel, &token_);
  KissTree tree;
  for (uint32_t k = 0; k < 50000; ++k) tree.Insert(k * 37, k);
  std::atomic<size_t> bodies{0};
  EXPECT_THROW(engine::RunTimedMorsels(site, 64,
                                       [&](size_t, size_t) { ++bodies; }),
               CancelledException);
  EXPECT_THROW(engine::RunKissRangeMorsels(
                   site, tree, 0, 0xFFFFFFFFu,
                   [&](size_t, uint32_t, uint32_t) { ++bodies; }),
               CancelledException);
  EXPECT_THROW(engine::RunKissValueMorsels(
                   site, tree, 0, 0xFFFFFFFFu,
                   [&](size_t, uint64_t) { ++bodies; }),
               CancelledException);
  EXPECT_EQ(bodies.load(), 0u);
  EXPECT_EQ(CountSpans(ctx_, obs::SpanKind::kMorsel), 0u);
}

// The partitioned merge polls the same token before every shard.
TEST_F(CancelledSiteTest, MergeRunsNoShard) {
  Schema schema({{"k", ValueType::kInt64, nullptr},
                 {"v", ValueType::kInt64, nullptr}});
  auto final_or = IndexedTable::Create(schema, {"k"});
  ASSERT_TRUE(final_or.ok());
  std::unique_ptr<IndexedTable> merged = std::move(final_or).value();
  engine::PartialOutputs partials(*merged, 3);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {  // above the parallel-merge threshold
    uint64_t row[2] = {
        SlotFromInt64(static_cast<int64_t>(rng.NextBounded(5000))),
        SlotFromInt64(i)};
    partials.worker(static_cast<size_t>(i) % 3)->Insert(row);
  }
  EXPECT_THROW(partials.MergeInto(engine::MorselSite(ctx_, "merge"),
                                  merged.get()),
               CancelledException);
  EXPECT_EQ(CountSpans(ctx_, obs::SpanKind::kMerge), 0u);
  EXPECT_EQ(merged->num_keys(), 0u) << "a merge shard ran";
}

}  // namespace
}  // namespace qppt
