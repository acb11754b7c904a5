// The late-materialised candidate pipeline (core/operators/common.h):
// star joins and select-joins whose candidates carry value references
// through the assists must give exactly the rows, and the per-stage row
// counts, of a nested-loop join over the base tables. The grid covers
// both index families, assists with duplicate keys (semi-join and
// carrying, 1 and 3 values per key), an assist probed with an earlier
// assist's carry, joinbuffers of 1, 7 and 512, plain and aggregated
// outputs, a versioned fact table with superseded and deleted rows behind
// live indexes (plus a live assist), and serial against 4-worker runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operators/select_join.h"
#include "core/operators/star_join.h"
#include "core/plan.h"
#include "engine/scheduler.h"
#include "storage/mvcc.h"
#include "util/rng.h"

namespace qppt {
namespace {

constexpr size_t kThreads = 4;
constexpr int64_t kFactRows = 12000;
constexpr int64_t kAKeys = 200;  // fact.f_a, the star join's main key
constexpr int64_t kBKeys = 300;  // fact.f_b / f_c -> dim_b.b_key
constexpr int64_t kCKeys = 60;   // dim_b.b_x -> dim_c.c_key

using Rows = std::vector<std::vector<int64_t>>;

Schema FactSchema() {
  return Schema({{"f_a", ValueType::kInt64, nullptr},
                 {"f_b", ValueType::kInt64, nullptr},
                 {"f_c", ValueType::kInt64, nullptr},
                 {"f_v", ValueType::kInt64, nullptr}});
}
Schema DimBSchema() {
  return Schema({{"b_key", ValueType::kInt64, nullptr},
                 {"b_x", ValueType::kInt64, nullptr},
                 {"b_y", ValueType::kInt64, nullptr}});
}

// dim_b holds no row for keys divisible by 5, one row for the other even
// keys and three for the odd ones: duplicate keys with 1 and 3 values.
size_t DimBCopies(int64_t key) {
  if (key % 5 == 0) return 0;
  return key % 2 == 0 ? 1 : 3;
}

// What one run of an operator reports: its output rows (sorted) and the
// candidate funnel.
struct Outcome {
  Rows rows;
  uint64_t candidates = 0;
  std::vector<std::pair<uint64_t, uint64_t>> stages;  // rows in, rows out
  uint64_t inserted = 0;
  uint64_t morsels = 0;
};

Rows SortedRows(const QueryResult& result) {
  Rows rows;
  for (const auto& row : result.rows) {
    std::vector<int64_t> r;
    for (const Value& v : row) r.push_back(v.AsInt());
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Folds reference rows (assembled layout) into "group by `keys`,
// sum(column sum_col), count(*)" rows, as ExtractResult renders an
// aggregated output.
Rows Aggregate(const Rows& rows, const std::vector<size_t>& keys,
               size_t sum_col) {
  std::map<std::vector<int64_t>, std::pair<int64_t, int64_t>> groups;
  for (const auto& row : rows) {
    std::vector<int64_t> key;
    for (size_t k : keys) key.push_back(row[k]);
    auto& acc = groups[key];
    acc.first += row[sum_col];
    acc.second += 1;
  }
  Rows out;
  for (const auto& [key, acc] : groups) {
    std::vector<int64_t> r = key;
    r.push_back(acc.first);
    r.push_back(acc.second);
    out.push_back(std::move(r));
  }
  return out;
}

class CandidatePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    // Plain fact table and its versioned twin (same initial rows).
    auto fact = std::make_unique<RowTable>(FactSchema(), "fact");
    auto vfact = std::make_unique<MvccTable>(FactSchema(), "vfact");
    TransactionManager& tm = db_.txn_manager();
    Transaction load = tm.Begin();
    std::vector<MvccTable::LogicalId> fact_ids;
    for (int64_t i = 0; i < kFactRows; ++i) {
      uint64_t row[4] = {
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kAKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kBKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kBKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(2000)) - 1000)};
      fact->AppendRow(row);
      fact_ids.push_back(vfact->Insert(load, row));
    }
    // dim_a: every key but those = 3 mod 7; dim_c: every key but those
    // = 1 mod 4.
    auto dim_a = std::make_unique<RowTable>(
        Schema({{"a_key", ValueType::kInt64, nullptr},
                {"a_attr", ValueType::kInt64, nullptr}}),
        "dim_a");
    for (int64_t k = 0; k < kAKeys; ++k) {
      if (k % 7 == 3) continue;
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k % 11)};
      dim_a->AppendRow(row);
    }
    auto dim_c = std::make_unique<RowTable>(
        Schema({{"c_key", ValueType::kInt64, nullptr},
                {"c_attr", ValueType::kInt64, nullptr}}),
        "dim_c");
    for (int64_t k = 0; k < kCKeys; ++k) {
      if (k % 4 == 1) continue;
      uint64_t row[2] = {SlotFromInt64(k), SlotFromInt64(k % 5)};
      dim_c->AppendRow(row);
    }
    auto dim_b = std::make_unique<RowTable>(DimBSchema(), "dim_b");
    auto vdim_b = std::make_unique<MvccTable>(DimBSchema(), "vdim_b");
    std::vector<MvccTable::LogicalId> dim_b_ids;
    std::vector<int64_t> dim_b_keys;
    for (int64_t k = 0; k < kBKeys; ++k) {
      for (size_t j = 0; j < DimBCopies(k); ++j) {
        const int64_t jj = static_cast<int64_t>(j);
        uint64_t row[3] = {SlotFromInt64(k),
                           SlotFromInt64((k * 7 + jj) % kCKeys),
                           SlotFromInt64(k * 10 + jj)};
        dim_b->AppendRow(row);
        dim_b_ids.push_back(vdim_b->Insert(load, row));
        dim_b_keys.push_back(k);
      }
    }
    Timestamp ts = tm.BeginCommit();
    vfact->CommitTransaction(load, ts);
    vdim_b->CommitTransaction(load, ts);
    tm.FinishCommit(load, ts);

    // A second commit supersedes and deletes rows of both versioned
    // tables; their old versions stay in the live indexes.
    Transaction write = tm.Begin();
    for (size_t i = 0; i < fact_ids.size(); i += 5) {
      if (i % 3 == 0) {
        ASSERT_TRUE(vfact->Delete(write, fact_ids[i]).ok());
        continue;
      }
      uint64_t row[4] = {
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kAKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kBKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(kBKeys))),
          SlotFromInt64(static_cast<int64_t>(rng.NextBounded(50)))};
      ASSERT_TRUE(vfact->Update(write, fact_ids[i], row).ok());
    }
    for (size_t i = 0; i < dim_b_ids.size(); i += 4) {
      if (i % 8 == 0) {
        ASSERT_TRUE(vdim_b->Delete(write, dim_b_ids[i]).ok());
        continue;
      }
      const int64_t key = dim_b_keys[i];
      uint64_t row[3] = {SlotFromInt64(key),
                         SlotFromInt64((key * 3 + 1) % kCKeys),
                         SlotFromInt64(-key)};
      ASSERT_TRUE(vdim_b->Update(write, dim_b_ids[i], row).ok());
    }
    ts = tm.BeginCommit();
    vfact->CommitTransaction(write, ts);
    vdim_b->CommitTransaction(write, ts);
    tm.FinishCommit(write, ts);

    fact_ = Visible(*fact);
    dim_a_ = Visible(*dim_a);
    dim_b_ = Visible(*dim_b);
    dim_c_ = Visible(*dim_c);
    vfact_ = Visible(*vfact, ts);
    vdim_b_ = Visible(*vdim_b, ts);
    ASSERT_LT(vfact_.size(), fact_.size());
    ASSERT_LT(vdim_b_.size(), dim_b_.size());

    ASSERT_TRUE(db_.AddTable(std::move(fact)).ok());
    ASSERT_TRUE(db_.AddTable(std::move(dim_a)).ok());
    ASSERT_TRUE(db_.AddTable(std::move(dim_b)).ok());
    ASSERT_TRUE(db_.AddTable(std::move(dim_c)).ok());
    ASSERT_TRUE(db_.AddVersionedTable(std::move(vfact)).ok());
    ASSERT_TRUE(db_.AddVersionedTable(std::move(vdim_b)).ok());
    for (bool kiss : {true, false}) {
      BaseIndex::Options opt;
      opt.kiss_root_bits = 20;
      opt.prefer_kiss = kiss;
      const std::string s = kiss ? "_kiss" : "_prefix";
      ASSERT_TRUE(db_.BuildIndex("fact_a" + s, "fact", {"f_a"},
                                 {"f_b", "f_c", "f_v"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildIndex("fact_b" + s, "fact", {"f_b"},
                                 {"f_c", "f_v"}, opt)
                      .ok());
      ASSERT_TRUE(
          db_.BuildIndex("dim_a" + s, "dim_a", {"a_key"}, {"a_attr"}, opt)
              .ok());
      ASSERT_TRUE(db_.BuildIndex("dim_b" + s, "dim_b", {"b_key"},
                                 {"b_x", "b_y"}, opt)
                      .ok());
      ASSERT_TRUE(
          db_.BuildIndex("dim_c" + s, "dim_c", {"c_key"}, {"c_attr"}, opt)
              .ok());
      ASSERT_TRUE(db_.BuildLiveIndex("vfact_a" + s, "vfact", {"f_a"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildLiveIndex("vfact_b" + s, "vfact", {"f_b"}, opt)
                      .ok());
      ASSERT_TRUE(db_.BuildLiveIndex("vdim_b" + s, "vdim_b", {"b_key"}, opt)
                      .ok());
    }
  }

  // The visible rows of a base table, in storage order.
  static Rows Visible(const RowTable& table) {
    Rows rel;
    for (Rid r = 0; r < table.num_rows(); ++r) {
      std::vector<int64_t> row;
      for (size_t c = 0; c < table.schema().num_columns(); ++c) {
        row.push_back(Int64FromSlot(table.GetSlot(r, c)));
      }
      rel.push_back(std::move(row));
    }
    return rel;
  }
  static Rows Visible(const MvccTable& table, Timestamp ts) {
    Rows rel;
    const RowTable& storage = table.storage();
    for (Rid r = 0; r < storage.num_rows(); ++r) {
      if (!table.RidVisibleAt(r, ts)) continue;
      std::vector<int64_t> row;
      for (size_t c = 0; c < storage.schema().num_columns(); ++c) {
        row.push_back(Int64FromSlot(storage.GetSlot(r, c)));
      }
      rel.push_back(std::move(row));
    }
    return rel;
  }

  Outcome Run(Operator& op, size_t threads, size_t joinbuffer, bool kiss) {
    PlanKnobs knobs;
    knobs.threads = threads;
    knobs.join_buffer_size = joinbuffer;
    knobs.table_options.kiss_root_bits = 20;
    knobs.table_options.prefer_kiss = kiss;
    ExecContext ctx(&db_, knobs);
    if (threads > 1) ctx.set_worker_pool(&pool_);
    Outcome out;
    const Status st = op.Execute(&ctx);
    EXPECT_TRUE(st.ok()) << st;
    if (!st.ok()) return out;
    auto result = ExtractResult(*ctx.Get("out").value());
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return out;
    out.rows = SortedRows(*result);
    const OperatorStats& stats = ctx.stats()->operators.at(0);
    out.candidates = stats.candidate_rows;
    for (const AssistFunnel& stage : stats.funnel) {
      out.stages.emplace_back(stage.rows_in, stage.rows_out);
    }
    out.inserted = stats.inserted_rows;
    out.morsels = stats.morsels;
    return out;
  }

  engine::WorkerPool pool_{kThreads};
  Database db_;
  Rows fact_, dim_a_, dim_b_, dim_c_, vfact_, vdim_b_;
};

// The reference join: step s keeps a row once per row of its relation
// whose key column equals the row's column `probe`, appending the
// relation's carried columns; `stages` counts each step's rows in and
// out.
struct Step {
  const Rows* rel;
  size_t probe;               // column of the row so far
  size_t key;                 // key column of rel
  std::vector<size_t> carry;  // carried columns of rel
};

struct Reference {
  Rows rows;
  uint64_t candidates = 0;
  std::vector<std::pair<uint64_t, uint64_t>> stages;
};

Reference NestedLoop(Rows candidates, const std::vector<Step>& steps) {
  Reference ref;
  ref.candidates = candidates.size();
  for (const Step& step : steps) {
    // The relation's rows by key, in storage order (the inner loop).
    std::map<int64_t, std::vector<const std::vector<int64_t>*>> by_key;
    for (const auto& r : *step.rel) by_key[r[step.key]].push_back(&r);
    Rows next;
    for (const auto& row : candidates) {
      auto it = by_key.find(row[step.probe]);
      if (it == by_key.end()) continue;
      for (const std::vector<int64_t>* r : it->second) {
        std::vector<int64_t> out = row;
        for (size_t c : step.carry) out.push_back((*r)[c]);
        next.push_back(std::move(out));
      }
    }
    ref.stages.emplace_back(candidates.size(), next.size());
    candidates = std::move(next);
  }
  ref.rows = std::move(candidates);
  return ref;
}

void ExpectMatches(const Outcome& got, const Reference& ref,
                   const Rows& expected_rows) {
  EXPECT_EQ(got.rows, expected_rows);
  EXPECT_EQ(got.candidates, ref.candidates);
  EXPECT_EQ(got.stages, ref.stages);
  EXPECT_EQ(got.inserted, ref.rows.size());
}

// A star join of the fact table with dim_a, then three assists: dim_b
// probed with f_b carrying (b_x, b_y), dim_c probed with that carried
// b_x, and dim_b again probed with f_c as a pure semi-join (its duplicate
// keys repeat the candidate).
TEST_F(CandidatePipelineTest, StarJoinMatchesNestedLoop) {
  for (bool versioned : {false, true}) {
    for (bool kiss : {true, false}) {
      const std::string s = kiss ? "_kiss" : "_prefix";
      const Rows& fact = versioned ? vfact_ : fact_;
      const Rows& dim_b = versioned ? vdim_b_ : dim_b_;
      const std::string b_index = (versioned ? "vdim_b" : "dim_b") + s;
      StarJoinSpec spec;
      spec.left = SideRef::Base((versioned ? "vfact_a" : "fact_a") + s);
      spec.left_columns = {"f_a", "f_b", "f_c", "f_v"};
      spec.right = SideRef::Base("dim_a" + s);
      spec.right_columns = {"a_attr"};
      spec.assists = {{SideRef::Base(b_index), "f_b", {"b_x", "b_y"}},
                      {SideRef::Base("dim_c" + s), "b_x", {"c_attr"}},
                      {SideRef::Base(b_index), "f_c", {}}};

      // Candidates: fact rows joined with dim_a on f_a = a_key, laid out
      // f_a f_b f_c f_v a_attr.
      Rows candidates;
      for (const auto& f : fact) {
        for (const auto& a : dim_a_) {
          if (a[0] != f[0]) continue;
          candidates.push_back({f[0], f[1], f[2], f[3], a[1]});
        }
      }
      // Row so far: f_a f_b f_c f_v a_attr | b_x b_y | c_attr.
      const Reference ref = NestedLoop(
          candidates, {{&dim_b, 1, 0, {1, 2}}, {&dim_c_, 5, 0, {1}},
                       {&dim_b, 2, 0, {}}});
      ASSERT_GT(ref.rows.size(), 0u);
      ASSERT_LT(ref.stages[1].second, ref.stages[1].first)
          << "dim_c must drop the candidates whose carried b_x it lacks";
      ASSERT_GT(ref.stages[2].second, ref.stages[2].first)
          << "the semi-join's duplicate keys must repeat candidates";
      Rows plain = ref.rows;
      std::sort(plain.begin(), plain.end());
      const Rows grouped = Aggregate(ref.rows, {4, 7}, 3);

      for (bool aggregated : {false, true}) {
        spec.output.slot = "out";
        if (aggregated) {
          spec.output.key_columns = {"a_attr", "c_attr"};
          spec.output.agg =
              AggSpec({{AggFn::kSum, ScalarExpr::Column("f_v"), "sum_v"},
                       {AggFn::kCount, {}, "n"}});
        } else {
          spec.output.key_columns = {"a_attr"};
          spec.output.agg = AggSpec();
        }
        StarJoinOp op(spec);
        for (size_t joinbuffer : {size_t{1}, size_t{7}, size_t{512}}) {
          SCOPED_TRACE(std::string(versioned ? "versioned" : "plain") + s +
                       (aggregated ? " aggregated" : " plain output") +
                       " joinbuffer " + std::to_string(joinbuffer));
          const Outcome serial = Run(op, 1, joinbuffer, kiss);
          ExpectMatches(serial, ref, aggregated ? grouped : plain);
          const Outcome parallel = Run(op, kThreads, joinbuffer, kiss);
          ExpectMatches(parallel, ref, aggregated ? grouped : plain);
          EXPECT_EQ(serial.morsels, 0u);
          EXPECT_GT(parallel.morsels, 0u) << "the t=4 run must fork";
        }
      }
    }
  }
}

// A select-join: the fact rows with f_b in [20, 260] and f_v < 400 probe
// dim_b with f_b (the joined main, carrying b_x), then dim_c with that
// carry.
TEST_F(CandidatePipelineTest, SelectJoinMatchesNestedLoop) {
  for (bool versioned : {false, true}) {
    for (bool kiss : {true, false}) {
      const std::string s = kiss ? "_kiss" : "_prefix";
      const Rows& fact = versioned ? vfact_ : fact_;
      const Rows& dim_b = versioned ? vdim_b_ : dim_b_;
      SelectJoinSpec spec;
      spec.input_index = (versioned ? "vfact_b" : "fact_b") + s;
      spec.predicate = KeyPredicate::Range(20, 260);
      spec.residuals = {Residual::Lt("f_v", 400)};
      spec.left_columns = {"f_b", "f_c", "f_v"};
      spec.probe_column = "f_b";
      spec.right = SideRef::Base((versioned ? "vdim_b" : "dim_b") + s);
      spec.right_columns = {"b_x"};
      spec.assists = {{SideRef::Base("dim_c" + s), "b_x", {"c_attr"}}};

      Rows candidates;
      for (const auto& f : fact) {
        if (f[1] >= 20 && f[1] <= 260 && f[3] < 400) {
          candidates.push_back({f[1], f[2], f[3]});
        }
      }
      // Row so far: f_b f_c f_v | b_x | c_attr.
      const Reference ref = NestedLoop(
          candidates, {{&dim_b, 0, 0, {1}}, {&dim_c_, 3, 0, {1}}});
      ASSERT_GT(ref.rows.size(), 0u);
      Rows plain = ref.rows;
      std::sort(plain.begin(), plain.end());
      const Rows grouped = Aggregate(ref.rows, {4}, 2);

      for (bool aggregated : {false, true}) {
        spec.output.slot = "out";
        if (aggregated) {
          spec.output.key_columns = {"c_attr"};
          spec.output.agg =
              AggSpec({{AggFn::kSum, ScalarExpr::Column("f_v"), "sum_v"},
                       {AggFn::kCount, {}, "n"}});
        } else {
          spec.output.key_columns = {"b_x"};
          spec.output.agg = AggSpec();
        }
        SelectJoinOp op(spec);
        for (size_t joinbuffer : {size_t{1}, size_t{7}, size_t{512}}) {
          SCOPED_TRACE(std::string(versioned ? "versioned" : "plain") + s +
                       (aggregated ? " aggregated" : " plain output") +
                       " joinbuffer " + std::to_string(joinbuffer));
          ExpectMatches(Run(op, 1, joinbuffer, kiss), ref,
                        aggregated ? grouped : plain);
          ExpectMatches(Run(op, kThreads, joinbuffer, kiss), ref,
                        aggregated ? grouped : plain);
        }
      }
    }
  }
}

}  // namespace
}  // namespace qppt
