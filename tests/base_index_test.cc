#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/base_index.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::unique_ptr<RowTable> MakePartTable(size_t n) {
  Schema schema({{"partkey", ValueType::kInt64, nullptr},
                 {"brand", ValueType::kInt64, nullptr},
                 {"size", ValueType::kInt64, nullptr}});
  auto table = std::make_unique<RowTable>(schema, "part");
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    uint64_t row[3] = {SlotFromInt64(static_cast<int64_t>(i)),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(40))),
                       SlotFromInt64(static_cast<int64_t>(rng.NextBounded(50)))};
    table->AppendRow(row);
  }
  return table;
}

BaseIndex::Options SmallKiss() {
  BaseIndex::Options opt;
  opt.kiss_root_bits = 20;
  return opt;
}

TEST(BaseIndexTest, SecondaryIndexYieldsRids) {
  auto table = MakePartTable(1000);
  auto index = BaseIndex::Build(table.get(), {"brand"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE((*index)->clustered());
  EXPECT_EQ((*index)->num_rows(), 1000u);

  // All rows with brand 7, via the index vs. a full scan.
  std::set<Rid> expected;
  for (Rid r = 0; r < 1000; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 7) expected.insert(r);
  }
  std::set<Rid> got;
  (*index)->ForEachMatch(SlotFromInt64(7),
                         [&](uint64_t value) { got.insert(value); });
  EXPECT_EQ(got, expected);
}

TEST(BaseIndexTest, ClusteredIndexAvoidsTableAccess) {
  auto table = MakePartTable(1000);
  auto index =
      BaseIndex::Build(table.get(), {"brand"}, {"partkey", "size"}, SmallKiss());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->clustered());

  auto partkey = (*index)->BindColumn("partkey");
  auto size = (*index)->BindColumn("size");
  auto brand = (*index)->BindColumn("brand");  // not included -> table
  ASSERT_TRUE(partkey.ok());
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(brand.ok());
  EXPECT_FALSE(partkey->touches_table());
  EXPECT_FALSE(size->touches_table());
  EXPECT_TRUE(brand->touches_table());

  (*index)->ForEachMatch(SlotFromInt64(3), [&](uint64_t value) {
    int64_t pk = Int64FromSlot(partkey->Get(value));
    // Cross-check against the base table.
    EXPECT_EQ(Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 1)), 3);
    EXPECT_EQ(Int64FromSlot(size->Get(value)),
              Int64FromSlot(table->GetSlot(static_cast<Rid>(pk), 2)));
  });
}

TEST(BaseIndexTest, RidPseudoColumn) {
  auto table = MakePartTable(100);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  auto rid = (*index)->BindColumn("@rid");
  ASSERT_TRUE(rid.ok());
  (*index)->ForEachMatch(SlotFromInt64(42), [&](uint64_t value) {
    EXPECT_EQ(rid->Get(value), 42u);  // partkey == rid in this table
  });
}

TEST(BaseIndexTest, RangeScan) {
  auto table = MakePartTable(500);
  auto index = BaseIndex::Build(table.get(), {"partkey"}, {}, SmallKiss());
  ASSERT_TRUE(index.ok());
  size_t count = 0;
  (*index)->ForEachInRange(SlotFromInt64(100), SlotFromInt64(199),
                           [&](uint64_t) { ++count; });
  EXPECT_EQ(count, 100u);
}

TEST(BaseIndexTest, CompositeKeyUsesPrefixTree) {
  auto table = MakePartTable(300);
  auto index = BaseIndex::Build(table.get(), {"brand", "size"}, {});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kPrefix);
  // Point lookup through the composite encoding.
  KeyBuf key;
  uint64_t slots[2] = {SlotFromInt64(3), SlotFromInt64(10)};
  (*index)->EncodeKey(slots, &key);
  size_t via_index = 0;
  const ValueList* vals = (*index)->prefix()->Lookup(key.data());
  if (vals != nullptr) via_index = vals->size();
  size_t via_scan = 0;
  for (Rid r = 0; r < 300; ++r) {
    if (Int64FromSlot(table->GetSlot(r, 1)) == 3 &&
        Int64FromSlot(table->GetSlot(r, 2)) == 10) {
      ++via_scan;
    }
  }
  EXPECT_EQ(via_index, via_scan);
}

TEST(BaseIndexTest, UnknownColumnsFail) {
  auto table = MakePartTable(10);
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"ghost"}, {}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {"brand"}, {"ghost"}).ok());
  EXPECT_FALSE(BaseIndex::Build(table.get(), {}, {}).ok());
}

TEST(BaseIndexTest, SnapshotIndexRespectsVisibility) {
  Schema schema({{"k", ValueType::kInt64, nullptr}});
  MvccTable table(schema, "t");
  TransactionManager tm;

  Transaction t1 = tm.Begin();
  uint64_t row[1] = {SlotFromInt64(1)};
  table.Insert(t1, row);
  Timestamp ts1 = tm.BeginCommit();
  table.CommitTransaction(t1, ts1);
  tm.FinishCommit(t1, ts1);

  // Uncommitted second row must be invisible to the index snapshot.
  Transaction t2 = tm.Begin();
  uint64_t row2[1] = {SlotFromInt64(2)};
  table.Insert(t2, row2);

  BaseIndex::Options opt;
  opt.kiss_root_bits = 16;
  auto index =
      BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"}, {}, opt);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->num_rows(), 1u);

  Timestamp ts2 = tm.BeginCommit();
  table.CommitTransaction(t2, ts2);
  tm.FinishCommit(t2, ts2);
  auto index2 =
      BaseIndex::BuildFromSnapshot(&table, tm.last_commit_ts(), {"k"}, {}, opt);
  ASSERT_TRUE(index2.ok());
  EXPECT_EQ((*index2)->num_rows(), 2u);
}

// ---- key-order layout of clustered indexes -----------------------------------
//
// A clustered index lays its partial records out in the tree's key order
// (ties in input order), and its values are those ordinals: a full scan
// yields 0..n-1 ascending, each key's values form one contiguous run in
// input order, and every payload column still resolves to its own row.

// Columns: wide (0..99999), few (-20..20: duplicates, negatives), tiny
// (0..2: keys with thousands of values), pay (payload). Rows are in no
// key order.
Schema KeyOrderSchema() {
  return Schema({{"wide", ValueType::kInt64, nullptr},
                 {"few", ValueType::kInt64, nullptr},
                 {"tiny", ValueType::kInt64, nullptr},
                 {"pay", ValueType::kInt64, nullptr}});
}

std::vector<uint64_t> KeyOrderRow(Rng* rng) {
  return {SlotFromInt64(static_cast<int64_t>(rng->NextBounded(100000))),
          SlotFromInt64(static_cast<int64_t>(rng->NextBounded(41)) - 20),
          SlotFromInt64(static_cast<int64_t>(rng->NextBounded(3))),
          SlotFromInt64(static_cast<int64_t>(rng->Next() >> 1))};
}

std::unique_ptr<RowTable> MakeKeyOrderTable(size_t n) {
  auto table = std::make_unique<RowTable>(KeyOrderSchema(), "t");
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) table->AppendRow(KeyOrderRow(&rng));
  return table;
}

// The bytes the index's tree orders row `rid` by: the 32-bit KISS key or
// the composite prefix encoding.
std::vector<uint8_t> TreeKey(const BaseIndex& index, const RowTable& table,
                             const std::vector<size_t>& key_cols, Rid rid) {
  KeyBuf key;
  if (index.kind() == BaseIndex::Kind::kKiss) {
    key.AppendU32(BaseIndex::KissKeyOf(table.GetSlot(rid, key_cols[0])));
  } else {
    std::vector<uint64_t> slots;
    for (size_t c : key_cols) slots.push_back(table.GetSlot(rid, c));
    index.EncodeKey(slots.data(), &key);
  }
  return std::vector<uint8_t>(key.data(), key.data() + key.size());
}

// Checks the key-order contract of a clustered index built over the rows
// `input` (in build input order) of `table`, keyed on `key_cols`, with
// `included` payload columns.
void ExpectKeyOrderLayout(const BaseIndex& index, const RowTable& table,
                          const std::vector<Rid>& input,
                          const std::vector<size_t>& key_cols,
                          const std::vector<std::string>& included) {
  ASSERT_TRUE(index.clustered());
  ASSERT_EQ(index.num_rows(), input.size());
  std::vector<uint64_t> values;
  index.ForEachValue([&](uint64_t v) { values.push_back(v); });
  ASSERT_EQ(values.size(), input.size());
  for (size_t r = 0; r < values.size(); ++r) {
    ASSERT_EQ(values[r], r) << "scan position " << r;
  }

  std::vector<size_t> input_pos(table.num_rows(), input.size());
  for (size_t i = 0; i < input.size(); ++i) input_pos[input[i]] = i;
  auto rid = index.BindColumn("@rid");
  ASSERT_TRUE(rid.ok());
  std::vector<BaseIndex::Accessor> payload;
  std::vector<size_t> payload_cols;
  for (const auto& name : included) {
    auto acc = index.BindColumn(name);
    ASSERT_TRUE(acc.ok());
    EXPECT_FALSE(acc->touches_table());
    payload.push_back(*acc);
    payload_cols.push_back(*table.schema().ColumnIndex(name));
  }

  std::vector<bool> seen(input.size(), false);
  std::vector<uint8_t> prev_key;
  for (uint64_t r = 0; r < values.size(); ++r) {
    const Rid row = rid->Get(r);
    ASSERT_LT(row, table.num_rows());
    const size_t pos = input_pos[row];
    ASSERT_LT(pos, input.size()) << "rid " << row << " is not an input row";
    EXPECT_FALSE(seen[pos]) << "rid " << row << " stored twice";
    seen[pos] = true;
    for (size_t c = 0; c < payload.size(); ++c) {
      EXPECT_EQ(payload[c].Get(r), table.GetSlot(row, payload_cols[c]))
          << "ordinal " << r << " column " << included[c];
    }
    std::vector<uint8_t> key = TreeKey(index, table, key_cols, row);
    if (r > 0) {
      ASSERT_LE(prev_key, key) << "ordinal " << r << " out of key order";
      if (prev_key == key) {
        EXPECT_LT(input_pos[rid->Get(r - 1)], pos)
            << "ties at ordinal " << r << " not in input order";
      }
    }
    prev_key = std::move(key);
  }

  // Each key's values are one contiguous, ascending run of ordinals.
  for (uint64_t r = 0; r < values.size(); r += 97) {
    std::vector<uint64_t> slots;
    for (size_t c : key_cols) slots.push_back(table.GetSlot(rid->Get(r), c));
    std::vector<uint64_t> run;
    index.ForEachMatchComposite(slots.data(),
                                [&](uint64_t v) { run.push_back(v); });
    ASSERT_FALSE(run.empty());
    EXPECT_TRUE(std::find(run.begin(), run.end(), r) != run.end());
    for (size_t i = 1; i < run.size(); ++i) {
      EXPECT_EQ(run[i], run[i - 1] + 1) << "key run broken at " << run[i];
    }
  }
}

std::vector<Rid> AllRids(const RowTable& table) {
  std::vector<Rid> rids(table.num_rows());
  for (Rid r = 0; r < rids.size(); ++r) rids[r] = r;
  return rids;
}

BaseIndex::Options Family(bool kiss) {
  BaseIndex::Options opt = SmallKiss();
  opt.prefer_kiss = kiss;
  return opt;
}

TEST(BaseIndexKeyOrderTest, BuildLaysOutRecordsInKeyOrder) {
  auto table = MakeKeyOrderTable(5000);
  const std::vector<std::string> included = {"wide", "pay"};
  struct Case {
    std::vector<std::string> keys;
    std::vector<size_t> key_cols;
  };
  const Case cases[] = {{{"wide"}, {0}},  // mostly unique keys
                        {{"few"}, {1}},   // duplicates, negative keys
                        {{"tiny"}, {2}}};  // thousands of values per key
  for (bool kiss : {true, false}) {
    for (const Case& c : cases) {
      SCOPED_TRACE((kiss ? "kiss " : "prefix ") + c.keys[0]);
      auto index = BaseIndex::Build(table.get(), c.keys, included,
                                    Family(kiss));
      ASSERT_TRUE(index.ok()) << index.status();
      EXPECT_EQ((*index)->kind(),
                kiss ? BaseIndex::Kind::kKiss : BaseIndex::Kind::kPrefix);
      ExpectKeyOrderLayout(**index, *table, AllRids(*table), c.key_cols,
                           included);
    }
  }
}

TEST(BaseIndexKeyOrderTest, CompositePrefixKeyOrdersLexicographically) {
  auto table = MakeKeyOrderTable(3000);
  auto index = BaseIndex::Build(table.get(), {"tiny", "few"},
                                {"pay", "tiny"}, SmallKiss());
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ((*index)->kind(), BaseIndex::Kind::kPrefix);
  ExpectKeyOrderLayout(**index, *table, AllRids(*table), {2, 1},
                       {"pay", "tiny"});
}

TEST(BaseIndexKeyOrderTest, EmptyTable) {
  RowTable table(KeyOrderSchema(), "empty");
  for (bool kiss : {true, false}) {
    auto index = BaseIndex::Build(&table, {"few"}, {"pay"}, Family(kiss));
    ASSERT_TRUE(index.ok()) << index.status();
    EXPECT_EQ((*index)->num_rows(), 0u);
    size_t visited = 0;
    (*index)->ForEachValue([&](uint64_t) { ++visited; });
    EXPECT_EQ(visited, 0u);
  }
}

TEST(BaseIndexKeyOrderTest, SnapshotBuildOrdersVisibleRows) {
  MvccTable table(KeyOrderSchema(), "t");
  TransactionManager tm;
  Rng rng(13);
  Transaction load = tm.Begin();
  std::vector<MvccTable::LogicalId> ids;
  for (int i = 0; i < 4000; ++i) {
    ids.push_back(table.Insert(load, KeyOrderRow(&rng)));
  }
  Timestamp ts = tm.BeginCommit();
  table.CommitTransaction(load, ts);
  tm.FinishCommit(load, ts);

  // Updates append new versions (higher rids, same logical position);
  // deletes drop rows; an uncommitted insert stays invisible.
  Transaction churn = tm.Begin();
  for (size_t i = 0; i < ids.size(); i += 7) {
    ASSERT_TRUE(table.Update(churn, ids[i], KeyOrderRow(&rng)).ok());
  }
  for (size_t i = 3; i < ids.size(); i += 11) {
    ASSERT_TRUE(table.Delete(churn, ids[i]).ok());
  }
  ts = tm.BeginCommit();
  table.CommitTransaction(churn, ts);
  tm.FinishCommit(churn, ts);
  Transaction pending = tm.Begin();
  table.Insert(pending, KeyOrderRow(&rng));

  const Timestamp read_ts = tm.last_commit_ts();
  const std::vector<Rid> input = table.SnapshotRids(read_ts);
  ASSERT_LT(input.size(), ids.size());
  for (bool kiss : {true, false}) {
    SCOPED_TRACE(kiss ? "kiss" : "prefix");
    auto index = BaseIndex::BuildFromSnapshot(&table, read_ts, {"few"},
                                              {"wide", "pay"}, Family(kiss));
    ASSERT_TRUE(index.ok()) << index.status();
    ExpectKeyOrderLayout(**index, table.storage(), input, {1},
                         {"wide", "pay"});
  }
  auto none = BaseIndex::BuildFromSnapshot(&table, /*read_ts=*/0, {"few"},
                                           {"pay"}, SmallKiss());
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ((*none)->num_rows(), 0u);
}

// ---- Database -----------------------------------------------------------------

TEST(DatabaseTest, TablesAndIndexes) {
  Database db;
  ASSERT_TRUE(db.AddTable(MakePartTable(100)).ok());
  EXPECT_TRUE(db.AddTable(MakePartTable(100)).IsResourceExhausted() ||
              db.AddTable(MakePartTable(100)).code() ==
                  StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.table("part").ok());
  EXPECT_TRUE(db.table("nope").status().IsNotFound());

  BaseIndex::Options opt;
  opt.kiss_root_bits = 20;
  ASSERT_TRUE(db.BuildIndex("part_brand", "part", {"brand"}, {"partkey"}, opt)
                  .ok());
  EXPECT_EQ(db.BuildIndex("part_brand", "part", {"brand"}, {}, opt).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db.index("part_brand").ok());
  EXPECT_TRUE(db.index("nope").status().IsNotFound());
  EXPECT_EQ(db.table_names().size(), 1u);
  EXPECT_EQ(db.index_names().size(), 1u);
  EXPECT_GT(db.MemoryUsage(), 0u);
}

}  // namespace
}  // namespace qppt
