#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "index/key_encoder.h"
#include "index/prefix_tree.h"
#include "util/rng.h"

namespace qppt {
namespace {

KeyBuf U32Key(uint32_t v) {
  KeyBuf k;
  k.AppendU32(v);
  return k;
}

KeyBuf I64Key(int64_t v) {
  KeyBuf k;
  k.AppendI64(v);
  return k;
}

// ---- basic behaviour ---------------------------------------------------------

TEST(PrefixTreeTest, EmptyLookupMisses) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  EXPECT_EQ(tree.Lookup(U32Key(1).data()), nullptr);
  EXPECT_EQ(tree.num_keys(), 0u);
}

TEST(PrefixTreeTest, SingleInsertLookup) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  tree.Insert(U32Key(0xDEADBEEF).data(), 77);
  const ValueList* v = tree.Lookup(U32Key(0xDEADBEEF).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ(v->first(), 77u);
  EXPECT_EQ(tree.Lookup(U32Key(0xDEADBEEE).data()), nullptr);
}

TEST(PrefixTreeTest, DynamicExpansionOnSharedPrefix) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  // Keys sharing 28 bits force expansion to the last level.
  tree.Insert(U32Key(0x12345670).data(), 1);
  tree.Insert(U32Key(0x12345671).data(), 2);
  ASSERT_NE(tree.Lookup(U32Key(0x12345670).data()), nullptr);
  ASSERT_NE(tree.Lookup(U32Key(0x12345671).data()), nullptr);
  EXPECT_EQ(tree.Lookup(U32Key(0x12345670).data())->first(), 1u);
  EXPECT_EQ(tree.Lookup(U32Key(0x12345671).data())->first(), 2u);
  EXPECT_EQ(tree.num_keys(), 2u);
}

TEST(PrefixTreeTest, DuplicatesAccumulate) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(U32Key(5).data(), i);
  }
  const ValueList* v = tree.Lookup(U32Key(5).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 100u);
  EXPECT_EQ(tree.num_keys(), 1u);
}

TEST(PrefixTreeTest, UpsertReplaces) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  tree.Upsert(U32Key(9).data(), 1);
  tree.Upsert(U32Key(9).data(), 2);
  const ValueList* v = tree.Lookup(U32Key(9).data());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ(v->first(), 2u);
}

TEST(PrefixTreeTest, AggregateModeFindOrCreate) {
  PrefixTree tree({.key_len = 4,
                   .kprime = 4,
                   .mode = PrefixTree::PayloadMode::kAggregate,
                   .agg_payload_size = 16});
  bool created = false;
  std::byte* p = tree.FindOrCreatePayload(U32Key(3).data(), &created);
  EXPECT_TRUE(created);
  // Payload starts zeroed; fold in a sum and a count.
  auto* sums = reinterpret_cast<int64_t*>(p);
  EXPECT_EQ(sums[0], 0);
  sums[0] += 100;
  sums[1] += 1;
  std::byte* q = tree.FindOrCreatePayload(U32Key(3).data(), &created);
  EXPECT_FALSE(created);
  EXPECT_EQ(q, p);
  reinterpret_cast<int64_t*>(q)[0] += 50;
  const std::byte* r = tree.FindPayload(U32Key(3).data());
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(reinterpret_cast<const int64_t*>(r)[0], 150);
  EXPECT_EQ(tree.FindPayload(U32Key(4).data()), nullptr);
}

// ---- property tests over k' and key width ------------------------------------

struct TreeParam {
  size_t key_len;
  size_t kprime;
};

class PrefixTreeProperty : public ::testing::TestWithParam<TreeParam> {};

TEST_P(PrefixTreeProperty, RandomInsertLookupRoundTrip) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(42);
  std::map<std::vector<uint8_t>, uint64_t> reference;
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    uint64_t value = rng.Next() >> 1;
    tree.Upsert(key.data(), value);
    reference[key] = value;
  }
  EXPECT_EQ(tree.num_keys(), reference.size());
  for (const auto& [key, value] : reference) {
    const ValueList* v = tree.Lookup(key.data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), value);
  }
  // Absent keys miss.
  for (int i = 0; i < 500; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (reference.count(key)) continue;
    EXPECT_EQ(tree.Lookup(key.data()), nullptr);
  }
}

TEST_P(PrefixTreeProperty, ScanAllIsSorted) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(43);
  std::set<std::vector<uint8_t>> reference;
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    tree.Insert(key.data(), 1);
    reference.insert(key);
  }
  std::vector<std::vector<uint8_t>> scanned;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    scanned.emplace_back(c.key(), c.key() + key_len);
  });
  ASSERT_EQ(scanned.size(), reference.size());
  // The scan must enumerate exactly the reference set, in sorted order.
  auto it = reference.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i], *it);
  }
}

TEST_P(PrefixTreeProperty, RangeScanMatchesReference) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(44);
  std::set<std::vector<uint8_t>> reference;
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    tree.Insert(key.data(), 1);
    reference.insert(key);
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> lo(key_len), hi(key_len);
    for (auto& b : lo) b = static_cast<uint8_t>(rng.NextBounded(256));
    for (auto& b : hi) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (std::memcmp(lo.data(), hi.data(), key_len) > 0) std::swap(lo, hi);
    std::set<std::vector<uint8_t>> expected;
    for (const auto& k : reference) {
      if (std::memcmp(k.data(), lo.data(), key_len) >= 0 &&
          std::memcmp(k.data(), hi.data(), key_len) <= 0) {
        expected.insert(k);
      }
    }
    std::vector<std::vector<uint8_t>> scanned;
    tree.ScanRange(lo.data(), hi.data(),
                   [&](const PrefixTree::ContentNode& c) {
                     scanned.emplace_back(c.key(), c.key() + key_len);
                   });
    ASSERT_EQ(scanned.size(), expected.size());
    auto it = expected.begin();
    for (size_t i = 0; i < scanned.size(); ++i, ++it) {
      EXPECT_EQ(scanned[i], *it);
    }
  }
}

TEST_P(PrefixTreeProperty, BatchLookupAgreesWithPointLookup) {
  auto [key_len, kprime] = GetParam();
  PrefixTree tree({.key_len = key_len, .kprime = kprime});
  Rng rng(45);
  std::vector<std::vector<uint8_t>> keys;
  for (int i = 0; i < 1000; ++i) {
    std::vector<uint8_t> key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.NextBounded(256));
    if (i % 2 == 0) tree.Insert(key.data(), static_cast<uint64_t>(i));
    keys.push_back(std::move(key));
  }
  std::vector<PrefixTree::LookupJob> jobs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) jobs[i].key = keys[i].data();
  tree.BatchLookup(jobs);
  for (size_t i = 0; i < keys.size(); ++i) {
    const ValueList* direct = tree.Lookup(keys[i].data());
    if (direct == nullptr) {
      EXPECT_EQ(jobs[i].result, nullptr);
    } else {
      ASSERT_NE(jobs[i].result, nullptr);
      EXPECT_EQ(tree.ValuesOf(jobs[i].result)->first(), direct->first());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrefixTreeProperty,
    ::testing::Values(TreeParam{4, 4}, TreeParam{4, 2}, TreeParam{4, 8},
                      TreeParam{8, 4}, TreeParam{8, 8}, TreeParam{3, 4},
                      TreeParam{16, 4}, TreeParam{4, 5}, TreeParam{6, 12}),
    [](const ::testing::TestParamInfo<TreeParam>& info) {
      return "len" + std::to_string(info.param.key_len) + "_k" +
             std::to_string(info.param.kprime);
    });

// ---- dense sequential keys (the Fig. 3 workload shape) --------------------------

TEST(PrefixTreeTest, DenseSequentialKeys) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  constexpr uint32_t kN = 50000;
  for (uint32_t i = 0; i < kN; ++i) {
    tree.Upsert(U32Key(i).data(), i * 2);
  }
  EXPECT_EQ(tree.num_keys(), kN);
  for (uint32_t i = 0; i < kN; i += 97) {
    const ValueList* v = tree.Lookup(U32Key(i).data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), uint64_t{i} * 2);
  }
  // In-order scan of a dense range is exactly 0..kN-1.
  uint32_t expected = 0;
  tree.ScanAll([&](const PrefixTree::ContentNode& c) {
    EXPECT_EQ(DecodeU32(c.key()), expected++);
  });
  EXPECT_EQ(expected, kN);
}

TEST(PrefixTreeTest, BatchInsertMatchesSequentialInsert) {
  PrefixTree a({.key_len = 4, .kprime = 4});
  PrefixTree b({.key_len = 4, .kprime = 4});
  Rng rng(7);
  std::vector<KeyBuf> keys;
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(U32Key(rng.Next32() % 500));  // heavy duplicates
    values.push_back(rng.Next() >> 1);
  }
  for (size_t i = 0; i < keys.size(); ++i) a.Insert(keys[i].data(), values[i]);
  std::vector<PrefixTree::InsertJob> jobs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    jobs[i].key = keys[i].data();
    jobs[i].value = values[i];
  }
  b.BatchInsert(jobs);
  EXPECT_EQ(a.num_keys(), b.num_keys());
  a.ScanAll([&](const PrefixTree::ContentNode& c) {
    const ValueList* va = a.ValuesOf(&c);
    const ValueList* vb = b.Lookup(c.key());
    ASSERT_NE(vb, nullptr);
    EXPECT_EQ(va->size(), vb->size());
  });
}

TEST(PrefixTreeTest, MemoryGrowsWithKprimeOnSparseKeys) {
  // §2.1: higher k' costs memory when the key distribution is sparse.
  Rng rng(8);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next32());
  PrefixTree k4({.key_len = 4, .kprime = 4});
  PrefixTree k8({.key_len = 4, .kprime = 8});
  for (uint32_t k : keys) {
    k4.Upsert(U32Key(k).data(), 1);
    k8.Upsert(U32Key(k).data(), 1);
  }
  EXPECT_GT(k8.MemoryUsage(), k4.MemoryUsage());
}

TEST(PrefixTreeTest, HandlesKeyLengthNotMultipleOfKprime) {
  // key_bits = 24, kprime = 5 -> last fragment is 4 bits wide.
  PrefixTree tree({.key_len = 3, .kprime = 5});
  std::vector<std::vector<uint8_t>> keys;
  for (int i = 0; i < 256; ++i) {
    keys.push_back({static_cast<uint8_t>(i), static_cast<uint8_t>(255 - i),
                    static_cast<uint8_t>(i * 7)});
    tree.Upsert(keys.back().data(), static_cast<uint64_t>(i));
  }
  for (int i = 0; i < 256; ++i) {
    const ValueList* v = tree.Lookup(keys[static_cast<size_t>(i)].data());
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->first(), static_cast<uint64_t>(i));
  }
}

// ---- chain skip ----------------------------------------------------------------

// Leading bits two keys share.
size_t CommonPrefixBits(const uint8_t* a, const uint8_t* b, size_t key_len) {
  for (size_t i = 0; i < key_len; ++i) {
    if (a[i] != b[i]) {
      return i * 8 + static_cast<size_t>(std::countl_zero(
                         static_cast<uint8_t>(a[i] ^ b[i])));
    }
  }
  return key_len * 8;
}

// The skip descriptor must be the deepest common ancestor of all keys:
// the level holding the first bit where two keys differ (the root for a
// tree of at most one key), with every key carrying its prefix.
void ExpectExactSkip(const PrefixTree& tree,
                     const std::map<std::vector<uint8_t>, uint64_t>& ref) {
  const PrefixTree::Skip& skip = tree.skip();
  size_t key_len = tree.key_len();
  size_t expected_bit_off = 0;
  if (ref.size() > 1) {
    size_t common = CommonPrefixBits(ref.begin()->first.data(),
                                     ref.rbegin()->first.data(), key_len);
    size_t kprime = tree.config().kprime;
    expected_bit_off = common / kprime * kprime;
  }
  EXPECT_EQ(skip.bit_off, expected_bit_off);
  EXPECT_EQ(tree.level(skip.level).bit_off, skip.bit_off);
  for (const auto& [key, value] : ref) {
    ASSERT_GE(CommonPrefixBits(key.data(), skip.prefix, key_len),
              skip.bit_off);
  }
}

// Find, BatchLookup, FindPayload and FindOrCreatePayload must agree with
// the reference on every stored key, and miss on `absent`.
void ExpectAgrees(const PrefixTree& values, PrefixTree& agg,
                  const std::map<std::vector<uint8_t>, uint64_t>& ref,
                  const std::vector<std::vector<uint8_t>>& absent) {
  std::vector<PrefixTree::LookupJob> jobs;
  for (const auto& [key, value] : ref) {
    PrefixTree::LookupJob job;
    job.key = key.data();
    jobs.push_back(job);
  }
  for (const auto& key : absent) {
    PrefixTree::LookupJob job;
    job.key = key.data();
    jobs.push_back(job);
  }
  values.BatchLookup(jobs);
  size_t i = 0;
  for (const auto& [key, value] : ref) {
    const PrefixTree::ContentNode* c = values.Find(key.data());
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(values.ValuesOf(c)->first(), value);
    EXPECT_EQ(jobs[i++].result, c);
    bool created = true;
    std::byte* p = agg.FindOrCreatePayload(key.data(), &created);
    EXPECT_FALSE(created);
    EXPECT_EQ(agg.FindPayload(key.data()), p);
    uint64_t stored = 0;
    std::memcpy(&stored, p, sizeof(stored));
    EXPECT_EQ(stored, value);
  }
  for (const auto& key : absent) {
    EXPECT_EQ(values.Find(key.data()), nullptr);
    EXPECT_EQ(jobs[i++].result, nullptr);
    EXPECT_EQ(agg.FindPayload(key.data()), nullptr);
  }
}

// Inserts into a kValues and a kAggregate tree and checks both against a
// std::map reference after every insert.
class SkipHarness {
 public:
  SkipHarness(size_t key_len, size_t kprime)
      : values_({.key_len = key_len, .kprime = kprime}),
        agg_({.key_len = key_len,
              .kprime = kprime,
              .mode = PrefixTree::PayloadMode::kAggregate,
              .agg_payload_size = 8}) {}

  void Insert(const std::vector<uint8_t>& key) {
    if (ref_.count(key) != 0) return;
    uint64_t value = ref_.size() + 1;
    values_.Insert(key.data(), value);
    bool created = false;
    std::byte* p = agg_.FindOrCreatePayload(key.data(), &created);
    ASSERT_TRUE(created);
    std::memcpy(p, &value, sizeof(value));
    ref_[key] = value;
    Check();
  }

  void Check() {
    EXPECT_EQ(values_.num_keys(), ref_.size());
    ExpectExactSkip(values_, ref_);
    ExpectExactSkip(agg_, ref_);
    std::vector<std::vector<uint8_t>> absent;
    for (const auto& key : absent_) {
      if (ref_.count(key) == 0) absent.push_back(key);
    }
    ExpectAgrees(values_, agg_, ref_, absent);
  }

  // A probe that misses for as long as it is not inserted.
  void AddAbsent(const std::vector<uint8_t>& key) { absent_.push_back(key); }

  const PrefixTree& values() const { return values_; }

 private:
  PrefixTree values_;
  PrefixTree agg_;
  std::map<std::vector<uint8_t>, uint64_t> ref_;
  std::vector<std::vector<uint8_t>> absent_;
};

std::vector<uint8_t> Bytes(const KeyBuf& k) {
  return {k.data(), k.data() + k.size()};
}

TEST(PrefixTreeSkipTest, EmptyTreeSkipsNothing) {
  SkipHarness h(8, 4);
  h.AddAbsent(Bytes(I64Key(0)));
  h.AddAbsent(Bytes(I64Key(-1)));
  h.Check();
  EXPECT_EQ(h.values().skip().node, h.values().root());
  EXPECT_EQ(h.values().skip().bit_off, 0u);
}

TEST(PrefixTreeSkipTest, SecondKeyIntoOneKeyTreeRepublishes) {
  SkipHarness h(8, 4);
  h.AddAbsent(Bytes(I64Key(7)));
  h.Insert(Bytes(I64Key(5)));
  EXPECT_EQ(h.values().skip().bit_off, 0u);  // one key: the root
  // 5 and 6 share the first 62 bits: the branch is the last level.
  h.Insert(Bytes(I64Key(6)));
  EXPECT_EQ(h.values().skip().bit_off, 60u);
}

TEST(PrefixTreeSkipTest, KeyBranchingAboveSkipRepublishes) {
  SkipHarness h(8, 4);
  for (int64_t v = 1; v <= 40; ++v) h.Insert(Bytes(I64Key(v * 3)));
  h.AddAbsent(Bytes(I64Key(1000)));
  h.AddAbsent(Bytes(I64Key(-7)));
  size_t deep = h.values().skip().bit_off;
  EXPECT_GE(deep, 52u);
  // Each key branches above the previous descriptor; the last one flips
  // the sign bit and branches at the root.
  for (int64_t v : {int64_t{1} << 20, int64_t{1} << 33, int64_t{1} << 50,
                    int64_t{-5}}) {
    h.Insert(Bytes(I64Key(v)));
  }
  EXPECT_EQ(h.values().skip().bit_off, 0u);
}

struct SkipParam {
  size_t key_len;
  size_t kprime;
};

class PrefixTreeSkipProperty : public ::testing::TestWithParam<SkipParam> {};

// Keys share a random prefix and branch progressively higher, so the
// descriptor deepens, then keeps shortening; key bits are not always a
// multiple of k'.
TEST_P(PrefixTreeSkipProperty, MatchesReferenceAfterEveryInsert) {
  auto [key_len, kprime] = GetParam();
  SkipHarness h(key_len, kprime);
  Rng rng(key_len * 31 + kprime);
  std::vector<uint8_t> base(key_len);
  for (auto& b : base) b = static_cast<uint8_t>(rng.NextBounded(256));
  const size_t key_bits = key_len * 8;
  // Flip one bit at a decreasing depth, plus random low bits below it.
  auto variant = [&](size_t depth) {
    std::vector<uint8_t> k = base;
    k[depth / 8] ^= static_cast<uint8_t>(0x80u >> (depth % 8));
    for (size_t bit = depth + 1; bit < key_bits; ++bit) {
      if (rng.NextBounded(4) == 0) {
        k[bit / 8] ^= static_cast<uint8_t>(0x80u >> (bit % 8));
      }
    }
    return k;
  };
  for (size_t i = 0; i < 8; ++i) h.AddAbsent(variant(rng.NextBounded(key_bits)));
  h.Insert(base);
  for (size_t step = 0; step < 60; ++step) {
    size_t depth = key_bits - 1 - (key_bits - 1) * step / 59;
    h.Insert(variant(depth));
    if (step % 3 == 0) h.Insert(variant(key_bits - 1 - rng.NextBounded(8)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrefixTreeSkipProperty,
    ::testing::Values(SkipParam{8, 3}, SkipParam{8, 4}, SkipParam{8, 5},
                      SkipParam{8, 8}, SkipParam{16, 3}, SkipParam{16, 4},
                      SkipParam{16, 5}, SkipParam{16, 8}, SkipParam{24, 3},
                      SkipParam{24, 4}, SkipParam{24, 5}, SkipParam{24, 8}),
    [](const ::testing::TestParamInfo<SkipParam>& info) {
      return "len" + std::to_string(info.param.key_len) + "_k" +
             std::to_string(info.param.kprime);
    });

// The partitioned merge protocol: pre-built chain, concurrent
// InsertForMerge over disjoint branching-level fragments, then lookups.
// The merge leaves the descriptor alone; EndConcurrentInserts recomputes
// it.
TEST(PrefixTreeSkipTest, ConcurrentMergeThenLookups) {
  constexpr size_t kThreads = 4;
  constexpr int64_t kKeys = 4096;
  PrefixTree tree({.key_len = 8, .kprime = 4});
  const size_t branch_bit_off = 52;  // keys 0..4095 differ from bit 52 on
  tree.EnsureChainForMerge(I64Key(0).data(), branch_bit_off);
  const PrefixTree::Skip* before = &tree.skip();
  tree.BeginConcurrentInserts();
  std::vector<PrefixTree::MergeStats> stats(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Fragment at bit 52 is key >> 8: thread t owns 4 of its 16 values.
      for (int64_t k = 0; k < kKeys; ++k) {
        if (static_cast<size_t>(k >> 8) / 4 != t) continue;
        tree.InsertForMerge(I64Key(k).data(), static_cast<uint64_t>(k),
                            &stats[t]);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(&tree.skip(), before);
  tree.EndConcurrentInserts();
  for (const auto& s : stats) tree.AddMergedKeyStats(s);
  EXPECT_EQ(tree.num_keys(), static_cast<size_t>(kKeys));
  EXPECT_EQ(tree.skip().bit_off, branch_bit_off);
  std::vector<KeyBuf> keys(kKeys + 10);
  std::vector<PrefixTree::LookupJob> jobs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = I64Key(static_cast<int64_t>(i));
    jobs[i].key = keys[i].data();
  }
  tree.BatchLookup(jobs);
  for (size_t i = 0; i < keys.size(); ++i) {
    const ValueList* v = tree.Lookup(keys[i].data());
    if (i < static_cast<size_t>(kKeys)) {
      ASSERT_NE(v, nullptr) << i;
      EXPECT_EQ(v->first(), i);
      EXPECT_EQ(jobs[i].result, tree.Find(keys[i].data()));
    } else {
      EXPECT_EQ(v, nullptr) << i;
      EXPECT_EQ(jobs[i].result, nullptr) << i;
    }
  }
}

// A live index: one writer inserts keys that keep shortening the chain
// while readers look up keys inserted before they started. A reader that
// holds a stale descriptor must still find every one of them.
TEST(PrefixTreeSkipTest, ReadersNeverMissWhileWriterShortensChain) {
  constexpr int64_t kEarly = 200;
  constexpr size_t kReaders = 2;
  PrefixTree tree({.key_len = 8, .kprime = 4});
  for (int64_t k = 1; k <= kEarly; ++k) {
    tree.Insert(I64Key(k).data(), static_cast<uint64_t>(k));
  }
  std::atomic<bool> stop{false};
  std::atomic<size_t> misses{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<KeyBuf> keys(kEarly);
      std::vector<PrefixTree::LookupJob> jobs(kEarly);
      for (int64_t k = 1; k <= kEarly; ++k) {
        keys[k - 1] = I64Key(k);
        jobs[k - 1].key = keys[k - 1].data();
      }
      while (!stop.load(std::memory_order_acquire)) {
        for (int64_t k = 1; k <= kEarly; ++k) {
          const ValueList* v = tree.Lookup(keys[k - 1].data());
          if (v == nullptr || v->first() != static_cast<uint64_t>(k)) {
            misses.fetch_add(1);
          }
        }
        tree.BatchLookup(jobs);
        for (const auto& job : jobs) {
          if (job.result == nullptr) misses.fetch_add(1);
        }
      }
    });
  }
  // Keys branching ever higher: bit 40, 36, ..., then the sign bit.
  for (int shift = 12; shift <= 62; shift += 2) {
    for (int64_t k = 0; k < 8; ++k) {
      int64_t key = (int64_t{1} << shift) + k;
      tree.Insert(I64Key(key).data(), 1);
      tree.Insert(I64Key(-key).data(), 1);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(misses.load(), 0u);
  EXPECT_EQ(tree.skip().bit_off, 0u);
  for (int64_t k = 1; k <= kEarly; ++k) {
    ASSERT_NE(tree.Lookup(I64Key(k).data()), nullptr);
  }
}

}  // namespace
}  // namespace qppt
