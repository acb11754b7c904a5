#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "index/key_encoder.h"
#include "util/rng.h"

namespace qppt {
namespace {

TEST(PartitionKissRangeTest, CoversSpanDisjointly) {
  KissTree tree;
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    tree.Insert(static_cast<uint32_t>(rng.NextBounded(1 << 20)), 1);
  }
  for (size_t shards : {1, 2, 3, 7, 16}) {
    auto ranges = PartitionKissRange(tree, shards);
    ASSERT_FALSE(ranges.empty());
    ASSERT_LE(ranges.size(), shards);
    EXPECT_EQ(ranges.front().first, tree.min_key());
    EXPECT_EQ(ranges.back().second, tree.max_key());
    for (size_t i = 1; i < ranges.size(); ++i) {
      // Contiguous and disjoint.
      EXPECT_EQ(uint64_t{ranges[i - 1].second} + 1, ranges[i].first);
    }
    // Shard boundaries never split a level-2 node (except at the span
    // edges which are clamped to min/max).
    size_t l2 = tree.level2_bits();
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].first & ((1u << l2) - 1), 0u);
    }
  }
}

TEST(PartitionKissRangeTest, EmptyTreeAndZeroShards) {
  KissTree tree;
  EXPECT_TRUE(PartitionKissRange(tree, 4).empty());
  tree.Insert(5, 1);
  EXPECT_TRUE(PartitionKissRange(tree, 0).empty());
  auto one = PartitionKissRange(tree, 8);  // more shards than buckets
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].first, 5u);
  EXPECT_EQ(one[0].second, 5u);
}

TEST(ParallelScanKissTest, MatchesSequentialScan) {
  KissTree tree;
  Rng rng(2);
  std::map<uint32_t, size_t> reference;
  for (int i = 0; i < 50000; ++i) {
    uint32_t key = static_cast<uint32_t>(rng.NextBounded(1 << 18));
    tree.Insert(key, static_cast<uint64_t>(i));
    reference[key]++;
  }
  for (size_t threads : {1, 2, 4, 8}) {
    std::mutex mu;
    std::map<uint32_t, size_t> scanned;
    std::atomic<uint64_t> values{0};
    ParallelScan(tree, threads,
                 [&](size_t, uint32_t key, const KissTree::ValueRef& v) {
                   std::lock_guard<std::mutex> lock(mu);
                   scanned[key] += 1;
                   values += v.size();
                 });
    EXPECT_EQ(scanned.size(), reference.size()) << threads;
    EXPECT_EQ(values.load(), 50000u) << threads;
    for (const auto& [key, count] : scanned) {
      EXPECT_EQ(count, 1u) << "key visited twice with " << threads;
    }
  }
}

TEST(ParallelScanKissTest, ShardsSeeAscendingDisjointKeys) {
  KissTree tree;
  for (uint32_t k = 0; k < 100000; k += 3) tree.Insert(k, k);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<uint32_t>> per_shard(kThreads);
  std::mutex mu;
  ParallelScan(tree, kThreads,
               [&](size_t shard, uint32_t key, const KissTree::ValueRef&) {
                 std::lock_guard<std::mutex> lock(mu);
                 per_shard[shard].push_back(key);
               });
  std::set<uint32_t> all;
  for (const auto& keys : per_shard) {
    for (size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]);  // in-order within shard
    }
    for (uint32_t k : keys) {
      EXPECT_TRUE(all.insert(k).second);  // disjoint across shards
    }
  }
  EXPECT_EQ(all.size(), tree.num_keys());
}

TEST(ParallelScanPrefixTest, MatchesSequentialScan) {
  PrefixTree tree({.key_len = 4, .kprime = 4});
  Rng rng(3);
  std::set<uint32_t> reference;
  KeyBuf buf;
  for (int i = 0; i < 20000; ++i) {
    uint32_t key = rng.Next32();
    buf.clear();
    buf.AppendU32(key);
    tree.Upsert(buf.data(), key);
    reference.insert(key);
  }
  for (size_t threads : {1, 3, 8, 64}) {
    std::mutex mu;
    std::set<uint32_t> scanned;
    ParallelScan(tree, threads,
                 [&](size_t, const PrefixTree::ContentNode& c) {
                   std::lock_guard<std::mutex> lock(mu);
                   scanned.insert(DecodeU32(c.key()));
                 });
    EXPECT_EQ(scanned, reference) << threads;
  }
}

TEST(ParallelScanPrefixTest, MoreThreadsThanRootBuckets) {
  PrefixTree tree({.key_len = 1, .kprime = 2});  // root fanout 4
  uint8_t key = 0x00;
  tree.Insert(&key, 1);
  key = 0xFF;
  tree.Insert(&key, 2);
  std::atomic<int> visits{0};
  ParallelScan(tree, 16,
               [&](size_t, const PrefixTree::ContentNode&) { ++visits; });
  EXPECT_EQ(visits.load(), 2);
}

// ---- partition edge cases (both families) ----------------------------------

TEST(PartitionKissRangeTest, EdgeCases) {
  // Empty tree: no ranges, for any shard count.
  KissTree empty;
  EXPECT_TRUE(PartitionKissRange(empty, 1).empty());
  EXPECT_TRUE(PartitionKissRange(empty, 64).empty());

  // Single populated bucket (all keys share one level-2 node): exactly
  // one range regardless of requested shards.
  KissTree one_bucket;
  for (uint32_t k = 0; k < 64; ++k) one_bucket.Insert(k, k);
  for (size_t shards : {1, 2, 1024}) {
    auto ranges = PartitionKissRange(one_bucket, shards);
    ASSERT_EQ(ranges.size(), 1u) << shards;
    EXPECT_EQ(ranges[0].first, one_bucket.min_key());
    EXPECT_EQ(ranges[0].second, one_bucket.max_key());
  }

  // More shards than populated buckets: shard count collapses to the
  // bucket count, ranges stay disjoint and covering.
  KissTree sparse;
  size_t l2 = sparse.level2_bits();
  for (uint32_t b = 0; b < 3; ++b) {
    sparse.Insert(static_cast<uint32_t>(b << l2), b);
  }
  auto ranges = PartitionKissRange(sparse, 100);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges.front().first, sparse.min_key());
  EXPECT_EQ(ranges.back().second, sparse.max_key());
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(uint64_t{ranges[i - 1].second} + 1, ranges[i].first);
  }

  // More shards than the machine has hardware threads: the partitioner
  // (and the scan driver) must not care.
  size_t oversubscribed = std::thread::hardware_concurrency() * 4 + 3;
  KissTree big;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    big.Insert(static_cast<uint32_t>(rng.NextBounded(1 << 22)), 1);
  }
  auto many = PartitionKissRange(big, oversubscribed);
  ASSERT_FALSE(many.empty());
  ASSERT_LE(many.size(), oversubscribed);
  EXPECT_EQ(many.front().first, big.min_key());
  EXPECT_EQ(many.back().second, big.max_key());
  EXPECT_EQ(ParallelCountValues(big, oversubscribed), 20000u);
}

TEST(PartitionPrefixRangeTest, EdgeCases) {
  // Empty tree.
  PrefixTree empty({.key_len = 4, .kprime = 4});
  EXPECT_TRUE(PartitionPrefixRange(empty, 8).empty());

  // Single populated root bucket: one span, even for huge shard counts.
  PrefixTree one_bucket({.key_len = 4, .kprime = 4});
  KeyBuf buf;
  for (uint32_t k = 0; k < 100; ++k) {
    buf.clear();
    buf.AppendU32(k);  // all keys share top fragment 0
    one_bucket.Upsert(buf.data(), k);
  }
  for (size_t shards : {1, 2, 512}) {
    auto ranges = PartitionPrefixRange(one_bucket, shards);
    ASSERT_EQ(ranges.size(), 1u) << shards;
  }

  // shards > populated buckets: one span per populated bucket; spans are
  // disjoint, ascending, and skip unpopulated slots at the boundaries.
  PrefixTree sparse({.key_len = 4, .kprime = 4});
  for (uint32_t top : {2u, 7u, 11u}) {
    buf.clear();
    buf.AppendU32(top << 28);
    sparse.Upsert(buf.data(), top);
  }
  auto ranges = PartitionPrefixRange(sparse, 100);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].first, 2u);
  EXPECT_EQ(ranges[1].first, 7u);
  EXPECT_EQ(ranges[2].first, 11u);
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_LE(ranges[i - 1].second, ranges[i].first);
  }

  // shards > hardware threads, on a populated tree: full coverage.
  size_t oversubscribed = std::thread::hardware_concurrency() * 4 + 3;
  PrefixTree big({.key_len = 4, .kprime = 4});
  Rng rng(13);
  std::set<uint32_t> reference;
  for (int i = 0; i < 5000; ++i) {
    uint32_t key = rng.Next32();
    buf.clear();
    buf.AppendU32(key);
    big.Upsert(buf.data(), key);
    reference.insert(key);
  }
  auto many = PartitionPrefixRange(big, oversubscribed);
  ASSERT_FALSE(many.empty());
  ASSERT_LE(many.size(), oversubscribed);
  std::mutex mu;
  std::set<uint32_t> scanned;
  ParallelScan(big, oversubscribed,
               [&](size_t, const PrefixTree::ContentNode& c) {
                 std::lock_guard<std::mutex> lock(mu);
                 scanned.insert(DecodeU32(c.key()));
               });
  EXPECT_EQ(scanned, reference);
}

// ---- exception safety of the fork-join driver ------------------------------

TEST(ForkJoinTest, WorkerExceptionIsRethrownAfterJoin) {
  KissTree tree;
  for (uint32_t k = 0; k < 100000; ++k) tree.Insert(k, k);
  auto ranges = PartitionKissRange(tree, 4);
  ASSERT_GT(ranges.size(), 1u);
  // A throwing shard functor must surface on the forking thread, not
  // std::terminate the process.
  EXPECT_THROW(
      ParallelScan(tree, 4,
                   [&](size_t shard, uint32_t, const KissTree::ValueRef&) {
                     if (shard == 1) throw std::runtime_error("shard boom");
                   }),
      std::runtime_error);
  // The scan substrate stays usable afterwards.
  EXPECT_EQ(ParallelCountValues(tree, 4), 100000u);
}

TEST(ParallelCountValuesTest, CountsDuplicates) {
  KissTree tree;
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(static_cast<uint32_t>(i % 10), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(ParallelCountValues(tree, 4), 1000u);
  EXPECT_EQ(ParallelCountValues(tree, 1), 1000u);
  KissTree empty;
  EXPECT_EQ(ParallelCountValues(empty, 4), 0u);
}

}  // namespace
}  // namespace qppt
