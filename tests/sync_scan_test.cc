#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/sync_scan.h"
#include "index/key_encoder.h"
#include "util/rng.h"

namespace qppt {
namespace {

// Property: the synchronous index scan of two trees visits exactly the
// intersection of their key sets, in ascending order, pairing the correct
// value lists.

TEST(SyncScanKissTest, MatchesSetIntersection) {
  KissTree::Config cfg;
  cfg.root_bits = 20;
  KissTree left(cfg), right(cfg);
  Rng rng(1);
  std::set<uint32_t> lkeys, rkeys;
  for (int i = 0; i < 4000; ++i) {
    uint32_t k = rng.Next32() % 10000;
    left.Insert(k, k * 2);
    lkeys.insert(k);
    k = rng.Next32() % 10000;
    right.Insert(k, k * 3);
    rkeys.insert(k);
  }
  std::vector<uint32_t> expected;
  std::set_intersection(lkeys.begin(), lkeys.end(), rkeys.begin(),
                        rkeys.end(), std::back_inserter(expected));
  std::vector<uint32_t> got;
  SynchronousScan(left, right,
                  [&](uint32_t key, const KissTree::ValueRef& lv,
                      const KissTree::ValueRef& rv) {
                    got.push_back(key);
                    EXPECT_EQ(lv.front(), uint64_t{key} * 2);
                    EXPECT_EQ(rv.front(), uint64_t{key} * 3);
                  });
  EXPECT_EQ(got, expected);
}

TEST(SyncScanKissTest, EmptyAndDisjointInputs) {
  KissTree::Config cfg;
  cfg.root_bits = 20;
  KissTree left(cfg), right(cfg);
  int visits = 0;
  SynchronousScan(left, right,
                  [&](uint32_t, const KissTree::ValueRef&,
                      const KissTree::ValueRef&) { ++visits; });
  EXPECT_EQ(visits, 0);

  // Disjoint ranges: mins/maxes do not overlap, scan must exit early.
  for (uint32_t k = 0; k < 100; ++k) left.Insert(k, 1);
  for (uint32_t k = 1000; k < 1100; ++k) right.Insert(k, 1);
  SynchronousScan(left, right,
                  [&](uint32_t, const KissTree::ValueRef&,
                      const KissTree::ValueRef&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(SyncScanKissTest, DuplicatesPairUp) {
  KissTree::Config cfg;
  cfg.root_bits = 20;
  KissTree left(cfg), right(cfg);
  for (uint64_t i = 0; i < 5; ++i) left.Insert(77, i);
  for (uint64_t i = 0; i < 3; ++i) right.Insert(77, 100 + i);
  size_t pairs = 0;
  SynchronousScan(left, right,
                  [&](uint32_t key, const KissTree::ValueRef& lv,
                      const KissTree::ValueRef& rv) {
                    EXPECT_EQ(key, 77u);
                    EXPECT_EQ(lv.size(), 5u);
                    EXPECT_EQ(rv.size(), 3u);
                    lv.ForEach([&](uint64_t) {
                      rv.ForEach([&](uint64_t) { ++pairs; });
                    });
                  });
  EXPECT_EQ(pairs, 15u);  // the §4.2 cross product
}

TEST(SyncScanKissTest, MixedCompression) {
  KissTree::Config flat_cfg;
  flat_cfg.root_bits = 26;
  KissTree::Config comp_cfg;
  comp_cfg.root_bits = 26;
  comp_cfg.compress = true;
  KissTree flat(flat_cfg), compressed(comp_cfg);
  Rng rng(2);
  std::set<uint32_t> fkeys, ckeys;
  for (int i = 0; i < 2000; ++i) {
    uint32_t k = rng.Next32() % 4000;
    flat.Insert(k, 1);
    fkeys.insert(k);
    k = rng.Next32() % 4000;
    compressed.Insert(k, 1);
    ckeys.insert(k);
  }
  std::vector<uint32_t> expected;
  std::set_intersection(fkeys.begin(), fkeys.end(), ckeys.begin(),
                        ckeys.end(), std::back_inserter(expected));
  std::vector<uint32_t> got;
  SynchronousScan(flat, compressed,
                  [&](uint32_t key, const KissTree::ValueRef&,
                      const KissTree::ValueRef&) { got.push_back(key); });
  EXPECT_EQ(got, expected);
}

// ---- prefix tree sync scan ------------------------------------------------------

struct PtParam {
  size_t key_len;
  size_t kprime;
};

class SyncScanPrefixTest : public ::testing::TestWithParam<PtParam> {};

TEST_P(SyncScanPrefixTest, MatchesSetIntersection) {
  auto [key_len, kprime] = GetParam();
  PrefixTree left({.key_len = key_len, .kprime = kprime});
  PrefixTree right({.key_len = key_len, .kprime = kprime});
  Rng rng(3);
  std::set<std::vector<uint8_t>> lkeys, rkeys;
  auto random_key = [&] {
    std::vector<uint8_t> key(key_len);
    // Narrow value domain so intersections are non-trivial.
    uint64_t v = rng.NextBounded(3000);
    for (size_t i = 0; i < key_len && i < 8; ++i) {
      key[key_len - 1 - i] = static_cast<uint8_t>(v >> (8 * i));
    }
    return key;
  };
  for (int i = 0; i < 2500; ++i) {
    auto k = random_key();
    left.Insert(k.data(), 2);
    lkeys.insert(k);
    k = random_key();
    right.Insert(k.data(), 3);
    rkeys.insert(k);
  }
  std::vector<std::vector<uint8_t>> expected;
  std::set_intersection(lkeys.begin(), lkeys.end(), rkeys.begin(),
                        rkeys.end(), std::back_inserter(expected));
  std::vector<std::vector<uint8_t>> got;
  SynchronousScan(left, right,
                  [&](const uint8_t* key, const ValueList* lv,
                      const ValueList* rv) {
                    got.emplace_back(key, key + key_len);
                    EXPECT_EQ(lv->first(), 2u);
                    EXPECT_EQ(rv->first(), 3u);
                  });
  EXPECT_EQ(got, expected);
}

TEST_P(SyncScanPrefixTest, ContentVsSubtreeMatching) {
  // Force the asymmetric case: one tree has a lone content node high up
  // (dynamic expansion) while the other expanded the same region deeply.
  auto [key_len, kprime] = GetParam();
  PrefixTree left({.key_len = key_len, .kprime = kprime});
  PrefixTree right({.key_len = key_len, .kprime = kprime});
  std::vector<uint8_t> base(key_len, 0xA0);
  left.Insert(base.data(), 1);  // stays shallow in left
  // Right gets the same key plus close siblings, forcing deep expansion.
  right.Insert(base.data(), 2);
  for (uint8_t delta = 1; delta < 6; ++delta) {
    std::vector<uint8_t> sibling = base;
    sibling[key_len - 1] = static_cast<uint8_t>(0xA0 + delta);
    right.Insert(sibling.data(), 9);
  }
  size_t matches = 0;
  SynchronousScan(left, right,
                  [&](const uint8_t* key, const ValueList* lv,
                      const ValueList* rv) {
                    EXPECT_EQ(CompareKeys(key, base.data(), key_len), 0);
                    EXPECT_EQ(lv->first(), 1u);
                    EXPECT_EQ(rv->first(), 2u);
                    ++matches;
                  });
  EXPECT_EQ(matches, 1u);
  // And symmetrically.
  matches = 0;
  SynchronousScan(right, left,
                  [&](const uint8_t*, const ValueList*, const ValueList*) {
                    ++matches;
                  });
  EXPECT_EQ(matches, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyncScanPrefixTest,
    ::testing::Values(PtParam{4, 4}, PtParam{8, 4}, PtParam{4, 8},
                      PtParam{8, 8}, PtParam{16, 4}, PtParam{3, 5}),
    [](const ::testing::TestParamInfo<PtParam>& info) {
      return "len" + std::to_string(info.param.key_len) + "_k" +
             std::to_string(info.param.kprime);
    });

}  // namespace
}  // namespace qppt
