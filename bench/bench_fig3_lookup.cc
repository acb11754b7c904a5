// E2 — Figure 3(b): lookup performance of prefix-tree structures vs. hash
// tables. Same series and sizes as Figure 3(a); structures are prefilled
// with the dense key range and then probed with random present keys.
//
// The SSB-shaped series (BM_LookupSsb_*) probe the trees QPPT's assist
// lookups actually hit: sparse dimension keys in the 8-byte
// order-preserving int64 encoding (KeyBuf::AppendI64), whose trees share
// a long single-slot key chain above the first branch. The dense 4-byte
// Fig. 3 keys have no such chain. Each SSB-shaped run reports the chain
// skip (skip_bits) and the mean levels a probe walks below it.

#include <algorithm>
#include <benchmark/benchmark.h>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "bench_common.h"
#include "index/chained_hash_table.h"
#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/open_hash_table.h"
#include "index/prefix_tree.h"
#include "util/rng.h"

namespace qppt {
namespace {

std::vector<uint32_t> ProbeKeys(size_t n) {
  Rng rng(77);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.NextBounded(n));
  return keys;
}

void ReportPerKey(benchmark::State& state, size_t n) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_Lookup_PT4(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PrefixTree tree({.key_len = 4, .kprime = 4});
  KeyBuf buf;
  for (size_t i = 0; i < n; ++i) {
    buf.clear();
    buf.AppendU32(static_cast<uint32_t>(i));
    tree.Upsert(buf.data(), i);
  }
  auto probes = ProbeKeys(n);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint32_t k : probes) {
      buf.clear();
      buf.AppendU32(k);
      const ValueList* v = tree.Lookup(buf.data());
      sum += v->first();
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

void BM_Lookup_PT4_Batched(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  PrefixTree tree({.key_len = 4, .kprime = 4});
  KeyBuf buf;
  for (size_t i = 0; i < n; ++i) {
    buf.clear();
    buf.AppendU32(static_cast<uint32_t>(i));
    tree.Upsert(buf.data(), i);
  }
  auto probes = ProbeKeys(n);
  std::vector<KeyBuf> keys(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) keys[i].AppendU32(probes[i]);
  constexpr size_t kBatch = 512;
  std::vector<PrefixTree::LookupJob> jobs(kBatch);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      size_t len = std::min(kBatch, keys.size() - i);
      for (size_t j = 0; j < len; ++j) jobs[j].key = keys[i + j].data();
      tree.BatchLookup(std::span<PrefixTree::LookupJob>(jobs.data(), len));
      for (size_t j = 0; j < len; ++j) {
        sum += tree.ValuesOf(jobs[j].result)->first();
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

void BM_Lookup_GLIB(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  ChainedHashTable table;
  for (size_t i = 0; i < n; ++i) table.Upsert(i, i);
  auto probes = ProbeKeys(n);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint32_t k : probes) sum += *table.Find(k);
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

void BM_Lookup_BOOST(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  OpenHashTable table;
  for (size_t i = 0; i < n; ++i) table.Upsert(i, i);
  auto probes = ProbeKeys(n);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint32_t k : probes) sum += *table.Find(k);
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

void BM_Lookup_KISS(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  KissTree tree;
  for (size_t i = 0; i < n; ++i) {
    tree.Upsert(static_cast<uint32_t>(i), i);
  }
  auto probes = ProbeKeys(n);
  for (auto _ : state) {
    uint64_t sum = 0;
    KissTree::ValueRef ref;
    for (uint32_t k : probes) {
      tree.Lookup(k, &ref);
      sum += ref.front();
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

void BM_Lookup_KISS_Batched(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  KissTree tree;
  for (size_t i = 0; i < n; ++i) {
    tree.Upsert(static_cast<uint32_t>(i), i);
  }
  auto probes = ProbeKeys(n);
  constexpr size_t kBatch = 512;
  std::vector<KissTree::LookupJob> jobs(kBatch);
  for (auto _ : state) {
    uint64_t sum = 0;
    size_t i = 0;
    while (i < probes.size()) {
      size_t len = std::min(kBatch, probes.size() - i);
      for (size_t j = 0; j < len; ++j) jobs[j].key = probes[i + j];
      tree.BatchLookup(std::span<KissTree::LookupJob>(jobs.data(), len));
      for (size_t j = 0; j < len; ++j) sum += jobs[j].values.front();
      i += len;
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerKey(state, n);
}

// ---- SSB-shaped series ------------------------------------------------------

// One dimension-key shape: `keys` distinct values drawn from [1, domain]
// (domain 0: the 365 datekeys of 1997, yyyymmdd).
struct SsbShape {
  const char* name;
  size_t keys;
  int64_t domain;
};
constexpr SsbShape kSsbShapes[] = {
    {"supplier", 200, 2000},
    {"date", 365, 0},
    {"customer", 3000, 30000},
    {"part", 40000, 200000},
};
constexpr size_t kSsbProbes = 600000;
constexpr size_t kSsbBatch = 512;

std::vector<int64_t> SsbKeys(const SsbShape& shape) {
  std::vector<int64_t> keys;
  if (shape.domain == 0) {
    constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    for (int m = 1; m <= 12; ++m) {
      for (int d = 1; d <= kDays[m - 1]; ++d) {
        keys.push_back(19970000 + m * 100 + d);
      }
    }
    return keys;
  }
  Rng rng(91);
  std::set<int64_t> picked;
  while (picked.size() < shape.keys) {
    picked.insert(1 + static_cast<int64_t>(
                          rng.NextBounded(static_cast<uint64_t>(shape.domain))));
  }
  return {picked.begin(), picked.end()};
}

std::vector<int64_t> SsbProbes(const std::vector<int64_t>& keys) {
  Rng rng(78);
  std::vector<int64_t> probes(kSsbProbes);
  for (auto& p : probes) p = keys[rng.NextBounded(keys.size())];
  return probes;
}

void ReportPerProbe(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSsbProbes));
  state.SetLabel(kSsbShapes[state.range(0)].name);
}

// Adds, for every key below `node`, the levels from `level` down to its
// content node (what a present-key probe starting there walks) to
// *depth_sum, and counts the keys into *keys.
void SumContentDepths(const PrefixTree& tree, const PrefixTree::Node* node,
                      size_t level, double* depth_sum, size_t* keys) {
  size_t fanout = size_t{1} << tree.level(level).width;
  for (size_t i = 0; i < fanout; ++i) {
    PrefixTree::Slot s = PrefixTree::LoadSlot(&node->slots[i]);
    if (s == 0) continue;
    if (PrefixTree::IsContent(s)) {
      *depth_sum += 1.0;
      ++*keys;
    } else {
      size_t before = *keys;
      SumContentDepths(tree, PrefixTree::AsNode(s), level + 1, depth_sum,
                       keys);
      *depth_sum += static_cast<double>(*keys - before);
    }
  }
}

void BM_LookupSsb_PT4_Batched(benchmark::State& state) {
  const SsbShape& shape = kSsbShapes[state.range(0)];
  auto keys = SsbKeys(shape);
  PrefixTree tree({.key_len = 8, .kprime = 4});
  KeyBuf buf;
  for (size_t i = 0; i < keys.size(); ++i) {
    buf.clear();
    buf.AppendI64(keys[i]);
    tree.Insert(buf.data(), i);
  }
  auto probes = SsbProbes(keys);
  std::vector<KeyBuf> probe_keys(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    probe_keys[i].AppendI64(probes[i]);
  }
  std::vector<PrefixTree::LookupJob> jobs(kSsbBatch);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t i = 0; i < probe_keys.size(); i += kSsbBatch) {
      size_t len = std::min(kSsbBatch, probe_keys.size() - i);
      for (size_t j = 0; j < len; ++j) jobs[j].key = probe_keys[i + j].data();
      tree.BatchLookup(std::span<PrefixTree::LookupJob>(jobs.data(), len));
      for (size_t j = 0; j < len; ++j) {
        sum += tree.ValuesOf(jobs[j].result)->first();
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerProbe(state);
  const PrefixTree::Skip& skip = tree.skip();
  double depth_sum = 0;
  size_t counted = 0;
  SumContentDepths(tree, skip.node, skip.level, &depth_sum, &counted);
  state.counters["skip_bits"] = static_cast<double>(skip.bit_off);
  state.counters["levels_walked"] =
      counted == 0 ? 0.0 : depth_sum / static_cast<double>(counted);
}

void BM_LookupSsb_KISS_Batched(benchmark::State& state) {
  auto keys = SsbKeys(kSsbShapes[state.range(0)]);
  KissTree tree;
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(static_cast<uint32_t>(keys[i]), i);
  }
  auto probes = SsbProbes(keys);
  std::vector<KissTree::LookupJob> jobs(kSsbBatch);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t i = 0; i < probes.size(); i += kSsbBatch) {
      size_t len = std::min(kSsbBatch, probes.size() - i);
      for (size_t j = 0; j < len; ++j) {
        jobs[j].key = static_cast<uint32_t>(probes[i + j]);
      }
      tree.BatchLookup(std::span<KissTree::LookupJob>(jobs.data(), len));
      for (size_t j = 0; j < len; ++j) sum += jobs[j].values.front();
    }
    benchmark::DoNotOptimize(sum);
  }
  ReportPerProbe(state);
}

void SsbShapes(benchmark::internal::Benchmark* b) {
  for (size_t i = 0; i < std::size(kSsbShapes); ++i) {
    b->Arg(static_cast<int64_t>(i));
  }
  b->Unit(benchmark::kMillisecond);
}

void Sizes(benchmark::internal::Benchmark* b) {
  // Clamp: a shift outside [10, 30] would be useless or UB, and a
  // benchmark registered with zero args would read state.range(0) out of
  // bounds, so a max_shift below the 2^20 start still emits one size.
  int64_t max_shift =
      std::clamp<int64_t>(GetEnvInt64("QPPT_FIG3_MAX_SHIFT", 24), 10, 30);
  for (int64_t shift = std::min<int64_t>(20, max_shift); shift <= max_shift;
       shift += 2) {
    b->Arg(int64_t{1} << shift);
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_Lookup_PT4)->Apply(Sizes);
BENCHMARK(BM_Lookup_PT4_Batched)->Apply(Sizes);
BENCHMARK(BM_Lookup_GLIB)->Apply(Sizes);
BENCHMARK(BM_Lookup_BOOST)->Apply(Sizes);
BENCHMARK(BM_Lookup_KISS)->Apply(Sizes);
BENCHMARK(BM_Lookup_KISS_Batched)->Apply(Sizes);
BENCHMARK(BM_LookupSsb_PT4_Batched)->Apply(SsbShapes);
BENCHMARK(BM_LookupSsb_KISS_Batched)->Apply(SsbShapes);

}  // namespace
}  // namespace qppt

BENCHMARK_MAIN();
