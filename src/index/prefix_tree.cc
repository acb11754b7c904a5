#include "index/prefix_tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace qppt {

namespace {

// `key` (key_len <= 8 bytes) as a big-endian word, left-aligned: the
// first key byte is the word's top byte, missing bytes read as zero.
inline uint64_t LoadKeyWord(const uint8_t* key, size_t key_len) {
  uint64_t w = 0;
  if (key_len == 8) {
    std::memcpy(&w, key, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  for (size_t i = 0; i < key_len; ++i) w = (w << 8) | key[i];
  return w << (64 - 8 * key_len);
}

}  // namespace

struct PrefixTree::WordKey {
  uint64_t w;

  static WordKey Of(const uint8_t* key, size_t key_len) {
    return {LoadKeyWord(key, key_len)};
  }

  uint32_t Frag(const Level& l) const {
    return static_cast<uint32_t>(w >> l.shift) & l.mask;
  }
  bool Matches(const Skip& s) const { return ((w ^ s.word) & s.word_mask) == 0; }
  // Content keys are stored zero-padded to 8 bytes, so one aligned load
  // reads the whole stored key as a word.
  bool Equals(const ContentNode* c) const {
    return LoadKeyWord(c->key(), 8) == w;
  }
};

struct PrefixTree::WideKey {
  const uint8_t* key;
  size_t len;

  static WideKey Of(const uint8_t* key, size_t key_len) {
    return {key, key_len};
  }

  uint32_t Frag(const Level& l) const {
    return ExtractFragment(key, len, l.bit_off, l.width);
  }
  bool Matches(const Skip& s) const {
    size_t bytes = s.bit_off >> 3;
    if (std::memcmp(key, s.prefix, bytes) != 0) return false;
    size_t rest = s.bit_off & 7;
    if (rest == 0) return true;
    return ((key[bytes] ^ s.prefix[bytes]) & (0xFF00u >> rest) & 0xFF) == 0;
  }
  bool Equals(const ContentNode* c) const {
    return CompareKeys(c->key(), key, len) == 0;
  }
};

template <typename F>
decltype(auto) PrefixTree::WithKey(const uint8_t* key, F&& f) const {
  if (word_keys_) return f(WordKey::Of(key, config_.key_len));
  return f(WideKey::Of(key, config_.key_len));
}

PrefixTree::PrefixTree(Config config)
    : config_(config),
      key_bits_(config.key_len * 8),
      fanout_(size_t{1} << config.kprime),
      payload_offset_((config.key_len + 7) & ~size_t{7}),
      payload_size_(config.mode == PayloadMode::kValues
                        ? sizeof(ValueList)
                        : config.agg_payload_size),
      node_arena_(/*block_size=*/256 * 1024),
      num_levels_((key_bits_ + config.kprime - 1) / config.kprime),
      word_keys_(config.key_len <= 8) {
  assert(config.key_len >= 1 && config.key_len <= KeyBuf::kCapacity);
  assert(config.kprime >= 1 && config.kprime <= 16);
  // Level table (the level-description shape of fixed-fanout radix
  // indexes): every level is kprime bits wide except a narrower last one
  // when key_bits is not a multiple of kprime.
  levels_ = static_cast<Level*>(node_arena_.AllocateZeroed(
      num_levels_ * sizeof(Level), alignof(Level)));
  for (size_t i = 0; i < num_levels_; ++i) {
    size_t bit_off = i * config.kprime;
    size_t width = FragWidth(bit_off);
    levels_[i].bit_off = static_cast<uint16_t>(bit_off);
    levels_[i].width = static_cast<uint8_t>(width);
    levels_[i].shift = static_cast<uint8_t>(word_keys_ ? 64 - bit_off - width
                                                       : 0);
    levels_[i].mask = static_cast<uint32_t>((uint64_t{1} << width) - 1);
  }
  MergeStats stats;
  root_ = NewNode(&stats);
  auto* skip = static_cast<Skip*>(
      node_arena_.AllocateZeroed(sizeof(Skip), alignof(Skip)));
  skip->node = root_;
  // relaxed: construction is single-threaded; nothing is published yet.
  skip_.store(skip, std::memory_order_relaxed);
  // relaxed: advisory stat; construction is single-threaded anyway.
  num_inner_nodes_.fetch_add(stats.new_inner_nodes,
                             std::memory_order_relaxed);
}

PrefixTree::PrefixTree(PrefixTree&& other) noexcept
    : config_(other.config_),
      key_bits_(other.key_bits_),
      fanout_(other.fanout_),
      payload_offset_(other.payload_offset_),
      payload_size_(other.payload_size_),
      node_arena_(std::move(other.node_arena_)),
      dup_arena_(std::move(other.dup_arena_)),
      root_(other.root_),
      levels_(other.levels_),
      num_levels_(other.num_levels_),
      word_keys_(other.word_keys_),
      merging_(other.merging_),
      // relaxed: move construction has exclusive access to both objects.
      skip_(other.skip_.load(std::memory_order_relaxed)),
      // relaxed: move construction has exclusive access to both objects.
      num_keys_(other.num_keys_.load(std::memory_order_relaxed)),
      num_inner_nodes_(
          other.num_inner_nodes_.load(std::memory_order_relaxed)) {
  other.root_ = nullptr;
  other.levels_ = nullptr;
  // relaxed: move construction has exclusive access to both objects.
  other.skip_.store(nullptr, std::memory_order_relaxed);
  // relaxed: move construction has exclusive access to both objects.
  other.num_keys_.store(0, std::memory_order_relaxed);
  other.num_inner_nodes_.store(0, std::memory_order_relaxed);
}

PrefixTree::Node* PrefixTree::NewNode(MergeStats* stats) {
  void* mem = node_arena_.AllocateZeroed(fanout_ * sizeof(Slot),
                                         /*align=*/alignof(Slot));
  ++stats->new_inner_nodes;
  return reinterpret_cast<Node*>(mem);
}

PrefixTree::ContentNode* PrefixTree::NewContent(const uint8_t* key,
                                                MergeStats* stats) {
  void* mem =
      node_arena_.AllocateZeroed(payload_offset_ + payload_size_, /*align=*/8);
  auto* content = reinterpret_cast<ContentNode*>(mem);
  std::memcpy(content->mutable_key(), key, config_.key_len);
  if (config_.mode == PayloadMode::kValues) {
    new (MutableValuesOf(content)) ValueList();
  }
  ++stats->new_keys;
  return content;
}

PrefixTree::ContentNode* PrefixTree::FindOrCreateContent(const uint8_t* key,
                                                         bool* created,
                                                         MergeStats* stats) {
  return WithKey(key, [&](const auto& k) {
    return FindOrCreateContentAs(k, key, created, stats);
  });
}

template <typename K>
PrefixTree::ContentNode* PrefixTree::FindOrCreateContentAs(
    const K& k, const uint8_t* key, bool* created, MergeStats* stats) {
  const Skip* skip = LoadSkip();
  const bool below_skip = k.Matches(*skip);
  // The inserts that move the deepest common ancestor: a key branching
  // above the descriptor (it cannot match the prefix) and the second key
  // of a one-key tree. A parallel merge leaves the descriptor alone.
  const bool republish = !merging_ && (!below_skip || num_keys() <= 1);
  Node* node = below_skip ? skip->node : root_;
  size_t level = below_skip ? skip->level : 0;
  for (;;) {
    // Writer-side plain read; mutations are externally serialized.
    Slot& slot = node->slots[k.Frag(levels_[level])];
    if (slot == 0) {
      ContentNode* c = NewContent(key, stats);
      StoreSlot(&slot, reinterpret_cast<uintptr_t>(c) | 1);
      *created = true;
      if (republish) RepublishSkip();
      return c;
    }
    if (IsContent(slot)) {
      ContentNode* existing = AsContent(slot);
      if (k.Equals(existing)) {
        *created = false;
        return existing;
      }
      // Dynamic expansion: push the existing content node down until its
      // fragment diverges from the new key's fragment. The chain is built
      // detached and swapped in with a single release store, so a
      // concurrent reader sees either the old content slot or the
      // complete chain — never an inner node that lost `existing`.
      const K old_key = K::Of(existing->key(), config_.key_len);
      Node* top = NewNode(stats);
      Node* inner = top;
      for (size_t l = level + 1;; ++l) {
        // Keys are distinct and fixed-width, so fragments must diverge
        // before we run out of levels.
        assert(l < num_levels_);
        uint32_t existing_frag = old_key.Frag(levels_[l]);
        uint32_t new_frag = k.Frag(levels_[l]);
        if (existing_frag != new_frag) {
          inner->slots[existing_frag] =
              reinterpret_cast<uintptr_t>(existing) | 1;
          ContentNode* c = NewContent(key, stats);
          inner->slots[new_frag] = reinterpret_cast<uintptr_t>(c) | 1;
          StoreSlot(&slot, reinterpret_cast<uintptr_t>(top));
          *created = true;
          if (republish) RepublishSkip();
          return c;
        }
        Node* next = NewNode(stats);
        inner->slots[existing_frag] = reinterpret_cast<uintptr_t>(next);
        inner = next;
      }
    }
    node = AsNode(slot);
    ++level;
  }
}

void PrefixTree::RepublishSkip() {
  // Descend the chain of single-slot inner nodes from the root.
  Node* node = root_;
  size_t level = 0;
  for (;;) {
    size_t fanout = size_t{1} << levels_[level].width;
    size_t populated = 0;
    Slot only = 0;
    for (size_t i = 0; i < fanout && populated < 2; ++i) {
      Slot s = node->slots[i];
      if (s != 0) {
        ++populated;
        only = s;
      }
    }
    if (populated != 1 || IsContent(only)) break;
    node = AsNode(only);
    ++level;
  }
  // Any key below `node` carries the shared prefix; a subtree without
  // keys (a merge chain nothing was inserted into) skips nothing.
  const Node* probe = node;
  const ContentNode* any = nullptr;
  for (size_t l = level; any == nullptr && probe != nullptr; ++l) {
    size_t fanout = size_t{1} << levels_[l].width;
    Slot s = 0;
    for (size_t i = 0; i < fanout && s == 0; ++i) s = probe->slots[i];
    if (s == 0) {
      probe = nullptr;
    } else if (IsContent(s)) {
      any = AsContent(s);
    } else {
      probe = AsNode(s);
    }
  }
  if (any == nullptr) {
    node = root_;
    level = 0;
  }
  if (node == LoadSkip()->node) return;
  auto* skip = static_cast<Skip*>(
      node_arena_.AllocateZeroed(sizeof(Skip), alignof(Skip)));
  skip->node = node;
  skip->level = static_cast<uint32_t>(level);
  skip->bit_off = levels_[level].bit_off;
  if (skip->bit_off > 0) {
    // The prefix is any key's leading bit_off bits; the match masks the
    // rest.
    std::memcpy(skip->prefix, any->key(), config_.key_len);
    if (word_keys_) {
      skip->word_mask = ~uint64_t{0} << (64 - skip->bit_off);
      skip->word = LoadKeyWord(any->key(), config_.key_len) & skip->word_mask;
    }
  }
  // pairs-with: prefix-skip (scripts/analyze/atomics_pairs.txt)
  skip_.store(skip, std::memory_order_release);
}

void PrefixTree::Insert(const uint8_t* key, uint64_t value) {
  assert(config_.mode == PayloadMode::kValues);
  bool created = false;
  MergeStats stats;
  ContentNode* c = FindOrCreateContent(key, &created, &stats);
  AddMergedKeyStats(stats);
  MutableValuesOf(c)->Append(value, &dup_arena_);
}

void PrefixTree::Upsert(const uint8_t* key, uint64_t value) {
  assert(config_.mode == PayloadMode::kValues);
  bool created = false;
  MergeStats stats;
  ContentNode* c = FindOrCreateContent(key, &created, &stats);
  AddMergedKeyStats(stats);
  MutableValuesOf(c)->ReplaceWith(value);
}

void PrefixTree::BeginConcurrentInserts() {
  node_arena_.set_concurrent(true);
  dup_arena_.set_concurrent(true);
  merging_ = true;
}

void PrefixTree::EndConcurrentInserts() {
  node_arena_.set_concurrent(false);
  dup_arena_.set_concurrent(false);
  merging_ = false;
  RepublishSkip();
}

void PrefixTree::InsertForMerge(const uint8_t* key, uint64_t value,
                                MergeStats* stats) {
  assert(config_.mode == PayloadMode::kValues);
  bool created = false;
  ContentNode* c = FindOrCreateContent(key, &created, stats);
  MutableValuesOf(c)->Append(value, &dup_arena_);
}

std::byte* PrefixTree::FindOrCreatePayload(const uint8_t* key,
                                           bool* created) {
  MergeStats stats;
  std::byte* payload = FindOrCreatePayloadForMerge(key, created, &stats);
  AddMergedKeyStats(stats);
  return payload;
}

std::byte* PrefixTree::FindOrCreatePayloadForMerge(const uint8_t* key,
                                                   bool* created,
                                                   MergeStats* stats) {
  assert(config_.mode == PayloadMode::kAggregate);
  ContentNode* c = FindOrCreateContent(key, created, stats);
  return MutablePayloadOf(c);
}

const PrefixTree::ContentNode* PrefixTree::MinContent() const {
  if (num_keys() == 0) return nullptr;
  const Node* node = root_;
  size_t bit_off = 0;
  for (;;) {
    size_t width = FragWidth(bit_off);
    size_t fanout = size_t{1} << width;
    size_t i = 0;
    Slot s = 0;
    while (i < fanout && (s = LoadSlot(&node->slots[i])) == 0) ++i;
    assert(i < fanout && "non-empty tree must have a populated slot");
    if (IsContent(s)) return AsContent(s);
    node = AsNode(s);
    bit_off += width;
  }
}

const PrefixTree::ContentNode* PrefixTree::MaxContent() const {
  if (num_keys() == 0) return nullptr;
  const Node* node = root_;
  size_t bit_off = 0;
  for (;;) {
    size_t width = FragWidth(bit_off);
    size_t i = size_t{1} << width;
    Slot s = 0;
    while (i > 0 && (s = LoadSlot(&node->slots[i - 1])) == 0) --i;
    assert(i > 0 && "non-empty tree must have a populated slot");
    if (IsContent(s)) return AsContent(s);
    node = AsNode(s);
    bit_off += width;
  }
}

void PrefixTree::EnsureChainForMerge(const uint8_t* key,
                                     size_t branch_bit_off) {
  assert(num_keys() == 0 && "chain pre-build requires an empty tree");
  MergeStats stats;
  WithKey(key, [&](const auto& k) {
    Node* node = root_;
    for (size_t level = 0; levels_[level].bit_off < branch_bit_off;
         ++level) {
      Slot& slot = node->slots[k.Frag(levels_[level])];
      if (slot == 0) {
        Node* inner = NewNode(&stats);
        StoreSlot(&slot, reinterpret_cast<uintptr_t>(inner));
      }
      assert(!IsContent(slot));
      node = AsNode(slot);
    }
  });
  AddMergedKeyStats(stats);
}

template <typename K>
const PrefixTree::ContentNode* PrefixTree::WalkFrom(const K& k,
                                                    const Node* node,
                                                    size_t level) const {
  for (;;) {
    Slot slot = LoadSlot(&node->slots[k.Frag(levels_[level])]);
    if (slot == 0) return nullptr;
    if (IsContent(slot)) {
      const ContentNode* c = AsContent(slot);
      return k.Equals(c) ? c : nullptr;
    }
    node = AsNode(slot);
    ++level;
  }
}

const PrefixTree::ContentNode* PrefixTree::Find(const uint8_t* key) const {
  return WithKey(key, [&](const auto& k) {
    // A prefix mismatch walks from the root: the writer may have just
    // published a key that branches above the descriptor we hold.
    const Skip* skip = LoadSkip();
    return k.Matches(*skip) ? WalkFrom(k, skip->node, skip->level)
                            : WalkFrom(k, root_, 0);
  });
}

const PrefixTree::ContentNode* PrefixTree::FindBelow(
    const Node* node, size_t bit_off, const uint8_t* key) const {
  return WithKey(key, [&](const auto& k) {
    return WalkFrom(k, node, bit_off / config_.kprime);
  });
}

const ValueList* PrefixTree::Lookup(const uint8_t* key) const {
  const ContentNode* c = Find(key);
  return c == nullptr ? nullptr : ValuesOf(c);
}

const std::byte* PrefixTree::FindPayload(const uint8_t* key) const {
  const ContentNode* c = Find(key);
  return c == nullptr ? nullptr : PayloadOf(c);
}

void PrefixTree::BatchLookup(std::span<LookupJob> jobs) const {
  if (word_keys_) {
    BatchLookupAs<WordKey>(jobs);
  } else {
    BatchLookupAs<WideKey>(jobs);
  }
}

template <typename K>
void PrefixTree::BatchLookupAs(std::span<LookupJob> jobs) const {
  // Algorithm 1 from the paper: process the batch level by level. Each
  // round loads every unfinished job's slot, computes its child slot and
  // issues a prefetch for it, so that by the time the next round
  // dereferences the child the cache line is (ideally) already in L1.
  // Jobs run in waves of kWave whose walk state (key, slot, level) stays
  // on the stack, and a round visits only the jobs that still walk.
  constexpr size_t kWave = 32;
  const Skip* skip = LoadSkip();
  const size_t key_len = config_.key_len;
  for (size_t base = 0; base < jobs.size(); base += kWave) {
    const size_t n = std::min(kWave, jobs.size() - base);
    const Slot* slot[kWave] = {};
    K key[kWave] = {};
    uint32_t level[kWave] = {};
    uint8_t active[kWave] = {};
    for (size_t i = 0; i < n; ++i) {
      LookupJob& job = jobs[base + i];
      key[i] = K::Of(job.key, key_len);
      const bool below_skip = key[i].Matches(*skip);
      const Node* node = below_skip ? skip->node : root_;
      level[i] = below_skip ? skip->level : 0;
      slot[i] = &node->slots[key[i].Frag(levels_[level[i]])];
      job.result = nullptr;
      PrefetchRead(slot[i]);
      active[i] = static_cast<uint8_t>(i);
    }
    size_t live = n;
    while (live > 0) {
      size_t keep = 0;
      for (size_t a = 0; a < live; ++a) {
        const size_t i = active[a];
        Slot s = LoadSlot(slot[i]);
        if (s == 0) continue;
        if (IsContent(s)) {
          const ContentNode* c = AsContent(s);
          if (key[i].Equals(c)) jobs[base + i].result = c;
          continue;
        }
        slot[i] = &AsNode(s)->slots[key[i].Frag(levels_[++level[i]])];
        // Prefetch the slot this job will inspect next round.
        PrefetchRead(slot[i]);
        active[keep++] = static_cast<uint8_t>(i);
      }
      live = keep;
    }
  }
}

void PrefixTree::BatchInsert(std::span<InsertJob> jobs) {
  // Inserts mutate the tree shape, so jobs are applied sequentially; the
  // batching win is the prefetch of each job's first slot below the chain
  // skip ahead of time plus the amortized call overhead (§2.3).
  const Skip* skip = LoadSkip();
  for (const auto& job : jobs) {
    WithKey(job.key, [&](const auto& k) {
      if (k.Matches(*skip)) {
        PrefetchRead(&skip->node->slots[k.Frag(levels_[skip->level])]);
      }
    });
  }
  for (const auto& job : jobs) {
    Insert(job.key, job.value);
  }
}

}  // namespace qppt
