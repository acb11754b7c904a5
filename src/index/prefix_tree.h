// Generalized prefix tree (§2.1; Böhm et al. [5]).
//
// An order-preserving, *unbalanced* trie over the big-endian binary
// representation of fixed-width keys. The key is split MSB-first into
// fragments of k' bits; each inner node holds 2^k' tagged child pointers.
// Dynamic expansion: a content node is installed at the shallowest level at
// which its key fragment is unique, so content nodes store the complete key
// for the final comparison (the path alone does not determine the key).
//
// Properties QPPT relies on:
//   * in-order traversal yields keys in ascending order (free sort/group),
//   * a key has a deterministic position (no rebalancing, trivial to
//     partition for parallelism),
//   * balanced read/write performance (high update rates for intermediate
//     index materialization).
//
// Payload modes:
//   * kValues     — each key maps to a multiset of 64-bit values, stored
//                   with the §2.4 duplicate segments (ValueList),
//   * kAggregate  — each key maps to a fixed-size in-place accumulator
//                   (aggregation-on-insert, §3: group-by as a side effect).
//
// The tree is single-writer (intermediate indexes are query-private, §3).
// Live base indexes additionally allow lock-free readers concurrent with
// that one writer: slots are published with release stores and read with
// acquire loads, and the tree never rebalances (§7), so a published slot
// is immutable except for the RCU-style dynamic-expansion swap, which
// builds the replacement chain detached and publishes it with one store.
//
// Chain skip. Order-preserving encodings of small domains give every key
// the same leading bits (an int64 date is 0x80000000_0001xxxx), so the
// top of the tree is a chain of single-slot inner nodes that every walk
// pays one dependent load per level for. The tree publishes an immutable
// skip descriptor {node, level, prefix}: every key in the tree starts
// with the descriptor's leading bits, and `node` is the inner node those
// bits lead to from the root — the deepest common ancestor of all keys.
// Walks (Find, Lookup, BatchLookup, and the insert walk) compare the
// probe's leading bits with the prefix (one word compare for keys of at
// most 8 bytes, else one memcmp plus a mask) and start at `node` on a
// match. The contract:
//   * Inner nodes are never replaced once published, so a descriptor
//     stays valid forever; a later one only differs in depth.
//   * A prefix mismatch walks from the root and never answers "miss"
//     directly: the writer publishes a key's slot before the descriptor
//     that covers it, so a reader may hold a descriptor older than keys
//     it can already reach.
//   * The single writer republishes (new descriptor from the node arena,
//     release store) when a key branches above the descriptor and when a
//     second key goes into a one-key tree — the only inserts that move
//     the deepest common ancestor.
//   * A partitioned parallel merge (BeginConcurrentInserts ...
//     EndConcurrentInserts) only reads the descriptor; EndConcurrentInserts
//     recomputes it once the workers have joined.
//
// Word walk. Keys of at most 8 bytes are walked as one big-endian word:
// a per-level table built at construction holds each level's fragment
// shift and mask, so a level costs a shift, a mask and the slot load.
// Longer keys read each level's fragment from the key bytes at the
// table's bit offset.

#ifndef QPPT_INDEX_PREFIX_TREE_H_
#define QPPT_INDEX_PREFIX_TREE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "dbg/tsan.h"
#include "index/duplicate_chain.h"
#include "index/key_encoder.h"
#include "util/arena.h"
#include "util/bits.h"
#include "util/prefetch.h"

namespace qppt {

class PrefixTree {
 public:
  enum class PayloadMode : uint8_t { kValues, kAggregate };

  struct Config {
    size_t key_len = 4;     // key width in bytes (1..KeyBuf::kCapacity)
    size_t kprime = 4;      // fragment width in bits (1..16)
    PayloadMode mode = PayloadMode::kValues;
    size_t agg_payload_size = 0;  // bytes, for kAggregate
  };

  // --- Internal node representation (exposed for the synchronous index
  // scan, §4.2, which co-traverses two trees structurally). -------------

  // Tagged slot: 0 = empty; low bit set = ContentNode*; else Node*.
  using Slot = uintptr_t;

  struct ContentNode {
    // Layout: [key bytes (key_len)] [padding to 8] [payload].
    const uint8_t* key() const {
      return reinterpret_cast<const uint8_t*>(this);
    }
    uint8_t* mutable_key() { return reinterpret_cast<uint8_t*>(this); }
  };

  struct Node {
    Slot slots[1];  // actually fanout() entries, arena-allocated
  };

  static bool IsContent(Slot s) { return (s & 1) != 0; }
  static ContentNode* AsContent(Slot s) {
    return reinterpret_cast<ContentNode*>(s & ~uintptr_t{1});
  }
  static Node* AsNode(Slot s) { return reinterpret_cast<Node*>(s); }

  // Slot accessors shared between the single writer and lock-free
  // readers. On x86 both compile to plain moves.
  static Slot LoadSlot(const Slot* p) {
    Slot v = __atomic_load_n(p, __ATOMIC_ACQUIRE);
    QPPT_TSAN_ACQUIRE(p);
    return v;
  }
  // pairs-with: prefix-slot (scripts/analyze/atomics_pairs.txt)
  static void StoreSlot(Slot* p, Slot v) {
    QPPT_TSAN_RELEASE(p);
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }

  // One level of the walk: its fragment's bit offset and width, and for
  // keys of at most 8 bytes the right shift that brings the fragment of
  // the left-aligned key word to the low bits.
  struct Level {
    uint16_t bit_off = 0;
    uint8_t width = 0;
    uint8_t shift = 0;
    uint32_t mask = 0;
  };

  // The chain-skip descriptor (see the file comment). Immutable once
  // published; allocated from the node arena.
  struct Skip {
    Node* node = nullptr;     // deepest common ancestor of all keys
    uint32_t level = 0;       // node's level: level(level).bit_off == bit_off
    uint32_t bit_off = 0;     // leading key bits every key shares
    uint64_t word = 0;        // key_len <= 8: the prefix, left-aligned
    uint64_t word_mask = 0;   // key_len <= 8: its leading bit_off bits
    uint8_t prefix[KeyBuf::kCapacity] = {};  // the prefix bytes
  };

  // ----------------------------------------------------------------------

  explicit PrefixTree(Config config);

  PrefixTree(const PrefixTree&) = delete;
  PrefixTree& operator=(const PrefixTree&) = delete;
  PrefixTree(PrefixTree&& other) noexcept;
  PrefixTree& operator=(PrefixTree&&) = delete;

  const Config& config() const { return config_; }
  size_t key_len() const { return config_.key_len; }
  size_t fanout() const { return fanout_; }
  size_t num_keys() const {
    // relaxed: advisory statistic; staleness only misguides planning.
    return num_keys_.load(std::memory_order_relaxed);
  }
  size_t num_inner_nodes() const {
    // relaxed: advisory statistic (see num_keys).
    return num_inner_nodes_.load(std::memory_order_relaxed);
  }
  const Node* root() const { return root_; }
  const Level& level(size_t i) const { return levels_[i]; }

  // The current chain-skip descriptor (never nullptr).
  const Skip& skip() const { return *LoadSkip(); }

  // Total bytes reserved by the tree's arenas.
  size_t MemoryUsage() const {
    return node_arena_.bytes_reserved() + dup_arena_.bytes_reserved();
  }

  // --- kValues mode -----------------------------------------------------

  // Appends `value` to the multiset at `key` (inserting the key if new).
  void Insert(const uint8_t* key, uint64_t value);

  // Insert-or-update: sets `key`'s value list to exactly {value}. This is
  // the Fig. 3(a) workload semantics.
  void Upsert(const uint8_t* key, uint64_t value);

  // Returns the value list for `key`, or nullptr if absent.
  const ValueList* Lookup(const uint8_t* key) const;

  // --- kAggregate mode ----------------------------------------------------

  // Returns the payload accumulator for `key`, creating a zero-filled one
  // if the key is new (*created reports which). The caller folds its
  // aggregate update into the returned bytes — grouping happens here, as a
  // side effect of output indexing (§3).
  std::byte* FindOrCreatePayload(const uint8_t* key, bool* created);

  // Returns the payload for `key`, or nullptr if absent.
  const std::byte* FindPayload(const uint8_t* key) const;

  // --- generic ------------------------------------------------------------

  // Returns the content node for `key`, or nullptr. Payload access via
  // PayloadOf / ValuesOf.
  const ContentNode* Find(const uint8_t* key) const;

  // Find within the subtree rooted at `node`, whose fragment starts at
  // level boundary `bit_off` (the synchronous scan's content-vs-subtree
  // probe).
  const ContentNode* FindBelow(const Node* node, size_t bit_off,
                               const uint8_t* key) const;

  // Content nodes holding the smallest / largest key (nullptr when
  // empty). The walk follows the extreme populated slot per level — the
  // tree is order-preserving, so that slot bounds every deeper subtree.
  const ContentNode* MinContent() const;
  const ContentNode* MaxContent() const;

  const ValueList* ValuesOf(const ContentNode* c) const {
    return reinterpret_cast<const ValueList*>(
        reinterpret_cast<const uint8_t*>(c) + payload_offset_);
  }
  ValueList* MutableValuesOf(ContentNode* c) {
    return reinterpret_cast<ValueList*>(reinterpret_cast<uint8_t*>(c) +
                                        payload_offset_);
  }
  const std::byte* PayloadOf(const ContentNode* c) const {
    return reinterpret_cast<const std::byte*>(c) + payload_offset_;
  }
  std::byte* MutablePayloadOf(ContentNode* c) {
    return reinterpret_cast<std::byte*>(c) + payload_offset_;
  }

  PageArena* dup_arena() { return &dup_arena_; }

  // In-order traversal. F: void(const ContentNode&). Keys are visited in
  // ascending encoded order (the tree is order-preserving).
  template <typename F>
  void ScanAll(F&& fn) const {
    if (root_ != nullptr) ScanRec(root_, 0, fn);
  }

  // In-order traversal of keys in [lo, hi] (inclusive, encoded order).
  template <typename F>
  void ScanRange(const uint8_t* lo, const uint8_t* hi, F&& fn) const {
    if (root_ == nullptr) return;
    if (CompareKeys(lo, hi, config_.key_len) > 0) return;
    ScanRangeRec(root_, 0, lo, hi, true, true, fn);
  }

  // In-order traversal restricted to root buckets [begin_slot, end_slot).
  // Unbalanced trees partition deterministically by root bucket (§7:
  // subtrees can be assigned to different threads without rebalancing
  // moving data between partitions). Thread-safe for concurrent readers.
  template <typename F>
  void ScanRootSlots(size_t begin_slot, size_t end_slot, F&& fn) const {
    size_t width = FragWidth(0);
    size_t limit = size_t{1} << width;
    if (end_slot > limit) end_slot = limit;
    for (size_t i = begin_slot; i < end_slot; ++i) {
      Slot s = LoadSlot(&root_->slots[i]);
      if (s == 0) continue;
      if (IsContent(s)) {
        fn(*AsContent(s));
      } else {
        ScanRec(AsNode(s), width, fn);
      }
    }
  }

  // --- batch processing (§2.3, Algorithm 1) -------------------------------

  struct LookupJob {
    const uint8_t* key = nullptr;       // in: key to look up
    const ContentNode* result = nullptr;  // out: content node or nullptr
  };

  // Level-synchronous batch lookup with software prefetching: jobs start
  // below the chain skip and advance one tree level per round, in waves
  // of 32; each child is prefetched one round before it is dereferenced,
  // hiding main-memory latency.
  void BatchLookup(std::span<LookupJob> jobs) const;

  // Batched insert (kValues): amortizes call overhead and prefetches the
  // target nodes before mutating them.
  struct InsertJob {
    const uint8_t* key = nullptr;
    uint64_t value = 0;
  };
  void BatchInsert(std::span<InsertJob> jobs);

  // --- partitioned parallel merge support (engine layer) -------------------
  //
  // Between BeginConcurrentInserts() and EndConcurrentInserts(),
  // InsertForMerge() may be called from multiple threads as long as each
  // caller stays within a disjoint span of *root slots* (disjoint
  // subtrees; the arenas are mutex-guarded while the window is open).
  // Tree statistics are NOT updated by InsertForMerge — callers
  // accumulate them in a MergeStats and apply the sum once via
  // AddMergedKeyStats() after the fork-join.

  struct MergeStats {
    size_t new_keys = 0;
    size_t new_inner_nodes = 0;
  };

  void BeginConcurrentInserts();
  // Closes the window and recomputes the chain-skip descriptor.
  void EndConcurrentInserts();
  // Appends like Insert() (kValues mode), counting into `stats`.
  void InsertForMerge(const uint8_t* key, uint64_t value, MergeStats* stats);
  // FindOrCreatePayload (kAggregate mode) with the statistics deferred
  // into `stats` — the aggregated partitioned merge's per-range workers
  // create groups within disjoint branching-level subtrees and apply the
  // summed stats once via AddMergedKeyStats() after the fork-join.
  std::byte* FindOrCreatePayloadForMerge(const uint8_t* key, bool* created,
                                         MergeStats* stats);
  void AddMergedKeyStats(const MergeStats& stats) {
    // relaxed (both): advisory stats; counter totals need no ordering.
    num_keys_.fetch_add(stats.new_keys, std::memory_order_relaxed);
    num_inner_nodes_.fetch_add(stats.new_inner_nodes,
                               std::memory_order_relaxed);
  }

  // Pre-builds the inner-node chain along `key`'s fragments for the
  // levels before `branch_bit_off` (a level boundary). Order-preserving
  // encodings give all keys of a merge a shared prefix; the chain covers
  // it, so concurrent InsertForMerge callers — each owning a disjoint
  // fragment range at the branching level — only ever *read* nodes above
  // the branch and only write within their own subtrees. Requires an
  // empty tree; produces exactly the structure serial inserts of keys
  // branching at `branch_bit_off` would.
  void EnsureChainForMerge(const uint8_t* key, size_t branch_bit_off);

 private:
  // A probe key as the walk reads it: keys of at most 8 bytes as one
  // left-aligned big-endian word, longer keys through their bytes.
  struct WordKey;
  struct WideKey;

  Node* NewNode(MergeStats* stats);
  ContentNode* NewContent(const uint8_t* key, MergeStats* stats);
  size_t FragWidth(size_t bit_off) const {
    size_t rest = key_bits_ - bit_off;
    return rest < config_.kprime ? rest : config_.kprime;
  }

  const Skip* LoadSkip() const {
    return skip_.load(std::memory_order_acquire);
  }
  // Recomputes the deepest common ancestor of all keys and publishes a
  // new descriptor for it if it moved. Single writer only.
  void RepublishSkip();

  // Calls f(k) with `key` in the walk's representation for this tree.
  template <typename F>
  decltype(auto) WithKey(const uint8_t* key, F&& f) const;

  // The read walk from `node` at `level` down to key's content node.
  template <typename K>
  const ContentNode* WalkFrom(const K& k, const Node* node,
                              size_t level) const;
  template <typename K>
  void BatchLookupAs(std::span<LookupJob> jobs) const;

  // Core walk shared by all insert paths: returns the content node for
  // `key`, creating (and dynamically expanding) as needed. Creations are
  // counted into `stats` (NOT the tree members) so the concurrent merge
  // path can defer the statistics update; serial callers fold `stats`
  // into the members immediately.
  ContentNode* FindOrCreateContent(const uint8_t* key, bool* created,
                                   MergeStats* stats);
  template <typename K>
  ContentNode* FindOrCreateContentAs(const K& k, const uint8_t* key,
                                     bool* created, MergeStats* stats);

  template <typename F>
  void ScanRec(const Node* node, size_t bit_off, F&& fn) const {
    size_t n = size_t{1} << FragWidth(bit_off);
    for (size_t i = 0; i < n; ++i) {
      Slot s = LoadSlot(&node->slots[i]);
      if (s == 0) continue;
      if (IsContent(s)) {
        fn(*AsContent(s));
      } else {
        ScanRec(AsNode(s), bit_off + FragWidth(bit_off), fn);
      }
    }
  }

  template <typename F>
  void ScanRangeRec(const Node* node, size_t bit_off, const uint8_t* lo,
                    const uint8_t* hi, bool on_lo, bool on_hi,
                    F&& fn) const {
    size_t width = FragWidth(bit_off);
    uint32_t lo_frag = on_lo ? ExtractFragment(lo, config_.key_len, bit_off,
                                               width)
                             : 0;
    uint32_t hi_frag = on_hi ? ExtractFragment(hi, config_.key_len, bit_off,
                                               width)
                             : static_cast<uint32_t>((1u << width) - 1);
    for (uint32_t f = lo_frag; f <= hi_frag; ++f) {
      Slot s = LoadSlot(&node->slots[f]);
      if (s == 0) continue;
      if (IsContent(s)) {
        // Content nodes can sit above the full key depth (dynamic
        // expansion), so the bounds check is on the stored full key.
        const ContentNode* c = AsContent(s);
        if (CompareKeys(c->key(), lo, config_.key_len) >= 0 &&
            CompareKeys(c->key(), hi, config_.key_len) <= 0) {
          fn(*c);
        }
      } else {
        ScanRangeRec(AsNode(s), bit_off + width, lo, hi,
                     on_lo && f == lo_frag, on_hi && f == hi_frag, fn);
      }
    }
  }

  Config config_;
  size_t key_bits_;
  size_t fanout_;
  size_t payload_offset_;  // key bytes rounded up to 8
  size_t payload_size_;    // sizeof(ValueList) or agg_payload_size
  Arena node_arena_;
  PageArena dup_arena_;
  Node* root_ = nullptr;
  Level* levels_ = nullptr;  // num_levels_ entries, from node_arena_
  size_t num_levels_ = 0;
  bool word_keys_ = false;   // key_len <= 8: the word walk
  bool merging_ = false;     // inside Begin/EndConcurrentInserts
  std::atomic<const Skip*> skip_{nullptr};
  std::atomic<size_t> num_keys_{0};
  std::atomic<size_t> num_inner_nodes_{0};
};

}  // namespace qppt

#endif  // QPPT_INDEX_PREFIX_TREE_H_
