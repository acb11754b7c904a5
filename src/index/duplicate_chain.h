// Duplicate handling (§2.4, Figure 4).
//
// Storing duplicates as plain linked lists causes one random memory access
// per value during scans. QPPT instead stores a key's values in memory
// *segments* that double in size from 64 B up to the 4 KiB page size; new
// segments are linked at the front. Hardware prefetchers stream within a
// page, so scanning a segment is sequential-speed; the page-size cap exists
// because prefetchers do not cross page boundaries anyway.
//
// Layout per key:  first value inline in the content entry (no allocation
// for unique keys), plus a front-linked list of segments for the rest. A
// scan visits the inline value, then the segments newest first; values
// form a multiset, and no caller depends on their order.
//
// Clustered base indexes store no duplicates at all: their tree maps each
// key to one inline value, the key's rank, which names an ordinal run of
// the key-ordered heap (core/base_index.h). Value lists hold the rids of
// secondary and live base indexes and the tuple ids of intermediate
// indexed tables.
//
// LinkedDuplicateList is the naive linked-list alternative, kept for the
// ablation benchmark (E8) that quantifies this design choice.

#ifndef QPPT_INDEX_DUPLICATE_CHAIN_H_
#define QPPT_INDEX_DUPLICATE_CHAIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/arena.h"
#include "util/prefetch.h"

namespace qppt {

// A value list with an inline first value and growing duplicate segments.
// POD-ish: lives inside prefix-tree content nodes; zero-initialized state
// means "empty".
//
// Thread model: one appender at a time; any number of concurrent readers
// (the engine's live base indexes are read lock-free under a write
// stream). Values are published before the count/used release store, so a
// reader visits only fully written values — possibly including appends
// that landed after the reader started, which MVCC visibility filtering
// makes harmless. ReplaceWith is NOT reader-safe; live index maintenance
// must append only.
class ValueList {
 public:
  static constexpr size_t kFirstSegmentBytes = 64;
  static constexpr size_t kMaxSegmentBytes = PageArena::kPageSize;  // 4 KiB

  ValueList() = default;

  uint32_t size() const { return count_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  // Appends `value`. Segments are allocated from `arena` (4 KiB-aligned,
  // never straddling pages).
  void Append(uint64_t value, PageArena* arena);

  // Replaces the whole list with a single value (upsert semantics used by
  // the Fig. 3 insert/update workload). Single-threaded use only.
  void ReplaceWith(uint64_t value) {
    first_ = value;
    head_.store(nullptr, std::memory_order_relaxed);  // relaxed: single-
    // threaded use only (see above); the count release publishes it anyway.
    // pairs-with: dup-count
    count_.store(1, std::memory_order_release);
  }

  uint64_t first() const { return first_; }

  // Visits every value. F: void(uint64_t). Order: the inline value, then
  // the segments newest first (as in the paper); duplicates are a
  // multiset. A scan racing an append may also visit appended values.
  template <typename F>
  void ForEach(F&& fn) const {
    if (count_.load(std::memory_order_acquire) == 0) return;
    fn(first_);
    for (const Segment* seg = head_.load(std::memory_order_acquire);
         seg != nullptr; seg = seg->next) {
      // Segments live on different pages; kick off the next segment's
      // header fetch while this segment streams at hardware-prefetch
      // speed (prefetching nullptr is harmless).
      PrefetchRead(seg->next);
      const uint64_t* values = seg->values();
      uint32_t used = seg->used.load(std::memory_order_acquire);
      for (uint32_t i = 0; i < used; ++i) fn(values[i]);
    }
  }

  // Copies all values into `out` (which must have room for size() values).
  // Single-threaded use only: a concurrent append could outgrow `out`.
  void CopyTo(uint64_t* out) const {
    uint64_t* p = out;
    ForEach([&p](uint64_t v) { *p++ = v; });
  }

 private:
  struct Segment {
    Segment* next = nullptr;  // the next-older segment
    uint32_t capacity = 0;  // in values
    std::atomic<uint32_t> used{0};

    uint64_t* values() {
      return reinterpret_cast<uint64_t*>(this + 1);
    }
    const uint64_t* values() const {
      return reinterpret_cast<const uint64_t*>(this + 1);
    }
  };
  static_assert(sizeof(Segment) == 16, "segment header must stay 16 bytes");

  uint64_t first_ = 0;
  std::atomic<Segment*> head_{nullptr};
  std::atomic<uint32_t> count_{0};
};

// Naive linked-list duplicate storage: one node per value, allocated from a
// general arena. One random access per value when scanning. Ablation
// baseline only.
class LinkedDuplicateList {
 public:
  LinkedDuplicateList() = default;

  uint32_t size() const { return count_; }

  void Append(uint64_t value, Arena* arena) {
    Node* n = static_cast<Node*>(arena->Allocate(sizeof(Node)));
    n->value = value;
    n->next = head_;
    head_ = n;
    ++count_;
  }

  template <typename F>
  void ForEach(F&& fn) const {
    for (const Node* n = head_; n != nullptr; n = n->next) fn(n->value);
  }

 private:
  struct Node {
    uint64_t value;
    Node* next;
  };
  Node* head_ = nullptr;
  uint32_t count_ = 0;
};

}  // namespace qppt

#endif  // QPPT_INDEX_DUPLICATE_CHAIN_H_
