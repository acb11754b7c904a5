#include "index/duplicate_chain.h"

#include <cstdint>

namespace qppt {

void ValueList::Append(uint64_t value, PageArena* arena) {
  // relaxed: single writer reading back its own counter.
  uint32_t count = count_.load(std::memory_order_relaxed);
  if (count == 0) {
    // Publish the inline value before the count flips to non-zero.
    first_ = value;
    // pairs-with: dup-count
    count_.store(1, std::memory_order_release);
    return;
  }
  // relaxed (both loads): single writer reading back its own installs.
  Segment* seg = head_.load(std::memory_order_relaxed);
  if (seg == nullptr ||
      seg->used.load(std::memory_order_relaxed) == seg->capacity) {
    // Allocate the next segment: double the previous size, capped at the
    // page size. Total segment bytes (header + values) is a power of two,
    // which PageArena packs without crossing page boundaries.
    size_t prev_bytes =
        seg == nullptr ? kFirstSegmentBytes / 2
                       : sizeof(Segment) + seg->capacity * sizeof(uint64_t);
    size_t bytes = prev_bytes * 2;
    if (bytes > kMaxSegmentBytes) bytes = kMaxSegmentBytes;
    if (bytes < kFirstSegmentBytes) bytes = kFirstSegmentBytes;
    Segment* fresh = static_cast<Segment*>(arena->Allocate(bytes));
    // The ring closes from the newest segment back to the oldest.
    // relaxed: the writer reading back its own link to the oldest.
    Segment* oldest =
        seg == nullptr ? fresh : seg->next.load(std::memory_order_relaxed);
    // relaxed: the ring-link and head release stores below publish it.
    fresh->next.store(oldest, std::memory_order_relaxed);
    fresh->capacity =
        static_cast<uint32_t>((bytes - sizeof(Segment)) / sizeof(uint64_t));
    // relaxed: published by the same release stores.
    fresh->used.store(0, std::memory_order_relaxed);
    // Fully initialized before readers can reach it: through the old
    // newest segment's link, then through the head.
    if (seg != nullptr) {
      // pairs-with: dup-ring
      seg->next.store(fresh, std::memory_order_release);
    }
    // pairs-with: dup-head
    head_.store(fresh, std::memory_order_release);
    seg = fresh;
  }
  // relaxed: single writer reading back its own counter.
  uint32_t used = seg->used.load(std::memory_order_relaxed);
  seg->values()[used] = value;
  // The slot is published before 'used' and before the total count, so a
  // reader never visits a half-written value.
  // pairs-with: dup-seg-used
  seg->used.store(used + 1, std::memory_order_release);
  // pairs-with: dup-count
  count_.store(count + 1, std::memory_order_release);
}

}  // namespace qppt
