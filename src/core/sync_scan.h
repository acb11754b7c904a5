// The synchronous index scan (§4.2, Figure 6).
//
// QPPT's join algorithm for two unbalanced prefix-tree-based indexes that
// are both keyed on the join attribute: scan the two trees in lock step and
// descend only into buckets that are *in use by both* indexes — subtrees
// present in only one tree are skipped wholesale, which is where the
// algorithm beats probe-based joins when the key overlap is small.
//
// For two KISS-Trees the lock-step scan runs over the root arrays,
// restricted to [max(left.min, right.min), min(left.max, right.max)] so
// dense keys never pay for the full 2^26-entry roots (§4.2). For two
// generalized prefix trees the scan recurses structurally; content nodes
// met above the full key depth (dynamic expansion) are matched against the
// other tree's subtree directly.
//
// The same scan drives the set operators (intersection, §4.1).

#ifndef QPPT_CORE_SYNC_SCAN_H_
#define QPPT_CORE_SYNC_SCAN_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "index/kiss_tree.h"
#include "index/prefix_tree.h"

namespace qppt {

// ---- KISS-Tree x KISS-Tree ---------------------------------------------------
//
// F: void(uint32_t key, const KissTree::ValueRef& left_values,
//         const KissTree::ValueRef& right_values)
template <typename F>
void SynchronousScan(const KissTree& left, const KissTree& right, F&& fn) {
  if (left.empty() || right.empty()) return;
  assert(left.root_size() == right.root_size() &&
         "synchronous scan requires identical root fragment widths");
  uint32_t lo = std::max(left.min_key(), right.min_key());
  uint32_t hi = std::min(left.max_key(), right.max_key());
  if (lo > hi) return;
  size_t l2 = left.level2_bits();
  size_t first_bucket = lo >> l2;
  size_t last_bucket = hi >> l2;
  for (size_t b = first_bucket; b <= last_bucket; ++b) {
    uint32_t lh = left.RootEntry(b);
    if (lh == CompactSlab::kNullHandle) continue;
    uint32_t rh = right.RootEntry(b);
    if (rh == CompactSlab::kNullHandle) continue;  // skipped descent
    // Both level-2 nodes exist: iterate the (smaller representation of
    // the) left node's used slots and probe the right node's slot.
    left.ForEachLevel2Slot(lh, [&](uint32_t slot, uint64_t left_entry) {
      uint64_t right_entry = right.Level2Entry(rh, slot);
      if (right_entry == 0) return;
      uint32_t key = static_cast<uint32_t>((b << l2) | slot);
      if (key < lo || key > hi) return;
      fn(key, left.DecodeEntry(left_entry), right.DecodeEntry(right_entry));
    });
  }
}

// ---- prefix tree x prefix tree ------------------------------------------------

namespace internal {

template <typename F>
void SyncScanRec(const PrefixTree& left, const PrefixTree& right,
                 const PrefixTree::Node* lnode,
                 const PrefixTree::Node* rnode, size_t bit_off, F&& fn);

// Handles one matched slot pair (both sides non-empty) met at depth
// `bit_off` + `width`: content/content compares keys, content/subtree
// probes the subtree, node/node recurses.
template <typename F>
void SyncScanSlotPair(const PrefixTree& left, const PrefixTree& right,
                      PrefixTree::Slot ls, PrefixTree::Slot rs,
                      size_t bit_off, size_t width, F&& fn) {
  bool lc = PrefixTree::IsContent(ls);
  bool rc = PrefixTree::IsContent(rs);
  if (lc && rc) {
    const auto* a = PrefixTree::AsContent(ls);
    const auto* b = PrefixTree::AsContent(rs);
    if (CompareKeys(a->key(), b->key(), left.key_len()) == 0) {
      fn(a->key(), left.ValuesOf(a), right.ValuesOf(b));
    }
  } else if (lc) {
    // Left content vs right subtree: the content key either exists in
    // the right subtree or the pair has no matches here.
    const auto* a = PrefixTree::AsContent(ls);
    const auto* b =
        right.FindBelow(PrefixTree::AsNode(rs), bit_off + width, a->key());
    if (b != nullptr) fn(a->key(), left.ValuesOf(a), right.ValuesOf(b));
  } else if (rc) {
    const auto* b = PrefixTree::AsContent(rs);
    const auto* a =
        left.FindBelow(PrefixTree::AsNode(ls), bit_off + width, b->key());
    if (a != nullptr) fn(b->key(), left.ValuesOf(a), right.ValuesOf(b));
  } else {
    SyncScanRec(left, right, PrefixTree::AsNode(ls), PrefixTree::AsNode(rs),
                bit_off + width, fn);
  }
}

template <typename F>
void SyncScanRec(const PrefixTree& left, const PrefixTree& right,
                 const PrefixTree::Node* lnode,
                 const PrefixTree::Node* rnode, size_t bit_off, F&& fn) {
  size_t key_bits = left.key_len() * 8;
  size_t width = std::min(left.config().kprime, key_bits - bit_off);
  size_t fanout = size_t{1} << width;
  for (size_t i = 0; i < fanout; ++i) {
    PrefixTree::Slot ls = PrefixTree::LoadSlot(&lnode->slots[i]);
    if (ls == 0) continue;
    PrefixTree::Slot rs = PrefixTree::LoadSlot(&rnode->slots[i]);
    if (rs == 0) continue;  // skipped descent: bucket unused on one side
    SyncScanSlotPair(left, right, ls, rs, bit_off, width, fn);
  }
}

}  // namespace internal

// F: void(const uint8_t* key, const ValueList* left, const ValueList* right)
// Keys are visited in ascending encoded order.
template <typename F>
void SynchronousScan(const PrefixTree& left, const PrefixTree& right,
                     F&& fn) {
  assert(left.key_len() == right.key_len() &&
         left.config().kprime == right.config().kprime &&
         "synchronous scan requires identical key layout");
  if (left.num_keys() == 0 || right.num_keys() == 0) return;
  internal::SyncScanRec(left, right, left.root(), right.root(), 0, fn);
}

}  // namespace qppt

#endif  // QPPT_CORE_SYNC_SCAN_H_
