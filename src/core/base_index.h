// Base indexes over row tables (§3).
//
// Leaf operators access base data through prefix-tree-based *base indexes*
// that either already exist or are created once and stay in the data pool.
// Two payload flavors (§3):
//   - secondary index:           payload = record identifier (rid) only;
//     attribute access costs a random read into the row table.
//   - partially clustered index: payload = rid plus a partial record of
//     "included" columns, stored packed next to the index. Operators read
//     join/selection/grouping attributes without touching the base table —
//     the paper's main lever for sequential-speed selections.
//
// Run layout of a clustered index. The build lays the partial records out
// in the tree's key order (ties in input order) in one heap, so the rows
// of one key are a consecutive run of heap *ordinals*. The tree stores no
// value lists for them: each key maps to its rank r in key order (one
// inline value, no duplicate segments), and run_begin_ (num_keys + 1
// ordinals) gives rank r the heap slice [run_begin_[r], run_begin_[r+1]).
// A point, range or IN predicate therefore resolves to a few ordinal runs
// (ForEachMatchEntry & co. plus RunOf), which the scan operators split into
// fixed-size slices and filter a column at a time. The value-level scans
// (ForEachMatch, ForEachInRange, ForEachValue) expand the runs and yield
// ascending ordinals, so a key-ordered scan streams the heap.
//
// Secondary and live indexes keep one tree value per row (the rid, in a
// ValueList for duplicate keys) and the per-value path.
//
// Base indexes respect transactional isolation: BuildFromSnapshot indexes
// the rows visible to an MVCC snapshot.

#ifndef QPPT_CORE_BASE_INDEX_H_
#define QPPT_CORE_BASE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/key_encoder.h"
#include "index/kiss_tree.h"
#include "index/prefix_tree.h"
#include "storage/mvcc.h"
#include "storage/row_table.h"
#include "util/status.h"

namespace qppt {

class BaseIndex {
 public:
  enum class Kind : uint8_t { kKiss, kPrefix };

  struct Options {
    size_t kprime = 4;
    bool prefer_kiss = true;
    size_t kiss_root_bits = 26;
  };

  // Builds an index over all rows of `table`, keyed on `key_columns`.
  // Non-empty `included_columns` makes it partially clustered.
  static Result<std::unique_ptr<BaseIndex>> Build(
      const RowTable* table, std::vector<std::string> key_columns,
      std::vector<std::string> included_columns, Options options);
  static Result<std::unique_ptr<BaseIndex>> Build(
      const RowTable* table, std::vector<std::string> key_columns,
      std::vector<std::string> included_columns = {}) {
    return Build(table, std::move(key_columns), std::move(included_columns),
                 Options{});
  }

  // Builds over the rows visible at an MVCC snapshot.
  static Result<std::unique_ptr<BaseIndex>> BuildFromSnapshot(
      const MvccTable* table, Timestamp read_ts,
      std::vector<std::string> key_columns,
      std::vector<std::string> included_columns, Options options);
  static Result<std::unique_ptr<BaseIndex>> BuildFromSnapshot(
      const MvccTable* table, Timestamp read_ts,
      std::vector<std::string> key_columns,
      std::vector<std::string> included_columns = {}) {
    return BuildFromSnapshot(table, read_ts, std::move(key_columns),
                             std::move(included_columns), Options{});
  }

  // Builds a *live* index over an MVCC table: every version row currently
  // in the table is indexed (including superseded and not-yet-committed
  // ones — visibility is enforced per scan via MvccTable::RidVisibleAt),
  // and InsertLive feeds version rows created by later transactions into
  // the trees while snapshot readers scan concurrently. Live indexes are
  // secondary-only: the partially clustered payload heap reallocates on
  // growth, which would race readers, so included columns are rejected.
  static Result<std::unique_ptr<BaseIndex>> BuildLive(
      const MvccTable* table, std::vector<std::string> key_columns,
      Options options);
  static Result<std::unique_ptr<BaseIndex>> BuildLive(
      const MvccTable* table, std::vector<std::string> key_columns) {
    return BuildLive(table, std::move(key_columns), Options{});
  }

  // Appends one version row to a live index. Writer-side: the caller
  // serializes all InsertLive calls (Database::write_mutex); concurrent
  // snapshot readers are safe because the trees publish new keys and
  // values with release stores (§7: no rebalancing, so a published node
  // is never restructured under a reader).
  void InsertLive(Rid rid);

  // Non-null iff built with BuildLive.
  const MvccTable* mvcc() const { return mvcc_; }

  Kind kind() const { return kind_; }
  bool clustered() const { return !included_cols_.empty(); }
  const RowTable& table() const { return *table_; }
  const KissTree* kiss() const { return kiss_.get(); }
  const PrefixTree* prefix() const { return prefix_.get(); }
  size_t num_rows() const {
    // relaxed: advisory row count for planning; no data read through it.
    return num_rows_.load(std::memory_order_relaxed);
  }
  size_t num_keys() const {
    return kind_ == Kind::kKiss ? kiss_->num_keys() : prefix_->num_keys();
  }
  size_t MemoryUsage() const;
  const std::vector<std::string>& key_column_names() const {
    return key_names_;
  }

  // --- attribute access ------------------------------------------------------
  //
  // Index *values* are opaque 64-bit handles: the rid for secondary
  // indexes, a partial-record ordinal (the row's rank in key order) for
  // clustered ones. An Accessor resolves one column against a value;
  // binding happens once per query.

  class Accessor {
   public:
    Accessor() = default;

    uint64_t Get(uint64_t value) const {
      switch (from_) {
        case From::kRid:
          return owner_->RidOf(value);
        case From::kPayload:
          return owner_->heap_[value * owner_->heap_width_ + pos_];
        case From::kTable:
          return owner_->table_->GetSlot(owner_->RidOf(value), pos_);
      }
      return 0;
    }

    // True if reading this column touches the base table (a random access
    // the partially clustered layout is designed to avoid).
    bool touches_table() const { return from_ == From::kTable; }

    // The heap column this accessor reads on a clustered index, as a
    // strided array: ordinal o's slot is heap_column()[o * heap_stride()].
    // nullptr when the column is not in the heap.
    const uint64_t* heap_column() const {
      if (!owner_->clustered() || from_ == From::kTable) return nullptr;
      return owner_->heap_.data() + (from_ == From::kPayload ? pos_ : 0);
    }
    size_t heap_stride() const { return owner_->heap_width_; }

   private:
    friend class BaseIndex;
    enum class From : uint8_t { kRid, kPayload, kTable };
    const BaseIndex* owner_ = nullptr;
    From from_ = From::kRid;
    size_t pos_ = 0;
  };

  // Binds column `name`; resolution order: included payload, then base
  // table. The pseudo-column "@rid" yields the record identifier.
  Result<Accessor> BindColumn(const std::string& name) const;

  // --- key handling ------------------------------------------------------------

  void EncodeKey(const uint64_t* key_slots, KeyBuf* out) const;
  static uint32_t KissKeyOf(uint64_t slot) {
    return static_cast<uint32_t>(Int64FromSlot(slot));
  }

  // --- ordinal runs -----------------------------------------------------------
  //
  // A tree entry (KissTree::ValueRef, which also wraps a prefix-tree
  // ValueList) holds the values stored under one key: the key's rank for
  // a clustered index, the rids otherwise.

  // The heap ordinals [begin, end) of one clustered key.
  struct Run {
    uint64_t begin = 0;
    uint64_t end = 0;
    uint64_t size() const { return end - begin; }
  };

  // The run of the clustered key whose tree entry is `entry`.
  Run RunOf(const KissTree::ValueRef& entry) const {
    const uint64_t rank = entry.front();
    return {run_begin_[rank], run_begin_[rank + 1]};
  }

  // Calls fn(value) for every index value behind `entry`: the key's run
  // of ordinals, ascending, for a clustered index; the stored values for
  // the others.
  template <typename F>
  void ForEachIn(const KissTree::ValueRef& entry, F&& fn) const {
    if (!clustered()) {
      entry.ForEach(fn);
      return;
    }
    const Run run = RunOf(entry);
    for (uint64_t o = run.begin; o < run.end; ++o) fn(o);
  }

  // Number of index values behind `entry`, and the first of them.
  uint64_t CountIn(const KissTree::ValueRef& entry) const {
    return clustered() ? RunOf(entry).size() : entry.size();
  }
  uint64_t FirstIn(const KissTree::ValueRef& entry) const {
    return clustered() ? RunOf(entry).begin : entry.front();
  }

  // --- key lookups ----------------------------------------------------------------
  //
  // G: void(const KissTree::ValueRef& entry), once per matching key in
  // ascending key order. Single-key-column paths; operators needing
  // composite keys use the composite scans or the trees directly.

  template <typename G>
  void ForEachMatchEntry(uint64_t key_slot, G&& g) const {
    if (kind_ == Kind::kKiss) {
      KissTree::ValueRef vals;
      if (kiss_->Lookup(KissKeyOf(key_slot), &vals)) g(vals);
    } else {
      KeyBuf key;
      EncodeKey(&key_slot, &key);
      const ValueList* vals = prefix_->Lookup(key.data());
      if (vals != nullptr) g(KissTree::ValueRef(vals));
    }
  }

  template <typename G>
  void ForEachEntryInRange(uint64_t lo_slot, uint64_t hi_slot, G&& g) const {
    if (kind_ == Kind::kKiss) {
      kiss_->ScanRange(KissKeyOf(lo_slot), KissKeyOf(hi_slot),
                       [&](uint32_t, const KissTree::ValueRef& vals) {
                         g(vals);
                       });
    } else {
      KeyBuf lo, hi;
      EncodeKey(&lo_slot, &lo);
      EncodeKey(&hi_slot, &hi);
      prefix_->ScanRange(lo.data(), hi.data(),
                         [&](const PrefixTree::ContentNode& c) {
                           g(KissTree::ValueRef(prefix_->ValuesOf(&c)));
                         });
    }
  }

  template <typename G>
  void ForEachEntry(G&& g) const {
    if (kind_ == Kind::kKiss) {
      kiss_->ScanAll(
          [&](uint32_t, const KissTree::ValueRef& vals) { g(vals); });
    } else {
      prefix_->ScanAll([&](const PrefixTree::ContentNode& c) {
        g(KissTree::ValueRef(prefix_->ValuesOf(&c)));
      });
    }
  }

  // --- value scans ------------------------------------------------------------------
  //
  // F: void(uint64_t value), in ascending key order; a clustered index
  // yields each key's ordinals ascending.

  template <typename F>
  void ForEachMatch(uint64_t key_slot, F&& fn) const {
    ForEachMatchEntry(key_slot,
                      [&](const KissTree::ValueRef& e) { ForEachIn(e, fn); });
  }

  template <typename F>
  void ForEachInRange(uint64_t lo_slot, uint64_t hi_slot, F&& fn) const {
    ForEachEntryInRange(lo_slot, hi_slot, [&](const KissTree::ValueRef& e) {
      ForEachIn(e, fn);
    });
  }

  template <typename F>
  void ForEachValue(F&& fn) const {
    ForEachEntry([&](const KissTree::ValueRef& e) { ForEachIn(e, fn); });
  }

  // Exact match on ALL key components of a multidimensional index
  // (§4.1: conjunctive predicates prefer a multidimensional index as
  // input). `key_slots` holds one slot per key column.
  template <typename F>
  void ForEachMatchComposite(const uint64_t* key_slots, F&& fn) const {
    if (kind_ == Kind::kKiss) {
      ForEachMatch(key_slots[0], fn);
      return;
    }
    KeyBuf key;
    EncodeKey(key_slots, &key);
    const ValueList* vals = prefix_->Lookup(key.data());
    if (vals != nullptr) ForEachIn(KissTree::ValueRef(vals), fn);
  }

  // Range scan on the composite encoding: all keys in
  // [lo_slots, hi_slots] (component-wise lexicographic order). With the
  // trailing components spanning their full domain this is a prefix scan.
  template <typename F>
  void ForEachInCompositeRange(const uint64_t* lo_slots,
                               const uint64_t* hi_slots, F&& fn) const {
    if (kind_ == Kind::kKiss) {
      ForEachInRange(lo_slots[0], hi_slots[0], fn);
      return;
    }
    KeyBuf lo, hi;
    EncodeKey(lo_slots, &lo);
    EncodeKey(hi_slots, &hi);
    prefix_->ScanRange(lo.data(), hi.data(),
                       [&](const PrefixTree::ContentNode& c) {
                         ForEachIn(KissTree::ValueRef(prefix_->ValuesOf(&c)), fn);
                       });
  }

  size_t num_key_columns() const { return key_cols_.size(); }

  // Maps an index value back to its record identifier. For secondary
  // (and all live) indexes the value *is* the rid.
  Rid RidOf(uint64_t value) const {
    return clustered() ? heap_[value * heap_width_] : value;
  }

 private:
  BaseIndex() = default;

  Status Init(const RowTable* table, const std::vector<Rid>* rids,
              std::vector<std::string> key_columns,
              std::vector<std::string> included_columns, Options options);

  // The tree key of row `rid`: the 4-byte big-endian KissKeyOf for a KISS
  // tree, the EncodeKey bytes for a prefix tree. Bytewise order is the
  // tree's scan order.
  void EncodeRowKey(Rid rid, KeyBuf* out) const;
  void InsertEncoded(const uint8_t* key, uint64_t value);
  // Inserts `value` under row `rid`'s key (a KISS key goes in directly).
  void InsertRow(Rid rid, uint64_t value);

  Kind kind_ = Kind::kPrefix;
  const RowTable* table_ = nullptr;
  std::vector<std::string> key_names_;
  std::vector<size_t> key_cols_;
  std::vector<ValueType> key_types_;
  std::vector<std::string> included_names_;
  std::vector<size_t> included_cols_;
  std::unique_ptr<KissTree> kiss_;
  std::unique_ptr<PrefixTree> prefix_;
  // Partial records in key order: heap_width_ slots per entry =
  // [rid, included...]; entry r belongs to ordinal r.
  std::vector<uint64_t> heap_;
  size_t heap_width_ = 0;
  // Clustered only: key rank r owns ordinals [run_begin_[r],
  // run_begin_[r + 1]); num_keys + 1 entries, the last one num_rows.
  std::vector<uint64_t> run_begin_;
  // Relaxed atomic: live indexes grow under the database write lock
  // while planners read the count for costing; an approximate value is
  // fine there, and scans never consult it.
  std::atomic<size_t> num_rows_{0};
  // Set for live indexes; scans filter values through RidVisibleAt.
  const MvccTable* mvcc_ = nullptr;
};

// A named collection of tables and base indexes — the "data pool" the QPPT
// execution plans of Fig. 5 start from. Versioned (MVCC) tables register
// alongside plain row tables; their live indexes feed committed writes to
// in-flight queries through the engine write path.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status AddTable(std::unique_ptr<RowTable> table);
  Result<const RowTable*> table(const std::string& name) const;

  // Registers a versioned table. Its row storage also resolves through
  // table(name), so read-only plan construction works unchanged.
  Status AddVersionedTable(std::unique_ptr<MvccTable> table);
  Result<MvccTable*> versioned_table(const std::string& name);
  Result<const MvccTable*> versioned_table(const std::string& name) const;

  // Builds and registers an index named `index_name` over `table_name`.
  Status BuildIndex(const std::string& index_name,
                    const std::string& table_name,
                    std::vector<std::string> key_columns,
                    std::vector<std::string> included_columns = {},
                    BaseIndex::Options options = BaseIndex::Options{});

  // Builds and registers a *live* secondary index over a versioned
  // table; committed writes reach it via WriteSession. It resolves
  // through index(name) like any other base index.
  Status BuildLiveIndex(const std::string& index_name,
                        const std::string& table_name,
                        std::vector<std::string> key_columns,
                        BaseIndex::Options options = BaseIndex::Options{});

  Result<const BaseIndex*> index(const std::string& name) const;

  // Live indexes registered over `table_name` (empty vector if none).
  const std::vector<BaseIndex*>& live_indexes(
      const std::string& table_name) const;

  // Commit timestamps for all versioned tables come from this manager.
  TransactionManager& txn_manager() { return tm_; }
  const TransactionManager& txn_manager() const { return tm_; }

  // Coarse writer lock: every write transaction applies + commits under
  // this mutex (§7: no rebalancing means lock-free snapshot readers need
  // no finer-grained writer coordination).
  std::mutex& write_mutex() const { return write_mu_; }

  size_t MemoryUsage() const;
  std::vector<std::string> table_names() const;
  std::vector<std::string> versioned_table_names() const;
  std::vector<std::string> index_names() const;

 private:
  std::map<std::string, std::unique_ptr<RowTable>> tables_;
  std::map<std::string, std::unique_ptr<MvccTable>> versioned_;
  std::map<std::string, std::unique_ptr<BaseIndex>> indexes_;
  std::map<std::string, std::vector<BaseIndex*>> live_by_table_;
  TransactionManager tm_;
  mutable std::mutex write_mu_;
};

}  // namespace qppt

#endif  // QPPT_CORE_BASE_INDEX_H_
