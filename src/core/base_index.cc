#include "core/base_index.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace qppt {

namespace {

bool KissEligible(const std::vector<ValueType>& key_types) {
  return key_types.size() == 1 && key_types[0] != ValueType::kDouble;
}

// Scratch array of the clustered build, mapped straight from the OS and
// unmapped when dropped. Freed through malloc, buffers of this size
// (tens of MiB per fact-table index) stay cached in its heap and keep
// adding to the process's resident set after the build.
template <typename T>
class ScratchArray {
 public:
  explicit ScratchArray(size_t n) : size_(n) {
    if (n == 0) return;
    void* mem = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(mem);
  }
  ~ScratchArray() {
    if (data_ != nullptr) ::munmap(data_, bytes());
  }
  ScratchArray(const ScratchArray&) = delete;
  ScratchArray& operator=(const ScratchArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  void swap(ScratchArray& other) {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

 private:
  size_t bytes() const { return size_ * sizeof(T); }

  T* data_ = nullptr;
  size_t size_;
};

// Fills `order` with the input positions 0..n-1 ordered by their
// `len`-byte keys (position i's key is keys[i * len ...]), bytewise
// ascending, ties in input order. An LSD radix sort: one stable counting
// pass per key byte, least significant first, skipping every byte that
// all keys share. `next` is n entries of scratch.
void SortPositionsByKey(const ScratchArray<uint8_t>& keys, size_t len,
                        size_t n, ScratchArray<uint32_t>* order,
                        ScratchArray<uint32_t>* next) {
  std::vector<size_t> counts(len * 256, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* key = keys.data() + i * len;
    for (size_t b = 0; b < len; ++b) ++counts[b * 256 + key[b]];
  }
  for (size_t i = 0; i < n; ++i) (*order)[i] = static_cast<uint32_t>(i);
  for (size_t b = len; b-- > 0;) {
    size_t* count = counts.data() + b * 256;
    if (n == 0 || count[keys[b]] == n) continue;  // a byte all keys share
    size_t offset = 0;
    for (size_t d = 0; d < 256; ++d) {
      size_t c = count[d];
      count[d] = offset;
      offset += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t pos = (*order)[i];
      (*next)[count[keys[size_t{pos} * len + b]]++] = pos;
    }
    order->swap(*next);
  }
}

}  // namespace

Result<std::unique_ptr<BaseIndex>> BaseIndex::Build(
    const RowTable* table, std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(table, /*rids=*/nullptr,
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildFromSnapshot(
    const MvccTable* table, Timestamp read_ts,
    std::vector<std::string> key_columns,
    std::vector<std::string> included_columns, Options options) {
  std::vector<Rid> rids = table->SnapshotRids(read_ts);
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), &rids,
                                 std::move(key_columns),
                                 std::move(included_columns), options));
  return index;
}

Result<std::unique_ptr<BaseIndex>> BaseIndex::BuildLive(
    const MvccTable* table, std::vector<std::string> key_columns,
    Options options) {
  // Index every version row present, visible or not: scans filter through
  // RidVisibleAt, and rows from aborted transactions simply never become
  // visible. This keeps the build independent of in-flight transactions.
  std::vector<Rid> rids(table->num_versions());
  for (Rid r = 0; r < rids.size(); ++r) rids[r] = r;
  auto index = std::unique_ptr<BaseIndex>(new BaseIndex());
  QPPT_RETURN_NOT_OK(index->Init(&table->storage(), &rids,
                                 std::move(key_columns),
                                 /*included_columns=*/{}, options));
  index->mvcc_ = table;
  return index;
}

void BaseIndex::InsertLive(Rid rid) {
  assert(mvcc_ != nullptr && !clustered());
  InsertRow(rid, rid);
  // relaxed: advisory counter; the tree publish carries the data.
  num_rows_.fetch_add(1, std::memory_order_relaxed);
}

void BaseIndex::EncodeRowKey(Rid rid, KeyBuf* out) const {
  if (kind_ == Kind::kKiss) {
    out->clear();
    out->AppendU32(KissKeyOf(table_->GetSlot(rid, key_cols_[0])));
    return;
  }
  uint64_t slots[KeyBuf::kCapacity / 8];
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    slots[i] = table_->GetSlot(rid, key_cols_[i]);
  }
  EncodeKey(slots, out);
}

void BaseIndex::InsertRow(Rid rid, uint64_t value) {
  if (kind_ == Kind::kKiss) {
    kiss_->Insert(KissKeyOf(table_->GetSlot(rid, key_cols_[0])), value);
    return;
  }
  KeyBuf key;
  EncodeRowKey(rid, &key);
  prefix_->Insert(key.data(), value);
}

void BaseIndex::InsertEncoded(const uint8_t* key, uint64_t value) {
  if (kind_ == Kind::kKiss) {
    kiss_->Insert(DecodeU32(key), value);
  } else {
    prefix_->Insert(key, value);
  }
}

Status BaseIndex::Init(const RowTable* table, const std::vector<Rid>* rids,
                       std::vector<std::string> key_columns,
                       std::vector<std::string> included_columns,
                       Options options) {
  table_ = table;
  key_names_ = std::move(key_columns);
  included_names_ = std::move(included_columns);
  if (key_names_.empty()) {
    return Status::InvalidArgument("base index needs at least one key column");
  }
  const Schema& schema = table->schema();
  for (const auto& name : key_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    key_cols_.push_back(idx);
    key_types_.push_back(schema.column(idx).type);
  }
  for (const auto& name : included_names_) {
    QPPT_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    included_cols_.push_back(idx);
  }
  if (options.prefer_kiss && KissEligible(key_types_)) {
    kind_ = Kind::kKiss;
    KissTree::Config cfg;
    cfg.root_bits = options.kiss_root_bits;
    cfg.mode = KissTree::PayloadMode::kValues;
    kiss_ = std::make_unique<KissTree>(cfg);
  } else {
    kind_ = Kind::kPrefix;
    PrefixTree::Config cfg;
    cfg.key_len = key_cols_.size() * 8;
    cfg.kprime = options.kprime;
    cfg.mode = PrefixTree::PayloadMode::kValues;
    prefix_ = std::make_unique<PrefixTree>(cfg);
  }
  heap_width_ = clustered() ? 1 + included_cols_.size() : 0;

  const size_t n = rids != nullptr ? rids->size() : table->num_rows();
  auto rid_at = [&](size_t i) -> Rid {
    return rids != nullptr ? (*rids)[i] : static_cast<Rid>(i);
  };
  if (!clustered()) {
    // Secondary: the value is the rid, inserted in input order.
    for (size_t i = 0; i < n; ++i) InsertRow(rid_at(i), rid_at(i));
    // relaxed: bulk build completes before the index is shared.
    num_rows_.store(n, std::memory_order_relaxed);
    return Status::OK();
  }

  // Clustered: partial records go to the heap in key order (ties in
  // input order), so ordinal r is the r-th row in key order and a
  // key-ordered scan streams the heap. Read the keys once in input
  // order and radix-sort the positions; insert the keys in ascending
  // order; then scatter each partial record, read in input order, to
  // its rank. The sort buffers are freed before the heap is sized.
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "a clustered base index holds at most 2^32 - 1 rows");
  }
  ScratchArray<uint32_t> rank(n);
  {
    const size_t len = kind_ == Kind::kKiss ? 4 : key_cols_.size() * 8;
    ScratchArray<uint8_t> keys(n * len);
    KeyBuf key;
    for (size_t i = 0; i < n; ++i) {
      EncodeRowKey(rid_at(i), &key);
      std::memcpy(keys.data() + i * len, key.data(), len);
    }
    ScratchArray<uint32_t> order(n);
    SortPositionsByKey(keys, len, n, &order, &rank);
    for (uint32_t r = 0; r < n; ++r) {
      InsertEncoded(keys.data() + size_t{order[r]} * len, r);
      rank[order[r]] = r;
    }
  }
  heap_.resize(n * heap_width_);
  for (size_t i = 0; i < n; ++i) {
    const Rid rid = rid_at(i);
    uint64_t* record = heap_.data() + size_t{rank[i]} * heap_width_;
    record[0] = rid;
    for (size_t c = 0; c < included_cols_.size(); ++c) {
      record[1 + c] = table_->GetSlot(rid, included_cols_[c]);
    }
  }
  // relaxed: bulk build completes before the index is shared.
  num_rows_.store(n, std::memory_order_relaxed);
  return Status::OK();
}

size_t BaseIndex::MemoryUsage() const {
  size_t index_bytes =
      kind_ == Kind::kKiss ? kiss_->MemoryUsage() : prefix_->MemoryUsage();
  return index_bytes + heap_.capacity() * sizeof(uint64_t);
}

Result<BaseIndex::Accessor> BaseIndex::BindColumn(
    const std::string& name) const {
  Accessor acc;
  acc.owner_ = this;
  if (name == "@rid") {
    acc.from_ = Accessor::From::kRid;
    return acc;
  }
  for (size_t i = 0; i < included_names_.size(); ++i) {
    if (included_names_[i] == name) {
      acc.from_ = Accessor::From::kPayload;
      acc.pos_ = 1 + i;  // slot 0 is the rid
      return acc;
    }
  }
  QPPT_ASSIGN_OR_RETURN(size_t idx, table_->schema().ColumnIndex(name));
  acc.from_ = Accessor::From::kTable;
  acc.pos_ = idx;
  return acc;
}

void BaseIndex::EncodeKey(const uint64_t* key_slots, KeyBuf* out) const {
  out->clear();
  for (size_t i = 0; i < key_types_.size(); ++i) {
    if (key_types_[i] == ValueType::kDouble) {
      out->AppendDouble(DoubleFromSlot(key_slots[i]));
    } else {
      out->AppendI64(Int64FromSlot(key_slots[i]));
    }
  }
}

// ---- Database ---------------------------------------------------------------

Status Database::AddTable(std::unique_ptr<RowTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  auto [it, inserted] = tables_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<const RowTable*> Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  auto vit = versioned_.find(name);
  if (vit != versioned_.end()) return &vit->second->storage();
  return Status::NotFound("no table named '" + name + "'");
}

Status Database::AddVersionedTable(std::unique_ptr<MvccTable> table) {
  if (table->name().empty()) {
    return Status::InvalidArgument("table must be named");
  }
  if (tables_.count(table->name()) > 0) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  auto [it, inserted] = versioned_.emplace(table->name(), std::move(table));
  if (!inserted) {
    return Status::AlreadyExists("table '" + it->first + "' already exists");
  }
  return Status::OK();
}

Result<MvccTable*> Database::versioned_table(const std::string& name) {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Result<const MvccTable*> Database::versioned_table(
    const std::string& name) const {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

Status Database::BuildLiveIndex(const std::string& index_name,
                                const std::string& table_name,
                                std::vector<std::string> key_columns,
                                BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  QPPT_ASSIGN_OR_RETURN(const MvccTable* tbl, versioned_table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::BuildLive(tbl, std::move(key_columns), options));
  BaseIndex* raw = index.get();
  indexes_.emplace(index_name, std::move(index));
  live_by_table_[table_name].push_back(raw);
  return Status::OK();
}

const std::vector<BaseIndex*>& Database::live_indexes(
    const std::string& table_name) const {
  static const std::vector<BaseIndex*> kNone;
  auto it = live_by_table_.find(table_name);
  return it == live_by_table_.end() ? kNone : it->second;
}

Status Database::BuildIndex(const std::string& index_name,
                            const std::string& table_name,
                            std::vector<std::string> key_columns,
                            std::vector<std::string> included_columns,
                            BaseIndex::Options options) {
  if (indexes_.count(index_name) > 0) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  QPPT_ASSIGN_OR_RETURN(const RowTable* tbl, table(table_name));
  QPPT_ASSIGN_OR_RETURN(
      auto index, BaseIndex::Build(tbl, std::move(key_columns),
                                   std::move(included_columns), options));
  indexes_.emplace(index_name, std::move(index));
  return Status::OK();
}

Result<const BaseIndex*> Database::index(const std::string& name) const {
  auto it = indexes_.find(name);
  if (it == indexes_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }
  return it->second.get();
}

size_t Database::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->MemoryUsage();
  for (const auto& [name, table] : versioned_) {
    total += table->storage().MemoryUsage();
  }
  for (const auto& [name, index] : indexes_) total += index->MemoryUsage();
  return total;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : tables_) names.push_back(name);
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::versioned_table_names() const {
  std::vector<std::string> names;
  for (const auto& [name, table] : versioned_) names.push_back(name);
  return names;
}

std::vector<std::string> Database::index_names() const {
  std::vector<std::string> names;
  for (const auto& [name, index] : indexes_) names.push_back(name);
  return names;
}

}  // namespace qppt
