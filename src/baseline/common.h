// Shared pieces of the baseline engines: the lowering of a planner
// QuerySpec into the resolved star form both engines read, dimension
// hash-table builds, group-key packing, and result assembly. Both
// baselines build per-dimension hash tables (key -> carried attributes) —
// the classic hash-join build side that the paper contrasts with QPPT's
// index-based probes.

#ifndef QPPT_BASELINE_COMMON_H_
#define QPPT_BASELINE_COMMON_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "core/agg.h"
#include "core/operators/common.h"
#include "core/query/query_spec.h"
#include "index/open_hash_table.h"
#include "ssb/dbgen.h"
#include "storage/column_table.h"
#include "util/status.h"

namespace qppt::baseline {

// Fixed widths of the engines' per-row scratch arrays; LowerStarQuery
// rejects wider queries.
inline constexpr size_t kMaxDims = 4;
inline constexpr size_t kMaxGroupKeys = 4;
// Group-key codes pack 16 bits each (PackGroupKey); BuildDimHashes rejects
// a carried value outside [0, kGroupCodeLimit).
inline constexpr int64_t kGroupCodeLimit = int64_t{1} << 16;

// One conjunct over one column: a spec's index key predicate (on the
// column the index is named after) or one of its residuals.
struct ColumnFilter {
  std::string column;
  std::variant<KeyPredicate, Residual> pred;
};

// One dimension join: fact.fact_column = table.key_column, with the
// dimension's filters and the group-key columns it supplies.
struct DimJoin {
  std::string table;
  std::string key_column;
  std::string fact_column;
  std::vector<ColumnFilter> filters;
  std::vector<std::string> carry;
};

// Position of one group key: (dimension, position in its carry).
struct GroupRef {
  size_t dim = 0;
  size_t pos = 0;
};

// A star query with every name resolved to a row table, in the form both
// baseline engines interpret.
struct StarQuery {
  std::string fact_table;
  std::vector<ColumnFilter> fact_filters;  // spec order: key, residuals
  std::vector<DimJoin> dims;               // declaration order
  std::vector<GroupRef> group_refs;        // group_by order
  ScalarExpr agg_source;                   // SUM over fact columns
  Schema result_schema;                    // group columns, then the sum
  // The ORDER BY when ascending group-key order does not already give it
  // (query::OrderByIsFree); empty otherwise.
  std::vector<ResultOrderKey> post_sort;
};

// Lowers a star-shaped `spec` against `db`'s table schemas only, so it
// also works on a database without base indexes: an index name stands for
// the column of the same name, and a column for the one table whose
// schema has it. Fails with InvalidArgument on what the baselines cannot
// run: HAVING, anything but a single SUM, more than kMaxDims dimensions
// or kMaxGroupKeys group keys, a group key no dimension carries, and an
// unknown, ambiguous, or misplaced column.
Result<StarQuery> LowerStarQuery(const Database& db,
                                 const query::QuerySpec& spec);

// Row ids of `table` passing every filter, column at a time: the first
// filter scans its full column, later ones gather through the shrinking
// selection vector.
Result<std::vector<uint32_t>> SelectRows(
    const ColumnTable& table, const std::vector<ColumnFilter>& filters);

// Build side of one dimension join: an open-addressing hash table from the
// dimension key to an index into the flattened carried-attribute rows.
struct DimHash {
  OpenHashTable table;
  std::vector<int64_t> payload_flat;  // carry_width values per entry
  size_t carry_width = 0;

  // Probe: returns payload index, or -1 on miss.
  int64_t Probe(int64_t key) const {
    auto v = table.Find(static_cast<uint64_t>(key));
    return v.has_value() ? static_cast<int64_t>(*v) : -1;
  }
  const int64_t* Payload(int64_t idx) const {
    return payload_flat.data() + static_cast<size_t>(idx) * carry_width;
  }
};

// Builds the hash table of each of q.dims over its columnar copy in
// `data` (SelectRows, then a gather of the key and carried columns).
// Fails if a carried value is not a valid group code.
Result<std::vector<DimHash>> BuildDimHashes(ssb::SsbData& data,
                                            const StarQuery& q);

// Packs up to kMaxGroupKeys group-key codes (each < kGroupCodeLimit, as
// BuildDimHashes checks) into one uint64 whose numeric order equals the
// lexicographic order of the components.
inline uint64_t PackGroupKey(const int64_t* codes, size_t n) {
  uint64_t packed = 0;
  for (size_t i = 0; i < n; ++i) {
    assert(codes[i] >= 0 && codes[i] < kGroupCodeLimit);
    packed = (packed << 16) | static_cast<uint64_t>(codes[i]);
  }
  return packed;
}

// Decodes the aggregated `groups` (packed group key -> sum) into result
// rows in ascending key order, then applies the query's post-sort.
Result<QueryResult> AssembleResult(const StarQuery& q,
                                   const std::map<uint64_t, int64_t>& groups);

}  // namespace qppt::baseline

#endif  // QPPT_BASELINE_COMMON_H_
