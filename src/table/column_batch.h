#ifndef GUARDRAIL_TABLE_COLUMN_BATCH_H_
#define GUARDRAIL_TABLE_COLUMN_BATCH_H_

#include <cstdint>
#include <vector>

#include "table/table.h"
#include "table/value.h"

namespace guardrail {

/// Word-granular row bitmask helpers shared by the batch evaluator: masks
/// are plain std::vector<uint64_t> with bit i = row i, LSB-first within a
/// word, so consumers can AND/OR whole words on the hot path.
namespace rowmask {

inline size_t Words(int64_t rows) {
  return static_cast<size_t>((rows + 63) / 64);
}

inline void Set(std::vector<uint64_t>* mask, int64_t row) {
  (*mask)[static_cast<size_t>(row >> 6)] |= uint64_t{1} << (row & 63);
}

inline bool Test(const std::vector<uint64_t>& mask, int64_t row) {
  size_t word = static_cast<size_t>(row >> 6);
  if (word >= mask.size()) return false;
  return (mask[word] >> (row & 63)) & 1;
}

int64_t Count(const std::vector<uint64_t>& mask);

/// Index of the first set bit at or after `from`, or -1 when none before
/// `rows`.
int64_t NextSet(const std::vector<uint64_t>& mask, int64_t from, int64_t rows);

/// Calls fn(bit) for every set bit of one mask word, lowest first.
template <typename Fn>
inline void ForEachBit(uint64_t word, const Fn& fn) {
  for (; word != 0; word &= word - 1) fn(__builtin_ctzll(word));
}

}  // namespace rowmask

/// A columnar view (or transposed copy) of a block of rows, the unit the
/// compiled guard engine (core/batch_eval.h) evaluates. Three sources:
///
///  - FromTable: zero-copy pointers into a Table's dictionary-coded column
///    vectors — the offline Guard and the SQL executor batch scanned chunks
///    this way without materializing a single Row.
///  - FromColumns: zero-copy pointers into caller-owned code columns — the
///    serve engine evaluates a request's decoded columns (serve/decode.h)
///    in place this way.
///  - FromRows: a transpose of already-materialized rows, gathering only
///    the attributes the compiled program references. Rows narrower than
///    `width` are recorded in narrow() — the compiled path must hand those
///    to the scalar interpreter fallback — and their missing cells read as
///    kNullValue so vectorized passes never touch out-of-bounds memory.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// Zero-copy view of table rows [begin, begin + count).
  static ColumnBatch FromTable(const Table& table, RowIndex begin,
                               int64_t count);

  /// Zero-copy view of `count` rows: columns[a] points at attribute a's
  /// code for the first row, or is nullptr when the caller does not carry
  /// attribute a. Width is columns.size(); no row is narrow.
  static ColumnBatch FromColumns(std::vector<const ValueId*> columns,
                                 int64_t count);

  /// Transposes rows [begin, begin + count) of `rows` into owned columns,
  /// materializing only `attrs` (each < width). A row with fewer than
  /// `width` cells is flagged narrow.
  static ColumnBatch FromRows(const std::vector<Row>& rows, size_t begin,
                              size_t count, int32_t width,
                              const std::vector<AttrIndex>& attrs);

  int64_t num_rows() const { return num_rows_; }

  /// Attribute indexes [0, width) are addressable; column() may still be
  /// nullptr for attributes the batch did not materialize.
  int32_t width() const { return width_; }

  /// Pointer to `num_rows()` contiguous codes for attribute `attr`, or
  /// nullptr when the batch does not carry that column.
  const ValueId* column(AttrIndex attr) const {
    size_t i = static_cast<size_t>(attr);
    return i < views_.size() ? views_[i] : nullptr;
  }

  /// Cell `attr` of row `r`; kNullValue when the batch does not carry that
  /// column.
  ValueId Cell(AttrIndex attr, int64_t r) const {
    const ValueId* codes = column(attr);
    return codes != nullptr ? codes[r] : kNullValue;
  }

  /// Materializes row `r`: cells [0, width()), read as Cell does.
  void CopyRow(int64_t r, Row* row) const;

  /// Bitmask of rows narrower than width(); empty when none are.
  const std::vector<uint64_t>& narrow() const { return narrow_; }
  bool any_narrow() const { return any_narrow_; }

 private:
  std::vector<const ValueId*> views_;
  std::vector<std::vector<ValueId>> owned_;
  std::vector<uint64_t> narrow_;
  bool any_narrow_ = false;
  int64_t num_rows_ = 0;
  int32_t width_ = 0;
};

}  // namespace guardrail

#endif  // GUARDRAIL_TABLE_COLUMN_BATCH_H_
