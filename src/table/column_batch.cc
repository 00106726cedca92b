#include "table/column_batch.h"

#include <bit>
#include <utility>

namespace guardrail {

namespace rowmask {

int64_t Count(const std::vector<uint64_t>& mask) {
  int64_t n = 0;
  for (uint64_t word : mask) n += std::popcount(word);
  return n;
}

int64_t NextSet(const std::vector<uint64_t>& mask, int64_t from, int64_t rows) {
  if (from < 0) from = 0;
  for (int64_t row = from; row < rows;) {
    size_t word = static_cast<size_t>(row >> 6);
    if (word >= mask.size()) return -1;
    uint64_t bits = mask[word] >> (row & 63);
    if (bits != 0) {
      int64_t hit = row + std::countr_zero(bits);
      return hit < rows ? hit : -1;
    }
    row = (row | 63) + 1;  // Next word boundary.
  }
  return -1;
}

}  // namespace rowmask

ColumnBatch ColumnBatch::FromTable(const Table& table, RowIndex begin,
                                   int64_t count) {
  std::vector<const ValueId*> columns(static_cast<size_t>(table.num_columns()));
  for (AttrIndex c = 0; c < table.num_columns(); ++c) {
    columns[static_cast<size_t>(c)] =
        table.column(c).data() + static_cast<size_t>(begin);
  }
  return FromColumns(std::move(columns), count);
}

ColumnBatch ColumnBatch::FromColumns(std::vector<const ValueId*> columns,
                                     int64_t count) {
  ColumnBatch batch;
  batch.num_rows_ = count;
  batch.width_ = static_cast<int32_t>(columns.size());
  batch.views_ = std::move(columns);
  return batch;
}

ColumnBatch ColumnBatch::FromRows(const std::vector<Row>& rows, size_t begin,
                                  size_t count, int32_t width,
                                  const std::vector<AttrIndex>& attrs) {
  ColumnBatch batch;
  batch.num_rows_ = static_cast<int64_t>(count);
  batch.width_ = width;
  batch.views_.resize(static_cast<size_t>(width), nullptr);
  batch.owned_.reserve(attrs.size());
  for (AttrIndex attr : attrs) {
    std::vector<ValueId>& col = batch.owned_.emplace_back();
    col.resize(count, kNullValue);
    size_t a = static_cast<size_t>(attr);
    for (size_t r = 0; r < count; ++r) {
      const Row& row = rows[begin + r];
      if (a < row.size()) col[r] = row[a];
    }
    batch.views_[a] = col.data();
  }
  for (size_t r = 0; r < count; ++r) {
    if (rows[begin + r].size() < static_cast<size_t>(width)) {
      if (batch.narrow_.empty()) {
        batch.narrow_.assign(rowmask::Words(batch.num_rows_), 0);
      }
      rowmask::Set(&batch.narrow_, static_cast<int64_t>(r));
      batch.any_narrow_ = true;
    }
  }
  return batch;
}

}  // namespace guardrail
