#include "ml/model.h"

#include <algorithm>

#include "common/logging.h"

namespace guardrail {
namespace ml {

void Model::PredictBatch(const ColumnBatch& block,
                         const std::vector<uint64_t>& mask,
                         ValueId* out) const {
  const int32_t classes = num_classes();
  if (classes == 0) {
    Row row;
    for (size_t w = 0; w < rowmask::Words(block.num_rows()); ++w) {
      rowmask::ForEachBit(mask[w], [&](int k) {
        const int64_t r = static_cast<int64_t>(w) * 64 + k;
        block.CopyRow(r, &row);
        out[r] = Predict(row);
      });
    }
    return;
  }
  GroupScores buffer(classes);
  double* scores = buffer.data();
  for (size_t w = 0; w < rowmask::Words(block.num_rows()); ++w) {
    if (mask[w] == 0) continue;
    const int64_t base = static_cast<int64_t>(w) * 64;
    ScoreGroup(block, base, mask[w], scores);
    rowmask::ForEachBit(mask[w], [&](int k) {
      const double* row_scores = scores + static_cast<size_t>(k) * classes;
      out[base + k] = static_cast<ValueId>(
          std::max_element(row_scores, row_scores + classes) - row_scores);
    });
  }
}

void Model::ScoreGroup(const ColumnBatch&, int64_t, uint64_t,
                       double*) const {
  GUARDRAIL_CHECK(false) << name() << " does not score rows column-wise";
}

Model::GroupScores::GroupScores(int32_t classes) : data_(stack_) {
  if (classes > kStackClasses) {
    heap_.resize(64 * static_cast<size_t>(classes));
    data_ = heap_.data();
  }
}

std::vector<double> Model::ScoreRow(const Row& row) const {
  std::vector<const ValueId*> cells(row.size());
  for (size_t c = 0; c < row.size(); ++c) cells[c] = &row[c];
  const ColumnBatch block = ColumnBatch::FromColumns(std::move(cells), 1);
  std::vector<double> scores(static_cast<size_t>(num_classes()));
  ScoreGroup(block, 0, 1, scores.data());
  return scores;
}

double Model::Accuracy(const Table& table) const {
  if (table.num_rows() == 0) return 0.0;
  int64_t correct = 0;
  for (RowIndex r = 0; r < table.num_rows(); ++r) {
    Row row = table.GetRow(r);
    if (Predict(row) == row[static_cast<size_t>(label_column())]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(table.num_rows());
}

}  // namespace ml
}  // namespace guardrail
