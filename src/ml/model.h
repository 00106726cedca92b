#ifndef GUARDRAIL_ML_MODEL_H_
#define GUARDRAIL_ML_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace guardrail {
namespace ml {

/// A trained categorical classifier over Table rows. Stands in for the
/// third-party / AutoML models of the paper's ML-integrated queries: opaque
/// predictors whose mis-predictions correlate with input data errors.
///
/// Batched calls read row r of a block as ColumnBatch::CopyRow materializes
/// it (the row GuardExecutor reads for the same block).
class Model {
 public:
  virtual ~Model() = default;

  /// Predicts the label code for a row (schema order of the training table;
  /// the label column's value is ignored).
  virtual ValueId Predict(const Row& row) const = 0;

  /// Class scores for a row (indexed by label code); used by ensembles.
  virtual std::vector<double> PredictProbabilities(const Row& row) const = 0;

  /// Writes Predict(row r) to out[r] for every row r of `block` set in
  /// `mask` (rowmask words covering block.num_rows()); other entries of
  /// `out` are left as they are. Models with num_classes() > 0 score each
  /// 64-row group through ScoreGroup and take the first highest score per
  /// row; others loop Predict.
  void PredictBatch(const ColumnBatch& block, const std::vector<uint64_t>& mask,
                    ValueId* out) const;

  /// Length of PredictProbabilities' result for models that score rows
  /// column-wise through ScoreGroup, and whose Predict is the first highest
  /// of those scores; 0 (the default) for models that do not.
  virtual int32_t num_classes() const { return 0; }

  /// PredictProbabilities for one 64-row group of `block`: for every set bit
  /// k of `bits`, writes the scores of row base + k to
  /// scores[k * num_classes() + y]. Models with num_classes() > 0 override
  /// it; it is called on no other model.
  virtual void ScoreGroup(const ColumnBatch& block, int64_t base,
                          uint64_t bits, double* scores) const;

  virtual std::string name() const = 0;

  /// Column the model predicts.
  virtual AttrIndex label_column() const = 0;

  /// Convenience: batch accuracy against the labels stored in `table`.
  double Accuracy(const Table& table) const;

 protected:
  /// Room for the scores of one ScoreGroup call, 64 rows of `classes`: on
  /// the stack up to kStackClasses classes, one heap buffer beyond.
  class GroupScores {
   public:
    explicit GroupScores(int32_t classes);
    GroupScores(const GroupScores&) = delete;
    GroupScores& operator=(const GroupScores&) = delete;
    double* data() { return data_; }

   private:
    static constexpr int32_t kStackClasses = 32;
    double stack_[64 * kStackClasses];
    std::vector<double> heap_;
    double* data_;
  };

  /// PredictProbabilities through ScoreGroup on a one-row block, so the row
  /// and batched paths share one kernel (and one arithmetic order).
  std::vector<double> ScoreRow(const Row& row) const;
};

/// Trainer interface: fits a model on `train` predicting `label_column`.
class Trainer {
 public:
  virtual ~Trainer() = default;
  virtual Result<std::unique_ptr<Model>> Train(const Table& train,
                                               AttrIndex label_column) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace ml
}  // namespace guardrail

#endif  // GUARDRAIL_ML_MODEL_H_
