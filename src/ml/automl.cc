#include "ml/automl.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/telemetry/telemetry.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace guardrail {
namespace ml {

namespace {

class MajorityModel : public Model {
 public:
  MajorityModel(AttrIndex label_column, ValueId majority,
                std::vector<double> probs)
      : label_column_(label_column),
        majority_(majority),
        probs_(std::move(probs)) {}

  ValueId Predict(const Row&) const override { return majority_; }
  std::vector<double> PredictProbabilities(const Row&) const override {
    return probs_;
  }

  int32_t num_classes() const override {
    return static_cast<int32_t>(probs_.size());
  }

  void ScoreGroup(const ColumnBatch&, int64_t, uint64_t bits,
                  double* scores) const override {
    rowmask::ForEachBit(bits, [&](int k) {
      std::copy(probs_.begin(), probs_.end(),
                scores + static_cast<size_t>(k) * probs_.size());
    });
  }

  std::string name() const override { return "majority"; }
  AttrIndex label_column() const override { return label_column_; }

 private:
  AttrIndex label_column_;
  ValueId majority_;
  std::vector<double> probs_;
};

class EnsembleModel : public Model {
 public:
  /// Every member scores rows column-wise over the same classes (the four
  /// AutoML families all do).
  EnsembleModel(AttrIndex label_column,
                std::vector<std::unique_ptr<Model>> members,
                std::vector<double> weights)
      : label_column_(label_column),
        members_(std::move(members)),
        weights_(std::move(weights)),
        num_classes_(members_.front()->num_classes()) {
    for (const auto& member : members_) {
      GUARDRAIL_CHECK_EQ(member->num_classes(), num_classes_);
    }
    GUARDRAIL_CHECK_GT(num_classes_, 0);
  }

  ValueId Predict(const Row& row) const override {
    std::vector<double> probs = PredictProbabilities(row);
    return static_cast<ValueId>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
  }

  std::vector<double> PredictProbabilities(const Row& row) const override {
    return ScoreRow(row);
  }

  int32_t num_classes() const override { return num_classes_; }

  // Per row: the accuracy-weighted sum of the members' scores, in member
  // order, normalized to sum 1.
  void ScoreGroup(const ColumnBatch& block, int64_t base, uint64_t bits,
                  double* scores) const override {
    const size_t classes = static_cast<size_t>(num_classes_);
    GroupScores buffer(num_classes_);
    double* member_scores = buffer.data();
    rowmask::ForEachBit(bits, [&](int k) {
      std::fill_n(scores + static_cast<size_t>(k) * classes, classes, 0.0);
    });
    for (size_t m = 0; m < members_.size(); ++m) {
      members_[m]->ScoreGroup(block, base, bits, member_scores);
      const double weight = weights_[m];
      rowmask::ForEachBit(bits, [&](int k) {
        const double* p = member_scores + static_cast<size_t>(k) * classes;
        double* total = scores + static_cast<size_t>(k) * classes;
        for (size_t i = 0; i < classes; ++i) total[i] += weight * p[i];
      });
    }
    rowmask::ForEachBit(bits, [&](int k) {
      double* total = scores + static_cast<size_t>(k) * classes;
      double sum = 0.0;
      for (size_t i = 0; i < classes; ++i) sum += total[i];
      if (sum > 0.0) {
        for (size_t i = 0; i < classes; ++i) total[i] /= sum;
      }
    });
  }

  std::string name() const override { return "automl_ensemble"; }
  AttrIndex label_column() const override { return label_column_; }

 private:
  AttrIndex label_column_;
  std::vector<std::unique_ptr<Model>> members_;
  std::vector<double> weights_;
  int32_t num_classes_;
};

}  // namespace

Result<std::unique_ptr<Model>> MajorityTrainer::Train(
    const Table& train, AttrIndex label_column) const {
  GUARDRAIL_FAILPOINT("ml.majority.train");
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  int32_t num_labels = train.schema().attribute(label_column).domain_size();
  std::vector<int64_t> counts(static_cast<size_t>(std::max(1, num_labels)), 0);
  for (ValueId y : train.column(label_column)) {
    if (y != kNullValue) ++counts[static_cast<size_t>(y)];
  }
  ValueId majority = 0;
  int64_t total = 0;
  for (size_t y = 0; y < counts.size(); ++y) {
    total += counts[y];
    if (counts[y] > counts[static_cast<size_t>(majority)]) {
      majority = static_cast<ValueId>(y);
    }
  }
  std::vector<double> probs(counts.size(), 0.0);
  for (size_t y = 0; y < counts.size(); ++y) {
    probs[y] = total > 0 ? static_cast<double>(counts[y]) /
                               static_cast<double>(total)
                         : 1.0 / static_cast<double>(counts.size());
  }
  return std::unique_ptr<Model>(
      new MajorityModel(label_column, majority, std::move(probs)));
}

Result<std::unique_ptr<Model>> AutoMlTrainer::Train(
    const Table& train, AttrIndex label_column) const {
  GUARDRAIL_FAILPOINT("ml.automl.train");
  if (train.num_rows() < 10) {
    return Status::InvalidArgument("too little data for AutoML");
  }
  telemetry::Span span("automl");
  span.AddArg("label_column", static_cast<int64_t>(label_column));
  span.AddArg("train_rows", static_cast<int64_t>(train.num_rows()));
  Rng rng(options_.seed);
  auto [fit_split, val_split] =
      train.Split(1.0 - options_.validation_fraction, &rng);
  if (val_split.num_rows() == 0 || fit_split.num_rows() == 0) {
    return Status::InvalidArgument("degenerate validation split");
  }

  std::vector<std::unique_ptr<Trainer>> trainers;
  trainers.emplace_back(new NaiveBayesTrainer());
  trainers.emplace_back(new DecisionTreeTrainer());
  trainers.emplace_back(new LogisticRegressionTrainer());
  trainers.emplace_back(new MajorityTrainer());

  std::vector<std::unique_ptr<Model>> members;
  std::vector<double> weights;
  for (const auto& trainer : trainers) {
    if (options_.cancel.Cancelled()) break;
    Result<std::unique_ptr<Model>> model =
        trainer->Train(fit_split, label_column);
    GUARDRAIL_COUNTER_INC("automl.candidates_trained");
    if (!model.ok()) continue;
    double accuracy = (*model)->Accuracy(val_split);
    // Weight models by validation accuracy; drop clearly broken ones.
    if (accuracy <= 0.0) continue;
    members.push_back(std::move(*model));
    weights.push_back(accuracy * accuracy);  // Emphasize the better models.
  }
  GUARDRAIL_COUNTER_ADD("automl.members_kept",
                        static_cast<int64_t>(members.size()));
  span.AddArg("members", static_cast<int64_t>(members.size()));
  if (members.empty()) {
    GUARDRAIL_RETURN_NOT_OK(options_.cancel.CheckTimeout("automl training"));
    return Status::Internal("no ensemble member trained successfully");
  }
  return std::unique_ptr<Model>(new EnsembleModel(
      label_column, std::move(members), std::move(weights)));
}

}  // namespace ml
}  // namespace guardrail
