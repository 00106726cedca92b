#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/failpoint.h"

namespace guardrail {
namespace ml {

namespace {

class NaiveBayesModel : public Model {
 public:
  NaiveBayesModel(AttrIndex label_column, int32_t num_labels,
                  std::vector<double> log_prior,
                  const std::vector<std::vector<std::vector<double>>>&
                      log_likelihood)
      : label_column_(label_column),
        num_labels_(num_labels),
        log_prior_(std::move(log_prior)) {
    // Flatten [attribute][value][label] into one array, in attribute order
    // (the order the per-row sum adds them in).
    for (size_t a = 0; a < log_likelihood.size(); ++a) {
      if (static_cast<AttrIndex>(a) == label_column_) continue;
      const auto& table = log_likelihood[a];
      if (table.empty()) continue;
      features_.push_back({static_cast<AttrIndex>(a),
                           static_cast<int32_t>(table.size()),
                           log_likelihood_.size()});
      for (const auto& by_label : table) {
        log_likelihood_.insert(log_likelihood_.end(), by_label.begin(),
                               by_label.end());
      }
    }
  }

  ValueId Predict(const Row& row) const override {
    std::vector<double> scores = PredictProbabilities(row);
    return static_cast<ValueId>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
  }

  std::vector<double> PredictProbabilities(const Row& row) const override {
    return ScoreRow(row);
  }

  int32_t num_classes() const override { return num_labels_; }

  // Per row: the log prior, plus log P(value | label) for each non-NULL
  // feature in attribute order, then a softmax. Column-wise over the group,
  // with each row's sums in that order.
  void ScoreGroup(const ColumnBatch& block, int64_t base, uint64_t bits,
                  double* scores) const override {
    const size_t labels = static_cast<size_t>(num_labels_);
    rowmask::ForEachBit(bits, [&](int k) {
      std::copy(log_prior_.begin(), log_prior_.end(),
                scores + static_cast<size_t>(k) * labels);
    });
    for (const Feature& f : features_) {
      const ValueId* column = block.column(f.attr);
      if (column == nullptr) continue;  // Missing: skip the feature.
      rowmask::ForEachBit(bits, [&](int k) {
        ValueId v = column[base + k];
        if (v == kNullValue) return;
        // Out-of-vocabulary codes are hash-bucketed into the known domain,
        // mirroring production feature encoders (and the paper's premise
        // that corrupted inputs actively mislead a deployed model rather
        // than being gracefully marginalized).
        if (v >= f.domain) v = v % f.domain;
        const double* ll = log_likelihood_.data() + f.offset +
                           static_cast<size_t>(v) * labels;
        double* s = scores + static_cast<size_t>(k) * labels;
        for (size_t y = 0; y < labels; ++y) s[y] += ll[y];
      });
    }
    // Softmax normalization for well-defined probabilities.
    rowmask::ForEachBit(bits, [&](int k) {
      double* s = scores + static_cast<size_t>(k) * labels;
      const double mx = *std::max_element(s, s + labels);
      double total = 0.0;
      for (size_t y = 0; y < labels; ++y) {
        s[y] = std::exp(s[y] - mx);
        total += s[y];
      }
      for (size_t y = 0; y < labels; ++y) s[y] /= total;
    });
  }

  std::string name() const override { return "naive_bayes"; }
  AttrIndex label_column() const override { return label_column_; }

 private:
  struct Feature {
    AttrIndex attr;
    int32_t domain;
    size_t offset;  // Into log_likelihood_.
  };

  AttrIndex label_column_;
  int32_t num_labels_;
  std::vector<double> log_prior_;
  std::vector<Feature> features_;
  // Per feature: [value][label] -> log P(value | label).
  std::vector<double> log_likelihood_;
};

}  // namespace

Result<std::unique_ptr<Model>> NaiveBayesTrainer::Train(
    const Table& train, AttrIndex label_column) const {
  GUARDRAIL_FAILPOINT("ml.naive_bayes.train");
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  const int32_t num_labels =
      train.schema().attribute(label_column).domain_size();
  if (num_labels < 1) {
    return Status::InvalidArgument("label column has empty domain");
  }
  const int32_t n = train.num_columns();
  const double alpha = options_.smoothing;

  std::vector<int64_t> label_counts(static_cast<size_t>(num_labels), 0);
  for (ValueId y : train.column(label_column)) {
    if (y != kNullValue) ++label_counts[static_cast<size_t>(y)];
  }
  int64_t total = 0;
  for (int64_t c : label_counts) total += c;
  if (total == 0) return Status::InvalidArgument("all labels are NULL");

  std::vector<double> log_prior(static_cast<size_t>(num_labels));
  for (int32_t y = 0; y < num_labels; ++y) {
    log_prior[static_cast<size_t>(y)] =
        std::log((static_cast<double>(label_counts[static_cast<size_t>(y)]) + alpha) /
                 (static_cast<double>(total) + alpha * num_labels));
  }

  std::vector<std::vector<std::vector<double>>> log_likelihood(
      static_cast<size_t>(n));
  for (AttrIndex a = 0; a < n; ++a) {
    if (a == label_column) continue;
    int32_t domain = train.schema().attribute(a).domain_size();
    std::vector<std::vector<int64_t>> counts(
        static_cast<size_t>(domain),
        std::vector<int64_t>(static_cast<size_t>(num_labels), 0));
    const auto& col = train.column(a);
    const auto& labels = train.column(label_column);
    for (RowIndex r = 0; r < train.num_rows(); ++r) {
      ValueId v = col[static_cast<size_t>(r)];
      ValueId y = labels[static_cast<size_t>(r)];
      if (v == kNullValue || y == kNullValue) continue;
      ++counts[static_cast<size_t>(v)][static_cast<size_t>(y)];
    }
    auto& table = log_likelihood[static_cast<size_t>(a)];
    table.assign(static_cast<size_t>(domain),
                 std::vector<double>(static_cast<size_t>(num_labels), 0.0));
    for (int32_t y = 0; y < num_labels; ++y) {
      double denom = static_cast<double>(label_counts[static_cast<size_t>(y)]) +
                     alpha * domain;
      for (int32_t v = 0; v < domain; ++v) {
        table[static_cast<size_t>(v)][static_cast<size_t>(y)] = std::log(
            (static_cast<double>(counts[static_cast<size_t>(v)][static_cast<size_t>(y)]) +
             alpha) /
            denom);
      }
    }
  }

  return std::unique_ptr<Model>(
      new NaiveBayesModel(label_column, num_labels, std::move(log_prior),
                          log_likelihood));
}

}  // namespace ml
}  // namespace guardrail
