#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/failpoint.h"

#include "common/rng.h"

namespace guardrail {
namespace ml {

namespace {

/// Sparse one-hot layout: feature index = offset[attr] + value code; one
/// active feature per attribute (plus a bias term at index 0).
struct FeatureLayout {
  std::vector<int32_t> offsets;  // Per attribute; -1 for the label column.
  int32_t num_features = 1;      // Slot 0 is the bias.

  /// One one-hot block per attribute that has one, in attribute order.
  struct Slot {
    AttrIndex attr;
    int32_t offset;
    int32_t span;  // Codes at or past it hash-bucket into the block.
  };
  std::vector<Slot> slots;

  /// Derives `slots` from `offsets` once they are final. An attribute's
  /// block runs up to the next non-label attribute's offset, or to the end
  /// for the last one.
  void BuildSlots() {
    slots.clear();
    int32_t next = num_features;
    for (size_t a = offsets.size(); a-- > 0;) {
      const int32_t offset = offsets[a];
      if (offset < 0) continue;
      if (next - offset > 0) {
        slots.push_back({static_cast<AttrIndex>(a), offset, next - offset});
      }
      next = offset;
    }
    std::reverse(slots.begin(), slots.end());
  }
};

/// The one-hot feature of code `v` (not NULL) in `slot`. Out-of-vocabulary
/// codes hash-bucket into the attribute's span (see naive_bayes.cc for
/// rationale).
inline int32_t SlotFeature(const FeatureLayout::Slot& slot, ValueId v) {
  if (v >= slot.span) v = v % slot.span;
  return slot.offset + v;
}

/// Invokes fn(feature_index) for the bias plus one one-hot feature per
/// non-label attribute of `row`.
template <typename Fn>
void ForEachActiveFeature(const FeatureLayout& layout, const Row& row,
                          const Fn& fn) {
  fn(0);  // Bias.
  for (const FeatureLayout::Slot& slot : layout.slots) {
    const ValueId v = row[static_cast<size_t>(slot.attr)];
    if (v != kNullValue) fn(SlotFeature(slot, v));
  }
}

class LogisticRegressionModel : public Model {
 public:
  LogisticRegressionModel(AttrIndex label_column, int32_t num_labels,
                          FeatureLayout layout,
                          const std::vector<double>& weights)
      : label_column_(label_column),
        num_labels_(num_labels),
        layout_(std::move(layout)),
        weights_(weights.size()) {
    // Stored [feature][label], so one feature's weights are contiguous.
    const size_t labels = static_cast<size_t>(num_labels_);
    const size_t features = static_cast<size_t>(layout_.num_features);
    for (size_t y = 0; y < labels; ++y) {
      for (size_t f = 0; f < features; ++f) {
        weights_[f * labels + y] = weights[y * features + f];
      }
    }
  }

  ValueId Predict(const Row& row) const override {
    std::vector<double> probs = PredictProbabilities(row);
    return static_cast<ValueId>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
  }

  std::vector<double> PredictProbabilities(const Row& row) const override {
    return ScoreRow(row);
  }

  int32_t num_classes() const override { return num_labels_; }

  // Per row: logits summed over the bias and then each non-NULL attribute's
  // one-hot feature in attribute order, then a softmax. Column-wise over the
  // group, with each row's sums in that order.
  void ScoreGroup(const ColumnBatch& block, int64_t base, uint64_t bits,
                  double* scores) const override {
    const size_t labels = static_cast<size_t>(num_labels_);
    rowmask::ForEachBit(bits, [&](int k) {
      double* s = scores + static_cast<size_t>(k) * labels;
      for (size_t y = 0; y < labels; ++y) s[y] = 0.0 + weights_[y];  // Bias.
    });
    for (const FeatureLayout::Slot& slot : layout_.slots) {
      const ValueId* column = block.column(slot.attr);
      if (column == nullptr) continue;
      rowmask::ForEachBit(bits, [&](int k) {
        const ValueId v = column[base + k];
        if (v == kNullValue) return;
        const double* w =
            weights_.data() +
            static_cast<size_t>(SlotFeature(slot, v)) * labels;
        double* s = scores + static_cast<size_t>(k) * labels;
        for (size_t y = 0; y < labels; ++y) s[y] += w[y];
      });
    }
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

  std::string name() const override { return "logistic_regression"; }
  AttrIndex label_column() const override { return label_column_; }

 private:
  AttrIndex label_column_;
  int32_t num_labels_;
  FeatureLayout layout_;
  std::vector<double> weights_;  // [feature][label], row-major.
};

}  // namespace

Result<std::unique_ptr<Model>> LogisticRegressionTrainer::Train(
    const Table& train, AttrIndex label_column) const {
  GUARDRAIL_FAILPOINT("ml.logistic_regression.train");
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  const int32_t num_labels =
      train.schema().attribute(label_column).domain_size();
  if (num_labels < 2) {
    return Status::InvalidArgument("label domain must have >= 2 values");
  }

  FeatureLayout layout;
  layout.offsets.assign(static_cast<size_t>(train.num_columns()), -1);
  for (AttrIndex a = 0; a < train.num_columns(); ++a) {
    if (a == label_column) continue;
    layout.offsets[static_cast<size_t>(a)] = layout.num_features;
    layout.num_features += train.schema().attribute(a).domain_size();
  }
  layout.BuildSlots();

  std::vector<double> weights(
      static_cast<size_t>(num_labels) * static_cast<size_t>(layout.num_features),
      0.0);

  // SGD over shuffled epochs.
  Rng rng(options_.seed);
  std::vector<RowIndex> order(static_cast<size_t>(train.num_rows()));
  std::iota(order.begin(), order.end(), 0);

  auto weight_ref = [&](int32_t label, int32_t feature) -> double& {
    return weights[static_cast<size_t>(label) *
                       static_cast<size_t>(layout.num_features) +
                   static_cast<size_t>(feature)];
  };

  std::vector<int32_t> active;
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double lr = options_.learning_rate /
                (1.0 + 0.3 * static_cast<double>(epoch));
    for (RowIndex r : order) {
      ValueId y = train.Get(r, label_column);
      if (y == kNullValue) continue;
      Row row = train.GetRow(r);

      // Forward pass on current weights.
      active.clear();
      ForEachActiveFeature(layout, row,
                           [&](int32_t feature) { active.push_back(feature); });
      std::vector<double> logits(static_cast<size_t>(num_labels), 0.0);
      for (int32_t feature : active) {
        for (int32_t label = 0; label < num_labels; ++label) {
          logits[static_cast<size_t>(label)] += weight_ref(label, feature);
        }
      }
      double mx = *std::max_element(logits.begin(), logits.end());
      double total = 0.0;
      for (double& l : logits) {
        l = std::exp(l - mx);
        total += l;
      }
      // Gradient step: (p - 1[y]) per active feature, plus L2 shrinkage.
      for (int32_t label = 0; label < num_labels; ++label) {
        double p = logits[static_cast<size_t>(label)] / total;
        double grad = p - (label == y ? 1.0 : 0.0);
        for (int32_t feature : active) {
          double& w = weight_ref(label, feature);
          w -= lr * (grad + options_.l2 * w);
        }
      }
    }
  }

  return std::unique_ptr<Model>(new LogisticRegressionModel(
      label_column, num_labels, std::move(layout), weights));
}

}  // namespace ml
}  // namespace guardrail
