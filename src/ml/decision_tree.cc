#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/failpoint.h"

namespace guardrail {
namespace ml {

namespace {

struct TreeNode {
  // Internal nodes split multiway on `split_attr`; children indexed by value
  // code, child -1 = fall through to this node's leaf distribution.
  AttrIndex split_attr = -1;
  std::vector<int32_t> children;  // Node ids, -1 = missing.
  // Class distribution at this node (smoothed), used for leaves and for
  // unseen / null values at internal nodes.
  std::vector<double> class_probs;
  ValueId majority = kNullValue;
};

double GiniImpurity(const std::vector<int64_t>& counts, int64_t total) {
  if (total == 0) return 0.0;
  double g = 1.0;
  for (int64_t c : counts) {
    double p = static_cast<double>(c) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

/// Cell readers for DecisionTreeModel::Walk.
auto RowCells(const Row& row) {
  return [&row](AttrIndex a) { return row[static_cast<size_t>(a)]; };
}
auto BlockCells(const ColumnBatch& block, int64_t r) {
  return [&block, r](AttrIndex a) { return block.Cell(a, r); };
}

class DecisionTreeModel : public Model {
 public:
  DecisionTreeModel(AttrIndex label_column, std::vector<TreeNode> nodes)
      : label_column_(label_column), nodes_(std::move(nodes)) {}

  ValueId Predict(const Row& row) const override {
    return Walk(RowCells(row)).majority;
  }

  std::vector<double> PredictProbabilities(const Row& row) const override {
    return Walk(RowCells(row)).class_probs;
  }

  int32_t num_classes() const override {
    return static_cast<int32_t>(nodes_[0].class_probs.size());
  }

  void ScoreGroup(const ColumnBatch& block, int64_t base, uint64_t bits,
                  double* scores) const override {
    const size_t classes = nodes_[0].class_probs.size();
    rowmask::ForEachBit(bits, [&](int k) {
      const std::vector<double>& probs =
          Walk(BlockCells(block, base + k)).class_probs;
      std::copy(probs.begin(), probs.end(),
                scores + static_cast<size_t>(k) * classes);
    });
  }

  std::string name() const override { return "decision_tree"; }
  AttrIndex label_column() const override { return label_column_; }

 private:
  /// The leaf (or the internal node a NULL / unseen value stops at) that the
  /// row reaches; `cell(a)` reads the row's attribute a.
  template <typename Cell>
  const TreeNode& Walk(const Cell& cell) const {
    int32_t id = 0;
    while (true) {
      const TreeNode& node = nodes_[static_cast<size_t>(id)];
      if (node.split_attr < 0) return node;
      ValueId v = cell(node.split_attr);
      if (v == kNullValue) return node;
      // Out-of-vocabulary codes are hash-bucketed into the known domain
      // (see naive_bayes.cc for rationale).
      if (!node.children.empty() &&
          v >= static_cast<ValueId>(node.children.size())) {
        v = v % static_cast<ValueId>(node.children.size());
      }
      if (v >= static_cast<ValueId>(node.children.size()) ||
          node.children[static_cast<size_t>(v)] < 0) {
        return node;
      }
      id = node.children[static_cast<size_t>(v)];
    }
  }

  AttrIndex label_column_;
  std::vector<TreeNode> nodes_;
};

class TreeBuilder {
 public:
  TreeBuilder(const Table& train, AttrIndex label_column,
              DecisionTreeTrainer::Options options)
      : train_(train),
        label_(label_column),
        num_labels_(train.schema().attribute(label_column).domain_size()),
        options_(options) {}

  std::vector<TreeNode> Build() {
    std::vector<RowIndex> rows(static_cast<size_t>(train_.num_rows()));
    for (RowIndex r = 0; r < train_.num_rows(); ++r) {
      rows[static_cast<size_t>(r)] = r;
    }
    std::vector<bool> used(static_cast<size_t>(train_.num_columns()), false);
    used[static_cast<size_t>(label_)] = true;
    BuildNode(rows, used, 0);
    return std::move(nodes_);
  }

 private:
  std::vector<int64_t> LabelCounts(const std::vector<RowIndex>& rows) const {
    std::vector<int64_t> counts(static_cast<size_t>(num_labels_), 0);
    for (RowIndex r : rows) {
      ValueId y = train_.Get(r, label_);
      if (y != kNullValue) ++counts[static_cast<size_t>(y)];
    }
    return counts;
  }

  void FillLeafStats(TreeNode* node, const std::vector<int64_t>& counts) const {
    int64_t total = 0;
    for (int64_t c : counts) total += c;
    node->class_probs.resize(counts.size());
    ValueId best = 0;
    for (size_t y = 0; y < counts.size(); ++y) {
      node->class_probs[y] =
          (static_cast<double>(counts[y]) + 1.0) /
          (static_cast<double>(total) + static_cast<double>(counts.size()));
      if (counts[y] > counts[static_cast<size_t>(best)]) {
        best = static_cast<ValueId>(y);
      }
    }
    node->majority = best;
  }

  // Returns the id of the created node.
  int32_t BuildNode(const std::vector<RowIndex>& rows, std::vector<bool> used,
                    int32_t depth) {
    int32_t id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    std::vector<int64_t> counts = LabelCounts(rows);
    FillLeafStats(&nodes_[static_cast<size_t>(id)], counts);

    int64_t total = 0, nonzero_classes = 0;
    for (int64_t c : counts) {
      total += c;
      nonzero_classes += c > 0 ? 1 : 0;
    }
    if (depth >= options_.max_depth || total < options_.min_samples_split ||
        nonzero_classes <= 1) {
      return id;
    }

    // Pick the attribute with the best Gini gain.
    double parent_gini = GiniImpurity(counts, total);
    double best_gain = 1e-9;
    AttrIndex best_attr = -1;
    for (AttrIndex a = 0; a < train_.num_columns(); ++a) {
      if (used[static_cast<size_t>(a)]) continue;
      int32_t domain = train_.schema().attribute(a).domain_size();
      if (domain < 2) continue;
      std::vector<std::vector<int64_t>> child_counts(
          static_cast<size_t>(domain),
          std::vector<int64_t>(static_cast<size_t>(num_labels_), 0));
      std::vector<int64_t> child_totals(static_cast<size_t>(domain), 0);
      for (RowIndex r : rows) {
        ValueId v = train_.Get(r, a);
        ValueId y = train_.Get(r, label_);
        if (v == kNullValue || y == kNullValue) continue;
        ++child_counts[static_cast<size_t>(v)][static_cast<size_t>(y)];
        ++child_totals[static_cast<size_t>(v)];
      }
      double weighted = 0.0;
      for (int32_t v = 0; v < domain; ++v) {
        if (child_totals[static_cast<size_t>(v)] == 0) continue;
        weighted += static_cast<double>(child_totals[static_cast<size_t>(v)]) /
                    static_cast<double>(total) *
                    GiniImpurity(child_counts[static_cast<size_t>(v)],
                                 child_totals[static_cast<size_t>(v)]);
      }
      double gain = parent_gini - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_attr = a;
      }
    }
    if (best_attr < 0) return id;

    // Split.
    int32_t domain = train_.schema().attribute(best_attr).domain_size();
    std::vector<std::vector<RowIndex>> partitions(
        static_cast<size_t>(domain));
    for (RowIndex r : rows) {
      ValueId v = train_.Get(r, best_attr);
      if (v != kNullValue) partitions[static_cast<size_t>(v)].push_back(r);
    }
    used[static_cast<size_t>(best_attr)] = true;
    std::vector<int32_t> children(static_cast<size_t>(domain), -1);
    for (int32_t v = 0; v < domain; ++v) {
      if (static_cast<int64_t>(partitions[static_cast<size_t>(v)].size()) <
          options_.min_samples_leaf) {
        continue;
      }
      children[static_cast<size_t>(v)] =
          BuildNode(partitions[static_cast<size_t>(v)], used, depth + 1);
    }
    nodes_[static_cast<size_t>(id)].split_attr = best_attr;
    nodes_[static_cast<size_t>(id)].children = std::move(children);
    return id;
  }

  const Table& train_;
  AttrIndex label_;
  int32_t num_labels_;
  DecisionTreeTrainer::Options options_;
  std::vector<TreeNode> nodes_;
};

}  // namespace

Result<std::unique_ptr<Model>> DecisionTreeTrainer::Train(
    const Table& train, AttrIndex label_column) const {
  GUARDRAIL_FAILPOINT("ml.decision_tree.train");
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (train.schema().attribute(label_column).domain_size() < 1) {
    return Status::InvalidArgument("label column has empty domain");
  }
  TreeBuilder builder(train, label_column, options_);
  return std::unique_ptr<Model>(
      new DecisionTreeModel(label_column, builder.Build()));
}

}  // namespace ml
}  // namespace guardrail
