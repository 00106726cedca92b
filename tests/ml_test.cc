#include <gtest/gtest.h>

#include <algorithm>
#include <memory>


#include "ml/automl.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "table/column_batch.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace ml {
namespace {

// A learnable task: label depends on two categorical features with noise.
SemModel MakeTaskSem(double noise = 0.1) {
  std::vector<SemNode> nodes(4);
  nodes[0] = {"f0", 4, {}, 0.0};
  nodes[1] = {"f1", 3, {}, 0.0};
  nodes[2] = {"f2", 5, {0}, 0.1};
  nodes[3] = {"label", 2, {0, 1}, noise};
  return SemModel(std::move(nodes), 81);
}

struct TrainedSetup {
  Table train;
  Table test;
  std::unique_ptr<Model> model;
};

TrainedSetup TrainWith(const Trainer& trainer, uint64_t seed = 7) {
  SemModel sem = MakeTaskSem();
  Rng rng(seed);
  Table data = sem.Sample(3000, &rng);
  auto [train, test] = data.Split(0.7, &rng);
  auto model = trainer.Train(train, 3);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return {std::move(train), std::move(test), std::move(*model)};
}

class TrainerParamTest
    : public ::testing::TestWithParam<std::shared_ptr<Trainer>> {};

TEST_P(TrainerParamTest, BeatsChanceOnLearnableTask) {
  TrainedSetup setup = TrainWith(*GetParam());
  double accuracy = setup.model->Accuracy(setup.test);
  EXPECT_GT(accuracy, 0.7) << GetParam()->name();
}

TEST_P(TrainerParamTest, ProbabilitiesAreDistribution) {
  TrainedSetup setup = TrainWith(*GetParam());
  for (RowIndex r = 0; r < 20; ++r) {
    auto probs = setup.model->PredictProbabilities(setup.test.GetRow(r));
    ASSERT_EQ(probs.size(), 2u);
    double total = 0;
    for (double p : probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_P(TrainerParamTest, PredictionConsistentWithProbabilities) {
  TrainedSetup setup = TrainWith(*GetParam());
  for (RowIndex r = 0; r < 50; ++r) {
    Row row = setup.test.GetRow(r);
    auto probs = setup.model->PredictProbabilities(row);
    ValueId pred = setup.model->Predict(row);
    for (double p : probs) {
      EXPECT_LE(p, probs[static_cast<size_t>(pred)] + 1e-12);
    }
  }
}

TEST_P(TrainerParamTest, HandlesNullAndUnseenValues) {
  TrainedSetup setup = TrainWith(*GetParam());
  Row row = setup.test.GetRow(0);
  row[0] = kNullValue;
  ValueId pred = setup.model->Predict(row);
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, 2);
}

TEST_P(TrainerParamTest, EmptyTrainRejected) {
  Schema schema({Attribute("x"), Attribute("label")});
  Table empty(std::move(schema));
  EXPECT_FALSE(GetParam()->Train(empty, 1).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllTrainers, TrainerParamTest,
    ::testing::Values(std::make_shared<NaiveBayesTrainer>(),
                      std::make_shared<DecisionTreeTrainer>(),
                      std::make_shared<LogisticRegressionTrainer>(),
                      std::make_shared<AutoMlTrainer>()),
    [](const ::testing::TestParamInfo<std::shared_ptr<Trainer>>& info) {
      return info.param->name();
    });

TEST(LogisticRegressionTest, OutOfVocabularyCodeStaysInItsOwnBlock) {
  // f0 sits just before the label column and f2 after it, fully determined
  // by the label, so f2's one-hot weights are large. An unseen f0 code
  // hash-buckets into f0's own block: code domain + k reads f0's feature k,
  // never one of f2's features.
  std::vector<SemNode> nodes(3);
  nodes[0] = {"f0", 3, {}, 0.0};
  nodes[1] = {"label", 2, {}, 0.0};
  nodes[2] = {"f2", 4, {1}, 0.0};
  SemModel sem(std::move(nodes), 91);
  Rng rng(8);
  Table train = sem.Sample(2000, &rng);
  auto model = LogisticRegressionTrainer().Train(train, 1);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const int32_t domain = train.schema().attribute(0).domain_size();
  ASSERT_GT(domain, 1);
  for (ValueId k = 0; k < domain; ++k) {
    const Row unseen = {domain + k, kNullValue, kNullValue};
    const Row seen = {k, kNullValue, kNullValue};
    EXPECT_EQ((*model)->PredictProbabilities(unseen),
              (*model)->PredictProbabilities(seen))
        << "code " << domain + k;
  }
}

TEST(MajorityTrainerTest, PredictsMode) {
  Schema schema({Attribute("x"), Attribute("label")});
  Table t(std::move(schema));
  t.AppendRowLabels({"a", "yes"});
  t.AppendRowLabels({"b", "yes"});
  t.AppendRowLabels({"c", "no"});
  for (int i = 0; i < 10; ++i) t.AppendRowLabels({"d", "yes"});
  MajorityTrainer trainer;
  auto model = trainer.Train(t, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->Predict(t.GetRow(2)),
            t.schema().attribute(1).Lookup("yes"));
}

TEST(NaiveBayesTest, LearnsConditionalStructure) {
  // label == f0 exactly: NB should be near-perfect.
  Schema schema({Attribute("f0"), Attribute("label")});
  Table t(std::move(schema));
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::string v = rng.NextBernoulli(0.5) ? "a" : "b";
    t.AppendRowLabels({v, v == "a" ? "la" : "lb"});
  }
  NaiveBayesTrainer trainer;
  auto model = trainer.Train(t, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_GT((*model)->Accuracy(t), 0.99);
}

TEST(DecisionTreeTest, DepthLimitCoarsensModel) {
  SemModel sem = MakeTaskSem(0.0);
  Rng rng(6);
  Table data = sem.Sample(2000, &rng);
  DecisionTreeTrainer::Options shallow_opt;
  shallow_opt.max_depth = 0;  // Root only: majority predictor.
  auto shallow = DecisionTreeTrainer(shallow_opt).Train(data, 3);
  auto deep = DecisionTreeTrainer().Train(data, 3);
  ASSERT_TRUE(shallow.ok());
  ASSERT_TRUE(deep.ok());
  EXPECT_GT((*deep)->Accuracy(data), (*shallow)->Accuracy(data));
}

TEST(AutoMlTest, EnsembleIsAtLeastCompetitive) {
  // The ensemble should not be dramatically worse than naive Bayes alone.
  TrainedSetup nb = TrainWith(NaiveBayesTrainer(), 9);
  TrainedSetup ens = TrainWith(AutoMlTrainer(), 9);
  EXPECT_GT(ens.model->Accuracy(ens.test),
            nb.model->Accuracy(nb.test) - 0.1);
}

TEST(AutoMlTest, InputErrorsCauseMispredictions) {
  // The premise of the paper's Sec. 5: corrupting inputs flips predictions.
  TrainedSetup setup = TrainWith(AutoMlTrainer(), 10);
  int64_t flips = 0;
  for (RowIndex r = 0; r < setup.test.num_rows(); ++r) {
    Row clean = setup.test.GetRow(r);
    Row dirty = clean;
    dirty[0] = (dirty[0] + 1) % 4;  // Corrupt the strongest feature.
    flips += setup.model->Predict(clean) != setup.model->Predict(dirty);
  }
  EXPECT_GT(flips, setup.test.num_rows() / 10);
}

// --------------------------------------------------------- PredictBatch --

// Overrides Predict only, so PredictBatch is Model's default loop.
class PredictOnlyModel : public Model {
 public:
  explicit PredictOnlyModel(const Model* inner) : inner_(inner) {}
  ValueId Predict(const Row& row) const override {
    return inner_->Predict(row);
  }
  std::vector<double> PredictProbabilities(const Row& row) const override {
    return inner_->PredictProbabilities(row);
  }
  std::string name() const override { return "predict_only"; }
  AttrIndex label_column() const override { return inner_->label_column(); }

 private:
  const Model* inner_;
};

// PredictBatch equals Predict row by row for every model family and for the
// default loop: over rows with NULL cells and with labels added after
// training (codes past the models' training domains, which they
// hash-bucket), under full and partial masks, in blocks whose last one is
// shorter than 1024 rows, and on a block that does not carry a column.
TEST(PredictBatchTest, MatchesPredictRowByRow) {
  // The label sits between features, so the linear model's one-hot layout
  // has a block that runs to the end of the feature vector.
  Table data(Schema({Attribute("f0"), Attribute("label"), Attribute("f1"),
                     Attribute("f2")}));
  Rng rng(13);
  auto sample = [&](int64_t rows, uint64_t extra) {
    for (int64_t r = 0; r < rows; ++r) {
      const uint64_t f0 = rng.NextUint64(4 + extra);
      const uint64_t f1 = rng.NextUint64(3 + extra);
      const bool yes = (f0 < 2) != (rng.NextUint64(8) == 0) || f1 == 2;
      data.AppendRowLabels({"a" + std::to_string(f0), yes ? "yes" : "no",
                            "b" + std::to_string(f1),
                            "c" + std::to_string(rng.NextUint64(5))});
    }
  };
  sample(1500, 0);
  std::vector<std::unique_ptr<Trainer>> trainers;
  trainers.push_back(std::make_unique<NaiveBayesTrainer>());
  trainers.push_back(std::make_unique<DecisionTreeTrainer>());
  trainers.push_back(std::make_unique<LogisticRegressionTrainer>());
  trainers.push_back(std::make_unique<MajorityTrainer>());
  trainers.push_back(std::make_unique<AutoMlTrainer>());
  std::vector<std::unique_ptr<Model>> models;
  for (const auto& trainer : trainers) {
    auto model = trainer->Train(data, 1);
    ASSERT_TRUE(model.ok()) << trainer->name();
    models.push_back(std::move(*model));
  }
  models.push_back(std::make_unique<PredictOnlyModel>(models.back().get()));
  sample(1000, 3);  // 2500 rows: blocks of 1024, 1024 and 452.
  for (RowIndex r = 0; r < data.num_rows(); r += 9) {
    data.Set(r, static_cast<AttrIndex>(r % 4), kNullValue);
  }

  for (const auto& model : models) {
    SCOPED_TRACE(model->name());
    for (RowIndex begin = 0; begin < data.num_rows(); begin += 1024) {
      const int64_t rows = std::min<int64_t>(1024, data.num_rows() - begin);
      std::vector<uint64_t> full(rowmask::Words(rows), 0);
      std::vector<uint64_t> partial = full;
      for (int64_t r = 0; r < rows; ++r) {
        rowmask::Set(&full, r);
        if (r % 3 != 0 && (r / 64) % 4 != 1) rowmask::Set(&partial, r);
      }
      const ColumnBatch block = ColumnBatch::FromTable(data, begin, rows);
      for (const auto* mask : {&full, &partial}) {
        std::vector<ValueId> out(static_cast<size_t>(rows), -7);
        model->PredictBatch(block, *mask, out.data());
        for (int64_t r = 0; r < rows; ++r) {
          const ValueId expected = rowmask::Test(*mask, r)
                                       ? model->Predict(data.GetRow(begin + r))
                                       : -7;
          ASSERT_EQ(out[static_cast<size_t>(r)], expected)
              << "row " << begin + r;
        }
      }
      // A block without f2: its rows read f2 as NULL.
      std::vector<const ValueId*> columns;
      for (AttrIndex c = 0; c < data.num_columns(); ++c) {
        columns.push_back(c == 3 ? nullptr : data.column(c).data() + begin);
      }
      const ColumnBatch narrow = ColumnBatch::FromColumns(columns, rows);
      std::vector<ValueId> out(static_cast<size_t>(rows), -7);
      model->PredictBatch(narrow, full, out.data());
      for (int64_t r = 0; r < rows; ++r) {
        Row row = data.GetRow(begin + r);
        row[3] = kNullValue;
        ASSERT_EQ(out[static_cast<size_t>(r)], model->Predict(row))
            << "row " << begin + r;
      }
    }
  }
}

}  // namespace
}  // namespace ml
}  // namespace guardrail
