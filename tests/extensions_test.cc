#include <gtest/gtest.h>

#include "baselines/cords.h"
#include "core/guard.h"
#include "core/interpreter.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/serialization.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace {

// --------------------------------------------------------- normalization --

core::Program ParseOn(Schema* schema, const std::string& text) {
  auto program = core::ParseProgram(text, schema);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

Schema MakeZipSchema() {
  return Schema({Attribute("zip"), Attribute("city"), Attribute("state")});
}

TEST(NormalizeTest, MergesDuplicateHeaders) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN zip ON city HAVING IF zip = 'a' THEN city <- 'x';\n"
      "GIVEN zip ON city HAVING IF zip = 'b' THEN city <- 'y';\n");
  core::NormalizeStats stats = core::NormalizeProgram(&p);
  EXPECT_EQ(stats.statements_merged, 1);
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].branches.size(), 2u);
}

TEST(NormalizeTest, RemovesDeadAndDuplicateBranches) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN zip ON city HAVING\n"
      "  IF zip = 'a' THEN city <- 'x';\n"
      "  IF zip = 'a' THEN city <- 'x';\n"   // Duplicate.
      "  IF zip = 'a' THEN city <- 'y';\n"   // Dead (shadowed).
      "  IF zip = 'b' THEN city <- 'y';\n");
  core::NormalizeStats stats = core::NormalizeProgram(&p);
  EXPECT_EQ(stats.duplicate_branches_removed, 1);
  EXPECT_EQ(stats.dead_branches_removed, 1);
  EXPECT_EQ(p.statements[0].branches.size(), 2u);
}

TEST(NormalizeTest, PreservesSemantics) {
  Schema schema = MakeZipSchema();
  const char* text =
      "GIVEN zip ON city HAVING\n"
      "  IF zip = 'b' THEN city <- 'y';\n"
      "  IF zip = 'a' THEN city <- 'x';\n"
      "  IF zip = 'a' THEN city <- 'z';\n"
      "GIVEN city ON state HAVING IF city = 'x' THEN state <- 's';\n"
      "GIVEN zip ON city HAVING IF zip = 'c' THEN city <- 'w';\n";
  core::Program original = ParseOn(&schema, text);
  core::Program normalized = ParseOn(&schema, text);
  core::NormalizeProgram(&normalized);

  core::Interpreter before(&original);
  core::Interpreter after(&normalized);
  // Exhaustive check over the full value cube.
  for (ValueId zip = 0; zip < schema.attribute(0).domain_size(); ++zip) {
    for (ValueId city = 0; city < schema.attribute(1).domain_size(); ++city) {
      for (ValueId state = 0; state < schema.attribute(2).domain_size();
           ++state) {
        Row row = {zip, city, state};
        EXPECT_EQ(before.Execute(row), after.Execute(row));
        EXPECT_EQ(before.Satisfies(row), after.Satisfies(row));
      }
    }
  }
}

TEST(NormalizeTest, IdempotentAndCanonicallyOrdered) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN city ON state HAVING IF city = 'x' THEN state <- 's';\n"
      "GIVEN zip ON city HAVING IF zip = 'b' THEN city <- 'y';\n"
      "GIVEN zip ON city HAVING IF zip = 'a' THEN city <- 'x';\n");
  core::NormalizeProgram(&p);
  core::Program again = p;
  core::NormalizeStats stats = core::NormalizeProgram(&again);
  EXPECT_FALSE(stats.Changed());
  EXPECT_TRUE(again == p);
  // Canonical order: dependents ascending (city=1 before state=2).
  EXPECT_EQ(p.statements[0].dependent, 1);
  EXPECT_EQ(p.statements[1].dependent, 2);
}

TEST(NormalizeTest, DropsEmptyStatementsAndSummarizes) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN zip ON city HAVING IF zip = 'a' THEN city <- 'x';\n");
  core::Statement empty;
  empty.determinants = {0};
  empty.dependent = 2;
  p.statements.push_back(empty);
  core::NormalizeStats stats = core::NormalizeProgram(&p);
  EXPECT_EQ(stats.empty_statements_removed, 1);
  std::string summary = core::ProgramSummary(p, schema);
  EXPECT_NE(summary.find("1 statement(s)"), std::string::npos);
  EXPECT_NE(summary.find("city"), std::string::npos);
}

// --------------------------------------------------------- serialization --

TEST(SerializationTest, RoundTripsThroughText) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN zip ON city HAVING IF zip = 'a' THEN city <- 'x';\n");
  std::string text =
      core::SerializeProgram(p, schema, "synthesized by unit test\nline2");
  EXPECT_NE(text.find("# guardrail-program v1"), std::string::npos);
  EXPECT_NE(text.find("# synthesized by unit test"), std::string::npos);
  Schema schema2 = MakeZipSchema();
  auto loaded = core::DeserializeProgram(text, &schema2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == p);
}

TEST(SerializationTest, RejectsMissingOrWrongHeader) {
  Schema schema = MakeZipSchema();
  EXPECT_FALSE(core::DeserializeProgram(
                   "GIVEN zip ON city HAVING IF zip='a' THEN city <- 'x';",
                   &schema)
                   .ok());
  EXPECT_FALSE(core::DeserializeProgram(
                   "# guardrail-program v99\n", &schema)
                   .ok());
}

TEST(SerializationTest, FileRoundTrip) {
  Schema schema = MakeZipSchema();
  core::Program p = ParseOn(&schema,
      "GIVEN zip ON city HAVING IF zip = 'a' THEN city <- 'x';\n");
  std::string path = ::testing::TempDir() + "/guardrail_program.grl";
  ASSERT_TRUE(core::SaveProgramToFile(path, p, schema).ok());
  Schema schema2 = MakeZipSchema();
  auto loaded = core::LoadProgramFromFile(path, &schema2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == p);
  EXPECT_FALSE(core::LoadProgramFromFile("/nonexistent/x.grl", &schema2).ok());
}

// ------------------------------------------------------------------ CORDS --

TEST(CordsTest, FindsPairwiseSoftFdAndSkipsNoise) {
  std::vector<SemNode> nodes(3);
  nodes[0] = {"a", 5, {}, 0.0};
  nodes[1] = {"b", 5, {0}, 0.01};
  nodes[2] = {"noise", 4, {}, 0.0};
  SemModel sem(std::move(nodes), 311);
  Rng rng(312);
  Table data = sem.Sample(3000, &rng);
  auto fds = baselines::Cords({}).Discover(data, &rng);
  ASSERT_TRUE(fds.ok());
  bool a_to_b = false, touches_noise = false;
  for (const auto& fd : *fds) {
    a_to_b = a_to_b ||
             (fd.lhs == std::vector<AttrIndex>{0} && fd.rhs == 1);
    touches_noise = touches_noise || fd.rhs == 2 ||
                    fd.lhs == std::vector<AttrIndex>{2};
  }
  EXPECT_TRUE(a_to_b);
  EXPECT_FALSE(touches_noise);
}

TEST(CordsTest, KeepsRedundantTransitiveDependencies) {
  // a -> b -> c: CORDS reports a->c too (the redundancy the paper
  // criticizes; Guardrail's GNT machinery would suppress it).
  std::vector<SemNode> nodes(3);
  nodes[0] = {"a", 6, {}, 0.0};
  nodes[1] = {"b", 6, {0}, 0.005};
  nodes[2] = {"c", 5, {1}, 0.005};
  SemModel sem(std::move(nodes), 313);
  Rng rng(314);
  Table data = sem.Sample(4000, &rng);
  auto fds = baselines::Cords({}).Discover(data, &rng);
  ASSERT_TRUE(fds.ok());
  bool redundant = false;
  for (const auto& fd : *fds) {
    redundant = redundant ||
                (fd.lhs == std::vector<AttrIndex>{0} && fd.rhs == 2);
  }
  EXPECT_TRUE(redundant);
}

TEST(CordsTest, RejectsTinyInput) {
  Schema schema({Attribute("a")});
  Table t(std::move(schema));
  t.AppendRowLabels({"x"});
  Rng rng(315);
  EXPECT_FALSE(baselines::Cords({}).Discover(t, &rng).ok());
}

// ---------------------------------------------------- logistic regression --

TEST(LogisticRegressionTest, LearnsLinearlySeparableTask) {
  Schema schema({Attribute("f"), Attribute("label")});
  Table t(std::move(schema));
  Rng rng(316);
  for (int i = 0; i < 800; ++i) {
    bool a = rng.NextBernoulli(0.5);
    t.AppendRowLabels({a ? "on" : "off", a ? "yes" : "no"});
  }
  ml::LogisticRegressionTrainer trainer;
  auto model = trainer.Train(t, 1);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT((*model)->Accuracy(t), 0.98);
}

TEST(LogisticRegressionTest, RejectsDegenerateLabel) {
  Schema schema({Attribute("f"), Attribute("label")});
  Table t(std::move(schema));
  for (int i = 0; i < 20; ++i) t.AppendRowLabels({"x", "only"});
  ml::LogisticRegressionTrainer trainer;
  EXPECT_FALSE(trainer.Train(t, 1).ok());
}

TEST(LogisticRegressionTest, ComparableToNaiveBayesOnSemTask) {
  RandomSemOptions opt;
  opt.num_nodes = 6;
  Rng master(317);
  SemModel sem = BuildRandomSem(opt, &master);
  Rng rng(318);
  Table data = sem.Sample(2500, &rng);
  auto [train, test] = data.Split(0.7, &rng);
  AttrIndex label = 5;
  auto lr = ml::LogisticRegressionTrainer().Train(train, label);
  auto nb = ml::NaiveBayesTrainer().Train(train, label);
  ASSERT_TRUE(lr.ok());
  ASSERT_TRUE(nb.ok());
  EXPECT_GT((*lr)->Accuracy(test), (*nb)->Accuracy(test) - 0.12);
}

// ---------------------------------------------------- SQL ORDER BY / plan --

class SqlExtensionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({Attribute("name"), Attribute("score")});
    table_ = Table(std::move(schema));
    table_.AppendRowLabels({"carol", "30"});
    table_.AppendRowLabels({"alice", "10"});
    table_.AppendRowLabels({"bob", "20"});
    table_.AppendRowLabels({"dave", "20"});
    executor_.RegisterTable("t", &table_);
  }
  Table table_;
  sql::Executor executor_;
};

TEST_F(SqlExtensionTest, OrderByColumnAscending) {
  auto result = executor_.Execute("SELECT name FROM t ORDER BY name");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[0][0].string(), "alice");
  EXPECT_EQ(result->rows[3][0].string(), "dave");
}

TEST_F(SqlExtensionTest, OrderByNumericDescendingWithLimit) {
  auto result = executor_.Execute(
      "SELECT name, score FROM t ORDER BY score DESC, name LIMIT 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].string(), "carol");
  EXPECT_EQ(result->rows[1][0].string(), "bob");  // Ties broken by name.
}

TEST_F(SqlExtensionTest, OrderByPositionAndAlias) {
  auto by_position = executor_.Execute(
      "SELECT name, score FROM t ORDER BY 2 DESC LIMIT 1");
  ASSERT_TRUE(by_position.ok());
  EXPECT_EQ(by_position->rows[0][0].string(), "carol");

  auto by_alias = executor_.Execute(
      "SELECT score AS s, COUNT(*) AS n FROM t GROUP BY score "
      "ORDER BY n DESC, s LIMIT 1");
  ASSERT_TRUE(by_alias.ok()) << by_alias.status().ToString();
  EXPECT_EQ(by_alias->rows[0][0].string(), "20");  // Two rows share 20.
  EXPECT_DOUBLE_EQ(by_alias->rows[0][1].number(), 2.0);
}

TEST_F(SqlExtensionTest, OrderByUnknownKeyErrors) {
  EXPECT_FALSE(executor_.Execute("SELECT name FROM t ORDER BY zzz").ok());
  EXPECT_FALSE(executor_.Execute("SELECT name FROM t ORDER BY 7").ok());
}

TEST(ExplainPlanTest, ShowsPushdownSplitAndStages) {
  auto stmt = sql::ParseSelect(
      "SELECT a, COUNT(*) AS n FROM t WHERE ML_PREDICT('m') = 'x' AND "
      "a = 'y' GROUP BY a ORDER BY n DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok());
  std::string plan = sql::ExplainPlan(*stmt, /*enable_pushdown=*/true);
  EXPECT_NE(plan.find("Scan(t)"), std::string::npos);
  EXPECT_NE(plan.find("Filter[pre-inference]: (a = 'y')"), std::string::npos);
  EXPECT_NE(plan.find("Filter[post-inference]"), std::string::npos);
  EXPECT_NE(plan.find("Aggregate: group by [a]"), std::string::npos);
  EXPECT_NE(plan.find("OrderBy: [n DESC]"), std::string::npos);
  EXPECT_NE(plan.find("Limit: 5"), std::string::npos);

  std::string no_push = sql::ExplainPlan(*stmt, /*enable_pushdown=*/false);
  EXPECT_EQ(no_push.find("Filter[pre-inference]"), std::string::npos);
}

// ------------------------------------------------- rectify tolerated path --

TEST(ToleratedValuesTest, RectifySkipsTrainingWitnessedDeviation) {
  Schema schema({Attribute("a"), Attribute("b")});
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, 0}};
  branch.target = 1;
  branch.assignment = 0;
  branch.support = 100;
  branch.tolerated_values = {0, 1};  // Value 1 was seen in training.
  stmt.branches.push_back(branch);
  program.statements.push_back(stmt);
  core::Guard guard(&program);

  Row tolerated = {0, 1};  // Deviates but was witnessed: left alone.
  auto r1 = guard.ProcessRow(tolerated, core::ErrorPolicy::kRectify);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, tolerated);

  Row unseen = {0, 2};  // Never witnessed: repaired to the assignment.
  // Extend domains so validation-by-construction holds.
  auto r2 = guard.ProcessRow(unseen, core::ErrorPolicy::kRectify);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)[1], 0);
}

TEST(MapRectifyTest, RepairsDeterminantWhenSiblingSupportWins) {
  // Statement GIVEN a ON b with branches a=0 -> b=0 (support 10) and
  // a=1 -> b=1 (support 500). A row (a=0, b=1) violates the first branch;
  // the sibling hypothesis "a was corrupted, the true row is (1, 1)" has
  // 50x the support, so MAP repair fixes `a` rather than clobbering `b`.
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch b0;
  b0.condition.equalities = {{0, 0}};
  b0.target = 1;
  b0.assignment = 0;
  b0.support = 10;
  core::Branch b1;
  b1.condition.equalities = {{0, 1}};
  b1.target = 1;
  b1.assignment = 1;
  b1.support = 500;
  stmt.branches = {b0, b1};
  program.statements.push_back(stmt);
  core::Guard guard(&program);

  Row row = {0, 1};
  auto repaired = guard.ProcessRow(row, core::ErrorPolicy::kRectify);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ((*repaired)[0], 1);  // Determinant repaired.
  EXPECT_EQ((*repaired)[1], 1);  // Dependent untouched.
}

}  // namespace
}  // namespace guardrail
