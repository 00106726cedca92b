#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/guard.h"
#include "exp/pipeline.h"
#include "exp/query_workload.h"
#include "ml/automl.h"
#include "ml/decision_tree.h"
#include "ml/naive_bayes.h"
#include "sql/executor.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace guardrail {
namespace sql {
namespace {

// ------------------------------------------------------------------ lexer --

TEST(LexerTest, TokenizesKeywordsIdentifiersLiterals) {
  auto tokens = LexSql("SELECT x, 'str''x' FROM t WHERE a >= 1.5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[3].type, TokenType::kString);
  EXPECT_EQ((*tokens)[3].text, "str'x");
  EXPECT_EQ((*tokens)[8].text, ">=");
  EXPECT_EQ((*tokens)[9].type, TokenType::kNumber);
  EXPECT_EQ((*tokens)[9].text, "1.5");
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = LexSql("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*tokens)[static_cast<size_t>(i)].type, TokenType::kKeyword);
  }
}

TEST(LexerTest, NormalizesNeAndEq) {
  auto tokens = LexSql("a <> b == c");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "!=");
  EXPECT_EQ((*tokens)[3].text, "=");
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(LexSql("SELECT 'oops").ok());
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(LexSql("SELECT @x").ok());
}

// ----------------------------------------------------------------- parser --

TEST(ParserTest, ParsesFullSelect) {
  auto stmt = ParseSelect(
      "SELECT a, COUNT(*) AS n FROM t WHERE a = 'x' AND b > 2 "
      "GROUP BY a LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->table_name, "t");
  ASSERT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "n");
  ASSERT_TRUE(stmt->where != nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, OperatorPrecedence) {
  auto expr = ParseExpression("1 + 2 * 3 = 7 AND NOT 0 > 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "(((1 + (2 * 3)) = 7) AND (NOT (0 > 1)))");
}

TEST(ParserTest, CaseWhenParses) {
  auto expr = ParseExpression(
      "CASE WHEN x = 'a' THEN 1 WHEN x = 'b' THEN 2 ELSE 0 END");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kCase);
  EXPECT_EQ((*expr)->when_clauses.size(), 2u);
  ASSERT_TRUE((*expr)->else_clause != nullptr);
}

TEST(ParserTest, QualifiedColumnKeepsColumnName) {
  auto expr = ParseExpression("adult.age");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->kind, ExprKind::kColumnRef);
  EXPECT_EQ((*expr)->column, "age");
}

TEST(ParserTest, FunctionCallsAndStar) {
  auto expr = ParseExpression("COUNT(*)");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE((*expr)->star);
  auto expr2 = ParseExpression("ml_predict('m')");
  ASSERT_TRUE(expr2.ok());
  EXPECT_EQ((*expr2)->call_name, "ML_PREDICT");
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("a FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t trailing garbage here").ok());
  EXPECT_FALSE(ParseExpression("CASE END").ok());
}

TEST(ParserTest, CloneProducesEqualTree) {
  auto expr = ParseExpression("CASE WHEN a = 1 THEN b + 2 ELSE c END");
  ASSERT_TRUE(expr.ok());
  ExprPtr clone = (*expr)->Clone();
  EXPECT_EQ(clone->ToString(), (*expr)->ToString());
}

// ---------------------------------------------------------------- planner --

TEST(PlannerTest, SplitConjunctsFlattensAndTree) {
  auto expr = ParseExpression("a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(expr.ok());
  auto conjuncts = SplitConjuncts(expr->get());
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(PlannerTest, DetectsMlPredict) {
  auto with = ParseExpression("ML_PREDICT('m') = 'yes'");
  auto without = ParseExpression("a = 'yes'");
  EXPECT_TRUE(ContainsMlPredict(with->get()));
  EXPECT_FALSE(ContainsMlPredict(without->get()));
}

TEST(PlannerTest, DetectsAggregates) {
  auto agg = ParseExpression("AVG(CASE WHEN a = 1 THEN 1 ELSE 0 END)");
  auto plain = ParseExpression("a + 1");
  EXPECT_TRUE(ContainsAggregate(agg->get()));
  EXPECT_FALSE(ContainsAggregate(plain->get()));
  std::vector<const Expr*> nodes;
  CollectAggregates(agg->get(), &nodes);
  EXPECT_EQ(nodes.size(), 1u);
}

TEST(PlannerTest, PushdownSplitsByMlDependence) {
  auto expr = ParseExpression("a = 1 AND ML_PREDICT('m') = 'x' AND b = 2");
  FilterPlan plan = PlanFilter(expr->get(), /*enable_pushdown=*/true);
  EXPECT_EQ(plan.base_conjuncts.size(), 2u);
  EXPECT_EQ(plan.ml_conjuncts.size(), 1u);
  FilterPlan no_push = PlanFilter(expr->get(), /*enable_pushdown=*/false);
  EXPECT_TRUE(no_push.base_conjuncts.empty());
  EXPECT_EQ(no_push.ml_conjuncts.size(), 3u);
}

// --------------------------------------------------------------- executor --

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema({Attribute("dept"), Attribute("grade"), Attribute("label")});
    table_ = Table(std::move(schema));
    // dept: eng/ops; grade: a/b/c; label == 'hi' iff grade == 'a'.
    const char* rows[][3] = {
        {"eng", "a", "hi"}, {"eng", "a", "hi"}, {"eng", "b", "lo"},
        {"ops", "b", "lo"}, {"ops", "c", "lo"}, {"ops", "a", "hi"},
        {"eng", "c", "lo"}, {"ops", "a", "hi"},
    };
    for (const auto& row : rows) {
      table_.AppendRowLabels({row[0], row[1], row[2]});
    }
    executor_.RegisterTable("t", &table_);
    ml::NaiveBayesTrainer trainer;
    auto model = trainer.Train(table_, 2);
    ASSERT_TRUE(model.ok());
    model_ = std::move(*model);
    executor_.RegisterModel("m", model_.get());
  }

  Table table_;
  std::unique_ptr<ml::Model> model_;
  Executor executor_;
};

TEST_F(ExecutorTest, SimpleProjection) {
  auto result = executor_.Execute("SELECT dept, grade FROM t LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->columns, (std::vector<std::string>{"dept", "grade"}));
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0].string(), "eng");
}

TEST_F(ExecutorTest, WhereFilters) {
  auto result = executor_.Execute("SELECT grade FROM t WHERE dept = 'ops'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);
}

TEST_F(ExecutorTest, CountStarAndGroupBy) {
  auto result = executor_.Execute(
      "SELECT dept, COUNT(*) FROM t GROUP BY dept");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  double total = 0;
  for (const auto& row : result->rows) total += row[1].number();
  EXPECT_DOUBLE_EQ(total, 8.0);
}

TEST_F(ExecutorTest, AggregatesComputeCorrectly) {
  auto result = executor_.Execute(
      "SELECT AVG(CASE WHEN grade = 'a' THEN 1 ELSE 0 END), "
      "SUM(CASE WHEN grade = 'a' THEN 1 ELSE 0 END), "
      "MIN(grade), MAX(grade), COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 0.5);  // 4 of 8.
  EXPECT_DOUBLE_EQ(result->rows[0][1].number(), 4.0);
  EXPECT_EQ(result->rows[0][2].string(), "a");
  EXPECT_EQ(result->rows[0][3].string(), "c");
  EXPECT_DOUBLE_EQ(result->rows[0][4].number(), 8.0);
}

TEST_F(ExecutorTest, HavingFiltersGroups) {
  auto result = executor_.Execute(
      "SELECT grade, COUNT(*) AS n FROM t GROUP BY grade HAVING "
      "COUNT(*) >= 3 ORDER BY grade");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // grade a: 4 rows, b: 2, c: 2 -> only 'a' survives.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].string(), "a");
  EXPECT_DOUBLE_EQ(result->rows[0][1].number(), 4.0);
}

TEST_F(ExecutorTest, HavingMayReferenceAggregatesNotProjected) {
  auto result = executor_.Execute(
      "SELECT dept FROM t GROUP BY dept HAVING "
      "AVG(CASE WHEN grade = 'a' THEN 1 ELSE 0 END) > 0.4");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // eng: 2/4 = 0.5 qualifies; ops: 2/4 = 0.5 qualifies too.
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(ExecutorTest, HavingWithoutGroupByRejected) {
  EXPECT_FALSE(
      executor_.Execute("SELECT dept FROM t HAVING COUNT(*) > 1").ok());
}

TEST_F(ExecutorTest, ArithmeticOverAggregates) {
  auto result = executor_.Execute("SELECT COUNT(*) * 2 + 1 FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 17.0);
}

TEST_F(ExecutorTest, MlPredictProducesLabels) {
  auto result = executor_.Execute(
      "SELECT ML_PREDICT('m') AS pred, COUNT(*) FROM t GROUP BY "
      "ML_PREDICT('m')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->rows.size(), 1u);
  for (const auto& row : result->rows) {
    EXPECT_TRUE(row[0].string() == "hi" || row[0].string() == "lo");
  }
  // 8 predictions keying the groups during the scan. The bare select-item
  // ML_PREDICT on each group's representative row reuses the scan's
  // prediction: ML_PREDICT runs at most once per (row, model).
  EXPECT_EQ(executor_.stats().predictions_made, 8);
}

TEST_F(ExecutorTest, MlPredictAccuracyOnTrainData) {
  // The NB model learns grade='a' <=> 'hi' perfectly on this table.
  auto result = executor_.Execute(
      "SELECT AVG(CASE WHEN ML_PREDICT('m') = label THEN 1 ELSE 0 END) "
      "FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 1.0);
}

TEST_F(ExecutorTest, PredicatePushdownSkipsInference) {
  // The ML conjunct is written FIRST: only pushdown (not mere left-to-right
  // short-circuiting) can reorder the cheap base predicate in front of it.
  executor_.ResetStats();
  auto result = executor_.Execute(
      "SELECT COUNT(*) FROM t WHERE ML_PREDICT('m') = 'hi' AND "
      "dept = 'eng'");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 2.0);
  const auto& stats = executor_.stats();
  EXPECT_EQ(stats.rows_scanned, 8);
  EXPECT_EQ(stats.rows_after_pushdown, 4);   // Only eng rows.
  EXPECT_EQ(stats.predictions_made, 4);      // Inference on survivors only.
}

TEST_F(ExecutorTest, DisabledPushdownPredictsEverywhere) {
  Executor::Options opt;
  opt.enable_predicate_pushdown = false;
  Executor executor(opt);
  executor.RegisterTable("t", &table_);
  executor.RegisterModel("m", model_.get());
  auto result = executor.Execute(
      "SELECT COUNT(*) FROM t WHERE ML_PREDICT('m') = 'hi' AND "
      "dept = 'eng'");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 2.0);  // Same answer.
  EXPECT_EQ(executor.stats().predictions_made, 8);     // But 2x inference.
}

TEST_F(ExecutorTest, UnknownTableAndModelErrors) {
  EXPECT_EQ(executor_.Execute("SELECT a FROM nosuch").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(executor_
                .Execute("SELECT ML_PREDICT('nomodel') FROM t")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(executor_.Execute("SELECT nosuchcol FROM t").status().code(),
            StatusCode::kNotFound);
  // Names resolve when the query compiles, so they fail on an empty table
  // too.
  Table empty(table_.schema());
  Executor executor;
  executor.RegisterTable("e", &empty);
  executor.RegisterModel("m", model_.get());
  EXPECT_EQ(executor.Execute("SELECT nosuchcol FROM e").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(executor.Execute("SELECT COUNT(*) FROM e WHERE "
                             "ML_PREDICT('nomodel') = 'hi'")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(executor.Execute("SELECT dept FROM e").ok());
}

TEST_F(ExecutorTest, GuardRectifyChangesModelInput) {
  // Constraint: IF dept = 'eng' THEN grade <- 'a'. Guarded prediction sees
  // repaired rows; eng rows all predict 'hi'.
  Schema schema = table_.schema();
  ValueId eng = schema.attribute(0).Lookup("eng");
  ValueId grade_a = schema.attribute(1).Lookup("a");
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, eng}};
  branch.target = 1;
  branch.assignment = grade_a;
  stmt.branches = {branch};
  program.statements.push_back(stmt);
  core::Guard guard(&program);
  executor_.SetGuard(&guard, core::ErrorPolicy::kRectify);
  auto result = executor_.Execute(
      "SELECT COUNT(*) FROM t WHERE dept = 'eng' AND "
      "ML_PREDICT('m') = 'hi'");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 4.0);  // All eng rows now 'a'.
  EXPECT_GT(executor_.stats().rows_guard_flagged, 0);
  EXPECT_GE(executor_.stats().guard_seconds, 0.0);
}

TEST_F(ExecutorTest, GuardRaiseFailsQueryOnViolation) {
  Schema schema = table_.schema();
  ValueId eng = schema.attribute(0).Lookup("eng");
  ValueId grade_a = schema.attribute(1).Lookup("a");
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, eng}};
  branch.target = 1;
  branch.assignment = grade_a;
  stmt.branches = {branch};
  program.statements.push_back(stmt);
  core::Guard guard(&program);
  executor_.SetGuard(&guard, core::ErrorPolicy::kRaise);
  auto result = executor_.Execute("SELECT ML_PREDICT('m') FROM t");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsConstraintViolation());
}

TEST_F(ExecutorTest, NullComparisonsAreNotTrue) {
  Table with_null = table_;
  with_null.Set(0, 1, kNullValue);
  Executor executor;
  executor.RegisterTable("t", &with_null);
  auto result = executor.Execute("SELECT COUNT(*) FROM t WHERE grade = 'a'");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 3.0);  // Row 0 excluded.
}

TEST_F(ExecutorTest, QueryResultToStringRenders) {
  auto result = executor_.Execute("SELECT dept FROM t LIMIT 1");
  ASSERT_TRUE(result.ok());
  std::string text = result->ToString();
  EXPECT_NE(text.find("dept"), std::string::npos);
  EXPECT_NE(text.find("eng"), std::string::npos);
}

// ---------------------------------------------------------------- values --

TEST(SqlValueTest, CompareNumericStrings) {
  EXPECT_EQ(SqlValue::String("10").Compare(SqlValue::Number(9)), 1);
  EXPECT_EQ(SqlValue::String("abc").Compare(SqlValue::String("abd")), -1);
  EXPECT_TRUE(SqlValue::Number(2).Equals(SqlValue::String("2")));
  EXPECT_FALSE(SqlValue::MakeNull().Equals(SqlValue::MakeNull()));
  // Numbers sort before text, so 9 < 10 < '5a' holds transitively.
  EXPECT_EQ(SqlValue::Number(9).Compare(SqlValue::String("5a")), -1);
  EXPECT_EQ(SqlValue::String("5a").Compare(SqlValue::String("10")), 1);
  EXPECT_FALSE(SqlValue::Number(std::nan("")).Equals(SqlValue::Number(5)));
}

TEST(SqlValueTest, Truthiness) {
  EXPECT_TRUE(SqlValue::Boolean(true).Truthy());
  EXPECT_FALSE(SqlValue::Boolean(false).Truthy());
  EXPECT_TRUE(SqlValue::Number(0.5).Truthy());
  EXPECT_FALSE(SqlValue::Number(0).Truthy());
  EXPECT_FALSE(SqlValue::MakeNull().Truthy());
  EXPECT_TRUE(SqlValue::String("true").Truthy());
  EXPECT_FALSE(SqlValue::String("yes").Truthy());
}

TEST(SqlValueTest, DisplayForms) {
  EXPECT_EQ(SqlValue::MakeNull().ToDisplayString(), "NULL");
  EXPECT_EQ(SqlValue::Number(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(SqlValue::Boolean(true).ToDisplayString(), "true");
}

// -------------------------------------------------------------- span args --

// The sql.execute span carries the query fingerprint and row-count deltas,
// and the fingerprint is canonical: whitespace variants of the same logical
// query hash identically.
TEST_F(ExecutorTest, ExecuteSpanCarriesQueryFingerprint) {
  telemetry::ResetAllForTest();
  telemetry::EnableTracing(true);

  auto hash_of = [&](const std::string& query) {
    telemetry::ClearTrace();
    auto result = executor_.Execute(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    for (const auto& ev : telemetry::SnapshotTraceEvents()) {
      if (std::string_view(ev.name) == "sql.execute" && ev.phase == 'E') {
        size_t at = ev.args_json.find("\"query_hash\": \"");
        EXPECT_NE(at, std::string::npos) << ev.args_json;
        if (at == std::string::npos) return std::string();
        EXPECT_NE(ev.args_json.find("\"rows_scanned\""), std::string::npos);
        EXPECT_NE(ev.args_json.find("\"rows_out\""), std::string::npos);
        at += std::string("\"query_hash\": \"").size();
        return ev.args_json.substr(at, 16);
      }
    }
    ADD_FAILURE() << "no sql.execute span recorded";
    return std::string();
  };

  std::string a = hash_of("SELECT dept FROM t WHERE grade = 'a'");
  std::string b = hash_of("SELECT  dept\nFROM t  WHERE grade='a'");
  std::string c = hash_of("SELECT dept FROM t WHERE grade = 'b'");
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  telemetry::ResetAllForTest();
}

// ------------------------------------------------------------------ chaos --

// Executor failpoints (sql.execute, sql.scan_row, sql.guard_row) under a
// guarded query: every run either succeeds with the correct answer or
// surfaces exactly the injected code — never a crash, never a wrong result —
// and the executor is fully serviceable once the points disarm.
TEST_F(ExecutorTest, GuardedQuerySurvivesInjectedFaults) {
  Schema schema = table_.schema();
  ValueId eng = schema.attribute(0).Lookup("eng");
  ValueId grade_a = schema.attribute(1).Lookup("a");
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, eng}};
  branch.target = 1;
  branch.assignment = grade_a;
  stmt.branches = {branch};
  program.statements.push_back(stmt);
  core::Guard guard(&program);
  executor_.SetGuard(&guard, core::ErrorPolicy::kRectify);

  const std::string query =
      "SELECT COUNT(*) FROM t WHERE dept = 'eng' AND ML_PREDICT('m') = 'hi'";
  auto& registry = FailpointRegistry::Instance();
  registry.DisarmAll();
  int failures = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    registry.Arm("sql.execute", 0.1, StatusCode::kInternal, seed);
    registry.Arm("sql.scan_row", 0.05, StatusCode::kIoError, seed);
    registry.Arm("sql.guard_row", 0.05, StatusCode::kResourceExhausted, seed);
    auto result = executor_.Execute(query);
    if (result.ok()) {
      EXPECT_DOUBLE_EQ(result->rows[0][0].number(), 4.0);
    } else {
      ++failures;
      StatusCode code = result.status().code();
      EXPECT_TRUE(code == StatusCode::kInternal ||
                  code == StatusCode::kIoError ||
                  code == StatusCode::kResourceExhausted)
          << result.status().ToString();
    }
  }
  registry.DisarmAll();
  EXPECT_GT(failures, 0);  // These rates make 20 all-clean runs implausible.

  // Disarmed, the same executor answers correctly again.
  auto clean = executor_.Execute(query);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_DOUBLE_EQ(clean->rows[0][0].number(), 4.0);
}


// ------------------------------------------------------------ the oracle --

// The row-at-a-time executor the block pipeline replaced, kept as the
// differential oracle: a tree-walking evaluator over SqlValues that copies
// each row, resolves names per row and keys groups by their display
// strings. One change from the original: the guarded row is remembered per
// row index, so the guard reads a row once even when the post-aggregation
// pass predicts its group's representative again (guard.* counters count
// rows, and ExecStats::rows_guard_flagged flagged rows). Predictions are
// not remembered: the oracle re-predicts those representatives, so it
// makes at least the executor's predictions.
class RowOracle {
 public:
  RowOracle(const Table* table,
            std::map<std::string, const ml::Model*> models,
            const core::Guard* guard, core::ErrorPolicy policy,
            bool pushdown)
      : table_(table),
        models_(std::move(models)),
        guard_(guard),
        policy_(policy),
        pushdown_(pushdown) {}

  Result<QueryResult> Execute(const std::string& sql);

  ExecStats stats;

 private:
  class Evaluator;
  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool has_minmax = false;
    SqlValue min;
    SqlValue max;
  };

  const Table* table_;
  std::map<std::string, const ml::Model*> models_;
  const core::Guard* guard_;
  core::ErrorPolicy policy_;
  bool pushdown_;
};

class RowOracle::Evaluator {
 public:
  Evaluator(RowOracle* oracle, const Table* table)
      : oracle_(oracle), table_(table) {}

  void BeginRow(RowIndex index) {
    row_index_ = index;
    raw_row_ = table_->GetRow(index);
  }

  void SetAggregateResults(const std::map<const Expr*, SqlValue>* finalized) {
    finalized_ = finalized;
  }

  Result<SqlValue> Eval(const Expr* expr) {
    switch (expr->kind) {
      case ExprKind::kLiteral:
        return expr->literal;
      case ExprKind::kColumnRef: {
        AttrIndex attr = table_->schema().FindAttribute(expr->column);
        if (attr < 0) {
          return Status::NotFound("unknown column '" + expr->column + "'");
        }
        ValueId v = raw_row_[static_cast<size_t>(attr)];
        if (v == kNullValue) return SqlValue::MakeNull();
        return SqlValue::String(table_->schema().attribute(attr).label(v));
      }
      case ExprKind::kUnary: {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue inner, Eval(expr->left.get()));
        if (expr->op == "NOT") {
          if (inner.is_null()) return SqlValue::MakeNull();
          return SqlValue::Boolean(!inner.Truthy());
        }
        double n = 0;
        if (!inner.ToNumber(&n)) return SqlValue::MakeNull();
        return SqlValue::Number(-n);
      }
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kCase:
        for (const auto& [when, then] : expr->when_clauses) {
          GUARDRAIL_ASSIGN_OR_RETURN(SqlValue cond, Eval(when.get()));
          if (cond.Truthy()) return Eval(then.get());
        }
        if (expr->else_clause) return Eval(expr->else_clause.get());
        return SqlValue::MakeNull();
      case ExprKind::kCall:
        return EvalCall(expr);
    }
    return Status::Internal("unknown expression kind");
  }

 private:
  Result<SqlValue> EvalBinary(const Expr* expr) {
    const std::string& op = expr->op;
    if (op == "AND" || op == "OR") {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue left, Eval(expr->left.get()));
      bool l = left.Truthy();
      if (op == "AND" && !l) return SqlValue::Boolean(false);
      if (op == "OR" && l) return SqlValue::Boolean(true);
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right, Eval(expr->right.get()));
      return SqlValue::Boolean(right.Truthy());
    }
    GUARDRAIL_ASSIGN_OR_RETURN(SqlValue left, Eval(expr->left.get()));
    GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right, Eval(expr->right.get()));
    if (op == "=" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      if (left.is_null() || right.is_null()) return SqlValue::MakeNull();
      int cmp = left.Compare(right);
      bool result = false;
      if (op == "=") result = cmp == 0;
      else if (op == "!=") result = cmp != 0;
      else if (op == "<") result = cmp < 0;
      else if (op == "<=") result = cmp <= 0;
      else if (op == ">") result = cmp > 0;
      else result = cmp >= 0;
      return SqlValue::Boolean(result);
    }
    double a = 0, b = 0;
    if (!left.ToNumber(&a) || !right.ToNumber(&b)) return SqlValue::MakeNull();
    if (op == "+") return SqlValue::Number(a + b);
    if (op == "-") return SqlValue::Number(a - b);
    if (op == "*") return SqlValue::Number(a * b);
    if (op == "/") {
      if (b == 0.0) return SqlValue::MakeNull();
      return SqlValue::Number(a / b);
    }
    return Status::Internal("unknown binary operator " + op);
  }

  Result<SqlValue> EvalCall(const Expr* expr) {
    const std::string& name = expr->call_name;
    if (name == "ML_PREDICT") {
      if (expr->args.size() != 1 ||
          expr->args[0]->kind != ExprKind::kLiteral ||
          !expr->args[0]->literal.is_string()) {
        return Status::InvalidArgument(
            "ML_PREDICT expects a single string literal model name");
      }
      const std::string& model_name = expr->args[0]->literal.string();
      auto it = oracle_->models_.find(model_name);
      if (it == oracle_->models_.end()) {
        return Status::NotFound("unregistered model '" + model_name + "'");
      }
      GUARDRAIL_ASSIGN_OR_RETURN(Row input, GuardedRow());
      ValueId label = it->second->Predict(input);
      ++oracle_->stats.predictions_made;
      if (label == kNullValue) return SqlValue::MakeNull();
      return SqlValue::String(table_->schema()
                                  .attribute(it->second->label_column())
                                  .label(label));
    }
    if (finalized_ != nullptr) {
      auto it = finalized_->find(expr);
      if (it != finalized_->end()) return it->second;
    }
    return Status::InvalidArgument("aggregate " + name +
                                   " in a non-aggregated context");
  }

  // The guard hand-off of the original: the 1024-row chunk holding the row
  // is evaluated whole, and the row's verdict read from it.
  Result<Row> GuardedRow() {
    if (oracle_->guard_ == nullptr) return raw_row_;
    auto memo = guarded_.find(row_index_);
    if (memo != guarded_.end()) return memo->second;
    GUARDRAIL_FAILPOINT("sql.guard_row");
    if (guard_ == nullptr) {
      guard_ = std::make_unique<core::GuardExecutor>(*oracle_->guard_,
                                                     oracle_->policy_);
    }
    constexpr int64_t kChunk = 1024;
    if (chunk_begin_ < 0 || row_index_ < chunk_begin_ ||
        row_index_ >= chunk_begin_ + chunk_.num_rows()) {
      chunk_begin_ = row_index_ - (row_index_ % kChunk);
      chunk_ = ColumnBatch::FromTable(
          *table_, chunk_begin_,
          std::min<int64_t>(kChunk, table_->num_rows() - chunk_begin_));
      guard_->Evaluate(chunk_);
    }
    Row row;
    core::GuardVerdict verdict = guard_->Read(row_index_ - chunk_begin_, &row);
    if (!verdict.status.ok()) return verdict.status;
    if (verdict.repaired) ++oracle_->stats.rows_guard_flagged;
    guarded_.emplace(row_index_, row);
    return row;
  }

  RowOracle* oracle_;
  const Table* table_;
  RowIndex row_index_ = 0;
  Row raw_row_;
  std::unique_ptr<core::GuardExecutor> guard_;
  RowIndex chunk_begin_ = -1;
  ColumnBatch chunk_;
  std::map<RowIndex, Row> guarded_;
  const std::map<const Expr*, SqlValue>* finalized_ = nullptr;
};

Status OracleOrderByAndLimit(const SelectStatement& stmt,
                             QueryResult* result) {
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;
    for (const auto& key : stmt.order_by) {
      const Expr* e = key.expr.get();
      size_t column = result->columns.size();
      if (e->kind == ExprKind::kLiteral && e->literal.is_number()) {
        int64_t position = static_cast<int64_t>(e->literal.number());
        if (position < 1 ||
            position > static_cast<int64_t>(result->columns.size())) {
          return Status::OutOfRange("ORDER BY position " +
                                    std::to_string(position));
        }
        column = static_cast<size_t>(position - 1);
      } else {
        std::string wanted =
            e->kind == ExprKind::kColumnRef ? e->column : e->ToString();
        for (size_t i = 0; i < result->columns.size(); ++i) {
          if (result->columns[i] == wanted) {
            column = i;
            break;
          }
        }
        if (column == result->columns.size()) {
          return Status::NotFound("ORDER BY key '" + wanted +
                                  "' matches no output column");
        }
      }
      keys.emplace_back(column, key.descending);
    }
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const std::vector<SqlValue>& a,
                         const std::vector<SqlValue>& b) {
                       for (const auto& [column, descending] : keys) {
                         const SqlValue& va = a[column];
                         const SqlValue& vb = b[column];
                         if (va.is_null() != vb.is_null()) return vb.is_null();
                         if (va.is_null()) continue;
                         int cmp = va.Compare(vb);
                         if (cmp != 0) return descending ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit >= 0 &&
      static_cast<int64_t>(result->rows.size()) > stmt.limit) {
    result->rows.resize(static_cast<size_t>(stmt.limit));
  }
  return Status::OK();
}

Result<QueryResult> RowOracle::Execute(const std::string& sql) {
  GUARDRAIL_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  const Table* table = table_;
  QueryResult result;
  for (const auto& item : stmt.items) {
    result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                : item.alias);
  }
  bool has_aggregates = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    has_aggregates = has_aggregates || ContainsAggregate(item.expr.get());
  }
  FilterPlan filter = PlanFilter(stmt.where.get(), pushdown_);
  Evaluator eval(this, table);
  // Scans row r through the WHERE conjuncts; false when filtered out.
  auto passes = [&](RowIndex r) -> Result<bool> {
    GUARDRAIL_FAILPOINT("sql.scan_row");
    ++stats.rows_scanned;
    eval.BeginRow(r);
    for (const Expr* conjunct : filter.base_conjuncts) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
      if (!v.Truthy()) return false;
    }
    ++stats.rows_after_pushdown;
    for (const Expr* conjunct : filter.ml_conjuncts) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
      if (!v.Truthy()) return false;
    }
    return true;
  };

  if (!has_aggregates) {
    for (RowIndex r = 0; r < table->num_rows(); ++r) {
      GUARDRAIL_ASSIGN_OR_RETURN(bool pass, passes(r));
      if (!pass) continue;
      std::vector<SqlValue> out_row;
      for (const auto& item : stmt.items) {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(item.expr.get()));
        out_row.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out_row));
      if (stmt.order_by.empty() && stmt.limit >= 0 &&
          static_cast<int64_t>(result.rows.size()) >= stmt.limit) {
        break;
      }
    }
    GUARDRAIL_RETURN_NOT_OK(OracleOrderByAndLimit(stmt, &result));
    return result;
  }

  std::vector<const Expr*> agg_nodes;
  for (const auto& item : stmt.items) {
    CollectAggregates(item.expr.get(), &agg_nodes);
  }
  CollectAggregates(stmt.having.get(), &agg_nodes);
  struct Group {
    std::vector<AggState> states;
    RowIndex representative = -1;
  };
  std::map<std::string, Group> groups;
  for (RowIndex r = 0; r < table->num_rows(); ++r) {
    GUARDRAIL_ASSIGN_OR_RETURN(bool pass, passes(r));
    if (!pass) continue;
    std::string key;
    for (const auto& g : stmt.group_by) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(g.get()));
      key += v.ToDisplayString();
      key += '\x1f';
    }
    Group& group = groups[key];
    if (group.representative < 0) {
      group.representative = r;
      group.states.resize(agg_nodes.size());
    }
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      const Expr* agg = agg_nodes[i];
      AggState& state = group.states[i];
      if (agg->star) {
        ++state.count;
        continue;
      }
      if (agg->args.size() != 1) {
        return Status::InvalidArgument(agg->call_name +
                                       " expects one argument");
      }
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(agg->args[0].get()));
      if (v.is_null()) continue;
      ++state.count;
      double n = 0;
      if (v.ToNumber(&n)) state.sum += n;
      if (!state.has_minmax) {
        state.min = v;
        state.max = v;
        state.has_minmax = true;
      } else {
        if (v.Compare(state.min) < 0) state.min = v;
        if (v.Compare(state.max) > 0) state.max = v;
      }
    }
  }
  for (auto& [key, group] : groups) {
    std::map<const Expr*, SqlValue> finalized;
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      const Expr* agg = agg_nodes[i];
      const AggState& state = group.states[i];
      SqlValue v;
      if (agg->call_name == "COUNT") {
        v = SqlValue::Number(static_cast<double>(state.count));
      } else if (agg->call_name == "SUM") {
        v = state.count > 0 ? SqlValue::Number(state.sum)
                            : SqlValue::MakeNull();
      } else if (agg->call_name == "AVG") {
        v = state.count > 0
                ? SqlValue::Number(state.sum / static_cast<double>(state.count))
                : SqlValue::MakeNull();
      } else if (agg->call_name == "MIN") {
        v = state.has_minmax ? state.min : SqlValue::MakeNull();
      } else {
        v = state.has_minmax ? state.max : SqlValue::MakeNull();
      }
      finalized.emplace(agg, std::move(v));
    }
    eval.BeginRow(group.representative);
    eval.SetAggregateResults(&finalized);
    if (stmt.having != nullptr) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue keep, eval.Eval(stmt.having.get()));
      if (!keep.Truthy()) {
        eval.SetAggregateResults(nullptr);
        continue;
      }
    }
    std::vector<SqlValue> out_row;
    for (const auto& item : stmt.items) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(item.expr.get()));
      out_row.push_back(std::move(v));
    }
    eval.SetAggregateResults(nullptr);
    result.rows.push_back(std::move(out_row));
  }
  GUARDRAIL_RETURN_NOT_OK(OracleOrderByAndLimit(stmt, &result));
  return result;
}

// -------------------------------------------------- differential checks --

const char* const kGuardCounters[] = {"guard.rows_checked",
                                      "guard.rows_raised",
                                      "guard.rows_coerced",
                                      "guard.rows_rectified"};

std::vector<int64_t> GuardCounters() {
  std::vector<int64_t> out;
  for (const char* name : kGuardCounters) {
    out.push_back(telemetry::MetricsRegistry::Instance().CounterValue(name));
  }
  return out;
}

std::vector<int64_t> Delta(const std::vector<int64_t>& after,
                           const std::vector<int64_t>& before) {
  std::vector<int64_t> out(after.size());
  for (size_t i = 0; i < after.size(); ++i) out[i] = after[i] - before[i];
  return out;
}

// Runs `sql` through the executor and the oracle with the same table,
// models and guard, and checks the executor against the oracle: the same
// result text, scan counters, guard.* counter deltas and flagged rows, and
// no more predictions; or the same error text.
void ExpectMatchesOracle(const std::string& sql, const Table& table,
                         const std::map<std::string, const ml::Model*>& models,
                         const core::Guard* guard, core::ErrorPolicy policy,
                         bool pushdown) {
  SCOPED_TRACE(sql + " [policy " + core::ErrorPolicyName(policy) +
               (guard == nullptr ? ", no guard" : "") +
               (pushdown ? "" : ", no pushdown") + "]");
  Executor::Options options;
  options.enable_predicate_pushdown = pushdown;
  Executor executor(options);
  executor.RegisterTable("t", &table);
  for (const auto& [name, model] : models) executor.RegisterModel(name, model);
  executor.SetGuard(guard, policy);
  RowOracle oracle(&table, models, guard, policy, pushdown);

  const std::vector<int64_t> before = GuardCounters();
  Result<QueryResult> expected = oracle.Execute(sql);
  const std::vector<int64_t> oracle_delta = Delta(GuardCounters(), before);
  const std::vector<int64_t> middle = GuardCounters();
  Result<QueryResult> actual = executor.Execute(sql);
  const std::vector<int64_t> executor_delta = Delta(GuardCounters(), middle);

  if (!expected.ok()) {
    ASSERT_FALSE(actual.ok()) << actual->ToString();
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
    return;
  }
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->ToString(), expected->ToString());
  const ExecStats& stats = executor.stats();
  EXPECT_EQ(stats.rows_scanned, oracle.stats.rows_scanned);
  EXPECT_EQ(stats.rows_after_pushdown, oracle.stats.rows_after_pushdown);
  EXPECT_EQ(stats.rows_guard_flagged, oracle.stats.rows_guard_flagged);
  EXPECT_LE(stats.predictions_made, oracle.stats.predictions_made);
  EXPECT_EQ(executor_delta, oracle_delta);
}

const core::ErrorPolicy kPolicies[] = {
    core::ErrorPolicy::kRaise, core::ErrorPolicy::kIgnore,
    core::ErrorPolicy::kCoerce, core::ErrorPolicy::kRectify};

// The paper's Table 6 workload: the four generated queries per dataset over
// each dirty test split, guarded by the dataset's synthesized program under
// every policy.
TEST(ExecutorOracleTest, WorkloadQueriesMatchOracleOnAllDatasets) {
  telemetry::EnableMetrics(true);
  for (int id = 1; id <= 12; ++id) {
    exp::ExperimentConfig config;
    config.row_limit = 2600;
    config.restrict_errors_to_constrained = true;
    auto prepared = exp::PrepareDataset(id, config);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    const exp::PreparedDataset& p = **prepared;
    ASSERT_NE(p.model, nullptr);
    core::Guard guard(&p.synthesis.program);
    const std::map<std::string, const ml::Model*> models = {
        {"m", p.model.get()}};
    for (const auto& query : exp::GenerateWorkload(p.bundle, "t", "m")) {
      for (core::ErrorPolicy policy : kPolicies) {
        ExpectMatchesOracle(query.sql, p.test_dirty, models, &guard, policy,
                            /*pushdown=*/true);
      }
    }
  }
  telemetry::ResetAllForTest();
}

// A table built to stress the per-code paths: numeric-looking labels that
// compare numerically ('1' = '1.0'), a non-numeric label among them, NULL
// cells, and labels the models never saw in training (out-of-vocabulary
// codes they hash-bucket).
struct RandomQueryFixture {
  Table table;
  std::unique_ptr<ml::Model> ensemble;
  std::unique_ptr<ml::Model> tree;
  core::Program program;

  explicit RandomQueryFixture(uint64_t seed) {
    Schema schema({Attribute("a"), Attribute("b"), Attribute("c"),
                   Attribute("y")});
    table = Table(std::move(schema));
    Rng rng(seed);
    const char* a_labels[] = {"1", "1.0", "2", "10", "abc", "3"};
    const char* b_labels[] = {"x", "y", "z"};
    const char* c_labels[] = {"0", "1", "2.5", "-1", "1.0"};
    auto pick = [&](uint64_t n) {
      return static_cast<size_t>(rng.NextUint64(n));
    };
    auto append = [&](int64_t rows, bool unseen) {
      for (int64_t r = 0; r < rows; ++r) {
        std::string a = a_labels[pick(unseen ? 6 : 5)];
        std::string b = b_labels[pick(unseen ? 3 : 2)];
        std::string c = c_labels[pick(5)];
        // y follows b (with noise) so the models learn something.
        std::string y = (b == "x") != (pick(10) == 0) ? "yes" : "no";
        table.AppendRowLabels({a, b, c, y});
      }
    };
    append(900, /*unseen=*/false);
    ml::AutoMlTrainer automl;
    auto trained = automl.Train(table, 3);
    GUARDRAIL_CHECK(trained.ok());
    ensemble = std::move(*trained);
    ml::DecisionTreeTrainer dt;
    auto tree_model = dt.Train(table, 3);
    GUARDRAIL_CHECK(tree_model.ok());
    tree = std::move(*tree_model);
    append(1700, /*unseen=*/true);  // 2600 rows: a short final block.
    for (RowIndex r = 0; r < table.num_rows(); ++r) {
      if (pick(13) == 0) table.Set(r, static_cast<AttrIndex>(pick(3)),
                                   kNullValue);
    }
    // IF b = 'x' THEN a <- '1'; IF a = '2' THEN c <- '0'.
    const Schema& s = table.schema();
    core::Statement first;
    first.determinants = {1};
    first.dependent = 0;
    core::Branch bx;
    bx.condition.equalities = {{1, s.attribute(1).Lookup("x")}};
    bx.target = 0;
    bx.assignment = s.attribute(0).Lookup("1");
    bx.support = 10;
    first.branches = {bx};
    core::Statement second;
    second.determinants = {0};
    second.dependent = 2;
    core::Branch a2;
    a2.condition.equalities = {{0, s.attribute(0).Lookup("2")}};
    a2.target = 2;
    a2.assignment = s.attribute(2).Lookup("0");
    a2.support = 10;
    second.branches = {a2};
    program.statements = {first, second};
  }
};

std::string RandomQuery(Rng* rng) {
  auto pick = [&](const std::vector<std::string>& options) {
    return options[static_cast<size_t>(
        rng->NextUint64(options.size()))];
  };
  const std::vector<std::string> base = {
      "a = '1'", "a > 1", "b != 'y'", "c = '1.0'", "NOT b = 'x'",
      "a = c", "a + c > 2", "(a = '10' OR c < 0)", "y = 'yes'"};
  const std::vector<std::string> model = {
      "ML_PREDICT('m') = 'yes'", "ML_PREDICT('m') = y",
      "ML_PREDICT('t') != 'no'",
      "CASE WHEN b = 'x' THEN ML_PREDICT('m') ELSE 'no' END = 'yes'",
      "(b = 'y' AND ML_PREDICT('t') = 'yes')"};
  std::string where;
  const int conjuncts = static_cast<int>(rng->NextUint64(3));
  for (int i = 0; i < conjuncts; ++i) {
    where += i == 0 ? " WHERE " : " AND ";
    where += rng->NextUint64(2) == 0 ? pick(base) : pick(model);
  }
  if (rng->NextUint64(2) == 0) {
    const std::vector<std::string> items = {
        "a", "b", "c", "ML_PREDICT('m')", "a + c", "a * 2 - c",
        "CASE WHEN a = '1' THEN ML_PREDICT('t') ELSE b END",
        "CASE WHEN c > 0 THEN 'pos' WHEN c < 0 THEN 'neg' END", "-a",
        "CASE WHEN b = 'x' THEN ML_PREDICT('m') ELSE ML_PREDICT('t') END"};
    std::string sql = "SELECT " + pick(items) + ", " + pick(items) +
                      " FROM t" + where;
    if (rng->NextUint64(2) == 0) sql += " ORDER BY 1 DESC, 2";
    if (rng->NextUint64(2) == 0) {
      sql += " LIMIT " + std::to_string(rng->NextUint64(40));
    }
    return sql;
  }
  const std::vector<std::string> keys = {
      "b", "a", "ML_PREDICT('m')", "a + c",
      "CASE WHEN b = 'z' THEN ML_PREDICT('t') ELSE 'none' END"};
  const std::vector<std::string> aggregates = {
      "COUNT(*)", "COUNT(a)", "SUM(a)", "AVG(a + c)", "MIN(a)", "MAX(a)",
      "MIN(c)", "MAX(b)", "MIN(a + c)",
      "SUM(CASE WHEN ML_PREDICT('m') = 'yes' THEN 1 ELSE 0 END)",
      "MAX(CASE WHEN b = 'x' THEN ML_PREDICT('t') END)",
      "AVG(CASE WHEN a = '1' THEN 1 ELSE 0 END)"};
  std::string sql = "SELECT ";
  std::string group_by;
  const int key_count = static_cast<int>(rng->NextUint64(3));
  for (int i = 0; i < key_count; ++i) {
    const std::string key = pick(keys);
    sql += key + ", ";
    group_by += (i == 0 ? " GROUP BY " : ", ") + key;
  }
  sql += pick(aggregates) + ", " + pick(aggregates);
  if (rng->NextUint64(3) == 0) sql += ", ML_PREDICT('m')";
  sql += " FROM t" + where + group_by;
  if (key_count > 0 && rng->NextUint64(2) == 0) {
    sql += " HAVING " + pick({std::string("COUNT(*) > 40"),
                              std::string("SUM(a) >= 10"),
                              std::string("MIN(c) < 1")});
  }
  if (rng->NextUint64(2) == 0) sql += " ORDER BY 1";
  if (rng->NextUint64(3) == 0) {
    sql += " LIMIT " + std::to_string(rng->NextUint64(5));
  }
  return sql;
}

TEST(ExecutorOracleTest, RandomQueriesMatchOracle) {
  telemetry::EnableMetrics(true);
  RandomQueryFixture fixture(/*seed=*/29);
  core::Guard guard(&fixture.program);
  const std::map<std::string, const ml::Model*> models = {
      {"m", fixture.ensemble.get()}, {"t", fixture.tree.get()}};
  Rng rng(/*seed=*/20251018);
  for (int q = 0; q < 60; ++q) {
    const std::string sql = RandomQuery(&rng);
    const bool pushdown = rng.NextUint64(4) != 0;
    ExpectMatchesOracle(sql, fixture.table, models, nullptr,
                        core::ErrorPolicy::kIgnore, pushdown);
    for (core::ErrorPolicy policy : kPolicies) {
      ExpectMatchesOracle(sql, fixture.table, models, &guard, policy,
                          pushdown);
    }
  }
  telemetry::ResetAllForTest();
}

// Group keys over several sources have a class bound per table row, so two
// of them make a key space past the dense array and the groups hash their
// class vectors; one such key with a coded one stays dense.
TEST(ExecutorOracleTest, WideGroupKeysMatchOracle) {
  telemetry::EnableMetrics(true);
  RandomQueryFixture fixture(/*seed=*/41);
  core::Guard guard(&fixture.program);
  const std::map<std::string, const ml::Model*> models = {
      {"m", fixture.ensemble.get()}, {"t", fixture.tree.get()}};
  for (const char* sql :
       {"SELECT a + c, a * c, COUNT(*), MIN(c), MAX(a) FROM t "
        "GROUP BY a + c, a * c",
        "SELECT a + c, a * c, b, SUM(a), ML_PREDICT('m') FROM t "
        "WHERE ML_PREDICT('t') = 'yes' GROUP BY a + c, a * c, b "
        "HAVING COUNT(*) > 2 ORDER BY 4 DESC",
        "SELECT b, a - c, AVG(c) FROM t GROUP BY b, a - c"}) {
    for (core::ErrorPolicy policy : kPolicies) {
      ExpectMatchesOracle(sql, fixture.table, models, &guard, policy,
                          /*pushdown=*/true);
    }
  }
  telemetry::ResetAllForTest();
}

// Compare is a total order over mixed numeric and text values, so ORDER BY
// (a std::stable_sort comparator) and MIN / MAX give one answer whatever
// order the rows arrive in. Numbers sort before text: 9 < 10 < '5a'.
TEST(ExecutorOracleTest, MixedColumnOrderIsRowOrderIndependent) {
  const std::vector<std::string> labels = {"10", "9", "5a", "null"};
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"SELECT v FROM t ORDER BY 1", "9|10|5a|NULL|"},
      {"SELECT v FROM t ORDER BY 1 DESC", "5a|10|9|NULL|"},
      {"SELECT MIN(v), MAX(v) FROM t", "9,5a|"}};
  std::vector<size_t> order = {0, 1, 2, 3};
  do {
    Table table(Schema({Attribute("v")}));
    for (size_t i : order) {
      table.AppendRowLabels({labels[i]});
      if (labels[i] == "null") table.Set(table.num_rows() - 1, 0, kNullValue);
    }
    for (const auto& [sql, expected] : queries) {
      Executor executor;
      executor.RegisterTable("t", &table);
      auto result = executor.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::string rows;
      for (const auto& row : result->rows) {
        for (size_t c = 0; c < row.size(); ++c) {
          rows += (c > 0 ? "," : "") + row[c].ToDisplayString();
        }
        rows += "|";
      }
      EXPECT_EQ(rows, expected) << sql;
      ExpectMatchesOracle(sql, table, {}, nullptr, core::ErrorPolicy::kIgnore,
                          /*pushdown=*/true);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// "sql.scan_row" trips once per row the scan reaches, in row order: a LIMIT
// scan that stops early draws no more trips than row-at-a-time scanning,
// and every seed gives the oracle's result or error.
TEST(ExecutorOracleTest, ScanRowFailpointTripsOnlyScannedRows) {
  RandomQueryFixture fixture(/*seed=*/7);
  core::Guard guard(&fixture.program);
  const std::map<std::string, const ml::Model*> models = {
      {"m", fixture.ensemble.get()}};
  Executor executor;
  executor.RegisterTable("t", &fixture.table);
  executor.RegisterModel("m", fixture.ensemble.get());
  executor.SetGuard(&guard, core::ErrorPolicy::kRectify);
  RowOracle oracle(&fixture.table, models, &guard,
                   core::ErrorPolicy::kRectify, /*pushdown=*/true);
  auto& registry = FailpointRegistry::Instance();
  registry.DisarmAll();
  int clean = 0;
  for (const char* sql :
       {"SELECT a, b FROM t WHERE b = 'x' LIMIT 7",
        "SELECT a, ML_PREDICT('m') FROM t WHERE ML_PREDICT('m') = 'yes' "
        "LIMIT 30",
        "SELECT b, COUNT(*) FROM t GROUP BY b"}) {
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE(std::string(sql) + " [seed " + std::to_string(seed) + "]");
      registry.Arm("sql.scan_row", 0.002, StatusCode::kIoError, seed);
      const int64_t before = registry.trips_fired();
      Result<QueryResult> expected = oracle.Execute(sql);
      const int64_t oracle_trips = registry.trips_fired() - before;
      registry.Arm("sql.scan_row", 0.002, StatusCode::kIoError, seed);
      const int64_t middle = registry.trips_fired();
      Result<QueryResult> actual = executor.Execute(sql);
      EXPECT_EQ(registry.trips_fired() - middle, oracle_trips);
      EXPECT_EQ(actual.ok(), expected.ok());
      if (actual.ok() != expected.ok()) continue;
      if (expected.ok()) {
        EXPECT_EQ(actual->ToString(), expected->ToString());
        ++clean;
      } else {
        EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
      }
      EXPECT_EQ(executor.stats().rows_scanned, oracle.stats.rows_scanned);
    }
  }
  registry.DisarmAll();
  // The LIMIT scans mostly stop before any trip at this rate.
  EXPECT_GT(clean, 30);
}

// Both timing counters come from the same per-block measurement as their
// ExecStats fields: per query they differ by less than the microsecond the
// counter truncates.
TEST(ExecutorOracleTest, TimingCountersMatchExecStats) {
  telemetry::ResetAllForTest();
  telemetry::EnableMetrics(true);
  RandomQueryFixture fixture(/*seed=*/5);
  Table big = fixture.table;
  for (int copy = 0; copy < 4; ++copy) {  // 13,000 rows.
    for (RowIndex r = 0; r < fixture.table.num_rows(); ++r) {
      ASSERT_TRUE(big.AppendRow(fixture.table.GetRow(r)).ok());
    }
  }
  core::Guard guard(&fixture.program);
  Executor executor;
  executor.RegisterTable("t", &big);
  executor.RegisterModel("m", fixture.ensemble.get());
  executor.SetGuard(&guard, core::ErrorPolicy::kRectify);
  const auto& registry = telemetry::MetricsRegistry::Instance();
  const int kQueries = 3;
  for (int q = 0; q < kQueries; ++q) {
    auto result = executor.Execute(
        "SELECT ML_PREDICT('m'), COUNT(*) FROM t GROUP BY ML_PREDICT('m')");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const ExecStats& stats = executor.stats();
  EXPECT_GE(stats.predictions_made, 10000 * kQueries);
  const double guard_s =
      static_cast<double>(registry.CounterValue("sql.guard_micros")) / 1e6;
  const double inference_s =
      static_cast<double>(registry.CounterValue("sql.inference_micros")) /
      1e6;
  EXPECT_GT(stats.inference_seconds, 0.0);
  EXPECT_NEAR(guard_s, stats.guard_seconds, kQueries * 1e-6);
  EXPECT_NEAR(inference_s, stats.inference_seconds, kQueries * 1e-6);
  telemetry::ResetAllForTest();
}

}  // namespace
}  // namespace sql
}  // namespace guardrail
