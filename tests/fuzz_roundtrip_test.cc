// Randomized round-trip properties: hundreds of generated DSL programs and
// SQL expressions must survive print -> parse -> print unchanged, and the
// interpreter must agree before and after the trip. Complements the
// hand-written parser tests with breadth.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/interpreter.h"
#include "core/parser.h"
#include "core/printer.h"
#include "sql/parser.h"

namespace guardrail {
namespace {

// ----------------------------------------------------- DSL program fuzzing --

Schema MakeFuzzSchema(Rng* rng, int32_t num_attrs, int32_t max_card) {
  Schema schema;
  for (int32_t a = 0; a < num_attrs; ++a) {
    Attribute attr("attr" + std::to_string(a));
    int32_t card = 2 + static_cast<int32_t>(rng->NextUint64(
                            static_cast<uint64_t>(max_card - 1)));
    for (int32_t v = 0; v < card; ++v) {
      // Exercise quoting: some labels carry spaces, quotes, backslashes.
      std::string label = "v" + std::to_string(v);
      if (v % 5 == 1) label += " with space";
      if (v % 7 == 2) label += "'quote";
      if (v % 11 == 3) label += "\\slash";
      attr.GetOrInsert(label);
    }
    GUARDRAIL_CHECK_OK(schema.AddAttribute(std::move(attr)));
  }
  return schema;
}

core::Program MakeFuzzProgram(const Schema& schema, Rng* rng) {
  core::Program program;
  int32_t num_statements = 1 + static_cast<int32_t>(rng->NextUint64(3));
  for (int32_t s = 0; s < num_statements; ++s) {
    core::Statement stmt;
    stmt.dependent = static_cast<AttrIndex>(
        rng->NextUint64(static_cast<uint64_t>(schema.num_attributes())));
    // 1-2 determinants distinct from the dependent.
    std::vector<AttrIndex> pool;
    for (AttrIndex a = 0; a < schema.num_attributes(); ++a) {
      if (a != stmt.dependent) pool.push_back(a);
    }
    rng->Shuffle(&pool);
    size_t num_det = 1 + rng->NextUint64(2) % 2;
    stmt.determinants.assign(pool.begin(),
                             pool.begin() + std::min(num_det, pool.size()));
    std::sort(stmt.determinants.begin(), stmt.determinants.end());

    int32_t num_branches = 1 + static_cast<int32_t>(rng->NextUint64(4));
    for (int32_t b = 0; b < num_branches; ++b) {
      core::Branch branch;
      branch.target = stmt.dependent;
      branch.assignment = static_cast<ValueId>(rng->NextUint64(
          static_cast<uint64_t>(schema.attribute(stmt.dependent).domain_size())));
      for (AttrIndex det : stmt.determinants) {
        branch.condition.equalities.emplace_back(
            det, static_cast<ValueId>(rng->NextUint64(static_cast<uint64_t>(
                     schema.attribute(det).domain_size()))));
      }
      std::sort(branch.condition.equalities.begin(),
                branch.condition.equalities.end());
      stmt.branches.push_back(std::move(branch));
    }
    program.statements.push_back(std::move(stmt));
  }
  return program;
}

TEST(FuzzDslRoundTrip, HundredsOfRandomProgramsSurvive) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 300; ++trial) {
    Schema schema = MakeFuzzSchema(&rng, 3 + static_cast<int32_t>(rng.NextUint64(4)), 6);
    core::Program program = MakeFuzzProgram(schema, &rng);
    ASSERT_TRUE(core::ValidateProgram(program, schema).ok()) << trial;

    std::string text = core::ToDsl(program, schema);
    Schema mutable_schema = schema;
    auto reparsed = core::ParseProgram(text, &mutable_schema);
    ASSERT_TRUE(reparsed.ok())
        << "trial " << trial << ": " << reparsed.status().ToString()
        << "\n" << text;
    EXPECT_TRUE(*reparsed == program) << "trial " << trial << "\n" << text;
    // Second trip is byte-identical.
    EXPECT_EQ(core::ToDsl(*reparsed, mutable_schema), text) << trial;
  }
}

TEST(FuzzDslRoundTrip, InterpreterAgreesAfterTrip) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 100; ++trial) {
    Schema schema = MakeFuzzSchema(&rng, 4, 4);
    core::Program program = MakeFuzzProgram(schema, &rng);
    std::string text = core::ToDsl(program, schema);
    Schema mutable_schema = schema;
    auto reparsed = core::ParseProgram(text, &mutable_schema);
    ASSERT_TRUE(reparsed.ok()) << trial;
    core::Interpreter before(&program);
    core::Interpreter after(&*reparsed);
    for (int probe = 0; probe < 30; ++probe) {
      Row row;
      for (AttrIndex a = 0; a < schema.num_attributes(); ++a) {
        row.push_back(static_cast<ValueId>(rng.NextUint64(
            static_cast<uint64_t>(schema.attribute(a).domain_size()))));
      }
      EXPECT_EQ(before.Execute(row), after.Execute(row)) << trial;
      EXPECT_EQ(before.Satisfies(row), after.Satisfies(row)) << trial;
    }
  }
}

// ------------------------------------------------- SQL expression fuzzing --

sql::ExprPtr MakeFuzzExpr(Rng* rng, int depth) {
  auto leaf = [&]() {
    auto e = std::make_unique<sql::Expr>();
    switch (rng->NextUint64(4)) {
      case 0:
        e->kind = sql::ExprKind::kLiteral;
        e->literal = sql::SqlValue::Number(
            static_cast<double>(rng->NextInt(-50, 50)));
        break;
      case 1:
        e->kind = sql::ExprKind::kLiteral;
        e->literal = sql::SqlValue::String(
            "s" + std::to_string(rng->NextUint64(100)));
        break;
      case 2:
        e->kind = sql::ExprKind::kLiteral;
        e->literal = sql::SqlValue::Boolean(rng->NextBernoulli(0.5));
        break;
      default:
        e->kind = sql::ExprKind::kColumnRef;
        e->column = "col" + std::to_string(rng->NextUint64(6));
    }
    return e;
  };
  if (depth <= 0 || rng->NextBernoulli(0.3)) return leaf();
  switch (rng->NextUint64(4)) {
    case 0: {  // Binary.
      static const char* kOps[] = {"+", "-", "*", "/", "=", "!=", "<",
                                   "<=", ">", ">=", "AND", "OR"};
      auto e = std::make_unique<sql::Expr>();
      e->kind = sql::ExprKind::kBinary;
      e->op = kOps[rng->NextUint64(12)];
      e->left = MakeFuzzExpr(rng, depth - 1);
      e->right = MakeFuzzExpr(rng, depth - 1);
      return e;
    }
    case 1: {  // Unary NOT.
      auto e = std::make_unique<sql::Expr>();
      e->kind = sql::ExprKind::kUnary;
      e->op = "NOT";
      e->left = MakeFuzzExpr(rng, depth - 1);
      return e;
    }
    case 2: {  // CASE WHEN.
      auto e = std::make_unique<sql::Expr>();
      e->kind = sql::ExprKind::kCase;
      int clauses = 1 + static_cast<int>(rng->NextUint64(2));
      for (int i = 0; i < clauses; ++i) {
        e->when_clauses.emplace_back(MakeFuzzExpr(rng, depth - 1),
                                     MakeFuzzExpr(rng, depth - 1));
      }
      if (rng->NextBernoulli(0.7)) {
        e->else_clause = MakeFuzzExpr(rng, depth - 1);
      }
      return e;
    }
    default: {  // Aggregate call.
      static const char* kAggs[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
      auto e = std::make_unique<sql::Expr>();
      e->kind = sql::ExprKind::kCall;
      e->call_name = kAggs[rng->NextUint64(5)];
      if (e->call_name == "COUNT" && rng->NextBernoulli(0.4)) {
        e->star = true;
      } else {
        e->args.push_back(MakeFuzzExpr(rng, depth - 1));
      }
      return e;
    }
  }
}

TEST(FuzzSqlRoundTrip, ExpressionsSurviveUnparseReparse) {
  Rng rng(0xF024);
  for (int trial = 0; trial < 400; ++trial) {
    sql::ExprPtr expr = MakeFuzzExpr(&rng, 3);
    std::string text = expr->ToString();
    auto reparsed = sql::ParseExpression(text);
    ASSERT_TRUE(reparsed.ok())
        << "trial " << trial << ": " << reparsed.status().ToString()
        << "\n" << text;
    // The canonical text is a fixpoint.
    EXPECT_EQ((*reparsed)->ToString(), text) << trial;
  }
}

}  // namespace
}  // namespace guardrail
