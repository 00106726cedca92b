// Parity suite for the compiled batch evaluator (core/batch_eval.h): the
// compiled path must be byte-identical to the per-row interpreter — same
// verdicts, same violation lists, same repairs, same GuardOutcome counters —
// across all 12 evaluation datasets x 4 error-handling schemes, plus
// randomized fuzz rows (including narrow/malformed rows that must take the
// interpreter fallback), the serve engine against the interpreter oracle,
// and guard.* counters that agree across every consumer of the one
// GuardExecutor.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/batch_eval.h"
#include "core/guard.h"
#include "core/interpreter.h"
#include "exp/pipeline.h"
#include "ml/model.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "sql/executor.h"
#include "table/column_batch.h"
#include "table/dataset_repository.h"
#include "table/error_injector.h"
#include "table/table.h"

namespace guardrail {
namespace {

using core::CompiledProgram;
using core::ErrorPolicy;
using core::Guard;
using core::GuardEvalMode;
using core::GuardOutcome;
using core::Program;
using core::Violation;

const std::vector<ErrorPolicy> kAllPolicies = {
    ErrorPolicy::kRaise, ErrorPolicy::kIgnore, ErrorPolicy::kCoerce,
    ErrorPolicy::kRectify};

void ExpectSameOutcome(const GuardOutcome& scalar, const GuardOutcome& batch,
                       const std::string& label) {
  EXPECT_EQ(scalar.rows_checked, batch.rows_checked) << label;
  EXPECT_EQ(scalar.rows_flagged, batch.rows_flagged) << label;
  EXPECT_EQ(scalar.cells_repaired, batch.cells_repaired) << label;
  EXPECT_EQ(scalar.rows_failed, batch.rows_failed) << label;
  EXPECT_EQ(scalar.first_error.code(), batch.first_error.code()) << label;
  EXPECT_EQ(scalar.flagged, batch.flagged) << label;
}

void ExpectSameTable(const Table& a, const Table& b, const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
  for (AttrIndex c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column(c), b.column(c)) << label << " column " << c;
  }
}

void ExpectViolationEq(const Violation& want, const Violation& got,
                       const std::string& label) {
  EXPECT_EQ(want.statement_index, got.statement_index) << label;
  EXPECT_EQ(want.branch_index, got.branch_index) << label;
  EXPECT_EQ(want.attribute, got.attribute) << label;
  EXPECT_EQ(want.expected, got.expected) << label;
  EXPECT_EQ(want.actual, got.actual) << label;
}

// The full-pipeline parity check for one dataset: synthesize a program on
// the clean train split, corrupt the test split, then require the compiled
// path to reproduce the interpreter bit for bit on every scheme.
class BatchEvalDatasetTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchEvalDatasetTest, CompiledPathMatchesInterpreter) {
  exp::ExperimentConfig config;
  config.row_limit = 900;
  config.train_model = false;
  config.synthesis.fill.epsilon = 0.05;
  auto prepared = exp::PrepareDataset(GetParam(), config);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const Program& program = (*prepared)->synthesis.program;
  const Table& dirty = (*prepared)->test_dirty;
  Guard guard(&program);

  // Violation lists: CSR rows of EvaluateTable vs Interpreter::Check.
  core::BatchVerdict verdict;
  guard.compiled().EvaluateTable(dirty, 0, dirty.num_rows(), &verdict);
  EXPECT_FALSE(verdict.any_fallback);
  for (RowIndex r = 0; r < dirty.num_rows(); ++r) {
    std::vector<Violation> want = guard.interpreter().Check(dirty.GetRow(r));
    std::string label = "dataset " + std::to_string(GetParam()) + " row " +
                        std::to_string(r);
    ASSERT_EQ(static_cast<int64_t>(want.size()), verdict.ViolationCount(r))
        << label;
    EXPECT_EQ(!want.empty(), rowmask::Test(verdict.violated, r)) << label;
    const Violation* got = verdict.ViolationsBegin(r);
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectViolationEq(want[i], got[i], label);
    }
  }

  // Detection flags.
  EXPECT_EQ(guard.DetectViolations(dirty, GuardEvalMode::kInterpreter),
            guard.DetectViolations(dirty, GuardEvalMode::kCompiled));

  // Whole-table policy application: outcome counters, flags, and the
  // resulting (possibly repaired) tables.
  for (ErrorPolicy policy : kAllPolicies) {
    Table scalar_table = dirty;
    Table batch_table = dirty;
    GuardOutcome scalar =
        guard.ProcessTable(&scalar_table, policy, GuardEvalMode::kInterpreter);
    GuardOutcome batch =
        guard.ProcessTable(&batch_table, policy, GuardEvalMode::kCompiled);
    std::string label = "dataset " + std::to_string(GetParam()) + " policy " +
                        core::ErrorPolicyName(policy);
    ExpectSameOutcome(scalar, batch, label);
    ExpectSameTable(scalar_table, batch_table, label);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, BatchEvalDatasetTest,
                         ::testing::Range(1, 13));

// GIVEN 0 ON 1 with two full-arity branches — the dispatch-form shape.
Program MakeFdProgram() {
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  for (int i = 0; i < 2; ++i) {
    core::Branch b;
    b.condition.equalities = {{0, i}};
    b.target = 1;
    b.assignment = i;
    b.support = 10 + i;
    b.tolerated_values = {i};
    stmt.branches.push_back(b);
  }
  Program program;
  program.statements.push_back(stmt);
  return program;
}

TEST(BatchEvalTest, FdProgramCompilesToDispatchForm) {
  Program program = MakeFdProgram();
  CompiledProgram compiled = CompiledProgram::Compile(program);
  EXPECT_EQ(compiled.dispatch_statements(), 1);
  EXPECT_EQ(compiled.min_row_width(), 2u);
  EXPECT_EQ(compiled.referenced_attributes(), std::vector<AttrIndex>({0, 1}));
}

// An IF TRUE (empty condition) branch cannot use a dispatch table; the mask
// form must still agree with the interpreter, including first-match-wins
// against a later full-arity branch.
TEST(BatchEvalTest, EmptyConditionBranchTakesMaskFormAndMatches) {
  Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch if_true;  // IF TRUE THEN 1 <- 7
  if_true.target = 1;
  if_true.assignment = 7;
  core::Branch narrow;  // Never reached: IF TRUE above always fires first.
  narrow.condition.equalities = {{0, 3}};
  narrow.target = 1;
  narrow.assignment = 3;
  stmt.branches = {if_true, narrow};
  program.statements.push_back(stmt);

  CompiledProgram compiled = CompiledProgram::Compile(program);
  EXPECT_EQ(compiled.dispatch_statements(), 0);

  core::Interpreter interpreter(&program);
  std::vector<Row> rows = {{3, 3}, {3, 7}, {0, 7}, {kNullValue, 0}};
  core::BatchVerdict verdict;
  compiled.EvaluateRows(rows, 0, rows.size(), &verdict);
  EXPECT_FALSE(verdict.any_fallback);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<Violation> want = interpreter.Check(rows[r]);
    ASSERT_EQ(static_cast<int64_t>(want.size()),
              verdict.ViolationCount(static_cast<int64_t>(r)));
    const Violation* got = verdict.ViolationsBegin(static_cast<int64_t>(r));
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectViolationEq(want[i], got[i], "mask row " + std::to_string(r));
    }
  }
}

// Randomized fuzz: programs with several statements over a handful of
// attributes, rows with random codes (including kNullValue and codes far
// outside any literal's range), and randomly truncated narrow rows, which
// must be routed to the fallback mask and rejected by CheckedCheck exactly
// as the scalar path would.
TEST(BatchEvalTest, FuzzRowsMatchInterpreterAndNarrowRowsFallBack) {
  Rng rng(0xBA7C4E5A);
  for (int iter = 0; iter < 40; ++iter) {
    const int width = 3 + static_cast<int>(rng.NextUint64(4));  // 3..6
    Program program;
    const int num_statements = 1 + static_cast<int>(rng.NextUint64(3));
    for (int s = 0; s < num_statements; ++s) {
      core::Statement stmt;
      stmt.dependent = static_cast<AttrIndex>(rng.NextUint64(
          static_cast<uint64_t>(width)));
      AttrIndex det = static_cast<AttrIndex>(
          rng.NextUint64(static_cast<uint64_t>(width)));
      if (det == stmt.dependent) det = (det + 1) % width;
      stmt.determinants = {det};
      const int num_branches = 1 + static_cast<int>(rng.NextUint64(4));
      for (int b = 0; b < num_branches; ++b) {
        core::Branch branch;
        branch.target = stmt.dependent;
        branch.assignment = static_cast<ValueId>(rng.NextUint64(5));
        if (rng.NextBernoulli(0.15)) {
          // Occasional IF TRUE branch to exercise the mask form.
        } else {
          branch.condition.equalities = {
              {det, static_cast<ValueId>(rng.NextUint64(6)) - 1}};
        }
        branch.support = static_cast<int64_t>(rng.NextUint64(50));
        stmt.branches.push_back(branch);
      }
      program.statements.push_back(stmt);
    }

    core::Interpreter interpreter(&program);
    CompiledProgram compiled = CompiledProgram::Compile(program);
    ASSERT_EQ(compiled.min_row_width(), interpreter.MinRowWidth());

    std::vector<Row> rows;
    for (int r = 0; r < 200; ++r) {
      size_t row_width = static_cast<size_t>(width);
      if (rng.NextBernoulli(0.1)) {
        row_width = rng.NextUint64(static_cast<uint64_t>(width));  // Narrow.
      }
      Row row(row_width);
      for (size_t c = 0; c < row_width; ++c) {
        // Codes -1..4, plus rare far-out-of-range codes.
        row[c] = rng.NextBernoulli(0.05)
                     ? static_cast<ValueId>(1 << 30)
                     : static_cast<ValueId>(rng.NextUint64(6)) - 1;
      }
      rows.push_back(std::move(row));
    }

    core::BatchVerdict verdict;
    compiled.EvaluateRows(rows, 0, rows.size(), &verdict);
    for (size_t r = 0; r < rows.size(); ++r) {
      const int64_t row = static_cast<int64_t>(r);
      const bool narrow = rows[r].size() < interpreter.MinRowWidth();
      ASSERT_EQ(narrow, rowmask::Test(verdict.fallback, row))
          << "iter " << iter << " row " << r;
      if (narrow) {
        // The scalar fallback rejects what the compiled path skipped.
        EXPECT_FALSE(interpreter.CheckedCheck(rows[r]).ok());
        EXPECT_FALSE(rowmask::Test(verdict.violated, row));
        EXPECT_EQ(verdict.ViolationCount(row), 0);
        continue;
      }
      std::vector<Violation> want = interpreter.Check(rows[r]);
      ASSERT_EQ(static_cast<int64_t>(want.size()), verdict.ViolationCount(row))
          << "iter " << iter << " row " << r;
      EXPECT_EQ(!want.empty(), rowmask::Test(verdict.violated, row));
      const Violation* got = verdict.ViolationsBegin(row);
      for (size_t i = 0; i < want.size(); ++i) {
        ExpectViolationEq(want[i], got[i],
                          "iter " + std::to_string(iter) + " row " +
                              std::to_string(r));
      }
    }
  }
}

// A program referencing attributes past the table's width must push every
// table-level call back to the scalar interpreter (same rows_failed, same
// first error), under every mode.
TEST(BatchEvalTest, NarrowTableFallsBackToInterpreter) {
  Program program = MakeFdProgram();
  program.statements[0].dependent = 5;
  for (auto& branch : program.statements[0].branches) branch.target = 5;
  Guard guard(&program);

  Attribute a("a");
  a.GetOrInsert("x");
  Table table{Schema({a})};
  ASSERT_TRUE(table.AppendRow({0}).ok());
  ASSERT_TRUE(table.AppendRow({0}).ok());

  for (ErrorPolicy policy : kAllPolicies) {
    Table scalar_table = table;
    Table auto_table = table;
    GuardOutcome scalar =
        guard.ProcessTable(&scalar_table, policy, GuardEvalMode::kInterpreter);
    GuardOutcome batched =
        guard.ProcessTable(&auto_table, policy, GuardEvalMode::kAuto);
    ExpectSameOutcome(scalar, batched,
                      std::string("narrow ") + core::ErrorPolicyName(policy));
    EXPECT_GT(batched.rows_failed, 0);
  }
}

// With the "interpreter.check" chaos failpoint armed, kAuto must run the
// scalar path so each row trips the failpoint exactly as a chaos replay
// expects (the compiled path would skip the per-row trips entirely).
TEST(BatchEvalTest, ArmedInterpreterFailpointForcesScalarPath) {
  Program program = MakeFdProgram();
  Guard guard(&program);
  Attribute det("det");
  det.GetOrInsert("d0");
  det.GetOrInsert("d1");
  Attribute dep("dep");
  dep.GetOrInsert("v0");
  dep.GetOrInsert("v1");
  Table table{Schema({det, dep})};
  ASSERT_TRUE(table.AppendRow({0, 1}).ok());  // Violates: 0 -> 0.
  ASSERT_TRUE(table.AppendRow({1, 1}).ok());

  ScopedFailpoint armed("interpreter.check");
  GuardOutcome outcome = guard.ProcessTable(&table, ErrorPolicy::kIgnore,
                                            GuardEvalMode::kAuto);
  // Every row failed via injection — the batch path would have reported the
  // first row as a violation instead.
  EXPECT_EQ(outcome.rows_failed, 2);
  EXPECT_EQ(outcome.rows_flagged, 0);
}

// Serve engine: the engine's row verdicts, violation counts and repair
// details must equal the interpreter oracle — Interpreter::Check for the
// verdict, Guard::ProcessRow for the repaired row — for every scheme,
// including a batch large enough to take the ParallelFor path.
constexpr int kZips = 20;

// Publishes "demo": zip zi determines city ci, for kZips zips.
void LoadZipProgram(serve::ProgramRegistry* registry) {
  std::string seed_csv = "zip,city\n";
  std::string program_text = "# guardrail-program v1\nGIVEN zip ON city HAVING\n";
  for (int i = 0; i < kZips; ++i) {
    seed_csv += "z" + std::to_string(i) + ",c" + std::to_string(i) + "\n";
    program_text += "  IF zip = 'z" + std::to_string(i) + "' THEN city <- 'c" +
                    std::to_string(i) + "';\n";
  }
  auto doc = ParseCsv(seed_csv);
  ASSERT_TRUE(doc.ok());
  auto seed_table = Table::FromCsv(*doc);
  ASSERT_TRUE(seed_table.ok()) << seed_table.status().ToString();
  auto version =
      registry->LoadFromText("demo", program_text, seed_table->schema());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  ASSERT_NE(registry->Get("demo")->compiled, nullptr);
}

TEST(BatchEvalTest, ServeEngineBatchMatchesScalar) {
  serve::ProgramRegistry registry;
  ASSERT_NO_FATAL_FAILURE(LoadZipProgram(&registry));
  std::shared_ptr<const serve::ProgramSnapshot> snapshot = registry.Get("demo");
  serve::ValidationEngine engine(&registry, serve::EngineOptions());
  Guard oracle(&snapshot->program);

  Rng rng(0x5E12BEEF);
  for (int rows : {64, 3000}) {  // Inline path and ParallelFor path.
    std::string payload = "zip,city\n";
    for (int r = 0; r < rows; ++r) {
      int zip = static_cast<int>(rng.NextUint64(kZips));
      int city = rng.NextBernoulli(0.2)
                     ? static_cast<int>(rng.NextUint64(kZips))
                     : zip;
      // Unseen labels get fresh codes past the compiled program's tables.
      std::string city_label = rng.NextBernoulli(0.05)
                                   ? "fresh" + std::to_string(r)
                                   : "c" + std::to_string(city);
      payload += "z" + std::to_string(zip) + "," + city_label + "\n";
    }
    // Unseen labels extend a copy of the snapshot schema, so the oracle
    // sees the codes the engine's request-local overlay mints.
    Schema schema = snapshot->schema;
    auto decoded = serve::DecodeRows(serve::RowFormat::kCsv, payload,
                                     &schema, 1 << 20);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    for (ErrorPolicy scheme : kAllPolicies) {
      serve::ValidateRequest request;
      request.dataset = "demo";
      request.scheme = scheme;
      request.payload = payload;
      serve::ValidateResponse response = engine.Handle(request);
      ASSERT_EQ(response.code, StatusCode::kOk);
      ASSERT_EQ(response.rows.size(), decoded->size());
      for (size_t r = 0; r < decoded->size(); ++r) {
        const Row& row = (*decoded)[r];
        serve::RowResult want;
        const size_t violations = oracle.interpreter().Check(row).size();
        if (violations > 0) {
          want.verdict = serve::RowVerdict::kViolation;
          want.violations = static_cast<uint16_t>(violations);
        }
        Result<Row> processed = oracle.ProcessRow(row, scheme);
        ASSERT_EQ(processed.ok(),
                  scheme != ErrorPolicy::kRaise || violations == 0);
        if (processed.ok() && !(*processed == row)) {
          std::vector<std::string> fields;
          for (AttrIndex c = 0; c < schema.num_attributes(); ++c) {
            ValueId v = (*processed)[static_cast<size_t>(c)];
            fields.push_back(v == kNullValue ? ""
                                             : schema.attribute(c).label(v));
          }
          want.detail = WriteCsvRecord(fields);
        }
        const serve::RowResult& got = response.rows[r];
        EXPECT_TRUE(got == want)
            << "rows=" << rows << " scheme " << core::ErrorPolicyName(scheme)
            << " row " << r << ": engine {" << int(got.verdict) << ", "
            << got.violations << ", '" << got.detail << "'} oracle {"
            << int(want.verdict) << ", " << want.violations << ", '"
            << want.detail << "'}";
      }
    }
  }
}

// SQL guarded scans need ML_PREDICT only to read the guarded row.
class ConstantModel : public ml::Model {
 public:
  ValueId Predict(const Row&) const override { return 0; }
  std::vector<double> PredictProbabilities(const Row&) const override {
    return {1.0};
  }
  std::string name() const override { return "constant"; }
  AttrIndex label_column() const override { return 1; }
};

// guard.* counters mean one thing under every consumer: the same rows
// guarded through ProcessTable, a SQL guarded scan and
// ValidationEngine::Handle move rows_checked (every row read), rows_coerced
// and rows_rectified by the same amounts.
TEST(BatchEvalTest, GuardCountersAgreeAcrossConsumers) {
  serve::ProgramRegistry registry;
  ASSERT_NO_FATAL_FAILURE(LoadZipProgram(&registry));
  std::shared_ptr<const serve::ProgramSnapshot> snapshot = registry.Get("demo");
  Guard guard(&snapshot->program);

  // 3000 rows: several blocks for every consumer, and serve's sharded path.
  constexpr int kRows = 3000;
  Table table{snapshot->schema};
  std::string payload = "zip,city\n";
  Rng rng(0xC0FFEE);
  for (int r = 0; r < kRows; ++r) {
    ValueId zip = static_cast<ValueId>(rng.NextUint64(kZips));
    ValueId city = rng.NextBernoulli(0.2)
                       ? static_cast<ValueId>(rng.NextUint64(kZips))
                       : zip;
    ASSERT_TRUE(table.AppendRow({zip, city}).ok());
    payload += snapshot->schema.attribute(0).label(zip) + "," +
               snapshot->schema.attribute(1).label(city) + "\n";
  }

  const std::vector<std::string> names = {
      "guard.rows_checked", "guard.rows_coerced", "guard.rows_rectified"};
  auto read = [&] {
    std::vector<int64_t> values;
    for (const std::string& name : names) {
      values.push_back(
          telemetry::MetricsRegistry::Instance().CounterValue(name));
    }
    return values;
  };
  auto delta = [&](const std::vector<int64_t>& before) {
    std::vector<int64_t> after = read();
    for (size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };

  const bool metrics_were_enabled = telemetry::MetricsEnabled();
  telemetry::EnableMetrics(true);
  serve::ValidationEngine engine(&registry, serve::EngineOptions());
  ConstantModel model;
  for (ErrorPolicy policy :
       {ErrorPolicy::kIgnore, ErrorPolicy::kCoerce, ErrorPolicy::kRectify}) {
    const std::string label = core::ErrorPolicyName(policy);

    std::vector<int64_t> before = read();
    Table working = table;
    guard.ProcessTable(&working, policy);
    const std::vector<int64_t> offline = delta(before);

    sql::Executor executor;
    executor.RegisterTable("t", &table);
    executor.RegisterModel("m", &model);
    executor.SetGuard(&guard, policy);
    before = read();
    auto result = executor.Execute("SELECT ML_PREDICT('m') FROM t");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<int64_t> scan = delta(before);

    serve::ValidateRequest request;
    request.dataset = "demo";
    request.scheme = policy;
    request.payload = payload;
    before = read();
    ASSERT_EQ(engine.Handle(request).code, StatusCode::kOk);
    const std::vector<int64_t> served = delta(before);

    EXPECT_EQ(offline[0], kRows) << label;
    EXPECT_EQ(scan, offline) << label;
    EXPECT_EQ(served, offline) << label;
  }
  telemetry::EnableMetrics(metrics_were_enabled);
}

}  // namespace
}  // namespace guardrail
