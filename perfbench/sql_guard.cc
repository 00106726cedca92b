// sql_guard: the paper's Table 6 workload. The four ML-integrated queries
// per dataset from exp::GenerateWorkload run through sql::Executor with a
// rectify guard over each dataset's dirty test split. Programs and models
// are built in set-up from the repository's fixed splits; the workload seed
// drives the cell errors injected into each test split. No wire and no
// synthesis in the timed loop.

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry/telemetry.h"
#include "core/batch_eval.h"
#include "core/guard.h"
#include "exp/pipeline.h"
#include "exp/query_workload.h"
#include "sql/executor.h"
#include "table/error_injector.h"
#include "workloads.h"

namespace perfbench {
namespace {

using guardrail::Row;
using guardrail::Table;
namespace core = guardrail::core;

// The offline reference model: feeds the wrapped model the row that
// Guard::ProcessTable rectified offline instead of the row it is given.
// Rectification is a per-row function, so the raw row's codes identify its
// rectified image.
class OfflineRectifiedModel : public guardrail::ml::Model {
 public:
  OfflineRectifiedModel(const guardrail::ml::Model* inner,
                        std::map<Row, Row> rectified)
      : inner_(inner), rectified_(std::move(rectified)) {}
  guardrail::ValueId Predict(const Row& row) const override {
    return inner_->Predict(Lookup(row));
  }
  std::vector<double> PredictProbabilities(const Row& row) const override {
    return inner_->PredictProbabilities(Lookup(row));
  }
  std::string name() const override { return inner_->name(); }
  guardrail::AttrIndex label_column() const override {
    return inner_->label_column();
  }

 private:
  const Row& Lookup(const Row& row) const {
    auto it = rectified_.find(row);
    return it == rectified_.end() ? row : it->second;
  }
  const guardrail::ml::Model* inner_;
  std::map<Row, Row> rectified_;
};

struct Dataset {
  std::unique_ptr<guardrail::exp::PreparedDataset> prepared;
  std::unique_ptr<core::Guard> guard;
  std::unique_ptr<OfflineRectifiedModel> reference_model;
  std::unique_ptr<guardrail::sql::Executor> guarded;
};

struct Query {
  Dataset* dataset = nullptr;
  std::string sql;
  std::string expected;  // Offline-rectified result, rendered.
};

struct State {
  std::vector<std::unique_ptr<Dataset>> datasets;
  std::vector<Query> queries;
};

guardrail::Status Setup(const Options& options, State* state) {
  for (int id = 1; id <= 12; ++id) {
    guardrail::exp::ExperimentConfig config;
    config.row_limit = kRowCap;
    config.synthesis.fill.epsilon = 0.05;
    config.synthesis.num_threads = options.threads;
    config.restrict_errors_to_constrained = true;  // RQ2 setup (Sec. 8.2).
    auto prepared = guardrail::exp::PrepareDataset(id, config);
    if (!prepared.ok()) return prepared.status();
    if ((*prepared)->model == nullptr) {
      return guardrail::Status::Internal("dataset " + std::to_string(id) +
                                         " trained no model");
    }
    auto ds = std::make_unique<Dataset>();
    ds->prepared = std::move(*prepared);
    guardrail::exp::PreparedDataset& p = *ds->prepared;
    // Re-inject the split's errors with the workload seed, under the same
    // RQ2 rule PrepareDataset applies: only constrained, non-label columns.
    guardrail::ErrorInjectionOptions injection = config.injection;
    injection.protected_columns.push_back(p.bundle.label_column);
    std::vector<bool> constrained(
        static_cast<size_t>(p.test_clean.num_columns()), false);
    for (const auto& stmt : p.synthesis.program.statements) {
      constrained[static_cast<size_t>(stmt.dependent)] = true;
    }
    for (guardrail::AttrIndex c = 0; c < p.test_clean.num_columns(); ++c) {
      if (!constrained[static_cast<size_t>(c)]) {
        injection.protected_columns.push_back(c);
      }
    }
    guardrail::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL +
                       static_cast<uint64_t>(id));
    p.test_dirty = guardrail::InjectErrors(p.test_clean, injection, &rng).dirty;
    ds->guard = std::make_unique<core::Guard>(&p.synthesis.program);

    Table rectified = p.test_dirty;
    ds->guard->ProcessTable(&rectified, core::ErrorPolicy::kRectify);
    std::map<Row, Row> images;
    for (guardrail::RowIndex r = 0; r < rectified.num_rows(); ++r) {
      images.emplace(p.test_dirty.GetRow(r), rectified.GetRow(r));
    }
    ds->reference_model = std::make_unique<OfflineRectifiedModel>(
        p.model.get(), std::move(images));

    guardrail::sql::Executor reference;
    reference.RegisterTable("t", &p.test_dirty);
    reference.RegisterModel("m", ds->reference_model.get());
    ds->guarded = std::make_unique<guardrail::sql::Executor>();
    ds->guarded->RegisterTable("t", &p.test_dirty);
    ds->guarded->RegisterModel("m", p.model.get());
    ds->guarded->SetGuard(ds->guard.get(), core::ErrorPolicy::kRectify);
    for (const auto& q : guardrail::exp::GenerateWorkload(p.bundle, "t", "m")) {
      auto expected = reference.Execute(q.sql);
      if (!expected.ok()) return expected.status();
      state->queries.push_back(Query{ds.get(), q.sql, expected->ToString()});
    }
    state->datasets.push_back(std::move(ds));
  }
  return guardrail::Status::OK();
}

// Runs the 48-query workload round-robin for `seconds`; each result must
// equal the offline-rectified reference.
Phase Measure(State* state, double seconds, size_t* next_query) {
  Phase phase;
  auto start = std::chrono::steady_clock::now();
  auto pass_start = start;
  int64_t pass_rows = 0;
  // A complete 48-query pass is one throughput unit; a phase that starts
  // mid-pass drops its first, partial one.
  bool whole_pass = *next_query % state->queries.size() == 0;
  while (SecondsSince(start) < seconds) {
    Query& q = state->queries[*next_query % state->queries.size()];
    guardrail::sql::Executor& exec = *q.dataset->guarded;
    const int64_t scanned = exec.stats().rows_scanned;
    auto t0 = std::chrono::steady_clock::now();
    guardrail::Result<guardrail::sql::QueryResult> result =
        guardrail::Status::Internal("not run");
    {
      guardrail::telemetry::Span span("sql.query");
      span.AddArg("request_id", static_cast<int64_t>(*next_query + 1));
      result = exec.Execute(q.sql);
    }
    phase.op_ms.push_back(SecondsSince(t0) * 1e3);
    const bool ok = result.ok() && result->ToString() == q.expected;
    phase.op_kind.push_back(
        static_cast<int>(*next_query % state->queries.size()));
    phase.rows += exec.stats().rows_scanned - scanned;
    pass_rows += exec.stats().rows_scanned - scanned;
    phase.ledger.Record(ok);
    if (++*next_query % state->queries.size() == 0) {
      if (whole_pass) {
        phase.unit_rows_per_s.push_back(static_cast<double>(pass_rows) /
                                        SecondsSince(pass_start));
      }
      whole_pass = true;
      pass_start = std::chrono::steady_clock::now();
      pass_rows = 0;
    }
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

// Guard-layer rows/s on each dirty split, best of three: ProcessTable
// (non-mutating ignore policy), the compiled kernel alone, and the
// interpreter oracle. Summed over datasets so wide and narrow ones weigh by
// their rows.
void MeasureKernels(const State& state, RunResult* result) {
  double rows = 0.0, guard_s = 0.0, eval_s = 0.0, interp_s = 0.0;
  for (const auto& ds : state.datasets) {
    Table dirty = ds->prepared->test_dirty;
    const core::Guard& guard = *ds->guard;
    const core::CompiledProgram& compiled = guard.compiled();
    double best_guard = 1e9, best_eval = 1e9, best_interp = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      guard.ProcessTable(&dirty, core::ErrorPolicy::kIgnore,
                         core::GuardEvalMode::kCompiled);
      best_guard = std::min(best_guard, SecondsSince(t0));
      t0 = std::chrono::steady_clock::now();
      core::BatchVerdict verdict;
      compiled.EvaluateTable(dirty, 0, dirty.num_rows(), &verdict);
      best_eval = std::min(best_eval, SecondsSince(t0));
      t0 = std::chrono::steady_clock::now();
      int64_t flagged = 0;
      for (guardrail::RowIndex r = 0; r < dirty.num_rows(); ++r) {
        flagged += guard.interpreter().Check(dirty.GetRow(r)).empty() ? 0 : 1;
      }
      best_interp = std::min(best_interp, SecondsSince(t0));
      // Kernel parity: the compiled verdicts flag exactly the rows the
      // interpreter oracle flags.
      result->ledger.Record(guardrail::rowmask::Count(verdict.violated) ==
                            flagged);
    }
    rows += static_cast<double>(dirty.num_rows());
    guard_s += best_guard;
    eval_s += best_eval;
    interp_s += best_interp;
  }
  SetLayer(result, "core.guard.rows_per_s", guard_s > 0 ? rows / guard_s : 0);
  SetLayer(result, "core.evaluate.rows_per_s", eval_s > 0 ? rows / eval_s : 0);
  SetLayer(result, "core.interp.rows_per_s",
           interp_s > 0 ? rows / interp_s : 0);
}

}  // namespace

RunResult RunSqlGuard(const Options& options) {
  // The executor is single-threaded: keep it from timing one CPU's speed.
  const CpuShuffler shuffler;
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  const int setups = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    state.reset();  // One state in memory at a time.
    auto start = std::chrono::steady_clock::now();
    auto fresh = std::make_unique<State>();
    guardrail::Status st = Setup(options, fresh.get());
    setup_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      result.notes.push_back("setup failed: " + st.ToString());
      result.ledger.Record(false);
      return result;
    }
    state = std::move(fresh);
  }
  result.notes.push_back(
      "datasets=1..12 queries=" + std::to_string(state->queries.size()) +
      " policy=rectify row_cap=" + std::to_string(kRowCap) +
      " threads=" + std::to_string(options.threads) + " connections=0");

  // Warm-up: one pass over every query, checked like the timed ones.
  size_t next = 0;
  for (const Query& q : state->queries) {
    auto warm = q.dataset->guarded->Execute(q.sql);
    result.ledger.Record(warm.ok() && warm->ToString() == q.expected);
  }

  if (!options.trace) {
    Phase phase = Measure(state.get(), options.seconds, &next);
    AddEndToEnd(setup_s, phase, "guarded query (median per query)", &result);
    return result;
  }

  Phase untraced = Measure(state.get(), options.seconds / 2, &next);
  for (auto& ds : state->datasets) ds->guarded->ResetStats();
  StartTracing();
  Phase traced = Measure(state.get(), options.seconds / 2, &next);
  const std::vector<SpanRecord> spans = StopTracing(&result.ledger);

  auto& registry = guardrail::telemetry::MetricsRegistry::Instance();
  const double passes = static_cast<double>(traced.op_ms.size()) /
                        static_cast<double>(state->queries.size());
  const double guard_s =
      static_cast<double>(registry.CounterValue("sql.guard_micros")) / 1e6;
  const double inference_s =
      static_cast<double>(registry.CounterValue("sql.inference_micros")) / 1e6;
  int64_t rows_guarded = 0;
  for (auto& ds : state->datasets) {
    rows_guarded += ds->guarded->stats().rows_after_pushdown;
  }
  SetLayer(&result, "sql.execute.s",
           PerUnit(TotalSeconds(spans)["sql.query"], passes, 1.0));
  SetLayer(&result, "sql.guard.s", PerUnit(guard_s, passes, 1.0));
  SetLayer(&result, "ml.inference.s", PerUnit(inference_s, passes, 1.0));
  SetLayer(&result, "sql.guard_to_inference",
           inference_s > 0 ? guard_s / inference_s : 0.0);
  SetLayer(&result, "sql.rows_guarded",
           PerUnit(static_cast<double>(rows_guarded), passes, 1.0));
  MeasureKernels(*state, &result);
  AddCommonLayers(untraced, traced, &result);
  result.notes.push_back("traced_passes=" + FormatNumber(passes) +
                         " (sql.* values are per 48-query pass)");
  return result;
}

}  // namespace perfbench
