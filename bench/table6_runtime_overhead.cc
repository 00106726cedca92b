// Reproduces paper Table 6: runtime overhead of the Guardrail interception
// hook versus the ML inference cost, measured while executing the dataset's
// ML-integrated query workload behind a rectifying guard. Also reports the
// vectorized-engine ablation per dataset — rows/sec through the scalar
// interpreter loop vs. the compiled columnar engine (docs/PERFORMANCE.md) —
// and the raw member-DAG ensemble vs. its certified minimization.
//
// Exits 1 when, on any dataset, the compiled kernel is slower than the
// interpreter, the minimized program is slower than the raw ensemble, the
// minimization dropped no statement, or either pair disagrees on the rows
// it flags.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/telemetry/state.h"
#include "core/batch_eval.h"
#include "core/guard.h"
#include "exp/pipeline.h"
#include "exp/query_workload.h"
#include "sql/executor.h"
#include "table/column_batch.h"

namespace guardrail {
namespace {

struct KernelSample {
  double interp_rows_per_sec = 0.0;
  double compiled_rows_per_sec = 0.0;
  double speedup = 0.0;
  bool verdicts_match = true;
};

// Best-of-3 rows/sec for ProcessTable in interpreter vs. compiled mode over
// the dirty test split — the full per-row path each mode actually pays
// (Row materialization, failpoint probe, and outcome bookkeeping on the
// scalar side; chunked EvaluateTable plus flagged-row walks on the batched
// side), under the non-mutating kIgnore policy so one table serves every
// rep. The capped bench splits are only a few thousand rows, so the split
// is replicated up to production batch scale first — the engine's target
// regime — which amortizes per-call fixed costs (mask allocation, dispatch
// setup) the way real batches do. Metrics are disabled inside the timed
// region: per-row counter/histogram updates would measure the telemetry
// pillar, not the engine.
KernelSample MeasureKernel(const core::Guard& guard, const Table& dirty) {
  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               clock::now() - t0)
        .count();
  };
  constexpr int64_t kTargetRows = int64_t{1} << 17;
  Table big{dirty.schema()};
  while (big.num_rows() < kTargetRows && dirty.num_rows() > 0) {
    for (RowIndex r = 0; r < dirty.num_rows(); ++r) {
      if (!big.AppendRow(dirty.GetRow(r)).ok()) break;
    }
  }
  Table& measured = big;
  const double rows = static_cast<double>(measured.num_rows());
  if (measured.num_rows() == 0) return KernelSample{};

  // One-time program compilation stays out of the timed region, matching
  // the compile-once / evaluate-many serving contract.
  guard.compiled();
  telemetry::EnableMetrics(false);
  double interp_best = 0.0;
  double compiled_best = 0.0;
  KernelSample sample;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = clock::now();
    core::GuardOutcome scalar = guard.ProcessTable(
        &measured, core::ErrorPolicy::kIgnore, core::GuardEvalMode::kInterpreter);
    interp_best =
        std::max(interp_best, rows / std::max(seconds_since(t0), 1e-9));

    t0 = clock::now();
    core::GuardOutcome batched = guard.ProcessTable(
        &measured, core::ErrorPolicy::kIgnore, core::GuardEvalMode::kCompiled);
    compiled_best =
        std::max(compiled_best, rows / std::max(seconds_since(t0), 1e-9));
    if (scalar.rows_flagged != batched.rows_flagged) {
      std::fprintf(stderr, "kernel verdict mismatch: %lld vs %lld\n",
                   static_cast<long long>(batched.rows_flagged),
                   static_cast<long long>(scalar.rows_flagged));
      sample.verdicts_match = false;
    }
  }
  telemetry::EnableMetrics(true);
  sample.interp_rows_per_sec = interp_best;
  sample.compiled_rows_per_sec = compiled_best;
  sample.speedup =
      interp_best > 0.0 ? compiled_best / interp_best : 0.0;
  return sample;
}

struct MinimizationSample {
  int64_t ensemble_statements = 0;
  int64_t minimized_statements = 0;
  double ensemble_rows_per_sec = 0.0;
  double minimized_rows_per_sec = 0.0;
  double speedup = 0.0;
  bool verdicts_match = true;
};

// Best-of-3 compiled-engine rows/sec for the raw member-DAG ensemble union
// versus its certified minimization (SynthesisReport::minimization), on the
// replicated dirty split. The raw union keeps every member's statements —
// mostly duplicates — so this measures exactly what the certificate buys at
// serving time. Replication is smaller than MeasureKernel's: the widest raw
// unions run thousands of statements and the ratio stabilizes well before
// 2^15 rows.
MinimizationSample MeasureMinimization(const core::SynthesisReport& synth,
                                       const Table& dirty) {
  MinimizationSample sample;
  if (!synth.minimized || dirty.num_rows() == 0) return sample;
  sample.ensemble_statements =
      static_cast<int64_t>(synth.ensemble_program.statements.size());
  sample.minimized_statements =
      static_cast<int64_t>(synth.minimization.program.statements.size());

  using clock = std::chrono::steady_clock;
  auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               clock::now() - t0)
        .count();
  };
  constexpr int64_t kTargetRows = int64_t{1} << 15;
  Table big{dirty.schema()};
  while (big.num_rows() < kTargetRows) {
    for (RowIndex r = 0; r < dirty.num_rows(); ++r) {
      if (!big.AppendRow(dirty.GetRow(r)).ok()) break;
    }
  }
  const double rows = static_cast<double>(big.num_rows());

  core::Guard raw_guard(&synth.ensemble_program);
  core::Guard min_guard(&synth.minimization.program);
  raw_guard.compiled();
  min_guard.compiled();
  telemetry::EnableMetrics(false);
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = clock::now();
    core::GuardOutcome raw = raw_guard.ProcessTable(
        &big, core::ErrorPolicy::kIgnore, core::GuardEvalMode::kCompiled);
    sample.ensemble_rows_per_sec = std::max(
        sample.ensemble_rows_per_sec, rows / std::max(seconds_since(t0), 1e-9));

    t0 = clock::now();
    core::GuardOutcome minimized = min_guard.ProcessTable(
        &big, core::ErrorPolicy::kIgnore, core::GuardEvalMode::kCompiled);
    sample.minimized_rows_per_sec =
        std::max(sample.minimized_rows_per_sec,
                 rows / std::max(seconds_since(t0), 1e-9));
    if (raw.rows_flagged != minimized.rows_flagged) {
      std::fprintf(stderr, "minimized verdict mismatch: %lld vs %lld\n",
                   static_cast<long long>(minimized.rows_flagged),
                   static_cast<long long>(raw.rows_flagged));
      sample.verdicts_match = false;
    }
  }
  telemetry::EnableMetrics(true);
  sample.speedup = sample.ensemble_rows_per_sec > 0.0
                       ? sample.minimized_rows_per_sec /
                             sample.ensemble_rows_per_sec
                       : 0.0;
  return sample;
}

int Run() {
  // Guard/inference times come from the telemetry counters the executor
  // feeds (sql.guard_micros / sql.inference_micros), so the table matches a
  // `--metrics-out` export of the same run.
  bench::EnableBenchTelemetry();
  bench::TextTable table({"Dataset ID", "Guardrail Time (s)",
                          "Inference Time (s)", "Guard/Inference",
                          "Rows guarded", "Interp rows/s", "Compiled rows/s",
                          "Speedup", "Stmts raw->min", "Min rows/s",
                          "Min speedup"});
  double total_guard = 0.0;
  double total_speedup = 0.0;
  int datasets = 0;
  std::vector<std::string> failures;
  for (int id : bench::BenchDatasetIds()) {
    bench::ResetBenchTelemetry();
    exp::ExperimentConfig config = bench::DefaultBenchConfig();
    config.restrict_errors_to_constrained = true;  // RQ2 setup (Sec. 8.2).
    auto prepared = exp::PrepareDataset(id, config);
    if (!prepared.ok()) {
      std::fprintf(stderr, "dataset %d failed: %s\n", id,
                   prepared.status().ToString().c_str());
      return 1;
    }
    const exp::PreparedDataset& p = **prepared;
    core::Guard guard(&p.synthesis.program);

    sql::Executor executor;
    executor.RegisterTable("t", &p.test_dirty);
    executor.RegisterModel("m", p.model.get());
    executor.SetGuard(&guard, core::ErrorPolicy::kRectify);
    for (const auto& query : exp::GenerateWorkload(p.bundle, "t", "m")) {
      auto result = executor.Execute(query.sql);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    const sql::ExecStats& stats = executor.stats();
    double guard_seconds =
        static_cast<double>(bench::CounterValue("sql.guard_micros")) / 1e6;
    double inference_seconds =
        static_cast<double>(bench::CounterValue("sql.inference_micros")) / 1e6;
    KernelSample kernel = MeasureKernel(guard, p.test_dirty);
    MinimizationSample minimization =
        MeasureMinimization(p.synthesis, p.test_dirty);
    total_guard += guard_seconds;
    total_speedup += kernel.speedup;
    ++datasets;
    auto gate = [&](bool holds, const char* what) {
      if (!holds) {
        failures.push_back("dataset " + std::to_string(id) + ": " + what);
      }
    };
    gate(kernel.verdicts_match, "compiled and interpreter verdicts differ");
    gate(kernel.compiled_rows_per_sec >= kernel.interp_rows_per_sec,
         "compiled kernel slower than interpreter");
    gate(minimization.verdicts_match,
         "minimized and raw ensemble verdicts differ");
    gate(minimization.minimized_rows_per_sec >=
             minimization.ensemble_rows_per_sec,
         "minimized program slower than raw ensemble");
    gate(minimization.minimized_statements <
             minimization.ensemble_statements,
         "minimization dropped no statement");
    table.AddRow({bench::FmtInt(id), bench::Fmt(guard_seconds, 4),
                  bench::Fmt(inference_seconds, 4),
                  inference_seconds > 0
                      ? bench::Fmt(guard_seconds / inference_seconds, 3)
                      : "-",
                  bench::FmtInt(stats.rows_after_pushdown),
                  bench::FmtInt(
                      static_cast<int64_t>(kernel.interp_rows_per_sec)),
                  bench::FmtInt(
                      static_cast<int64_t>(kernel.compiled_rows_per_sec)),
                  bench::Fmt(kernel.speedup, 2),
                  bench::FmtInt(minimization.ensemble_statements) + "->" +
                      bench::FmtInt(minimization.minimized_statements),
                  bench::FmtInt(static_cast<int64_t>(
                      minimization.minimized_rows_per_sec)),
                  bench::Fmt(minimization.speedup, 2)});
  }
  std::printf("Table 6: runtime overheads and breakdown\n\n");
  table.Print();
  std::printf(
      "\nAverage guard overhead: %.4f s per dataset workload "
      "(paper: 0.332 s average; shape to check is guard time being\n"
      "comparable to or below model inference time).\n",
      datasets > 0 ? total_guard / datasets : 0.0);
  std::printf(
      "Average compiled/interpreter speedup: %.2fx across %d datasets.\n",
      datasets > 0 ? total_speedup / datasets : 0.0, datasets);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace guardrail

int main() { return guardrail::Run(); }
