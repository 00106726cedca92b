// Micro-benchmarks for the performance-sensitive inner loops, built on
// google-benchmark. These back the design-choice ablations called out in
// DESIGN.md: statement-level caching, predicate pushdown, auxiliary
// sampling cost, and the per-row guard overhead that Table 6 aggregates.

#include <benchmark/benchmark.h>

#include "baselines/partition.h"
#include "common/telemetry/telemetry.h"
#include "core/batch_eval.h"
#include "core/guard.h"
#include "core/sketch_filler.h"
#include "core/synthesizer.h"
#include "ml/naive_bayes.h"
#include "pgm/auxiliary_sampler.h"
#include "pgm/ci_test.h"
#include "pgm/mec_enumerator.h"
#include "pgm/pc_algorithm.h"
#include "sql/executor.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace {

SemModel MakeBenchSem(int32_t nodes) {
  RandomSemOptions opt;
  opt.num_nodes = nodes;
  opt.min_cardinality = 3;
  opt.max_cardinality = 6;
  Rng rng(0xBEAC);
  return BuildRandomSem(opt, &rng);
}

Table MakeBenchTable(int32_t nodes, int64_t rows) {
  SemModel sem = MakeBenchSem(nodes);
  Rng rng(0xDA7A);
  return sem.Sample(rows, &rng);
}

// ------------------------------------------------------------ interpreter --

void BM_InterpreterCheckRow(benchmark::State& state) {
  Table data = MakeBenchTable(8, 4000);
  core::SynthesisOptions options;
  core::Synthesizer synth(options);
  Rng rng(1);
  core::SynthesisReport report = synth.Synthesize(data, &rng);
  core::Interpreter interp(&report.program);
  Row row = data.GetRow(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.Check(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpreterCheckRow);

void BM_GuardDetectViolationsPerRow(benchmark::State& state) {
  Table data = MakeBenchTable(8, 4000);
  core::SynthesisOptions options;
  core::Synthesizer synth(options);
  Rng rng(2);
  core::SynthesisReport report = synth.Synthesize(data, &rng);
  core::Guard guard(&report.program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.DetectViolations(data));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_GuardDetectViolationsPerRow);

// ----------------------------------------------------- batch vs interpreter --
// The vectorized-engine ablation: the same synthesized program over the same
// table, scalar interpreter loop (per-row Row materialization plus
// first-matching-branch scans) vs. the compiled columnar engine (dispatch
// tables plus bitmask verdicts). Items processed are rows in both arms, so
// the reported items_per_second columns are directly comparable.
void BM_BatchVsInterpreter(benchmark::State& state) {
  const bool compiled = state.range(0) != 0;
  Table data = MakeBenchTable(8, 20000);
  core::SynthesisOptions options;
  core::Synthesizer synth(options);
  Rng rng(6);
  core::SynthesisReport report = synth.Synthesize(data, &rng);
  core::Guard guard(&report.program);
  core::BatchVerdict verdict;
  for (auto _ : state) {
    if (compiled) {
      guard.compiled().EvaluateTable(data, 0, data.num_rows(), &verdict);
      benchmark::DoNotOptimize(verdict.any_violation);
    } else {
      int64_t flagged = 0;
      for (RowIndex r = 0; r < data.num_rows(); ++r) {
        if (!guard.interpreter().Check(data.GetRow(r)).empty()) ++flagged;
      }
      benchmark::DoNotOptimize(flagged);
    }
  }
  state.SetLabel(compiled ? "compiled" : "interpreter");
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}
BENCHMARK(BM_BatchVsInterpreter)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- CI tests --

void BM_GSquareTest(benchmark::State& state) {
  Table data = MakeBenchTable(6, state.range(0));
  pgm::EncodedData encoded = pgm::EncodeIdentity(data);
  pgm::GSquareTest test(&encoded, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(test.Test(0, 1, {2}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GSquareTest)->Arg(1000)->Arg(10000);

// Dense-vs-hash CI-kernel ablation: the same G² test with the dense strata
// array (small conditioning-set cardinality products index a flat counts
// buffer) against the hash-map fallback (max_dense_cells = 0 disables the
// dense gate). The two paths produce identical verdicts; the delta is pure
// kernel cost. range(0) is the conditioning-set size.
void BM_GSquareKernel(benchmark::State& state, int64_t max_dense_cells) {
  Table data = MakeBenchTable(8, 20000);
  pgm::EncodedData encoded = pgm::EncodeIdentity(data);
  pgm::GSquareTest::Options options;
  options.max_dense_cells = max_dense_cells;
  pgm::GSquareTest test(&encoded, options);
  std::vector<int32_t> cond;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cond.push_back(static_cast<int32_t>(2 + i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(test.Test(0, 1, cond));
  }
  state.SetItemsProcessed(state.iterations() * data.num_rows());
}

void BM_GSquareKernelDense(benchmark::State& state) {
  BM_GSquareKernel(state, /*max_dense_cells=*/int64_t{1} << 20);
  state.SetLabel("dense");
}
BENCHMARK(BM_GSquareKernelDense)->Arg(1)->Arg(2)->Arg(3);

void BM_GSquareKernelHash(benchmark::State& state) {
  BM_GSquareKernel(state, /*max_dense_cells=*/0);
  state.SetLabel("hash");
}
BENCHMARK(BM_GSquareKernelHash)->Arg(1)->Arg(2)->Arg(3);

// Bit-sliced vs scalar dense G² on one auxiliary (binary) sample. The scalar
// side appends a never-tested 3-valued column, which keeps the sample off the
// bit planes; verdicts are identical. range(0) is the conditioning-set size.
void BM_GSquareAuxKernel(benchmark::State& state, bool bit_sliced) {
  Table data = MakeBenchTable(8, 4000);
  Rng rng(3);
  pgm::EncodedData encoded =
      pgm::SampleAuxiliaryDistribution(data, pgm::AuxiliarySamplerOptions{}, &rng);
  if (!bit_sliced) {
    encoded.cardinalities.push_back(3);
    encoded.columns.emplace_back(static_cast<size_t>(encoded.num_rows), 2);
  }
  pgm::GSquareTest test(&encoded, {});
  std::vector<int32_t> cond;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cond.push_back(static_cast<int32_t>(2 + i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(test.Test(0, 1, cond));
  }
  state.SetItemsProcessed(state.iterations() * encoded.num_rows);
}

void BM_GSquareAuxBitSliced(benchmark::State& state) {
  BM_GSquareAuxKernel(state, /*bit_sliced=*/true);
}
BENCHMARK(BM_GSquareAuxBitSliced)->Arg(0)->Arg(1)->Arg(3);

void BM_GSquareAuxScalar(benchmark::State& state) {
  BM_GSquareAuxKernel(state, /*bit_sliced=*/false);
}
BENCHMARK(BM_GSquareAuxScalar)->Arg(0)->Arg(1)->Arg(3);

void BM_AuxiliarySampling(benchmark::State& state) {
  Table data = MakeBenchTable(10, state.range(0));
  pgm::AuxiliarySamplerOptions opt;
  opt.num_shifts = 5;
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(
        pgm::SampleAuxiliaryDistribution(data, opt, &rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 5);
}
BENCHMARK(BM_AuxiliarySampling)->Arg(2000)->Arg(20000);

void BM_PcAlgorithm(benchmark::State& state) {
  Table data = MakeBenchTable(static_cast<int32_t>(state.range(0)), 4000);
  pgm::AuxiliarySamplerOptions opt;
  Rng rng(4);
  pgm::EncodedData aux = pgm::SampleAuxiliaryDistribution(data, opt, &rng);
  pgm::PcAlgorithm pc({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc.Run(aux));
  }
}
BENCHMARK(BM_PcAlgorithm)->Arg(6)->Arg(12)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- partitions --

void BM_PartitionProduct(benchmark::State& state) {
  Table data = MakeBenchTable(6, state.range(0));
  auto a = baselines::StrippedPartition::ForAttribute(data, 0);
  auto b = baselines::StrippedPartition::ForAttribute(data, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::StrippedPartition::Product(a, b, data.num_rows()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionProduct)->Arg(1000)->Arg(20000);

// --------------------------------------------------------- sketch filling --

void BM_FillStatementSketch(benchmark::State& state) {
  Table data = MakeBenchTable(8, state.range(0));
  core::StatementSketch sketch;
  sketch.determinants = {0, 1};
  sketch.dependent = 2;
  core::FillOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::FillStatementSketch(sketch, data, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FillStatementSketch)->Arg(2000)->Arg(20000);

// Ablation: Alg. 2 with the statement-level cache (production) vs. a run
// whose MEC has no shared structure to exploit (each fill hits a distinct
// statement). The delta shows what the cache buys on real MECs.
void BM_SynthesizeFromMecWithCache(benchmark::State& state) {
  Table data = MakeBenchTable(7, 3000);
  pgm::Pdag cpdag = pgm::Pdag::CompleteUndirected(5);
  core::SynthesisOptions options;
  options.max_dags = 120;
  core::Synthesizer synth(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth.SynthesizeFromMec(cpdag, data));
  }
}
BENCHMARK(BM_SynthesizeFromMecWithCache)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------- telemetry --
// These back the "disabled telemetry is near-free" acceptance bar: the
// per-call cost with metrics off must be a single relaxed atomic load, so
// BM_GuardProcessRow/0 (off) vs /1 (on) should differ by well under 2%.

void BM_TelemetryCounterInc(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  telemetry::EnableMetrics(enabled);
  for (auto _ : state) {
    GUARDRAIL_COUNTER_INC("bench.telemetry_probe");
  }
  telemetry::EnableMetrics(false);
  state.SetLabel(enabled ? "metrics-on" : "metrics-off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterInc)->Arg(0)->Arg(1);

void BM_TelemetrySpan(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  telemetry::EnableTracing(enabled);
  telemetry::EnableMetrics(enabled);
  for (auto _ : state) {
    telemetry::Span span("bench.span_probe");
    benchmark::DoNotOptimize(span);
  }
  telemetry::EnableTracing(false);
  telemetry::EnableMetrics(false);
  telemetry::ClearTrace();
  state.SetLabel(enabled ? "tracing-on" : "tracing-off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySpan)->Arg(0)->Arg(1);

void BM_GuardProcessRow(benchmark::State& state) {
  bool enabled = state.range(0) != 0;
  telemetry::EnableMetrics(enabled);
  Table data = MakeBenchTable(8, 4000);
  core::SynthesisOptions options;
  core::Synthesizer synth(options);
  Rng rng(5);
  core::SynthesisReport report = synth.Synthesize(data, &rng);
  core::Guard guard(&report.program);
  Row row = data.GetRow(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        guard.ProcessRow(row, core::ErrorPolicy::kRaise));
  }
  telemetry::EnableMetrics(false);
  state.SetLabel(enabled ? "metrics-on" : "metrics-off");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardProcessRow)->Arg(0)->Arg(1);

// ------------------------------------------------------- MEC enumeration --

void BM_MecEnumeration(benchmark::State& state) {
  pgm::Pdag cpdag = pgm::Pdag::CompleteUndirected(
      static_cast<int32_t>(state.range(0)));
  pgm::MecEnumerator enumerator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerator.Enumerate(cpdag));
  }
}
BENCHMARK(BM_MecEnumeration)->Arg(4)->Arg(5)->Arg(6);

// ------------------------------------------------------------- SQL engine --

void BM_QueryWithPushdown(benchmark::State& state) {
  bool pushdown = state.range(0) != 0;
  Table data = MakeBenchTable(8, 8000);
  ml::NaiveBayesTrainer trainer;
  auto model = trainer.Train(data, 7).value();
  sql::Executor::Options opt;
  opt.enable_predicate_pushdown = pushdown;
  sql::Executor executor(opt);
  executor.RegisterTable("t", &data);
  executor.RegisterModel("m", model.get());
  std::string label0 = data.schema().attribute(7).label(0);
  std::string attr0 = data.schema().attribute(0).label(0);
  std::string sql = "SELECT COUNT(*) FROM t WHERE ML_PREDICT('m') = '" +
                    label0 + "' AND attr0 = '" + attr0 + "'";
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Execute(sql));
  }
  state.SetLabel(pushdown ? "pushdown" : "no-pushdown");
}
BENCHMARK(BM_QueryWithPushdown)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace guardrail

BENCHMARK_MAIN();
