// offline_synth: repeated sweeps of the 12 repository datasets through the
// full Synthesizer::Synthesize (aux sample -> PC -> MEC -> fill -> verify ->
// minimize + certify). The paper's Table 4 anchor: pgm, core fill and
// analysis do the work; serve, stream and sql are idle.

#include <chrono>
#include <string>
#include <vector>

#include "analysis/semantic.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/serialization.h"
#include "core/synthesizer.h"
#include "table/dataset_repository.h"
#include "workloads.h"

namespace perfbench {
namespace {

using guardrail::Rng;
using guardrail::Table;

struct Input {
  int id = 0;
  Table data;
  uint64_t rng_seed = 0;
};

// The repository datasets at the bench row cap, as in the paper's Table 4,
// each synthesized with a fixed sampler seed; the workload seed permutes the
// order of the datasets in every sweep. (Seeding the sampler's pairing
// shuffle, or re-sampling the rows, moves the learned structure and with it
// a dataset's synthesis cost by up to a third between seeds, which would
// bury the effect of any code change.)
std::vector<Input> BuildInputs() {
  std::vector<Input> inputs;
  for (int id = 1; id <= 12; ++id) {
    inputs.push_back(
        Input{id, guardrail::DatasetRepository::Build(id, kRowCap).clean,
              0xE9A1ULL + static_cast<uint64_t>(id)});
  }
  return inputs;
}

guardrail::core::SynthesisOptions SynthOptions(int threads) {
  guardrail::core::SynthesisOptions options;
  options.fill.epsilon = 0.05;
  options.num_threads = threads;
  return options;
}

// The bytes a sweep must reproduce exactly: chosen program, minimized
// ensemble and its certificate.
std::string ProgramBytes(const guardrail::core::SynthesisReport& report,
                         const Table& data) {
  std::string bytes =
      guardrail::core::SerializeProgram(report.program, data.schema());
  if (report.minimized) {
    bytes += guardrail::core::SerializeProgram(report.minimization.program,
                                               data.schema());
    bytes += report.minimization.certificate;
  }
  return bytes;
}

struct SweepTotals {
  int64_t ci_tests = 0;
  int64_t dags = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t stmts_raw = 0;
  int64_t stmts_min = 0;
};

// One sweep over every input. `reference` holds each dataset's bytes from
// the first sweep; every later sweep must match them byte for byte.
void Sweep(const std::vector<Input>& inputs, int threads, bool traced,
           Rng* order_rng, std::vector<std::string>* reference, Phase* phase,
           SweepTotals* totals) {
  const guardrail::core::Synthesizer synth(SynthOptions(threads));
  std::vector<size_t> order(inputs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[order_rng->NextUint64(i + 1)]);
  }
  for (size_t i : order) {
    const Input& in = inputs[i];
    Rng rng(in.rng_seed);
    guardrail::core::SynthesisReport report;
    auto start = std::chrono::steady_clock::now();
    {
      guardrail::telemetry::Span span("core.synthesize");
      span.AddArg("request_id", static_cast<int64_t>(phase->op_ms.size() + 1));
      report = synth.Synthesize(in.data, &rng);
    }
    phase->op_ms.push_back(SecondsSince(start) * 1e3);
    phase->op_kind.push_back(in.id);
    phase->rows += in.data.num_rows();

    std::string bytes = ProgramBytes(report, in.data);
    bool ok = report.verification.ok();
    if ((*reference)[i].empty()) {
      // First sweep: every certificate must pass the publish-gate check.
      (*reference)[i] = bytes;
      if (report.minimized) {
        ok = ok && guardrail::analysis::VerifyCertificate(
                       report.minimization.certificate,
                       report.minimization.program, in.data.schema())
                       .ok();
      }
    } else {
      ok = ok && bytes == (*reference)[i];
    }
    if (traced && report.minimized) {
      guardrail::telemetry::Span span("analysis.certify");
      ok = ok && guardrail::analysis::VerifyCertificate(
                     report.minimization.certificate,
                     report.minimization.program, in.data.schema())
                     .ok();
    }
    phase->ledger.Record(ok);
    totals->ci_tests += report.num_ci_tests;
    totals->dags += report.num_dags_enumerated;
    totals->cache_hits += report.cache_hits;
    totals->cache_lookups += report.cache_hits + report.cache_misses;
    totals->stmts_raw +=
        static_cast<int64_t>(report.ensemble_program.statements.size());
    totals->stmts_min +=
        static_cast<int64_t>(report.minimization.program.statements.size());
  }
}

// Whole sweeps until `seconds` elapsed (and at least `min_sweeps`, so the
// 90th percentile of per-dataset latencies has ten samples beyond it).
Phase Measure(const std::vector<Input>& inputs, const Options& options,
              Rng* order_rng, double seconds, int min_sweeps, bool traced,
              std::vector<std::string>* reference, SweepTotals* totals,
              int* sweeps) {
  Phase phase;
  auto start = std::chrono::steady_clock::now();
  *sweeps = 0;
  while (SecondsSince(start) < seconds || *sweeps < min_sweeps) {
    auto sweep_start = std::chrono::steady_clock::now();
    const int64_t rows_before = phase.rows;
    Sweep(inputs, options.threads, traced, order_rng, reference, &phase,
          totals);
    phase.unit_rows_per_s.push_back(
        static_cast<double>(phase.rows - rows_before) /
        SecondsSince(sweep_start));
    ++*sweeps;
  }
  phase.wall_s = SecondsSince(start);
  return phase;
}

}  // namespace

RunResult RunOfflineSynth(const Options& options) {
  RunResult result;
  std::vector<double> setup_s;
  std::vector<Input> inputs;
  // Generating the datasets takes about 50 ms, so a median of three would
  // still swing with scheduling noise; seven cost little more.
  const int setups = options.trace ? 1 : 7;
  for (int i = 0; i < setups; ++i) {
    inputs.clear();  // One set of datasets in memory at a time.
    auto start = std::chrono::steady_clock::now();
    inputs = BuildInputs();
    setup_s.push_back(SecondsSince(start));
  }

  // Warm-up sweep: fills the reference bytes and verifies certificates.
  Rng order_rng(options.seed);
  std::vector<std::string> reference(inputs.size());
  SweepTotals warm_totals;
  Phase warm;
  Sweep(inputs, options.threads, false, &order_rng, &reference, &warm,
        &warm_totals);
  result.ledger.Merge(warm.ledger);
  result.notes.push_back("datasets=1..12 row_cap=" + std::to_string(kRowCap) +
                         " threads=" + std::to_string(options.threads) +
                         " connections=0");

  int sweeps = 0;
  SweepTotals totals;
  if (!options.trace) {
    Phase phase = Measure(inputs, options, &order_rng, options.seconds, 9, false,
                          &reference, &totals, &sweeps);
    AddEndToEnd(setup_s, phase, "synthesize(one dataset, median per dataset)",
                &result);
    result.notes.push_back("sweeps=" + std::to_string(sweeps) +
                           " synth_s(per sweep)=" +
                           FormatNumber(phase.wall_s / sweeps));
    return result;
  }

  Phase untraced = Measure(inputs, options, &order_rng, options.seconds / 2, 1,
                           false,
                           &reference, &totals, &sweeps);
  totals = SweepTotals{};
  StartTracing();
  Phase traced = Measure(inputs, options, &order_rng, options.seconds / 2, 1,
                         true,
                         &reference, &totals, &sweeps);
  const std::vector<SpanRecord> spans = StopTracing(&result.ledger);

  auto& registry = guardrail::telemetry::MetricsRegistry::Instance();
  auto span_s = [&](const char* name) {
    return static_cast<double>(
               registry.CounterValue(std::string("span.") + name + ".micros")) /
           1e6 / sweeps;
  };
  const double per = static_cast<double>(sweeps);
  SetLayer(&result, "pgm.aux_sample.s", span_s("aux_sample"));
  SetLayer(&result, "pgm.pc.s", span_s("pc"));
  SetLayer(&result, "pgm.pc.ci_tests", totals.ci_tests / per);
  SetLayer(&result, "pgm.mec.s", span_s("enumerate"));
  SetLayer(&result, "pgm.mec.dags", totals.dags / per);
  SetLayer(&result, "core.fill.s", span_s("sketch_fill"));
  SetLayer(&result, "core.fill.cache_hit_ratio",
           totals.cache_lookups > 0
               ? static_cast<double>(totals.cache_hits) /
                     static_cast<double>(totals.cache_lookups)
               : 0.0);
  SetLayer(&result, "analysis.verify.s", span_s("analysis.post_synthesis"));
  SetLayer(&result, "analysis.minimize.s", span_s("minimize_ensemble"));
  SetLayer(&result, "analysis.stmts_raw", totals.stmts_raw / per);
  SetLayer(&result, "analysis.stmts_min", totals.stmts_min / per);
  SetLayer(&result, "analysis.certify.s",
           TotalSeconds(spans)["analysis.certify"] / per);
  AddCommonLayers(untraced, traced, &result);
  result.notes.push_back("traced_sweeps=" + std::to_string(sweeps) +
                         " (per-layer values are per 12-dataset sweep)");
  return result;
}

}  // namespace perfbench
