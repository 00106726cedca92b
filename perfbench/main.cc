// The guardrail performance ledger: one command per workload that prints
// every end-to-end metric (untraced run) or every per-layer metric (traced
// run) and fails on any correctness mismatch. See perfbench/README.md.
//
//   perfbench --workload offline_synth --seed 1 --seconds 10 --trace 0

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/log.h"
#include "common/telemetry/span.h"
#include "common/thread_pool.h"
#include "ledger.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A traced run reports all of them;
// a layer the workload does not exercise reads 0, which is the prediction
// "does not move" for that workload.
constexpr CatalogueEntry kPerLayer[] = {
    // offline_synth -> rows_per_s, op_p50_ms (per 12-dataset sweep)
    {"pgm.aux_sample.s", "s"},
    {"pgm.pc.s", "s"},
    {"pgm.pc.ci_tests", "count"},
    {"pgm.mec.s", "s"},
    {"pgm.mec.dags", "count"},
    {"core.fill.s", "s"},
    {"core.fill.cache_hit_ratio", "ratio"},
    {"analysis.verify.s", "s"},
    {"analysis.minimize.s", "s"},
    {"analysis.stmts_raw", "count"},
    {"analysis.stmts_min", "count"},
    {"analysis.certify.s", "s"},
    // sql_guard -> op_p50_ms, op_p90_ms (per 48-query pass)
    {"sql.execute.s", "s"},
    {"sql.guard.s", "s"},
    {"ml.inference.s", "s"},
    {"sql.guard_to_inference", "ratio"},
    {"sql.rows_guarded", "count"},
    {"core.guard.rows_per_s", "rows/s"},
    {"core.evaluate.rows_per_s", "rows/s"},
    {"core.interp.rows_per_s", "rows/s"},
    // serve_validate -> rows_per_s, op_p50_ms, op_p90_ms (per request)
    {"serve.frame_encode_us", "us"},
    {"serve.frame_decode_us", "us"},
    {"serve.schema_copy_us", "us"},
    {"serve.decode_rows_us", "us"},
    {"table.transpose_us", "us"},
    {"core.evaluate_us", "us"},
    {"core.repair_us", "us"},
    {"serve.engine_us", "us"},
    {"serve.roundtrip_us", "us"},
    {"serve.wire_us", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.kernel_share", "ratio"},
    {"serve.rows_flagged", "count"},
    {"serve.dedup_hits", "count"},
    {"serve.rejected_overload", "count"},
    {"serve.sharded_request_share", "ratio"},
    // stream_ingest -> rows_per_s (ingest), op_p50_ms/op_p90_ms (reads)
    {"stream.ingest_us", "us"},
    {"stream.drift_us", "us"},
    {"stream.refresh_noop_ms", "ms"},
    {"stream.refresh_incremental_ms", "ms"},
    {"stream.refresh_full_ms", "ms"},
    {"stream.refresh.noop", "count"},
    {"stream.refresh.incremental", "count"},
    {"stream.refresh.full", "count"},
    {"stream.statements_refilled", "count"},
    {"stream.statements_reused", "count"},
    {"stream.ci_tests_rerun", "count"},
    {"stream.rows_accumulated", "count"},
    {"stream.publish_latency_ms", "ms"},
    {"stream.drift_lag_batches", "batches"},
    {"serve.publish_ms", "ms"},
    {"serve.ingest_roundtrip_ms", "ms"},
    // every workload
    {"tracing_overhead", "ratio"},
    {"error_rate", "ratio"},
    {"op.samples", "count"},
};

const CatalogueEntry* FindLayer(const std::string& name) {
  for (const CatalogueEntry& e : kPerLayer) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

// Orders the traced run's metrics by the catalogue and fills the layers the
// workload did not touch with 0.
void CompletePerLayer(RunResult* result) {
  std::vector<Metric> ordered;
  for (const CatalogueEntry& e : kPerLayer) {
    Metric m{e.name, 0.0, e.unit};
    for (const Metric& set : result->per_layer) {
      if (set.name == e.name) m.value = set.value;
    }
    ordered.push_back(m);
  }
  result->per_layer = std::move(ordered);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "offline_synth|sql_guard|serve_validate|stream_ingest "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

void SetLayer(RunResult* out, const std::string& name, double value) {
  const CatalogueEntry* entry = FindLayer(name);
  if (entry == nullptr) {
    std::fprintf(stderr, "internal error: uncatalogued layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  for (Metric& m : out->per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  out->per_layer.push_back(Metric{name, value, entry->unit});
}

int Main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return Usage();

  guardrail::telemetry::SetLogLevel(guardrail::telemetry::LogLevel::kError);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  options.threads = std::min(options.threads, nproc);
  guardrail::ThreadPool::SetSharedWorkers(options.threads - 1);

  RunResult result;
  if (options.workload == "offline_synth") {
    result = RunOfflineSynth(options);
  } else if (options.workload == "sql_guard") {
    result = RunSqlGuard(options);
  } else if (options.workload == "serve_validate") {
    result = RunServeValidate(options);
  } else if (options.workload == "stream_ingest") {
    result = RunStreamIngest(options);
  } else {
    return Usage();
  }

  std::printf("# stamp: commit=%s build=%s nproc=%d threads=%d workload=%s "
              "seed=%llu seconds=%g trace=%d\n",
              commit.c_str(), PERFBENCH_BUILD_TYPE, nproc, options.threads,
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (options.trace) {
    CompletePerLayer(&result);
    if (!trace_out.empty()) {
      std::ofstream file(trace_out);
      file << guardrail::telemetry::TraceToJson();
      if (!file) {
        std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("# trace: %s (%zu events)\n", trace_out.c_str(),
                  guardrail::telemetry::SnapshotTraceEvents().size());
    }
  }
  const std::vector<Metric>& shown =
      options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : shown) {
    std::printf("%-32s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(result, options.trace).c_str());
  std::fflush(stdout);
  const bool correct =
      result.ledger.failed() == 0 && result.ledger.attempted() > 0;
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
