// Reproduces paper Table 4: offline synthesis wall-clock per dataset, with
// the pipeline-stage breakdown (auxiliary sampling, structure learning, MEC
// enumeration, sketch filling). Absolute times differ from the paper's
// Python prototype; the shape to check is that wider datasets cost more and
// that the one-off cost stays practical.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "exp/pipeline.h"

namespace guardrail {
namespace {

// Thread-scaling sweep for the parallel synthesis engine: re-run a
// representative dataset at 1/2/4/8 threads and record the synthesize-span
// wall-clock. Speedups depend on the host's core count; on a 1-core CI box
// all four rows are expected to be flat.
int RunThreadScaling() {
  const int kThreads[] = {1, 2, 4, 8};
  const int dataset_id = bench::BenchDatasetIds().front();
  bench::TextTable table(
      {"Threads", "Synthesize (s)", "Structure", "Fill", "Speedup"});
  double baseline = 0.0;
  for (int t : kThreads) {
    bench::ResetBenchTelemetry();
    ThreadPool::SetSharedWorkers(t - 1);  // Caller participates: t-1 workers.
    exp::ExperimentConfig config = bench::DefaultBenchConfig();
    config.train_model = false;
    config.synthesis.num_threads = t;
    auto prepared = exp::PrepareDataset(dataset_id, config);
    if (!prepared.ok()) {
      std::fprintf(stderr, "dataset %d failed: %s\n", dataset_id,
                   prepared.status().ToString().c_str());
      return 1;
    }
    double total = bench::SpanSeconds("synthesize");
    double structure = bench::SpanSeconds("structure");
    double fill = bench::SpanSeconds("sketch_fill");
    if (t == 1) baseline = total;
    table.AddRow({bench::FmtInt(t), bench::Fmt(total, 4),
                  bench::Fmt(structure, 4), bench::Fmt(fill, 4),
                  total > 0 ? bench::Fmt(baseline / total, 2) + "x" : "-"});
  }
  ThreadPool::SetSharedWorkers(ThreadPool::DefaultThreads() - 1);
  std::printf("\nThread scaling (dataset %d; output programs are identical "
              "at every width):\n\n", dataset_id);
  table.Print();
  return 0;
}

int Run() {
  // Timings are read back from the telemetry span counters, so this table
  // prints the same measurements a `--metrics-out` export would contain.
  bench::EnableBenchTelemetry();
  bench::TextTable table({"Dataset ID", "# Attr.", "Total Time (s)",
                          "Sampling", "Structure", "Enumeration", "Fill",
                          "Cache hit rate"});
  for (int id : bench::BenchDatasetIds()) {
    bench::ResetBenchTelemetry();
    exp::ExperimentConfig config = bench::DefaultBenchConfig();
    config.train_model = false;
    auto prepared = exp::PrepareDataset(id, config);
    if (!prepared.ok()) {
      std::fprintf(stderr, "dataset %d failed: %s\n", id,
                   prepared.status().ToString().c_str());
      return 1;
    }
    double hits =
        static_cast<double>(bench::CounterValue("sketch_filler.cache_hits"));
    double lookups =
        hits +
        static_cast<double>(bench::CounterValue("sketch_filler.cache_misses"));
    table.AddRow({bench::FmtInt(id),
                  bench::FmtInt((*prepared)->bundle.spec.num_attributes),
                  bench::Fmt(bench::SpanSeconds("aux_sample") +
                                 bench::SpanSeconds("structure") +
                                 bench::SpanSeconds("enumerate") +
                                 bench::SpanSeconds("sketch_fill"),
                             4),
                  bench::Fmt(bench::SpanSeconds("aux_sample"), 3),
                  bench::Fmt(bench::SpanSeconds("structure"), 3),
                  bench::Fmt(bench::SpanSeconds("enumerate"), 3),
                  bench::Fmt(bench::SpanSeconds("sketch_fill"), 3),
                  lookups > 0 ? bench::Fmt(hits / lookups) : "-"});
  }
  std::printf("Table 4: processing time for offline synthesis\n\n");
  table.Print();
  std::printf(
      "\nPaper shape: one-off cost, minutes-scale in Python; here the C++\n"
      "pipeline is faster in absolute terms but ordering with attribute\n"
      "count and the dominance of structure learning match.\n");
  return RunThreadScaling();
}

}  // namespace
}  // namespace guardrail

int main() { return guardrail::Run(); }
