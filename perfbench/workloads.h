#ifndef GUARDRAIL_PERFBENCH_WORKLOADS_H_
#define GUARDRAIL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

/// Dataset row cap shared by every workload (the repository's bench cap):
/// the large datasets are sampled down so a 12-dataset sweep fits in a run.
inline constexpr int64_t kRowCap = 12000;

/// Fresh set-ups per untraced run (offline_synth, whose set-up is short,
/// makes more); setup_s is their median.
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads for synthesis and the shared pool (caller included).
  int threads = 2;
};

/// The timed part of a run: one latency sample per operation, the rows the
/// operations carried, and how each operation fared against its reference.
struct Phase {
  std::vector<double> op_ms;
  /// For a round-robin mix of distinct operations (datasets, queries): the
  /// kind of each sample. Empty when every operation is alike.
  std::vector<int> op_kind;
  int64_t rows = 0;
  double wall_s = 0.0;
  /// Throughput of each complete unit of the run (a sweep, a query pass, or
  /// the whole run). rows_per_s is their median, which a transient stall of
  /// the machine moves far less than rows / wall_s does.
  std::vector<double> unit_rows_per_s;
  FailureLedger ledger;
};


/// The latency samples percentiles are taken over. In a mix, each sample is
/// replaced by the median of its kind, so a percentile names one operation
/// of the mix (the pooled median of a round-robin mix sits exactly on the
/// border between two kinds and swings with noise in either).
std::vector<double> TypicalLatencies(const Phase& phase);

/// Untraced run: fills the end-to-end metrics (setup_s, op_p50_ms,
/// op_p90_ms, rows_per_s, peak_rss_mb) from the set-up times and the phase,
/// plus a note with the sample count and the p99 where supported. A run with
/// fewer than ten samples beyond its p90 fails instead of reporting it.
void AddEndToEnd(const std::vector<double>& setup_s, const Phase& phase,
                 const std::string& op_name, RunResult* out);

/// Traced run: adds tracing_overhead (median traced operation latency over
/// the untraced one, minus 1, both from TypicalLatencies), error_rate and
/// op.samples. Returns tracing_overhead.
double AddCommonLayers(const Phase& untraced, const Phase& traced,
                     RunResult* out);

/// Sets one per-layer metric (its unit comes from the catalogue).
void SetLayer(RunResult* out, const std::string& name, double value);

/// Mean of a span's duration per `per`, in the requested unit scale
/// (1e6 for microseconds, 1e3 for milliseconds, 1 for seconds).
double PerUnit(double seconds, double per, double scale);

RunResult RunOfflineSynth(const Options& options);
RunResult RunSqlGuard(const Options& options);
RunResult RunServeValidate(const Options& options);
RunResult RunStreamIngest(const Options& options);

}  // namespace perfbench

#endif  // GUARDRAIL_PERFBENCH_WORKLOADS_H_
