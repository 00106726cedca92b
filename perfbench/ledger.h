#ifndef GUARDRAIL_PERFBENCH_LEDGER_H_
#define GUARDRAIL_PERFBENCH_LEDGER_H_

// Statistics, span tracing and result reporting shared by the performance
// ledger's workloads. Everything here lives in the benchmark, not in the
// library under test: spans are recorded around calls into the library's
// public functions, so the library is measured exactly as it ships.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry/span.h"

namespace perfbench {

// ---- Statistics ---------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` (in (0, 1]) of all samples are <= it, i.e. sorted[ceil(p * n) - 1].
/// 0 for an empty sample.
double NearestRank(std::vector<double> samples, double p);

/// Nearest-rank percentile that refuses to report a tail it cannot support:
/// nullopt unless at least `min_beyond` samples lie strictly above the
/// percentile's rank (n - ceil(p * n) >= min_beyond).
std::optional<double> SupportedPercentile(const std::vector<double>& samples,
                                          double p, int min_beyond = 10);

double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

/// Failure-fraction accounting: every operation attempted is recorded once,
/// as succeeded or failed (an error, a refusal, or an output that differs
/// from the reference all count as failed).
class FailureLedger {
 public:
  void Record(bool ok);
  void Merge(const FailureLedger& other);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double rate() const;

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---- Tracing ------------------------------------------------------------
// Spans are the library's own (telemetry::Span, with the request id attached
// through AddArg("request_id", ...)); with tracing enabled they land in the
// library's in-memory trace buffer next to the library's spans (serve.request,
// pc, sketch_fill, ...), and telemetry::TraceToJson writes the Chrome trace.

/// One finished span. `parent` is 0 for a root span; spans of one request
/// carry the same `request_id`.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
};

/// Rebuilds finished spans from trace events (telemetry::SnapshotTraceEvents)
/// by matching B/E events per thread, the way chrome://tracing nests them: a
/// span's parent is the innermost span open on its thread when it began. A
/// span takes the "request_id" argument of its end event, or else its
/// parent's. Ids follow begin order; unmatched events are skipped.
std::vector<SpanRecord> SpansFromTrace(
    const std::vector<guardrail::telemetry::TraceEventRecord>& events);

/// Self time per span name, in seconds, summed over all spans: each span's
/// duration minus the part of its interval covered by its direct children
/// (overlapping children are counted once).
std::map<std::string, double> SelfSeconds(const std::vector<SpanRecord>& spans);

/// Total duration per span name, in seconds.
std::map<std::string, double> TotalSeconds(
    const std::vector<SpanRecord>& spans);

/// Number of spans per name.
std::map<std::string, int64_t> SpanCounts(const std::vector<SpanRecord>& spans);

/// Starts a traced phase: clears the library's trace buffer and metrics and
/// turns tracing and metrics on.
void StartTracing();

/// Ends a traced phase (tracing and metrics off) and returns its spans. A
/// trace buffer that overflowed dropped events, so its nesting cannot be
/// trusted: that counts as one failed operation on `ledger`.
std::vector<SpanRecord> StopTracing(FailureLedger* ledger);

// ---- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs; `notes` are printed as human-readable lines
/// ahead of the final JSON line.
struct RunResult {
  FailureLedger ledger;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
};

/// The final line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result, bool traced);

/// Formats with enough digits that no measured value is rounded away.
std::string FormatNumber(double value);

/// Seconds elapsed on the steady clock since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The steady clock, in nanoseconds, for timestamps compared across threads.
inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// While alive, moves every thread of the process to another CPU every
/// `period_ms` (round-robin over the CPUs the process may use), then lets it
/// run anywhere again. On a virtual machine whose CPUs run at different
/// speeds (host contention on each one differs), a thread otherwise stays
/// on one CPU for a whole run, and single-threaded layers read up to a
/// third faster or slower from run to run; shuffling averages the CPUs
/// within every run.
class CpuShuffler {
 public:
  explicit CpuShuffler(int period_ms = 200);
  ~CpuShuffler();
  CpuShuffler(const CpuShuffler&) = delete;
  CpuShuffler& operator=(const CpuShuffler&) = delete;

 private:
  void Loop();

  const int period_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // Guarded by mu_.
  std::thread thread_;
};

}  // namespace perfbench

#endif  // GUARDRAIL_PERFBENCH_LEDGER_H_
