#ifndef GUARDRAIL_BENCH_BENCH_COMMON_H_
#define GUARDRAIL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/pipeline.h"

namespace guardrail {
namespace bench {

/// Fixed-width text table printer for the experiment binaries; each bench
/// prints the same rows/series as the corresponding paper table or figure.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders with column-width alignment and a header rule.
  std::string ToString() const;

  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats helpers used across benches. Fmt keeps `digits` significant
/// digits (%g, so large values turn to exponent form); FmtFixed prints
/// `decimals` places in fixed notation, for ratios that can reach the
/// hundreds.
std::string Fmt(double value, int digits = 3);
std::string FmtFixed(double value, int decimals);
std::string FmtInt(int64_t value);

/// The shared experiment configuration for bench runs. Row counts follow
/// paper Table 2 but are capped (per dataset) so the full 12-dataset sweep
/// completes in CI-scale time; the cap preserves every qualitative shape.
exp::ExperimentConfig DefaultBenchConfig();

/// Dataset ids to sweep (all 12 unless GUARDRAIL_BENCH_FAST is set, then a
/// representative trio for smoke runs).
std::vector<int> BenchDatasetIds();

/// Turns on the telemetry metrics pillar for a bench run. Benches read their
/// timings back through SpanSeconds/CounterValue so the numbers they print
/// are the same measurements `--metrics-out` would export — not a second
/// ad-hoc clock.
void EnableBenchTelemetry();

/// Zeroes all counters/histograms and clears the trace buffer (telemetry
/// stays enabled). Call between per-dataset iterations so reads are
/// per-iteration, not cumulative.
void ResetBenchTelemetry();

/// Current value of a telemetry counter (0 when never touched).
int64_t CounterValue(std::string_view name);

/// Accumulated wall-clock of the named span in seconds, i.e.
/// `span.<name>.micros` / 1e6 (0.0 when the span never ran).
double SpanSeconds(std::string_view name);

}  // namespace bench
}  // namespace guardrail

#endif  // GUARDRAIL_BENCH_BENCH_COMMON_H_
