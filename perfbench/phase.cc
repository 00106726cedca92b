#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

std::vector<double> TypicalLatencies(const Phase& phase) {
  if (phase.op_kind.empty()) return phase.op_ms;
  std::map<int, std::vector<double>> by_kind;
  for (size_t i = 0; i < phase.op_ms.size(); ++i) {
    by_kind[phase.op_kind[i]].push_back(phase.op_ms[i]);
  }
  std::map<int, double> median;
  for (const auto& [kind, samples] : by_kind) median[kind] = Median(samples);
  std::vector<double> out;
  for (int kind : phase.op_kind) out.push_back(median[kind]);
  return out;
}

void AddEndToEnd(const std::vector<double>& setup_s, const Phase& phase,
                 const std::string& op_name, RunResult* out) {
  const std::vector<double> latencies = TypicalLatencies(phase);
  out->ledger.Merge(phase.ledger);
  out->end_to_end.push_back({"setup_s", Median(setup_s), "s"});
  out->end_to_end.push_back({"op_p50_ms", Median(latencies), "ms"});
  std::optional<double> p90_ms = SupportedPercentile(latencies, 0.90);
  out->end_to_end.push_back({"op_p90_ms", p90_ms.value_or(0.0), "ms"});
  out->end_to_end.push_back(
      {"rows_per_s", Median(phase.unit_rows_per_s), "rows/s"});
  out->end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});

  std::string note = "op=" + op_name +
                     " samples=" + std::to_string(phase.op_ms.size()) +
                     " rows=" + std::to_string(phase.rows) +
                     " wall_s=" + FormatNumber(phase.wall_s) +
                     " error_rate=" + FormatNumber(phase.ledger.rate());
  for (double p : {0.90, 0.99}) {
    std::optional<double> tail = SupportedPercentile(latencies, p);
    note += " p" + std::to_string(static_cast<int>(p * 100)) + "_ms=" +
            (tail ? FormatNumber(*tail) : std::string("unsupported"));
  }
  note += " rows/wall_s=" +
          FormatNumber(phase.wall_s > 0.0
                           ? static_cast<double>(phase.rows) / phase.wall_s
                           : 0.0) +
          " throughput_units=" + std::to_string(phase.unit_rows_per_s.size());
  note += " setup_runs=" + std::to_string(setup_s.size());
  out->notes.push_back(note);
  if (phase.unit_rows_per_s.empty()) {
    out->notes.push_back("no complete throughput unit in the run");
    out->ledger.Record(false);
  }
  if (!p90_ms) {
    // A tail with fewer than ten samples beyond it is not a measurement.
    out->notes.push_back("refusing op_p90_ms: fewer than 10 samples beyond");
    out->ledger.Record(false);
  }
}

double AddCommonLayers(const Phase& untraced, const Phase& traced,
                     RunResult* out) {
  out->ledger.Merge(untraced.ledger);
  out->ledger.Merge(traced.ledger);
  const double base = Median(TypicalLatencies(untraced));
  const double with_spans = Median(TypicalLatencies(traced));
  const double overhead = base > 0.0 ? with_spans / base - 1.0 : 0.0;
  SetLayer(out, "tracing_overhead", overhead);
  SetLayer(out, "error_rate", out->ledger.rate());
  SetLayer(out, "op.samples", static_cast<double>(traced.op_ms.size()));
  out->notes.push_back(
      "untraced_p50_ms=" + FormatNumber(base) +
      " traced_p50_ms=" + FormatNumber(with_spans) +
      " untraced_samples=" + std::to_string(untraced.op_ms.size()) +
      " traced_samples=" + std::to_string(traced.op_ms.size()));
  return overhead;
}

double PerUnit(double seconds, double per, double scale) {
  return per > 0.0 ? seconds * scale / per : 0.0;
}

}  // namespace perfbench
