#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace bench {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  while (row.size() < header_.size()) row.emplace_back("");
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(header_.size(), 0);
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out;
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      out += cell;
      out.append(widths[i] - cell.size() + 2, ' ');
    }
    out += "\n";
    return out;
  };
  std::string out = render_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  out.append(total, '-');
  out += "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TextTable::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string Fmt(double value, int digits) {
  return FormatDouble(value, digits);
}

std::string FmtFixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FmtInt(int64_t value) { return std::to_string(value); }

exp::ExperimentConfig DefaultBenchConfig() {
  exp::ExperimentConfig config;
  // Cap per-dataset rows: the large datasets (Adult 48842, Bank 45211, ...)
  // are sampled down for a single-core sweep; detection quality, timing
  // ordering, and rectification shapes are unchanged.
  config.row_limit = 12000;
  // Paper-recommended epsilon range is 0.01-0.05 (Fig. 7); the sweep in
  // fig7_epsilon_sweep varies it explicitly.
  config.synthesis.fill.epsilon = 0.05;
  return config;
}

std::vector<int> BenchDatasetIds() {
  if (std::getenv("GUARDRAIL_BENCH_FAST") != nullptr) return {2, 4, 6};
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

void EnableBenchTelemetry() { telemetry::EnableMetrics(true); }

void ResetBenchTelemetry() {
  telemetry::MetricsRegistry::Instance().ResetAll();
  telemetry::ClearTrace();
}

int64_t CounterValue(std::string_view name) {
  return telemetry::MetricsRegistry::Instance().CounterValue(name);
}

double SpanSeconds(std::string_view name) {
  std::string counter = "span.";
  counter += name;
  counter += ".micros";
  return static_cast<double>(CounterValue(counter)) / 1e6;
}

}  // namespace bench
}  // namespace guardrail
