#include "common/telemetry/metrics.h"

#include <algorithm>

#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace telemetry {

void Histogram::Record(int64_t value, int64_t times) {
  int bucket = 0;
  if (value > 0) {
    // Index of the first bound >= value; values beyond the largest bound
    // land in the overflow bucket.
    while (bucket < kNumBounds && value > BucketBound(bucket)) ++bucket;
  }
  buckets_[static_cast<size_t>(bucket)].fetch_add(times,
                                                  std::memory_order_relaxed);
  count_.fetch_add(times, std::memory_order_relaxed);
  sum_.fetch_add(value * times, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

int64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->Value();
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"";
    AppendJsonEscaped(name, &out);
    out += "\": " + std::to_string(counter->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"";
    AppendJsonEscaped(name, &out);
    out += "\": {\"count\": " + std::to_string(histogram->count()) +
           ", \"sum\": " + std::to_string(histogram->sum());
    // Trailing empty buckets are elided; bounds and counts stay aligned.
    int last = Histogram::kNumBounds;
    while (last >= 0 && histogram->bucket(last) == 0) --last;
    out += ", \"bucket_bounds\": [";
    for (int i = 0; i <= last && i < Histogram::kNumBounds; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(Histogram::BucketBound(i));
    }
    out += "], \"bucket_counts\": [";
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(histogram->bucket(i));
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace telemetry
}  // namespace guardrail
