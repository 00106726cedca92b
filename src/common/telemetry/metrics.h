#ifndef GUARDRAIL_COMMON_TELEMETRY_METRICS_H_
#define GUARDRAIL_COMMON_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry/state.h"

namespace guardrail {
namespace telemetry {

/// A monotonically increasing (well, Add can be negative, but by convention
/// it is not) named value. Thread-safe: increments are relaxed atomic adds,
/// which is all a statistics counter needs — no ordering with other memory.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over non-negative integer samples with
/// power-of-two bucket bounds 1, 2, 4, ... — cheap enough for per-row
/// recording (one atomic add into the right bucket) and lossless about the
/// distribution shape that matters for skew diagnosis.
class Histogram {
 public:
  /// Bounds are 2^0 .. 2^(kNumBounds-1); the last bucket is the overflow.
  static constexpr int kNumBounds = 32;

  /// Records `times` samples of `value`.
  void Record(int64_t value, int64_t times = 1);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket i (inclusive); the final bucket is unbounded.
  static int64_t BucketBound(int i) { return int64_t{1} << i; }

  void Reset();

 private:
  std::array<std::atomic<int64_t>, kNumBounds + 1> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Process-wide name -> metric registry. Lookup takes a mutex, so hot call
/// sites cache the returned pointer (see GUARDRAIL_COUNTER_ADD); pointers
/// stay valid for the process lifetime — ResetAll zeroes values but never
/// invalidates a metric.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Value of `name`, or 0 when the counter was never touched.
  int64_t CounterValue(std::string_view name) const;

  /// Every metric as a JSON document:
  ///   {"counters": {...}, "histograms": {"n": {"count":..,"sum":..,
  ///    "bucket_bounds":[..],"bucket_counts":[..]}}}
  std::string ToJson() const;

  /// Sorted names of all counters touched so far.
  std::vector<std::string> CounterNames() const;

  /// Zeroes every metric (pointers stay valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace telemetry
}  // namespace guardrail

/// Adds `delta` to the named counter when metrics are on. `name` must be a
/// string literal: the resolved pointer is cached in a function-local static
/// so the steady-state cost is one relaxed flag load, one branch, and one
/// relaxed add — and just the load + branch while telemetry is disabled.
#define GUARDRAIL_COUNTER_ADD(name, delta)                                  \
  do {                                                                      \
    if (::guardrail::telemetry::MetricsEnabled()) {                         \
      static ::guardrail::telemetry::Counter* _guardrail_counter_ =         \
          ::guardrail::telemetry::MetricsRegistry::Instance().GetCounter(   \
              name);                                                        \
      _guardrail_counter_->Add(delta);                                      \
    }                                                                       \
  } while (0)

#define GUARDRAIL_COUNTER_INC(name) GUARDRAIL_COUNTER_ADD(name, 1)

/// Records `value` into the named histogram when metrics are on (same
/// caching scheme as GUARDRAIL_COUNTER_ADD).
#define GUARDRAIL_HISTOGRAM_RECORD(name, value)                             \
  do {                                                                      \
    if (::guardrail::telemetry::MetricsEnabled()) {                         \
      static ::guardrail::telemetry::Histogram* _guardrail_histogram_ =     \
          ::guardrail::telemetry::MetricsRegistry::Instance().GetHistogram( \
              name);                                                        \
      _guardrail_histogram_->Record(value);                                 \
    }                                                                       \
  } while (0)

#endif  // GUARDRAIL_COMMON_TELEMETRY_METRICS_H_
