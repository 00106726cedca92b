#ifndef GUARDRAIL_COMMON_FAILPOINT_H_
#define GUARDRAIL_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace guardrail {

/// Fault-injection registry. Production code marks recoverable failure sites
/// with GUARDRAIL_FAILPOINT("name"); a disarmed failpoint costs one relaxed
/// atomic load. Tests (and operators, via the GUARDRAIL_FAILPOINTS
/// environment variable) arm points by name to make the site return a
/// non-OK Status deterministically or with a given probability, driven by
/// the repo's own Rng so chaos runs replay bit-for-bit from a seed.
///
/// Spec grammar (comma separated):
///   point            — always fires, StatusCode::kInternal
///   point=0.25       — fires with probability 0.25
///   point=0.25@io    — fires with that probability as StatusCode::kIoError
/// Recognized code names: invalid, notfound, range, exhausted, parse, io,
/// internal, timeout.
class FailpointRegistry {
 public:
  /// Process-wide registry. Reads GUARDRAIL_FAILPOINTS once on first access.
  static FailpointRegistry& Instance();

  /// Arms `name`; subsequent Trip(name) calls fire with `probability`,
  /// returning Status with `code`. The per-point Rng is seeded from `seed`
  /// and the name, so two runs with the same seed fire identically.
  void Arm(std::string_view name, double probability = 1.0,
           StatusCode code = StatusCode::kInternal, uint64_t seed = 0);

  void Disarm(std::string_view name);
  void DisarmAll();

  /// Parses and arms a comma-separated spec (see grammar above).
  Status ArmFromSpec(std::string_view spec, uint64_t seed = 0);

  /// The fallible site hook: OK unless `name` is armed and fires this call.
  Status Trip(std::string_view name);

  /// Whether `name` is currently armed, without drawing from its Rng. The
  /// guard executor uses this to pick its interpreter engine while a point is
  /// armed, so chaos runs replay the exact per-row trip sequence. Costs one
  /// atomic load while nothing is armed.
  bool IsArmed(std::string_view name) const;

  /// Names currently armed (sorted) and the total number of fires so far.
  std::vector<std::string> ArmedNames() const;
  int64_t trips_fired() const;

 private:
  FailpointRegistry();
  struct Impl;
  Impl* impl_;
};

/// Convenience free function used by the GUARDRAIL_FAILPOINT macro.
inline Status FailpointTrip(std::string_view name) {
  return FailpointRegistry::Instance().Trip(name);
}

/// RAII arm/disarm for tests.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string name, double probability = 1.0,
                           StatusCode code = StatusCode::kInternal,
                           uint64_t seed = 0)
      : name_(std::move(name)) {
    FailpointRegistry::Instance().Arm(name_, probability, code, seed);
  }
  ~ScopedFailpoint() { FailpointRegistry::Instance().Disarm(name_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace guardrail

/// Marks a fallible failure site: propagates an injected error to the caller.
#define GUARDRAIL_FAILPOINT(name) \
  GUARDRAIL_RETURN_NOT_OK(::guardrail::FailpointTrip(name))

#endif  // GUARDRAIL_COMMON_FAILPOINT_H_
