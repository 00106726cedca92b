#include "common/failpoint.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry/telemetry.h"

namespace guardrail {

namespace {

Status MakeInjected(StatusCode code, std::string_view name) {
  std::string msg = "injected failure at failpoint '" + std::string(name) + "'";
  return Status(code, std::move(msg));
}

bool ParseCodeName(std::string_view text, StatusCode* code) {
  if (text == "invalid") *code = StatusCode::kInvalidArgument;
  else if (text == "notfound") *code = StatusCode::kNotFound;
  else if (text == "range") *code = StatusCode::kOutOfRange;
  else if (text == "exhausted") *code = StatusCode::kResourceExhausted;
  else if (text == "parse") *code = StatusCode::kParseError;
  else if (text == "io") *code = StatusCode::kIoError;
  else if (text == "internal") *code = StatusCode::kInternal;
  else if (text == "timeout") *code = StatusCode::kTimeout;
  else return false;
  return true;
}

}  // namespace

struct FailpointRegistry::Impl {
  struct Armed {
    double probability = 1.0;
    StatusCode code = StatusCode::kInternal;
    Rng rng{0};
  };

  mutable std::mutex mu;
  std::map<std::string, Armed, std::less<>> points;
  // Fast path: skip the lock entirely while nothing is armed.
  std::atomic<int32_t> num_armed{0};
  std::atomic<int64_t> trips_fired{0};
};

FailpointRegistry::FailpointRegistry() : impl_(new Impl()) {
  const char* env = std::getenv("GUARDRAIL_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    // A malformed env spec is an operator error; surface it loudly but do
    // not abort — the process may be a production service.
    Status st = ArmFromSpec(env);
    if (!st.ok()) {
      std::fprintf(stderr, "GUARDRAIL_FAILPOINTS ignored: %s\n",
                   st.ToString().c_str());
      DisarmAll();
    }
  }
}

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

void FailpointRegistry::Arm(std::string_view name, double probability,
                            StatusCode code, uint64_t seed) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Armed armed;
  armed.probability = probability;
  armed.code = code;
  // The point name's hash is folded into the seed so each point draws an
  // independent deterministic stream.
  armed.rng = Rng(seed ^ Fnv1a(name, kFnvShortOffset));
  impl_->points.insert_or_assign(std::string(name), std::move(armed));
  impl_->num_armed.store(static_cast<int32_t>(impl_->points.size()),
                         std::memory_order_release);
}

void FailpointRegistry::Disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  if (it != impl_->points.end()) impl_->points.erase(it);
  impl_->num_armed.store(static_cast<int32_t>(impl_->points.size()),
                         std::memory_order_release);
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->points.clear();
  impl_->num_armed.store(0, std::memory_order_release);
}

Status FailpointRegistry::ArmFromSpec(std::string_view spec, uint64_t seed) {
  for (const std::string& entry : StrSplit(spec, ',')) {
    std::string_view trimmed = StrTrim(entry);
    if (trimmed.empty()) continue;
    std::string_view name = trimmed;
    double probability = 1.0;
    StatusCode code = StatusCode::kInternal;
    size_t eq = trimmed.find('=');
    if (eq != std::string_view::npos) {
      name = trimmed.substr(0, eq);
      std::string_view rest = trimmed.substr(eq + 1);
      std::string_view prob_text = rest;
      size_t at = rest.find('@');
      if (at != std::string_view::npos) {
        prob_text = rest.substr(0, at);
        if (!ParseCodeName(rest.substr(at + 1), &code)) {
          return Status::InvalidArgument("unknown failpoint status code '" +
                                         std::string(rest.substr(at + 1)) +
                                         "'");
        }
      }
      if (!ParseDouble(prob_text, &probability) ||
          probability < 0.0 || probability > 1.0) {
        return Status::InvalidArgument("bad failpoint probability '" +
                                       std::string(prob_text) + "'");
      }
    }
    if (name.empty()) {
      return Status::InvalidArgument("empty failpoint name in spec");
    }
    Arm(name, probability, code, seed);
  }
  return Status::OK();
}

Status FailpointRegistry::Trip(std::string_view name) {
  if (impl_->num_armed.load(std::memory_order_acquire) == 0) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->points.find(name);
  if (it == impl_->points.end()) return Status::OK();
  Impl::Armed& armed = it->second;
  if (armed.probability < 1.0 && !armed.rng.NextBernoulli(armed.probability)) {
    return Status::OK();
  }
  impl_->trips_fired.fetch_add(1, std::memory_order_relaxed);
  Status injected = MakeInjected(armed.code, name);
  GUARDRAIL_LOG(WARN) << "failpoint tripped"
                      << telemetry::Kv("point", name)
                      << telemetry::Kv("code",
                                       StatusCodeToString(armed.code));
  GUARDRAIL_COUNTER_INC("failpoint.trips_total");
  if (telemetry::TracingEnabled()) {
    std::string args = "\"point\": \"";
    telemetry::AppendJsonEscaped(name, &args);
    args += "\"";
    telemetry::InstantEvent("failpoint.trip", args);
  }
  return injected;
}

bool FailpointRegistry::IsArmed(std::string_view name) const {
  if (impl_->num_armed.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->points.find(name) != impl_->points.end();
}

std::vector<std::string> FailpointRegistry::ArmedNames() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> names;
  names.reserve(impl_->points.size());
  for (const auto& [name, armed] : impl_->points) names.push_back(name);
  return names;
}

int64_t FailpointRegistry::trips_fired() const {
  return impl_->trips_fired.load(std::memory_order_relaxed);
}

}  // namespace guardrail
