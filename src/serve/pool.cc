#include "serve/pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace serve {

namespace {

/// Sleep granularity of the probe loop: how quickly the pool destructor can
/// stop the prober, not a probing-rate knob.
constexpr int64_t kProbeSliceMs = 20;

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::vector<Endpoint>> ParseEndpoints(const std::string& spec) {
  std::vector<Endpoint> endpoints;
  size_t begin = 0;
  while (begin <= spec.size()) {
    size_t comma = spec.find(',', begin);
    std::string item = spec.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    begin = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    // Trim surrounding whitespace.
    size_t first = item.find_first_not_of(" \t");
    size_t last = item.find_last_not_of(" \t");
    if (first == std::string::npos) continue;  // Empty segment.
    item = item.substr(first, last - first + 1);

    size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon + 1 >= item.size()) {
      return Status::InvalidArgument("endpoint '" + item +
                                     "' is not host:port");
    }
    Endpoint ep;
    ep.host = item.substr(0, colon);
    if (ep.host.empty()) ep.host = "127.0.0.1";
    int64_t port = 0;
    if (!ParseInt64(std::string_view(item).substr(colon + 1), &port)) {
      return Status::InvalidArgument("endpoint '" + item +
                                     "' has a non-numeric port");
    }
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument("endpoint '" + item +
                                     "' port out of range");
    }
    ep.port = static_cast<int>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("no endpoints in '" + spec + "'");
  }
  return endpoints;
}

ReplicaPool::ReplicaPool(std::vector<Endpoint> endpoints, PoolOptions options)
    : options_(options) {
  replicas_.reserve(endpoints.size());
  for (Endpoint& ep : endpoints) {
    auto replica = std::make_unique<Replica>();
    replica->endpoint = std::move(ep);
    replicas_.push_back(std::move(replica));
  }
  // Random 64-bit starting point + sequential increments. The base mixes
  // clock and address entropy on top of the seed: ids are the server-side
  // dedup key, so two pools (e.g. consecutive CLI invocations) must never
  // replay each other's id stream, or the second would be answered from the
  // first's dedup window.
  uint64_t base = options_.seed;
  base ^= static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  base ^= static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)) << 17;
  Rng rng(base);
  next_request_id_.store(rng.NextUint64() | 1, std::memory_order_relaxed);
  if (options_.health_probe_interval_ms > 0 && !replicas_.empty()) {
    prober_ = std::thread([this] { ProbeLoop(); });
  }
}

ReplicaPool::~ReplicaPool() {
  stop_probe_.store(true, std::memory_order_release);
  if (prober_.joinable()) prober_.join();
}

uint64_t ReplicaPool::NextRequestId() {
  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // 0 means "unassigned" on the wire; skip it on wrap-around.
  if (id == 0) id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

size_t ReplicaPool::PickReplica() {
  const size_t n = replicas_.size();
  const size_t start = rr_next_.fetch_add(1, std::memory_order_relaxed) % n;
  const int64_t now = NowMillis();
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (start + i) % n;
    Replica& r = *replicas_[idx];
    if (now < r.open_until_ms.load(std::memory_order_acquire)) continue;
    if (r.draining.load(std::memory_order_acquire)) continue;
    return idx;
  }
  // Everything open or draining: send the round-robin choice anyway — the
  // elapsed breakers' half-open probes are the only way back to health.
  return start;
}

void ReplicaPool::RecordSuccess(size_t replica) {
  Replica& r = *replicas_[replica];
  r.consecutive_failures.store(0, std::memory_order_release);
  r.open_until_ms.store(0, std::memory_order_release);
}

void ReplicaPool::RecordFailure(size_t replica) {
  Replica& r = *replicas_[replica];
  r.failures.fetch_add(1, std::memory_order_relaxed);
  int consecutive =
      r.consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (consecutive >= options_.breaker_failure_threshold) {
    r.open_until_ms.store(NowMillis() + options_.breaker_open_ms,
                          std::memory_order_release);
    GUARDRAIL_COUNTER_INC("pool.breaker_opened");
  }
}

Result<ValidateResponse> ReplicaPool::AttemptPooled(
    size_t replica, const ValidateRequest& request) {
  Replica& r = *replicas_[replica];
  r.requests.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.client.has_value()) {
    Result<Client> connected = Client::Connect(
        r.endpoint.host, r.endpoint.port, options_.connect_timeout_ms);
    if (!connected.ok()) {
      RecordFailure(replica);
      return connected.status();
    }
    r.client.emplace(std::move(*connected));
  }
  Result<ValidateResponse> response = r.client->Validate(request);
  if (!response.ok()) {
    // The stream may be desynchronized (half-written frame, half-read
    // response); drop the connection so the next attempt starts clean.
    r.client.reset();
    RecordFailure(replica);
    return response;
  }
  RecordSuccess(replica);
  return response;
}

Result<ValidateResponse> ReplicaPool::AttemptHedged(
    size_t primary, const ValidateRequest& request) {
  // Hedge attempts run on one-shot connections owned by detached threads:
  // every captured value is a copy or lives in the shared_ptr state, so a
  // slow loser can finish (or time out) after this call — and even after
  // the pool — without touching freed memory.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;
    bool decided = false;
    Result<ValidateResponse> result =
        Status::IoError("hedge: no attempt completed");
    std::vector<std::pair<size_t, bool>> outcomes;  // (replica, transport ok)
  };
  auto shared = std::make_shared<Shared>();

  auto fire = [&](size_t idx) {
    Endpoint ep = replicas_[idx]->endpoint;
    replicas_[idx]->requests.fetch_add(1, std::memory_order_relaxed);
    int timeout_ms = options_.connect_timeout_ms;
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      ++shared->pending;
    }
    std::thread([shared, ep, idx, timeout_ms, request] {
      Result<ValidateResponse> attempt = [&]() -> Result<ValidateResponse> {
        GUARDRAIL_ASSIGN_OR_RETURN(
            Client client, Client::Connect(ep.host, ep.port, timeout_ms));
        return client.Validate(request);
      }();
      std::lock_guard<std::mutex> lock(shared->mu);
      --shared->pending;
      shared->outcomes.emplace_back(idx, attempt.ok());
      // First transport-level success is decisive (the server answered, and
      // thanks to the dedup window both hedges carry the same verdicts);
      // otherwise remember the failure in case nothing succeeds.
      if (!shared->decided && (attempt.ok() || shared->pending == 0)) {
        shared->decided = attempt.ok();
        shared->result = std::move(attempt);
      }
      shared->cv.notify_all();
    }).detach();
  };

  fire(primary);
  std::unique_lock<std::mutex> lock(shared->mu);
  bool answered = shared->cv.wait_for(
      lock, std::chrono::milliseconds(options_.hedge_ms),
      [&] { return shared->decided; });
  if (!answered && replicas_.size() > 1) {
    // Pick a different replica for the hedge.
    size_t secondary = PickReplica();
    if (secondary == primary) secondary = (primary + 1) % replicas_.size();
    GUARDRAIL_COUNTER_INC("pool.hedges");
    lock.unlock();
    fire(secondary);
    lock.lock();
  }
  shared->cv.wait(lock,
                  [&] { return shared->decided || shared->pending == 0; });
  // Apply whatever outcomes have landed to the breakers (a loser finishing
  // after this point just misses its bookkeeping).
  std::vector<std::pair<size_t, bool>> outcomes;
  outcomes.swap(shared->outcomes);
  Result<ValidateResponse> result = shared->result;
  lock.unlock();
  for (const auto& [idx, ok] : outcomes) {
    if (ok) {
      RecordSuccess(idx);
    } else {
      RecordFailure(idx);
    }
  }
  return result;
}

Result<ValidateResponse> ReplicaPool::Validate(ValidateRequest request) {
  if (replicas_.empty()) {
    return Status::InvalidArgument("replica pool has no endpoints");
  }
  if (request.request_id == 0) request.request_id = NextRequestId();
  Deadline deadline = options_.total_deadline_ms > 0
                          ? Deadline::AfterMillis(options_.total_deadline_ms)
                          : Deadline::Infinite();
  RetrySchedule schedule(options_.retry);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  Result<ValidateResponse> last =
      Status::Timeout("deadline expired before the first attempt");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (deadline.Expired()) break;
    size_t idx = PickReplica();
    GUARDRAIL_COUNTER_INC("pool.attempts");
    last = options_.hedge_ms > 0 ? AttemptHedged(idx, request)
                                 : AttemptPooled(idx, request);
    if (last.ok()) {
      // Transport worked: the server's answer is authoritative unless it is
      // itself a retryable condition (shed / per-attempt timeout).
      if (last->code == StatusCode::kOk ||
          !IsRetryableStatusCode(last->code)) {
        return last;
      }
      GUARDRAIL_COUNTER_INC("pool.server_retryable");
    } else if (!IsRetryableStatus(last.status())) {
      return last;
    }
    if (attempt + 1 >= max_attempts) break;
    int64_t backoff_ms = schedule.NextBackoffMillis();
    // A shedding server's retry-after hint is a floor on our own backoff.
    if (last.ok() &&
        static_cast<int64_t>(last->retry_after_ms) > backoff_ms) {
      backoff_ms = last->retry_after_ms;
    }
    if (static_cast<double>(backoff_ms) >=
        deadline.RemainingSeconds() * 1000.0) {
      break;
    }
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    GUARDRAIL_COUNTER_INC("pool.retries");
  }
  return last;
}

Result<HealthResponse> ReplicaPool::Health(size_t replica) {
  if (replica >= replicas_.size()) {
    return Status::OutOfRange("no replica " + std::to_string(replica));
  }
  Replica& r = *replicas_[replica];
  // One-shot connection: probing must not contend with a long validation
  // holding the pooled connection's lock.
  Result<HealthResponse> health = [&]() -> Result<HealthResponse> {
    GUARDRAIL_ASSIGN_OR_RETURN(
        Client client, Client::Connect(r.endpoint.host, r.endpoint.port,
                                       options_.connect_timeout_ms));
    return client.Health();
  }();
  if (!health.ok()) {
    RecordFailure(replica);
    return health;
  }
  r.draining.store(health->draining, std::memory_order_release);
  RecordSuccess(replica);
  return health;
}

void ReplicaPool::ProbeLoop() {
  int64_t next_probe = NowMillis();
  while (!stop_probe_.load(std::memory_order_acquire)) {
    if (NowMillis() < next_probe) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kProbeSliceMs));
      continue;
    }
    next_probe = NowMillis() + options_.health_probe_interval_ms;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (stop_probe_.load(std::memory_order_acquire)) return;
      Result<HealthResponse> health = Health(i);
      GUARDRAIL_COUNTER_INC(health.ok() ? "pool.probe_ok"
                                        : "pool.probe_failed");
    }
  }
}

std::vector<ReplicaPool::ReplicaStats> ReplicaPool::Stats() const {
  std::vector<ReplicaStats> out;
  out.reserve(replicas_.size());
  const int64_t now = NowMillis();
  for (const auto& replica : replicas_) {
    ReplicaStats stats;
    stats.endpoint = replica->endpoint.ToString();
    stats.requests = replica->requests.load(std::memory_order_relaxed);
    stats.failures = replica->failures.load(std::memory_order_relaxed);
    stats.consecutive_failures =
        replica->consecutive_failures.load(std::memory_order_acquire);
    stats.breaker_open =
        now < replica->open_until_ms.load(std::memory_order_acquire);
    stats.draining = replica->draining.load(std::memory_order_acquire);
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace serve
}  // namespace guardrail
