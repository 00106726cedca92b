#ifndef GUARDRAIL_SERVE_ENGINE_H_
#define GUARDRAIL_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/status.h"
#include "serve/decode.h"  // DecodeRows, for callers of the engine.
#include "serve/protocol.h"
#include "serve/registry.h"

namespace guardrail {
namespace serve {

/// Bounded admission for the request engine: at most `limit` requests may be
/// in flight at once; an arrival past the limit is rejected immediately so
/// overload surfaces as ResourceExhausted backpressure on the wire instead
/// of an unbounded queue eating memory and blowing every deadline.
class AdmissionController {
 public:
  explicit AdmissionController(int limit) : limit_(limit < 1 ? 1 : limit) {}

  bool TryAcquire() {
    int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (inflight >= limit_) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    return true;
  }

  void Release() { inflight_.fetch_sub(1, std::memory_order_acq_rel); }

  int inflight() const { return inflight_.load(std::memory_order_acquire); }
  int limit() const { return limit_; }

 private:
  std::atomic<int> inflight_{0};
  const int limit_;
};

struct EngineOptions {
  /// Concurrent requests admitted; arrivals beyond this get
  /// ResourceExhausted responses (see AdmissionController).
  int max_inflight = 64;
  /// Per-request row cap; larger batches are rejected as InvalidArgument
  /// before any work.
  int64_t max_batch_rows = 1 << 20;
  /// Applied when a request carries no deadline; 0 = unlimited.
  uint32_t default_deadline_ms = 0;
  /// Batches at least this large validate via the shared thread pool's
  /// sharded ParallelFor (the PR-3 row-scan pattern); smaller ones run
  /// inline on the request thread.
  int64_t parallel_batch_threshold = 2048;
  /// Rows per ParallelFor shard.
  int64_t rows_per_shard = 1024;
  /// Completed responses remembered per engine, keyed by client-assigned
  /// request id, for exactly-once retries (0 disables dedup). Sizing: must
  /// cover retries-in-flight across the pool, not total throughput — see
  /// docs/SERVING.md "Resilience".
  int dedup_window = 1024;
  /// retry_after_ms hint attached to ResourceExhausted shed responses.
  uint32_t retry_after_hint_ms = 25;
};

/// Bounded FIFO memory of answered request ids. A retransmitted id replays
/// the remembered response instead of re-running validation, which is what
/// makes coerce/rectify verdicts exactly-once under client retries: the
/// first execution's bytes are returned again, never a second execution.
/// Only kOk responses are remembered — a shed or failed request must really
/// retry.
///
/// Entries are scoped by the program version they were computed against: a
/// retry that spans a hot reload re-runs under the live program instead of
/// replaying a superseded-program verdict (its repairs would be stale
/// against the constraints now being enforced), and the re-run's response
/// displaces the stale entry. Thread-safe.
///
/// An entry keeps only what a replay needs: the response's non-row fields,
/// its row count, and the rows that differ from a default RowResult packed
/// into one string (11 bytes plus the detail text per such row). Lookup
/// rebuilds the dense rows, so a replay equals the original in every field
/// but `duplicate`.
class ResponseDedupWindow {
 public:
  explicit ResponseDedupWindow(int capacity)
      : capacity_(capacity < 0 ? 0 : capacity) {}

  /// True (and *out filled, with duplicate=true) when `request_id` was
  /// already answered by a response computed against `live_version`. An
  /// entry from a superseded version misses, so the caller recomputes.
  bool Lookup(uint64_t request_id, uint64_t live_version,
              ValidateResponse* out) const;

  /// Remembers a completed response, evicting the oldest id past capacity.
  /// First answer wins within a program version; a response computed
  /// against a newer version than the remembered one displaces it.
  void Remember(uint64_t request_id, const ValidateResponse& response);

  int size() const;
  int capacity() const { return capacity_; }
  /// Bytes the remembered entries hold: each entry's fixed fields, its
  /// error text and its packed rows. Clean rows cost nothing.
  int64_t bytes() const;

 private:
  struct Entry;

  const int capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<const Entry>> by_id_;
  std::deque<uint64_t> order_;  // Oldest first.
};

/// The serving request engine: resolves a dataset's current program
/// snapshot, decodes the request's rows into columns (serve/decode.h), and
/// vets each row with the offline `core::Guard` semantics under the
/// requested enforcement scheme.
///
/// Contract: Handle never fails at the transport level. Every outcome —
/// including overload, unknown datasets, malformed payloads, injected
/// faults, and deadline expiry — is a ValidateResponse with a status code,
/// and a failure in one request leaves the engine fully serviceable for the
/// next (per-request isolation).
class ValidationEngine {
 public:
  ValidationEngine(ProgramRegistry* registry, EngineOptions options)
      : registry_(registry),
        options_(options),
        admission_(options.max_inflight),
        dedup_(options.dedup_window) {}

  ValidationEngine(const ValidationEngine&) = delete;
  ValidationEngine& operator=(const ValidationEngine&) = delete;

  ValidateResponse Handle(const ValidateRequest& request) {
    return Handle(request, request.payload);
  }

  /// Handle with the request's rows in `rows` (request.payload is not
  /// read): the server passes a view into the frame it received, so the
  /// rows are never copied out of it.
  ValidateResponse Handle(const ValidateRequest& request,
                          std::string_view rows);

  const EngineOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }
  const ResponseDedupWindow& dedup() const { return dedup_; }

 private:
  /// `snapshot` is the dataset's program as Handle found it (nullptr for an
  /// unknown dataset); every verdict of the request is computed against it.
  ValidateResponse HandleAdmitted(
      const ValidateRequest& request, std::string_view rows,
      std::shared_ptr<const ProgramSnapshot> snapshot);

  ProgramRegistry* registry_;
  EngineOptions options_;
  AdmissionController admission_;
  ResponseDedupWindow dedup_;
};

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_SERVE_ENGINE_H_
