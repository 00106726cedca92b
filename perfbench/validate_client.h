#ifndef GUARDRAIL_PERFBENCH_VALIDATE_CLIENT_H_
#define GUARDRAIL_PERFBENCH_VALIDATE_CLIENT_H_

// The closed-loop validate client shared by serve_validate and the readers
// of stream_ingest, plus the offline-Guard reference its responses are
// checked against byte for byte.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/guard.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "table/sem_generator.h"
#include "workloads.h"

namespace perfbench {

/// One request of a connection's seeded request cycle.
struct PooledRequest {
  std::string payload;  // CSV with a header row.
  int64_t rows = 0;
  guardrail::core::ErrorPolicy scheme = guardrail::core::ErrorPolicy::kIgnore;
};

/// Builds `blocks` blocks of eight requests sampled from `sem` with 1%
/// injected cell errors. In every block exactly one request has
/// `large_rows` rows (position seeded) and the rest `small_rows`; four
/// requests use ignore and four rectify (order seeded).
std::vector<PooledRequest> MakeRequestPool(const guardrail::SemModel& sem,
                                           int blocks, int64_t small_rows,
                                           int64_t large_rows,
                                           guardrail::Rng* rng);

/// FNV-1a over the verdict bytes of a response's rows (verdict, violation
/// count and repair text of every row).
uint64_t VerdictHash(const std::vector<guardrail::serve::RowResult>& rows);

/// The offline reference for one request under `snapshot`: rows decoded
/// into a copy of the snapshot schema, each judged by the offline Guard
/// (Interpreter::CheckedCheck, Guard::ProcessRow for coerce/rectify) and
/// rendered as the wire's verdict bytes. Returns VerdictHash of that (0 when
/// the payload does not decode).
uint64_t ReferenceHash(const guardrail::serve::ProgramSnapshot& snapshot,
                       const PooledRequest& request);

/// What one connection's closed loop saw.
struct ClientLog {
  Phase phase;
  /// (request index, program version, verdict hash) per validated request,
  /// for references computed after the loop.
  struct Entry {
    size_t request = 0;
    uint64_t version = 0;
    uint64_t hash = 0;
    int64_t done_ns = 0;  // SteadyNs() when the response arrived.
  };
  std::vector<Entry> entries;
  int64_t flagged = 0;
  int64_t large_requests = 0;
};

/// Runs one connection's closed loop (the next request goes out when the
/// previous one returns) against 127.0.0.1:`port` until `stop` is set or
/// `seconds` elapse. Every send carries a fresh request id, so the server's
/// dedup window never answers one; a response marked duplicate is a failure.
/// `after` (may be empty) runs after each completed request, outside its
/// latency sample.
void RunClient(int port, const std::string& dataset,
               const std::vector<PooledRequest>& pool, uint64_t id_base,
               double seconds, const std::atomic<bool>* stop,
               const std::function<void(const guardrail::serve::ValidateRequest&,
                                        const guardrail::serve::ValidateResponse&,
                                        uint64_t span_request_id)>& after,
               int64_t large_rows, ClientLog* log);

}  // namespace perfbench

#endif  // GUARDRAIL_PERFBENCH_VALIDATE_CLIENT_H_
