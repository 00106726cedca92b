#include "validate_client.h"

#include <chrono>
#include <utility>

#include "common/csv.h"
#include "common/telemetry/span.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "table/error_injector.h"

namespace perfbench {

namespace serve = guardrail::serve;
namespace core = guardrail::core;

std::vector<PooledRequest> MakeRequestPool(const guardrail::SemModel& sem,
                                           int blocks, int64_t small_rows,
                                           int64_t large_rows,
                                           guardrail::Rng* rng) {
  std::vector<PooledRequest> pool;
  for (int b = 0; b < blocks; ++b) {
    const uint64_t large_pos = rng->NextUint64(8);
    core::ErrorPolicy schemes[8] = {
        core::ErrorPolicy::kIgnore,  core::ErrorPolicy::kIgnore,
        core::ErrorPolicy::kIgnore,  core::ErrorPolicy::kIgnore,
        core::ErrorPolicy::kRectify, core::ErrorPolicy::kRectify,
        core::ErrorPolicy::kRectify, core::ErrorPolicy::kRectify};
    for (int i = 7; i > 0; --i) {
      std::swap(schemes[i], schemes[rng->NextUint64(static_cast<uint64_t>(i) + 1)]);
    }
    for (uint64_t k = 0; k < 8; ++k) {
      PooledRequest request;
      request.rows = k == large_pos ? large_rows : small_rows;
      request.scheme = schemes[k];
      guardrail::ErrorInjectionOptions injection;
      injection.min_errors = 0;
      guardrail::ErrorInjectionResult dirty = guardrail::InjectErrors(
          sem.Sample(request.rows, rng), injection, rng);
      request.payload = guardrail::WriteCsv(dirty.dirty.ToCsv());
      pool.push_back(std::move(request));
    }
  }
  return pool;
}

uint64_t VerdictHash(const std::vector<serve::RowResult>& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (const serve::RowResult& row : rows) {
    mix(static_cast<uint8_t>(row.verdict));
    mix(static_cast<uint8_t>(row.violations & 0xFF));
    mix(static_cast<uint8_t>(row.violations >> 8));
    for (char c : row.detail) mix(static_cast<uint8_t>(c));
    mix(0xFF);
  }
  return h;
}

uint64_t ReferenceHash(const serve::ProgramSnapshot& snapshot,
                       const PooledRequest& request) {
  guardrail::Schema working = snapshot.schema;
  auto rows = serve::DecodeRows(serve::RowFormat::kCsv, request.payload,
                                &working, int64_t{1} << 24);
  if (!rows.ok()) return 0;
  const core::Guard guard(&snapshot.program);
  std::vector<serve::RowResult> out(rows->size());
  for (size_t r = 0; r < rows->size(); ++r) {
    const guardrail::Row& row = (*rows)[r];
    serve::RowResult& res = out[r];
    auto checked = guard.interpreter().CheckedCheck(row);
    if (!checked.ok()) {
      res.verdict = serve::RowVerdict::kFailed;
      res.detail = checked.status().ToString();
      continue;
    }
    if (checked->empty()) continue;
    res.verdict = serve::RowVerdict::kViolation;
    res.violations = static_cast<uint16_t>(
        checked->size() > 0xFFFF ? 0xFFFF : checked->size());
    if (request.scheme != core::ErrorPolicy::kCoerce &&
        request.scheme != core::ErrorPolicy::kRectify) {
      continue;
    }
    auto processed = guard.ProcessRow(row, request.scheme);
    if (!processed.ok()) {
      res.verdict = serve::RowVerdict::kFailed;
      res.detail = processed.status().ToString();
      continue;
    }
    if (*processed == row) continue;
    std::vector<std::string> fields;
    for (guardrail::AttrIndex c = 0; c < working.num_attributes(); ++c) {
      guardrail::ValueId v = (*processed)[static_cast<size_t>(c)];
      fields.push_back(v == guardrail::kNullValue ? ""
                                                  : working.attribute(c).label(v));
    }
    res.detail = guardrail::WriteCsvRecord(fields);
  }
  return VerdictHash(out);
}

void RunClient(int port, const std::string& dataset,
               const std::vector<PooledRequest>& pool, uint64_t id_base,
               double seconds, const std::atomic<bool>* stop,
               const std::function<void(const serve::ValidateRequest&,
                                        const serve::ValidateResponse&,
                                        uint64_t)>& after,
               int64_t large_rows, ClientLog* log) {
  auto client = serve::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    log->phase.ledger.Record(false);
    return;
  }
  std::vector<serve::ValidateRequest> requests(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    requests[i].dataset = dataset;
    requests[i].scheme = pool[i].scheme;
    requests[i].format = serve::RowFormat::kCsv;
    requests[i].payload = pool[i].payload;
  }
  auto start = std::chrono::steady_clock::now();
  uint64_t next_id = id_base;
  size_t next = 0;
  while (SecondsSince(start) < seconds &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    const size_t idx = next++ % pool.size();
    serve::ValidateRequest& request = requests[idx];
    request.request_id = ++next_id;
    auto t0 = std::chrono::steady_clock::now();
    guardrail::Result<serve::ValidateResponse> response =
        guardrail::Status::Internal("not sent");
    {
      guardrail::telemetry::Span span("serve.roundtrip");
      span.AddArg("request_id", static_cast<int64_t>(request.request_id));
      response = client->Validate(request);
    }
    log->phase.op_ms.push_back(SecondsSince(t0) * 1e3);
    log->phase.rows += pool[idx].rows;
    ClientLog::Entry entry;
    entry.request = idx;
    entry.done_ns = SteadyNs();
    const bool ok = response.ok() &&
                    response->code == guardrail::StatusCode::kOk &&
                    static_cast<int64_t>(response->rows.size()) ==
                        pool[idx].rows &&
                    !response->duplicate;  // Every request id is fresh.
    if (ok) {
      entry.version = response->program_version;
      entry.hash = VerdictHash(response->rows);
      for (const serve::RowResult& row : response->rows) {
        log->flagged += row.verdict == serve::RowVerdict::kViolation ? 1 : 0;
      }
    }
    log->entries.push_back(entry);
    log->large_requests += pool[idx].rows >= large_rows ? 1 : 0;
    if (after && ok) after(request, *response, request.request_id);
  }
  log->phase.wall_s = SecondsSince(start);
}

}  // namespace perfbench
