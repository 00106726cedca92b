#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/guard.h"

namespace guardrail {
namespace serve {

namespace {

/// Renders a repaired row as one CSV record, with the same field convention
/// as Table::ToCsv (NULL cells become empty fields). Overlay labels render
/// verbatim.
std::string RowToCsvRecord(const DecodedColumns& columns, const Row& row) {
  std::vector<std::string> fields;
  fields.reserve(row.size());
  for (AttrIndex c = 0; c < columns.num_attributes(); ++c) {
    ValueId v = row[static_cast<size_t>(c)];
    fields.push_back(v == kNullValue ? "" : columns.Label(c, v));
  }
  return WriteCsvRecord(fields);
}

/// What every block of one request shares, read-only.
struct RequestScan {
  const DecodedColumns* columns;
  const core::Guard* guard;
  /// The snapshot's shared evaluator.
  const core::CompiledProgram* compiled;
  core::ErrorPolicy scheme;
};

/// Vets rows [begin, begin + count), writing results into out[0..count):
/// the guard executor reads the block's decoded columns in place, and only
/// rows it did not clear become RowResults other than kOk.
void ValidateBlock(const RequestScan& scan, int64_t begin, int64_t count,
                   RowResult* out) {
  core::GuardExecutor executor(*scan.guard, scan.scheme,
                               core::GuardEvalMode::kAuto, scan.compiled);
  executor.Run(scan.columns->View(begin, count),
               [&](int64_t r, const core::GuardVerdict& verdict,
                   const Row& row) {
                 RowResult& res = out[r];
                 if (verdict.failed()) {
                   res.verdict = RowVerdict::kFailed;
                   res.detail = verdict.status.ToString();
                   return true;
                 }
                 if (verdict.violations == 0) return true;
                 // Every row gets a verdict; kRaise refuses none of them.
                 res.verdict = RowVerdict::kViolation;
                 res.violations = static_cast<uint16_t>(
                     std::min<int32_t>(verdict.violations, 0xFFFF));
                 if (verdict.repaired) {
                   res.detail = RowToCsvRecord(*scan.columns, row);
                 }
                 return true;
               });
}

}  // namespace

bool ResponseDedupWindow::Lookup(uint64_t request_id, uint64_t live_version,
                                 ValidateResponse* out) const {
  if (request_id == 0 || capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_id_.find(request_id);
  if (it == by_id_.end()) return false;
  // A hot reload superseded the program this entry's verdicts were computed
  // against: miss, so the retry re-runs under the live version.
  if (it->second.program_version != live_version) return false;
  *out = it->second;
  out->duplicate = true;
  return true;
}

void ResponseDedupWindow::Remember(uint64_t request_id,
                                   const ValidateResponse& response) {
  if (request_id == 0 || capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = by_id_.try_emplace(request_id, response);
  if (!inserted) {
    // First answer wins within a program version; a recompute under a newer
    // version displaces the stale entry (its FIFO slot is unchanged).
    if (it->second.program_version != response.program_version) {
      it->second = response;
    }
    return;
  }
  order_.push_back(request_id);
  while (static_cast<int>(order_.size()) > capacity_) {
    by_id_.erase(order_.front());
    order_.pop_front();
  }
}

int ResponseDedupWindow::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(order_.size());
}

ValidateResponse ValidationEngine::Handle(const ValidateRequest& request) {
  GUARDRAIL_COUNTER_INC("serve.requests");
  // Retransmit of an already-answered id: replay the remembered bytes
  // before admission — a replay is free and must not be shed, or a retry
  // storm could starve the very retries it caused. The replay is scoped to
  // the dataset's live program version (a cheap snapshot refcount bump): a
  // retry spanning a hot reload recomputes instead of replaying verdicts
  // from the superseded program.
  ValidateResponse response;
  uint64_t live_version = 0;
  if (auto snapshot = registry_->Get(request.dataset)) {
    live_version = snapshot->version;
  }
  if (dedup_.Lookup(request.request_id, live_version, &response)) {
    GUARDRAIL_COUNTER_INC("serve.dedup_hits");
    return response;
  }
  if (!admission_.TryAcquire()) {
    GUARDRAIL_COUNTER_INC("serve.rejected_overload");
    response.code = StatusCode::kResourceExhausted;
    response.error = "server overloaded: " +
                     std::to_string(admission_.limit()) +
                     " request(s) already in flight";
    // Graceful shedding: tell the client when to come back instead of
    // letting it hammer or time out.
    response.retry_after_ms = options_.retry_after_hint_ms;
    return response;
  }
  struct Release {
    AdmissionController* admission;
    ~Release() { admission->Release(); }
  } release{&admission_};
  response = HandleAdmitted(request);
  // Only a processed batch is remembered: its verdicts (including any
  // coerce/rectify repairs) are now "applied" and must never be recomputed
  // for the same id. Errors stay forgettable so a real retry re-runs.
  if (response.code == StatusCode::kOk) {
    dedup_.Remember(request.request_id, response);
  }
  return response;
}

ValidateResponse ValidationEngine::HandleAdmitted(
    const ValidateRequest& request) {
  ValidateResponse response;
  StopWatch watch;
  telemetry::Span span("serve.request");
  span.AddArg("dataset", request.dataset);
  span.AddArg("scheme", core::ErrorPolicyName(request.scheme));

  auto fail = [&](Status status) {
    response.code = status.code();
    response.error = status.message();
    response.rows.clear();
    GUARDRAIL_COUNTER_INC("serve.request_errors");
    GUARDRAIL_HISTOGRAM_RECORD("serve.request_micros",
                               static_cast<int64_t>(watch.ElapsedMicros()));
    return response;
  };

  // Per-request fault isolation: an injected failure answers this request
  // with a clean error and leaves the engine untouched for the next one.
  Status injected = FailpointTrip("serve.handle_request");
  if (!injected.ok()) return fail(injected);

  // The snapshot pins this request's program version: a hot reload swapping
  // in a newer one mid-flight cannot change these verdicts.
  std::shared_ptr<const ProgramSnapshot> snapshot =
      registry_->Get(request.dataset);
  if (snapshot == nullptr) {
    return fail(Status::NotFound("unknown dataset '" + request.dataset + "'"));
  }
  response.program_version = snapshot->version;

  // Labels are resolved against the snapshot's schema, which never changes
  // after publication; unseen ones get request-local overlay codes past
  // each domain, which no compiled branch fires on.
  Result<DecodedColumns> columns = DecodeColumns(
      request.format, request.payload, snapshot->schema,
      options_.max_batch_rows);
  if (!columns.ok()) return fail(columns.status());

  uint32_t deadline_ms = request.deadline_ms != 0
                             ? request.deadline_ms
                             : options_.default_deadline_ms;
  CancellationToken cancel =
      deadline_ms != 0 ? CancellationToken::WithBudgetMillis(deadline_ms)
                       : CancellationToken::Never();

  core::Guard guard(&snapshot->program);
  const RequestScan request_scan{&*columns, &guard, snapshot->compiled.get(),
                                 request.scheme};
  const int64_t n = columns->num_rows();
  span.AddArg("rows", n);
  response.rows.resize(static_cast<size_t>(n));

  // One block loop. Batches of at least parallel_batch_threshold rows spread
  // their blocks over the shared pool (the sharded row scan of
  // docs/PARALLELISM.md: each block writes only its own row slots, so the
  // result is identical for any thread count); smaller ones run every block
  // inline on the request thread. The deadline is checked before each
  // block.
  const int64_t per_block =
      options_.rows_per_shard < 1 ? 1 : options_.rows_per_shard;
  ParallelForOptions pf;
  if (n < options_.parallel_batch_threshold) pf.max_parallelism = 1;
  std::atomic<bool> expired{false};
  // Expiry is tracked here rather than through ParallelForOptions::cancel so
  // the timeout names this stage on every path; ParallelFor returns OK.
  (void)ParallelFor(
      &ThreadPool::Shared(), (n + per_block - 1) / per_block,
      [&](int64_t block) {
        if (expired.load(std::memory_order_relaxed) || cancel.Cancelled()) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        const int64_t begin = block * per_block;
        ValidateBlock(request_scan, begin, std::min(per_block, n - begin),
                      response.rows.data() + begin);
      },
      pf);
  if (expired.load(std::memory_order_relaxed)) {
    GUARDRAIL_COUNTER_INC("serve.deadline_expired");
    telemetry::InstantEvent("serve.deadline_expired");
    return fail(cancel.CheckTimeout("serve.validate"));
  }

  int64_t flagged = 0;
  int64_t failed = 0;
  for (const RowResult& row : response.rows) {
    flagged += row.verdict == RowVerdict::kViolation ? 1 : 0;
    failed += row.verdict == RowVerdict::kFailed ? 1 : 0;
  }
  GUARDRAIL_COUNTER_ADD("serve.rows_validated", n);
  GUARDRAIL_COUNTER_ADD("serve.rows_flagged", flagged);
  GUARDRAIL_COUNTER_ADD("serve.rows_failed", failed);
  GUARDRAIL_HISTOGRAM_RECORD("serve.batch_rows", n);
  GUARDRAIL_HISTOGRAM_RECORD("serve.request_micros",
                             static_cast<int64_t>(watch.ElapsedMicros()));
  span.AddArg("flagged", flagged);
  response.code = StatusCode::kOk;
  return response;
}

}  // namespace serve
}  // namespace guardrail
