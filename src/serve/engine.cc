#include "serve/engine.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/guard.h"

namespace guardrail {
namespace serve {

namespace {

/// Writes repaired row `r` of `columns` into `*out` as one CSV record, with
/// the same field convention as Table::ToCsv (NULL cells become empty
/// fields). `row` carries the resolved cells after the repair; overlay
/// labels and unresolved cells' text render verbatim.
void WriteRepairedRow(const DecodedColumns& columns, int64_t r,
                      const Row& row, std::string* out) {
  const AttrIndex width = columns.num_attributes();
  auto field = [&](AttrIndex c) -> std::string_view {
    if (!columns.resolved(c)) return columns.Text(c, r);
    const ValueId v = row[static_cast<size_t>(c)];
    return v == kNullValue ? std::string_view() : columns.Label(c, v);
  };
  size_t bytes = width > 0 ? static_cast<size_t>(width) - 1 : 0;
  for (AttrIndex c = 0; c < width; ++c) bytes += field(c).size();
  out->clear();
  out->reserve(bytes);
  for (AttrIndex c = 0; c < width; ++c) {
    if (c > 0) out->push_back(',');
    AppendCsvField(field(c), out);
  }
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
                   WriteRepairedRow(*scan.columns, begin + r, row,
                                    &res.detail);
                 }
                 return true;
               });
}

}  // namespace

/// One remembered response: its non-row fields as they were, its row count,
/// and the rows that differ from RowResult{} packed back to back as
/// (u32 index, u8 verdict, u16 violations, u32 size, detail bytes) in host
/// byte order. Immutable once built, so Lookup reads it outside the lock.
struct ResponseDedupWindow::Entry {
  StatusCode code = StatusCode::kOk;
  std::string error;
  uint32_t retry_after_ms = 0;
  uint64_t program_version = 0;
  size_t num_rows = 0;
  std::string packed_rows;

  int64_t bytes() const {
    return static_cast<int64_t>(sizeof(Entry) + error.size() +
                                packed_rows.size());
  }
};

namespace {

constexpr size_t kPackedRowHeader =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint16_t) + sizeof(uint32_t);

bool IsDefaultRow(const RowResult& row) { return row == RowResult{}; }

template <typename T>
char* Put(char* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

template <typename T>
const char* Get(const char* in, T* value) {
  std::memcpy(value, in, sizeof(T));
  return in + sizeof(T);
}

std::string PackRows(const std::vector<RowResult>& rows) {
  size_t bytes = 0;
  for (const RowResult& row : rows) {
    if (!IsDefaultRow(row)) bytes += kPackedRowHeader + row.detail.size();
  }
  std::string packed(bytes, '\0');
  char* out = packed.data();
  for (size_t r = 0; r < rows.size(); ++r) {
    const RowResult& row = rows[r];
    if (IsDefaultRow(row)) continue;
    out = Put(out, static_cast<uint32_t>(r));
    out = Put(out, static_cast<uint8_t>(row.verdict));
    out = Put(out, row.violations);
    out = Put(out, static_cast<uint32_t>(row.detail.size()));
    std::memcpy(out, row.detail.data(), row.detail.size());
    out += row.detail.size();
  }
  return packed;
}

void UnpackRows(const std::string& packed, size_t num_rows,
                std::vector<RowResult>* rows) {
  rows->clear();
  rows->resize(num_rows);
  const char* in = packed.data();
  const char* const end = in + packed.size();
  while (in < end) {
    uint32_t index = 0;
    uint8_t verdict = 0;
    uint16_t violations = 0;
    uint32_t size = 0;
    in = Get(in, &index);
    in = Get(in, &verdict);
    in = Get(in, &violations);
    in = Get(in, &size);
    RowResult& row = (*rows)[index];
    row.verdict = static_cast<RowVerdict>(verdict);
    row.violations = violations;
    row.detail.assign(in, size);
    in += size;
  }
}

}  // namespace

bool ResponseDedupWindow::Lookup(uint64_t request_id, uint64_t live_version,
                                 ValidateResponse* out) const {
  if (request_id == 0 || capacity_ == 0) return false;
  std::shared_ptr<const Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_id_.find(request_id);
    if (it == by_id_.end()) return false;
    // A hot reload superseded the program this entry's verdicts were
    // computed against: miss, so the retry re-runs under the live version.
    if (it->second->program_version != live_version) return false;
    entry = it->second;
  }
  out->code = entry->code;
  out->error = entry->error;
  out->retry_after_ms = entry->retry_after_ms;
  out->program_version = entry->program_version;
  UnpackRows(entry->packed_rows, entry->num_rows, &out->rows);
  out->duplicate = true;
  return true;
}

void ResponseDedupWindow::Remember(uint64_t request_id,
                                   const ValidateResponse& response) {
  if (request_id == 0 || capacity_ == 0) return;
  auto entry = std::make_shared<Entry>();
  entry->code = response.code;
  entry->error = response.error;
  entry->retry_after_ms = response.retry_after_ms;
  entry->program_version = response.program_version;
  entry->num_rows = response.rows.size();
  entry->packed_rows = PackRows(response.rows);
  // Declared before the lock so a displaced or evicted entry is freed after
  // it is released.
  std::shared_ptr<const Entry> dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = by_id_.try_emplace(request_id, entry);
  if (!inserted) {
    // First answer wins within a program version; a recompute under a newer
    // version displaces the stale entry (its FIFO slot is unchanged).
    if (it->second->program_version != entry->program_version) {
      dropped = std::exchange(it->second, std::move(entry));
    }
    return;
  }
  order_.push_back(request_id);
  // One id in, so at most one out.
  if (static_cast<int>(order_.size()) > capacity_) {
    auto oldest = by_id_.find(order_.front());
    dropped = std::move(oldest->second);
    by_id_.erase(oldest);
    order_.pop_front();
  }
}

int ResponseDedupWindow::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(order_.size());
}

int64_t ResponseDedupWindow::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [id, entry] : by_id_) total += entry->bytes();
  return total;
}

ValidateResponse ValidationEngine::Handle(const ValidateRequest& request,
                                          std::string_view rows) {
  GUARDRAIL_COUNTER_INC("serve.requests");
  // Retransmit of an already-answered id: replay the remembered bytes
  // before admission — a replay is free and must not be shed, or a retry
  // storm could starve the very retries it caused. The replay is scoped to
  // the dataset's live program version: a retry spanning a hot reload
  // recomputes instead of replaying verdicts from the superseded program.
  // The same snapshot pins the version a computed response is checked
  // against, so each request takes the registry lock once.
  ValidateResponse response;
  std::shared_ptr<const ProgramSnapshot> snapshot =
      registry_->Get(request.dataset);
  const uint64_t live_version = snapshot != nullptr ? snapshot->version : 0;
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
  response = HandleAdmitted(request, rows, std::move(snapshot));
  // Only a processed batch is remembered: its verdicts (including any
  // coerce/rectify repairs) are now "applied" and must never be recomputed
  // for the same id. Errors stay forgettable so a real retry re-runs.
  if (response.code == StatusCode::kOk) {
    dedup_.Remember(request.request_id, response);
  }
  return response;
}

ValidateResponse ValidationEngine::HandleAdmitted(
    const ValidateRequest& request, std::string_view rows,
    std::shared_ptr<const ProgramSnapshot> snapshot) {
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
  if (snapshot == nullptr) {
    return fail(Status::NotFound("unknown dataset '" + request.dataset + "'"));
  }
  response.program_version = snapshot->version;

  // Only the attributes the program reads are resolved, against the
  // snapshot's schema, which never changes after publication; unseen labels
  // get request-local overlay codes past each domain, which no compiled
  // branch fires on. The other cells keep their text for repaired rows.
  Result<DecodedColumns> columns = DecodeColumns(
      request.format, rows, snapshot->schema, options_.max_batch_rows,
      &snapshot->compiled->referenced_attributes());
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
