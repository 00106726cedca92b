#ifndef GUARDRAIL_SERVE_PROTOCOL_H_
#define GUARDRAIL_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/guard.h"

namespace guardrail {
namespace serve {

/// Wire protocol of the guard-serving daemon (docs/SERVING.md): a stream of
/// length-prefixed frames over TCP. Every multi-byte integer on the wire is
/// explicit little-endian — encode/decode go through the byte-at-a-time
/// helpers below, never through a host-order memcpy.
///
///   frame   := u32 payload_size | payload
///   payload := u8 msg_type | body
///   string  := u32 size | bytes
///
/// The size prefix covers the payload only. A prefix larger than
/// kMaxFrameBytes is rejected before any allocation; a payload shorter than
/// its declared fields decodes to InvalidArgument ("truncated"), and a
/// payload with bytes left over after its last field likewise — the decoder
/// never trusts the peer.

inline constexpr uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB
inline constexpr uint32_t kFramePrefixBytes = 4;
/// v2 added the client-assigned request id, the retry-after / duplicate
/// response fields, and the Health frames. v3 added the streaming Ingest
/// frames (docs/STREAMING.md).
inline constexpr uint32_t kProtocolVersion = 3;

enum class MsgType : uint8_t {
  kValidateRequest = 1,
  kValidateResponse = 2,
  kPingRequest = 3,
  kPingResponse = 4,
  kHealthRequest = 5,
  kHealthResponse = 6,
  kIngestRequest = 7,
  kIngestResponse = 8,
};

/// How the rows of a ValidateRequest payload are encoded.
enum class RowFormat : uint8_t {
  /// RFC-4180 CSV; the first record is a header that must name the dataset's
  /// attributes in schema order. Empty fields are ordinary empty-string
  /// labels, exactly as Table::FromCsv treats them offline.
  kCsv = 0,
  /// JSON array of flat objects, one per row: [{"attr": "label", ...}, ...].
  /// Every schema attribute must be present; JSON null maps to the NULL
  /// value (a missing cell).
  kJson = 1,
};

const char* RowFormatName(RowFormat format);

/// One batch of rows to vet against a dataset's current program version.
struct ValidateRequest {
  std::string dataset;
  core::ErrorPolicy scheme = core::ErrorPolicy::kRaise;
  RowFormat format = RowFormat::kCsv;
  /// 0 = no deadline; otherwise the server stops validating after this many
  /// milliseconds and answers StatusCode::kTimeout.
  uint32_t deadline_ms = 0;
  /// Client-assigned idempotency key; 0 = unassigned. A server remembers
  /// recently answered ids in a bounded dedup window and replays the cached
  /// response for a retransmit, so a retry after a lost response can never
  /// re-apply a coerce/rectify verdict (docs/SERVING.md, "Resilience").
  uint64_t request_id = 0;
  /// The rows, encoded per `format`.
  std::string payload;
};

enum class RowVerdict : uint8_t {
  kOk = 0,         // The row satisfies every constraint.
  kViolation = 1,  // At least one statement disagrees with the row.
  kFailed = 2,     // The row could not be evaluated (fault, malformed row).
};

struct RowResult {
  RowVerdict verdict = RowVerdict::kOk;
  /// Number of violated statements (0 unless kViolation).
  uint16_t violations = 0;
  /// Under kViolation with scheme coerce/rectify: the repaired row as one
  /// CSV record (empty when the repair left the row unchanged). Under
  /// kFailed: the evaluation error text. Empty otherwise.
  std::string detail;

  bool operator==(const RowResult& other) const {
    return verdict == other.verdict && violations == other.violations &&
           detail == other.detail;
  }
};

struct ValidateResponse {
  /// kOk when the batch was processed (individual rows may still carry
  /// kViolation / kFailed verdicts); a request-level failure otherwise
  /// (kNotFound dataset, kInvalidArgument payload, kResourceExhausted
  /// overload, kTimeout deadline, ...), with `rows` empty.
  StatusCode code = StatusCode::kOk;
  std::string error;  // Populated when code != kOk.
  /// With kResourceExhausted: how long the shedding server suggests the
  /// client wait before retrying (graceful load shedding instead of
  /// accept-then-time-out). 0 = no hint.
  uint32_t retry_after_ms = 0;
  /// True when this response was replayed from the server's dedup window
  /// rather than recomputed (the request id had already been answered).
  bool duplicate = false;
  /// The program version the verdicts were computed against — the version
  /// that was live when the request started, even if a hot reload swapped in
  /// a newer one mid-flight.
  uint64_t program_version = 0;
  std::vector<RowResult> rows;
};

/// One batch of trusted rows feeding a dataset's streaming synthesizer
/// (protocol v3; served only when the daemon runs with --ingest). Unlike
/// ValidateRequest, these rows *teach* the stream — they update sufficient
/// statistics and may trigger a resynthesis under the server's policy.
struct IngestRequest {
  std::string dataset;
  RowFormat format = RowFormat::kCsv;
  /// Skip the drift gate and force a full resynthesis after this batch.
  bool force_refresh = false;
  /// The rows, encoded per `format`.
  std::string payload;
};

/// What a refresh attempt did, on the wire. Mirrors stream::RefreshAction;
/// kept as explicit ids so the C++ enum can evolve without moving bytes.
enum class IngestAction : uint8_t {
  kNone = 0,         // No refresh attempted (policy said wait, or window small).
  kNoop = 1,         // Drift scored clean; served program untouched.
  kIncremental = 2,  // Localized drift; affected statements re-filled.
  kFull = 3,         // Full resynthesis from accumulated data.
};

struct IngestResponse {
  /// kOk when the batch was ingested (whether or not a refresh ran);
  /// kNotImplemented when the server runs without --ingest.
  StatusCode code = StatusCode::kOk;
  std::string error;  // Populated when code != kOk.
  /// Rows accepted into the stream from this batch.
  uint64_t rows_ingested = 0;
  IngestAction action = IngestAction::kNone;
  /// Max per-pair drift G² statistic scored this attempt (bit-cast double;
  /// 0.0 when no drift scoring ran).
  double drift_score = 0.0;
  /// The dataset's served program version after this batch (0 when the
  /// stream has not published yet).
  uint64_t program_version = 0;
  /// True when this batch's refresh published a new program version.
  bool published = false;
};

struct DatasetInfo {
  std::string dataset;
  uint64_t version = 0;
  uint64_t source_hash = 0;
  uint32_t statements = 0;
};

struct PingResponse {
  uint32_t protocol_version = kProtocolVersion;
  bool draining = false;
  std::vector<DatasetInfo> datasets;
};

/// Active health probe (ReplicaPool sends these between requests). Cheaper
/// than Ping — no per-dataset list — and carries the load signals a
/// balancer needs: registry freshness and in-flight pressure.
struct HealthResponse {
  uint32_t protocol_version = kProtocolVersion;
  bool draining = false;
  /// Requests currently admitted by the engine.
  uint32_t inflight = 0;
  /// The engine's admission limit (inflight == max_inflight means the next
  /// arrival is shed).
  uint32_t max_inflight = 0;
  /// Total program versions ever published by this node's registry; a
  /// replica lagging the fleet shows a smaller number.
  uint64_t registry_versions = 0;
  /// Datasets currently servable.
  uint32_t live_datasets = 0;
  /// Superseded snapshots still pinned by in-flight requests (the registry
  /// GC gauge; see ProgramRegistry::superseded_live_count).
  uint32_t superseded_snapshots = 0;
};

// ---- Little-endian primitives ------------------------------------------

void PutU8(uint8_t v, std::string* out);
void PutU16(uint16_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutString(std::string_view s, std::string* out);

/// Decodes the 4-byte frame prefix (little-endian payload size).
uint32_t DecodeFramePrefix(const uint8_t* bytes);

/// Validates a decoded frame prefix: nonzero and within kMaxFrameBytes.
Status CheckFrameSize(uint64_t payload_size);

/// Bounds-checked sequential reader over one frame payload. Every getter
/// fails with InvalidArgument instead of reading past the end, and Finish()
/// rejects trailing bytes, so a malformed or truncated payload can never
/// crash the decoder or smuggle extra data.
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : data_(payload) {}

  Status GetU8(uint8_t* out);
  Status GetU16(uint16_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetString(std::string* out);
  /// GetString without the copy: `*out` views the payload.
  Status GetStringView(std::string_view* out);

  size_t remaining() const { return data_.size() - pos_; }

  /// OK iff the payload was consumed exactly.
  Status Finish() const;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Message encode / decode -------------------------------------------
// Encoders return a complete frame (prefix included), ready to write to the
// socket. Decoders take one frame's payload (prefix stripped) and validate
// exhaustively: unknown message types, out-of-range scheme / format /
// verdict ids, truncated bodies, and trailing bytes are all clean
// InvalidArgument.

std::string EncodeValidateRequest(const ValidateRequest& request);
std::string EncodeValidateResponse(const ValidateResponse& response);
std::string EncodePingRequest();
std::string EncodePingResponse(const PingResponse& response);
std::string EncodeHealthRequest();
std::string EncodeHealthResponse(const HealthResponse& response);
std::string EncodeIngestRequest(const IngestRequest& request);
std::string EncodeIngestResponse(const IngestResponse& response);

/// First byte of the payload as a message type (not yet range-checked
/// against the known types; decoders do that).
Status PeekMsgType(std::string_view payload, MsgType* out);

Status DecodeValidateRequest(std::string_view payload, ValidateRequest* out);
/// DecodeValidateRequest without copying the rows: `out->payload` is left
/// as it was and `*rows` views the rows' bytes inside `payload`.
Status DecodeValidateRequest(std::string_view payload, ValidateRequest* out,
                             std::string_view* rows);
Status DecodeValidateResponse(std::string_view payload, ValidateResponse* out);
Status DecodePingRequest(std::string_view payload);
Status DecodePingResponse(std::string_view payload, PingResponse* out);
Status DecodeHealthRequest(std::string_view payload);
Status DecodeHealthResponse(std::string_view payload, HealthResponse* out);
Status DecodeIngestRequest(std::string_view payload, IngestRequest* out);
Status DecodeIngestResponse(std::string_view payload, IngestResponse* out);

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_SERVE_PROTOCOL_H_
