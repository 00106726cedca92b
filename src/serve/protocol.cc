#include "serve/protocol.h"

#include <bit>

namespace guardrail {
namespace serve {

namespace {

/// Numeric wire ids for ErrorPolicy. Kept explicit (not a cast of the enum)
/// so reordering the C++ enum can never silently change the protocol.
Status SchemeToWire(core::ErrorPolicy scheme, uint8_t* out) {
  switch (scheme) {
    case core::ErrorPolicy::kRaise:
      *out = 0;
      return Status::OK();
    case core::ErrorPolicy::kIgnore:
      *out = 1;
      return Status::OK();
    case core::ErrorPolicy::kCoerce:
      *out = 2;
      return Status::OK();
    case core::ErrorPolicy::kRectify:
      *out = 3;
      return Status::OK();
  }
  return Status::InvalidArgument("unknown enforcement scheme");
}

Status SchemeFromWire(uint8_t wire, core::ErrorPolicy* out) {
  switch (wire) {
    case 0:
      *out = core::ErrorPolicy::kRaise;
      return Status::OK();
    case 1:
      *out = core::ErrorPolicy::kIgnore;
      return Status::OK();
    case 2:
      *out = core::ErrorPolicy::kCoerce;
      return Status::OK();
    case 3:
      *out = core::ErrorPolicy::kRectify;
      return Status::OK();
    default:
      return Status::InvalidArgument("unknown scheme id " +
                                     std::to_string(wire));
  }
}

Status FormatFromWire(uint8_t wire, RowFormat* out) {
  switch (wire) {
    case 0:
      *out = RowFormat::kCsv;
      return Status::OK();
    case 1:
      *out = RowFormat::kJson;
      return Status::OK();
    default:
      return Status::InvalidArgument("unknown row format id " +
                                     std::to_string(wire));
  }
}

Status VerdictFromWire(uint8_t wire, RowVerdict* out) {
  if (wire > 2) {
    return Status::InvalidArgument("unknown row verdict id " +
                                   std::to_string(wire));
  }
  *out = static_cast<RowVerdict>(wire);
  return Status::OK();
}

/// Status codes cross the wire as their numeric value; reject ids beyond the
/// enum so a corrupt byte cannot masquerade as a valid code.
Status StatusCodeFromWire(uint8_t wire, StatusCode* out) {
  if (wire > static_cast<uint8_t>(StatusCode::kTimeout)) {
    return Status::InvalidArgument("unknown status code id " +
                                   std::to_string(wire));
  }
  *out = static_cast<StatusCode>(wire);
  return Status::OK();
}

Status ExpectMsgType(WireReader* reader, MsgType expected) {
  uint8_t raw = 0;
  GUARDRAIL_RETURN_NOT_OK(reader->GetU8(&raw));
  if (raw != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument("unexpected message type " +
                                   std::to_string(raw));
  }
  return Status::OK();
}

}  // namespace

const char* RowFormatName(RowFormat format) {
  switch (format) {
    case RowFormat::kCsv:
      return "csv";
    case RowFormat::kJson:
      return "json";
  }
  return "unknown";
}

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU16(uint16_t v, std::string* out) {
  PutU8(static_cast<uint8_t>(v & 0xFF), out);
  PutU8(static_cast<uint8_t>(v >> 8), out);
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xFF), out);
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xFF), out);
  }
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

uint32_t DecodeFramePrefix(const uint8_t* bytes) {
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

Status CheckFrameSize(uint64_t payload_size) {
  if (payload_size == 0) {
    return Status::InvalidArgument("empty frame");
  }
  if (payload_size > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame size " + std::to_string(payload_size) + " exceeds the " +
        std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  return Status::OK();
}

Status WireReader::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::InvalidArgument("truncated frame (u8)");
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status WireReader::GetU16(uint16_t* out) {
  if (remaining() < 2) return Status::InvalidArgument("truncated frame (u16)");
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<uint16_t>(
        v | static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + i]))
                << (8 * i));
  }
  pos_ += 2;
  *out = v;
  return Status::OK();
}

Status WireReader::GetU32(uint32_t* out) {
  if (remaining() < 4) return Status::InvalidArgument("truncated frame (u32)");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status WireReader::GetU64(uint64_t* out) {
  if (remaining() < 8) return Status::InvalidArgument("truncated frame (u64)");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status WireReader::GetString(std::string* out) {
  std::string_view view;
  GUARDRAIL_RETURN_NOT_OK(GetStringView(&view));
  out->assign(view);
  return Status::OK();
}

Status WireReader::GetStringView(std::string_view* out) {
  uint32_t size = 0;
  GUARDRAIL_RETURN_NOT_OK(GetU32(&size));
  if (remaining() < size) {
    return Status::InvalidArgument("truncated frame (string of " +
                                   std::to_string(size) + " bytes)");
  }
  *out = data_.substr(pos_, size);
  pos_ += size;
  return Status::OK();
}

Status WireReader::Finish() const {
  if (remaining() != 0) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing byte(s) after message");
  }
  return Status::OK();
}

namespace {

/// Starts a frame in one buffer: the length prefix reserved up front (see
/// FinishFrame), then the message type. `body_bytes` sizes the one
/// allocation; a short estimate only costs a regrowth.
std::string BeginFrame(MsgType type, size_t body_bytes) {
  std::string frame;
  frame.reserve(kFramePrefixBytes + 1 + body_bytes);
  frame.append(kFramePrefixBytes, '\0');
  PutU8(static_cast<uint8_t>(type), &frame);
  return frame;
}

/// Writes the little-endian payload size into the reserved prefix.
std::string FinishFrame(std::string frame) {
  const auto size = static_cast<uint32_t>(frame.size() - kFramePrefixBytes);
  for (uint32_t i = 0; i < kFramePrefixBytes; ++i) {
    frame[i] = static_cast<char>((size >> (8 * i)) & 0xFF);
  }
  return frame;
}

}  // namespace

std::string EncodeValidateRequest(const ValidateRequest& request) {
  std::string frame =
      BeginFrame(MsgType::kValidateRequest,
                 14 + 4 + request.dataset.size() + 4 + request.payload.size());
  uint8_t scheme = 0;
  // Encoding a malformed in-memory enum is a programming error; the switch
  // covers every enumerator so this cannot fail in practice.
  (void)SchemeToWire(request.scheme, &scheme);
  PutU8(scheme, &frame);
  PutU8(static_cast<uint8_t>(request.format), &frame);
  PutU32(request.deadline_ms, &frame);
  PutU64(request.request_id, &frame);
  PutString(request.dataset, &frame);
  PutString(request.payload, &frame);
  return FinishFrame(std::move(frame));
}

std::string EncodeValidateResponse(const ValidateResponse& response) {
  size_t body_bytes = 22 + response.error.size();
  for (const RowResult& row : response.rows) {
    body_bytes += 7 + row.detail.size();
  }
  std::string frame = BeginFrame(MsgType::kValidateResponse, body_bytes);
  PutU8(static_cast<uint8_t>(response.code), &frame);
  PutString(response.error, &frame);
  PutU32(response.retry_after_ms, &frame);
  PutU8(response.duplicate ? 1 : 0, &frame);
  PutU64(response.program_version, &frame);
  PutU32(static_cast<uint32_t>(response.rows.size()), &frame);
  for (const RowResult& row : response.rows) {
    PutU8(static_cast<uint8_t>(row.verdict), &frame);
    PutU16(row.violations, &frame);
    PutString(row.detail, &frame);
  }
  return FinishFrame(std::move(frame));
}

std::string EncodePingRequest() {
  std::string frame = BeginFrame(MsgType::kPingRequest, 0);
  return FinishFrame(std::move(frame));
}

std::string EncodePingResponse(const PingResponse& response) {
  size_t body_bytes = 9;
  for (const DatasetInfo& info : response.datasets) {
    body_bytes += 24 + info.dataset.size();
  }
  std::string frame = BeginFrame(MsgType::kPingResponse, body_bytes);
  PutU32(response.protocol_version, &frame);
  PutU8(response.draining ? 1 : 0, &frame);
  PutU32(static_cast<uint32_t>(response.datasets.size()), &frame);
  for (const DatasetInfo& info : response.datasets) {
    PutString(info.dataset, &frame);
    PutU64(info.version, &frame);
    PutU64(info.source_hash, &frame);
    PutU32(info.statements, &frame);
  }
  return FinishFrame(std::move(frame));
}

std::string EncodeHealthRequest() {
  std::string frame = BeginFrame(MsgType::kHealthRequest, 0);
  return FinishFrame(std::move(frame));
}

std::string EncodeHealthResponse(const HealthResponse& response) {
  std::string frame = BeginFrame(MsgType::kHealthResponse, 29);
  PutU32(response.protocol_version, &frame);
  PutU8(response.draining ? 1 : 0, &frame);
  PutU32(response.inflight, &frame);
  PutU32(response.max_inflight, &frame);
  PutU64(response.registry_versions, &frame);
  PutU32(response.live_datasets, &frame);
  PutU32(response.superseded_snapshots, &frame);
  return FinishFrame(std::move(frame));
}

Status PeekMsgType(std::string_view payload, MsgType* out) {
  if (payload.empty()) return Status::InvalidArgument("empty frame payload");
  uint8_t raw = static_cast<uint8_t>(payload[0]);
  if (raw < static_cast<uint8_t>(MsgType::kValidateRequest) ||
      raw > static_cast<uint8_t>(MsgType::kIngestResponse)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw));
  }
  *out = static_cast<MsgType>(raw);
  return Status::OK();
}

Status DecodeValidateRequest(std::string_view payload, ValidateRequest* out) {
  std::string_view rows;
  GUARDRAIL_RETURN_NOT_OK(DecodeValidateRequest(payload, out, &rows));
  out->payload.assign(rows);
  return Status::OK();
}

Status DecodeValidateRequest(std::string_view payload, ValidateRequest* out,
                             std::string_view* rows) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kValidateRequest));
  uint8_t scheme = 0;
  uint8_t format = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&scheme));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&format));
  GUARDRAIL_RETURN_NOT_OK(SchemeFromWire(scheme, &out->scheme));
  GUARDRAIL_RETURN_NOT_OK(FormatFromWire(format, &out->format));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->deadline_ms));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&out->request_id));
  GUARDRAIL_RETURN_NOT_OK(reader.GetString(&out->dataset));
  GUARDRAIL_RETURN_NOT_OK(reader.GetStringView(rows));
  return reader.Finish();
}

Status DecodeValidateResponse(std::string_view payload,
                              ValidateResponse* out) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kValidateResponse));
  uint8_t code = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&code));
  GUARDRAIL_RETURN_NOT_OK(StatusCodeFromWire(code, &out->code));
  GUARDRAIL_RETURN_NOT_OK(reader.GetString(&out->error));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->retry_after_ms));
  uint8_t duplicate = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&duplicate));
  out->duplicate = duplicate != 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&out->program_version));
  uint32_t n_rows = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&n_rows));
  // Each row costs at least 7 payload bytes (verdict + violations + string
  // size); reject counts the payload cannot possibly hold before reserving.
  if (static_cast<uint64_t>(n_rows) * 7 > reader.remaining()) {
    return Status::InvalidArgument("row count " + std::to_string(n_rows) +
                                   " exceeds frame capacity");
  }
  out->rows.clear();
  out->rows.reserve(n_rows);
  for (uint32_t i = 0; i < n_rows; ++i) {
    RowResult row;
    uint8_t verdict = 0;
    GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&verdict));
    GUARDRAIL_RETURN_NOT_OK(VerdictFromWire(verdict, &row.verdict));
    GUARDRAIL_RETURN_NOT_OK(reader.GetU16(&row.violations));
    GUARDRAIL_RETURN_NOT_OK(reader.GetString(&row.detail));
    out->rows.push_back(std::move(row));
  }
  return reader.Finish();
}

Status DecodePingRequest(std::string_view payload) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kPingRequest));
  return reader.Finish();
}

Status DecodePingResponse(std::string_view payload, PingResponse* out) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kPingResponse));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->protocol_version));
  uint8_t draining = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&draining));
  out->draining = draining != 0;
  uint32_t n_datasets = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&n_datasets));
  if (static_cast<uint64_t>(n_datasets) * 24 > reader.remaining()) {
    return Status::InvalidArgument("dataset count " +
                                   std::to_string(n_datasets) +
                                   " exceeds frame capacity");
  }
  out->datasets.clear();
  out->datasets.reserve(n_datasets);
  for (uint32_t i = 0; i < n_datasets; ++i) {
    DatasetInfo info;
    GUARDRAIL_RETURN_NOT_OK(reader.GetString(&info.dataset));
    GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&info.version));
    GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&info.source_hash));
    GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&info.statements));
    out->datasets.push_back(std::move(info));
  }
  return reader.Finish();
}

Status DecodeHealthRequest(std::string_view payload) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kHealthRequest));
  return reader.Finish();
}

std::string EncodeIngestRequest(const IngestRequest& request) {
  std::string frame =
      BeginFrame(MsgType::kIngestRequest,
                 2 + 4 + request.dataset.size() + 4 + request.payload.size());
  PutU8(static_cast<uint8_t>(request.format), &frame);
  PutU8(request.force_refresh ? 1 : 0, &frame);
  PutString(request.dataset, &frame);
  PutString(request.payload, &frame);
  return FinishFrame(std::move(frame));
}

std::string EncodeIngestResponse(const IngestResponse& response) {
  std::string frame =
      BeginFrame(MsgType::kIngestResponse, 31 + response.error.size());
  PutU8(static_cast<uint8_t>(response.code), &frame);
  PutString(response.error, &frame);
  PutU64(response.rows_ingested, &frame);
  PutU8(static_cast<uint8_t>(response.action), &frame);
  PutU64(std::bit_cast<uint64_t>(response.drift_score), &frame);
  PutU64(response.program_version, &frame);
  PutU8(response.published ? 1 : 0, &frame);
  return FinishFrame(std::move(frame));
}

Status DecodeIngestRequest(std::string_view payload, IngestRequest* out) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kIngestRequest));
  uint8_t format = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&format));
  GUARDRAIL_RETURN_NOT_OK(FormatFromWire(format, &out->format));
  uint8_t force = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&force));
  out->force_refresh = force != 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetString(&out->dataset));
  GUARDRAIL_RETURN_NOT_OK(reader.GetString(&out->payload));
  return reader.Finish();
}

Status DecodeIngestResponse(std::string_view payload, IngestResponse* out) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kIngestResponse));
  uint8_t code = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&code));
  GUARDRAIL_RETURN_NOT_OK(StatusCodeFromWire(code, &out->code));
  GUARDRAIL_RETURN_NOT_OK(reader.GetString(&out->error));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&out->rows_ingested));
  uint8_t action = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&action));
  if (action > static_cast<uint8_t>(IngestAction::kFull)) {
    return Status::InvalidArgument("unknown ingest action id " +
                                   std::to_string(action));
  }
  out->action = static_cast<IngestAction>(action);
  uint64_t score_bits = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&score_bits));
  out->drift_score = std::bit_cast<double>(score_bits);
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&out->program_version));
  uint8_t published = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&published));
  out->published = published != 0;
  return reader.Finish();
}

Status DecodeHealthResponse(std::string_view payload, HealthResponse* out) {
  WireReader reader(payload);
  GUARDRAIL_RETURN_NOT_OK(ExpectMsgType(&reader, MsgType::kHealthResponse));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->protocol_version));
  uint8_t draining = 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU8(&draining));
  out->draining = draining != 0;
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->inflight));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->max_inflight));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU64(&out->registry_versions));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->live_datasets));
  GUARDRAIL_RETURN_NOT_OK(reader.GetU32(&out->superseded_snapshots));
  return reader.Finish();
}

}  // namespace serve
}  // namespace guardrail
