#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/guard.h"
#include "core/serialization.h"
#include "serve/client.h"
#include "serve/decode.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/table.h"

// Serving-layer suite (docs/SERVING.md): wire protocol round trips and
// malformed-frame hardening, registry versioning / analyzer gating / hot
// reload, engine parity with the offline Guard, admission backpressure,
// fault isolation, and a localhost server end-to-end.

namespace guardrail {
namespace serve {
namespace {

namespace fs = std::filesystem;

// ---- Shared fixtures ----------------------------------------------------

// zip -> city dataset: 94704=Berkeley, 94607=Oakland.
const char* kCsv =
    "zip,city\n"
    "94704,Berkeley\n"
    "94704,Berkeley\n"
    "94607,Oakland\n"
    "94607,Oakland\n"
    "94704,Berkeley\n"
    "94607,Oakland\n";

const char* kProgramText =
    "# guardrail-program v1\n"
    "GIVEN zip ON city HAVING\n"
    "  IF zip = '94704' THEN city <- 'Berkeley';\n"
    "  IF zip = '94607' THEN city <- 'Oakland';\n";

Schema DemoSchema() {
  auto doc = ParseCsv(kCsv);
  EXPECT_TRUE(doc.ok());
  auto table = Table::FromCsv(*doc);
  EXPECT_TRUE(table.ok());
  return table->schema();
}

// A registry with the demo dataset published as version 1.
void LoadDemo(ProgramRegistry* registry, const std::string& dataset = "demo") {
  auto version = registry->LoadFromText(dataset, kProgramText, DemoSchema());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  ASSERT_EQ(*version, 1u);
}

ValidateRequest DemoRequest(std::string payload,
                            core::ErrorPolicy scheme = core::ErrorPolicy::kRaise,
                            RowFormat format = RowFormat::kCsv) {
  ValidateRequest request;
  request.dataset = "demo";
  request.scheme = scheme;
  request.format = format;
  request.payload = std::move(payload);
  return request;
}

// A unique temp directory; removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("guardrail_serve_test_" +
            std::to_string(
                std::hash<std::thread::id>{}(std::this_thread::get_id())) +
            "_" + std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
  void Write(const std::string& name, const std::string& content) const {
    std::ofstream out(path / name, std::ios::binary);
    out << content;
  }
};

// ---- Protocol: round trips ----------------------------------------------

TEST(ProtocolTest, ValidateRequestRoundTrips) {
  ValidateRequest request;
  request.dataset = "hospital";
  request.scheme = core::ErrorPolicy::kRectify;
  request.format = RowFormat::kJson;
  request.deadline_ms = 250;
  request.request_id = 0xFEEDFACECAFEBEEFULL;
  request.payload = "[{\"a\":\"x\"}]";

  std::string frame = EncodeValidateRequest(request);
  ASSERT_GE(frame.size(), kFramePrefixBytes);
  uint64_t payload_size =
      DecodeFramePrefix(reinterpret_cast<const uint8_t*>(frame.data()));
  ASSERT_EQ(payload_size, frame.size() - kFramePrefixBytes);
  ASSERT_TRUE(CheckFrameSize(payload_size).ok());

  std::string_view payload(frame.data() + kFramePrefixBytes, payload_size);
  ValidateRequest decoded;
  ASSERT_TRUE(DecodeValidateRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(decoded.scheme, request.scheme);
  EXPECT_EQ(decoded.format, request.format);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.payload, request.payload);
}

TEST(ProtocolTest, ValidateResponseRoundTrips) {
  ValidateResponse response;
  response.code = StatusCode::kOk;
  response.program_version = 7;
  response.duplicate = true;
  response.rows = {
      {RowVerdict::kOk, 0, ""},
      {RowVerdict::kViolation, 2, "94704,Berkeley"},
      {RowVerdict::kFailed, 0, "injected fault"},
  };

  std::string frame = EncodeValidateResponse(response);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  ValidateResponse decoded;
  ASSERT_TRUE(DecodeValidateResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kOk);
  EXPECT_EQ(decoded.program_version, 7u);
  EXPECT_TRUE(decoded.duplicate);
  ASSERT_EQ(decoded.rows.size(), 3u);
  EXPECT_TRUE(decoded.rows == response.rows);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  ValidateResponse response;
  response.code = StatusCode::kResourceExhausted;
  response.error = "server overloaded";
  response.retry_after_ms = 25;
  std::string frame = EncodeValidateResponse(response);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  ValidateResponse decoded;
  ASSERT_TRUE(DecodeValidateResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.error, "server overloaded");
  EXPECT_EQ(decoded.retry_after_ms, 25u);
  EXPECT_FALSE(decoded.duplicate);
  EXPECT_TRUE(decoded.rows.empty());
}

TEST(ProtocolTest, PingRoundTrips) {
  PingResponse pong;
  pong.draining = true;
  pong.datasets = {{"demo", 3, 0xdeadbeefULL, 2}, {"hospital", 1, 42, 9}};

  std::string ping_frame = EncodePingRequest();
  std::string_view ping_payload(ping_frame.data() + kFramePrefixBytes,
                                ping_frame.size() - kFramePrefixBytes);
  MsgType type;
  ASSERT_TRUE(PeekMsgType(ping_payload, &type).ok());
  EXPECT_EQ(type, MsgType::kPingRequest);
  EXPECT_TRUE(DecodePingRequest(ping_payload).ok());

  std::string frame = EncodePingResponse(pong);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  PingResponse decoded;
  ASSERT_TRUE(DecodePingResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_TRUE(decoded.draining);
  ASSERT_EQ(decoded.datasets.size(), 2u);
  EXPECT_EQ(decoded.datasets[0].dataset, "demo");
  EXPECT_EQ(decoded.datasets[0].version, 3u);
  EXPECT_EQ(decoded.datasets[0].source_hash, 0xdeadbeefULL);
  EXPECT_EQ(decoded.datasets[1].statements, 9u);
}

// ---- Protocol: malformed frames -----------------------------------------

TEST(ProtocolTest, EveryTruncationOfAValidPayloadIsRejectedCleanly) {
  ValidateRequest request = DemoRequest("zip,city\n94704,Berkeley\n");
  std::string frame = EncodeValidateRequest(request);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    ValidateRequest decoded;
    Status st = DecodeValidateRequest(payload.substr(0, len), &decoded);
    EXPECT_FALSE(st.ok()) << "truncation to " << len << " bytes decoded";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }

  ValidateResponse response;
  response.rows = {{RowVerdict::kViolation, 1, "detail"}};
  std::string rframe = EncodeValidateResponse(response);
  std::string_view rpayload(rframe.data() + kFramePrefixBytes,
                            rframe.size() - kFramePrefixBytes);
  for (size_t len = 0; len < rpayload.size(); ++len) {
    ValidateResponse decoded;
    EXPECT_FALSE(
        DecodeValidateResponse(rpayload.substr(0, len), &decoded).ok());
  }
}

TEST(ProtocolTest, OversizedAndZeroFramePrefixesAreRejected) {
  EXPECT_FALSE(CheckFrameSize(0).ok());
  EXPECT_TRUE(CheckFrameSize(1).ok());
  EXPECT_TRUE(CheckFrameSize(kMaxFrameBytes).ok());
  EXPECT_FALSE(CheckFrameSize(uint64_t{kMaxFrameBytes} + 1).ok());
  EXPECT_FALSE(CheckFrameSize(0xFFFFFFFFULL).ok());
}

TEST(ProtocolTest, GarbageEnumIdsAreRejected) {
  // Scheme id 9 in an otherwise valid request.
  std::string payload;
  PutU8(static_cast<uint8_t>(MsgType::kValidateRequest), &payload);
  PutString("demo", &payload);
  PutU8(9, &payload);  // scheme
  PutU8(0, &payload);  // format
  PutU32(0, &payload);
  PutString("zip,city\n", &payload);
  ValidateRequest decoded;
  Status st = DecodeValidateRequest(payload, &decoded);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("scheme"), std::string::npos);

  // Format id 7.
  payload.clear();
  PutU8(static_cast<uint8_t>(MsgType::kValidateRequest), &payload);
  PutString("demo", &payload);
  PutU8(0, &payload);
  PutU8(7, &payload);
  PutU32(0, &payload);
  PutString("zip,city\n", &payload);
  EXPECT_FALSE(DecodeValidateRequest(payload, &decoded).ok());

  // Wrong message type for the decoder.
  std::string ping = EncodePingRequest();
  std::string_view ping_payload(ping.data() + kFramePrefixBytes,
                                ping.size() - kFramePrefixBytes);
  EXPECT_FALSE(DecodeValidateRequest(ping_payload, &decoded).ok());
}

TEST(ProtocolTest, TrailingBytesAreRejected) {
  std::string frame = EncodePingRequest();
  std::string payload(frame.data() + kFramePrefixBytes,
                      frame.size() - kFramePrefixBytes);
  payload += '\x00';
  EXPECT_FALSE(DecodePingRequest(payload).ok());
}

TEST(ProtocolTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(0x5EEDULL);
  for (int i = 0; i < 2000; ++i) {
    size_t len = static_cast<size_t>(rng.NextUint64(64));
    std::string payload;
    payload.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      payload.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    ValidateRequest request;
    ValidateResponse response;
    PingResponse pong;
    // Any outcome is fine except a crash; errors must be InvalidArgument.
    Status s1 = DecodeValidateRequest(payload, &request);
    Status s2 = DecodeValidateResponse(payload, &response);
    Status s3 = DecodePingResponse(payload, &pong);
    for (const Status& s : {s1, s2, s3}) {
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(ProtocolTest, MutatedValidFramesNeverCrashTheDecoders) {
  ValidateRequest request =
      DemoRequest("zip,city\n94704,Berkeley\n", core::ErrorPolicy::kCoerce);
  std::string frame = EncodeValidateRequest(request);
  std::string base(frame.data() + kFramePrefixBytes,
                   frame.size() - kFramePrefixBytes);
  Rng rng(0xF00DULL);
  for (int i = 0; i < 2000; ++i) {
    std::string payload = base;
    int flips = 1 + static_cast<int>(rng.NextUint64(4));
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(rng.NextUint64(payload.size()));
      payload[at] = static_cast<char>(rng.NextUint64(256));
    }
    ValidateRequest decoded;
    Status st = DecodeValidateRequest(payload, &decoded);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    }
  }
}

// ---- Registry -----------------------------------------------------------

TEST(RegistryTest, PublishesAndVersionsMonotonically) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  auto v1 = registry.Get("demo");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->statement_count(), 1);
  EXPECT_NE(v1->source_hash, 0u);

  auto v2 = registry.LoadFromText("demo", kProgramText, DemoSchema());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  // The old snapshot is still pinned by v1; readers keep their version.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.Get("demo")->version, 2u);
  EXPECT_EQ(registry.versions_published(), 2);
}

TEST(RegistryTest, UnknownDatasetIsNull) {
  ProgramRegistry registry;
  EXPECT_EQ(registry.Get("nope"), nullptr);
  EXPECT_TRUE(registry.List().empty());
}

TEST(RegistryTest, AnalyzerRejectsContradictoryProgram) {
  // Two branches on the same determinant value assigning different cities:
  // the contradiction pass flags this at error severity, so the registry
  // must refuse to publish it.
  const char* contradictory =
      "# guardrail-program v1\n"
      "GIVEN zip ON city HAVING\n"
      "  IF zip = '94704' THEN city <- 'Berkeley';\n"
      "GIVEN zip ON city HAVING\n"
      "  IF zip = '94704' THEN city <- 'Oakland';\n";
  ProgramRegistry registry;
  auto version = registry.LoadFromText("demo", contradictory, DemoSchema());
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(version.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(version.status().message().find("analyzer"), std::string::npos);
  EXPECT_EQ(registry.Get("demo"), nullptr);

  // A failing load never displaces a live version.
  LoadDemo(&registry);
  auto again = registry.LoadFromText("demo", contradictory, DemoSchema());
  EXPECT_FALSE(again.ok());
  ASSERT_NE(registry.Get("demo"), nullptr);
  EXPECT_EQ(registry.Get("demo")->version, 1u);
}

TEST(RegistryTest, MalformedProgramTextIsRejected) {
  ProgramRegistry registry;
  Schema schema = DemoSchema();
  EXPECT_FALSE(registry.LoadFromText("demo", "not a program", schema).ok());
  // Unknown attribute: the parser requires names to pre-exist in the schema.
  EXPECT_FALSE(registry
                   .LoadFromText("demo",
                                 "# guardrail-program v1\n"
                                 "GIVEN state ON city HAVING\n"
                                 "  IF state = 'CA' THEN city <- 'X';\n",
                                 schema)
                   .ok());
  EXPECT_EQ(registry.Get("demo"), nullptr);
}

TEST(RegistryTest, PollDirectoryLoadsAndHotReloads) {
  TempDir dir;
  dir.Write("demo.grl", kProgramText);
  dir.Write("demo.csv", kCsv);

  ProgramRegistry registry;
  auto published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(*published, 1);
  auto snapshot = registry.Get("demo");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->schema.num_attributes(), 2);

  // Unchanged files: no new version.
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 0);
  EXPECT_EQ(registry.Get("demo")->version, 1u);

  // Changed program text: hot reload to version 2.
  std::string updated = kProgramText;
  updated += "# updated comment\n";
  dir.Write("demo.grl", updated);
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1);
  EXPECT_EQ(registry.Get("demo")->version, 2u);

  // A broken rewrite is skipped; version 2 stays live, and the broken
  // content is not retried on the next poll (attempted-hash dedup).
  dir.Write("demo.grl", "garbage");
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 0);
  EXPECT_EQ(registry.Get("demo")->version, 2u);

  // Second dataset appears: only it publishes.
  dir.Write("other.grl", kProgramText);
  dir.Write("other.csv", kCsv);
  published = registry.PollDirectory(dir.path.string());
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1);
  ASSERT_EQ(registry.List().size(), 2u);
  EXPECT_EQ(registry.List()[0]->dataset, "demo");
  EXPECT_EQ(registry.List()[1]->dataset, "other");
}

TEST(RegistryTest, PollDirectoryMissingDirIsIoError) {
  ProgramRegistry registry;
  auto published = registry.PollDirectory("/nonexistent/guardrail/dir");
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.status().code(), StatusCode::kIoError);
}

// ---- Engine: offline parity --------------------------------------------

// The serving engine's per-row verdicts must be byte-identical to what the
// offline Guard computes for the same rows under every scheme.
TEST(EngineParityTest, VerdictsMatchOfflineGuardForAllSchemes) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  // Mixed batch: clean rows, a wrong city, an unseen zip, an empty city
  // field (an ordinary '' label offline), and an unseen city label.
  const std::string batch =
      "zip,city\n"
      "94704,Berkeley\n"
      "94704,Oakland\n"
      "10001,Berkeley\n"
      "94607,\n"
      "94607,Fresno\n";

  for (core::ErrorPolicy scheme :
       {core::ErrorPolicy::kRaise, core::ErrorPolicy::kIgnore,
        core::ErrorPolicy::kCoerce, core::ErrorPolicy::kRectify}) {
    ValidateResponse response = engine.Handle(DemoRequest(batch, scheme));
    ASSERT_EQ(response.code, StatusCode::kOk)
        << core::ErrorPolicyName(scheme) << ": " << response.error;
    EXPECT_EQ(response.program_version, 1u);
    ASSERT_EQ(response.rows.size(), 5u);

    // Offline reference: same schema extension path as the engine.
    auto snapshot = registry.Get("demo");
    Schema offline_schema = snapshot->schema;
    auto doc = ParseCsv(batch);
    ASSERT_TRUE(doc.ok());
    core::Guard guard(&snapshot->program);
    for (size_t r = 0; r < doc->rows.size(); ++r) {
      Row row(2, kNullValue);
      for (AttrIndex c = 0; c < 2; ++c) {
        row[static_cast<size_t>(c)] = offline_schema.attribute(c).GetOrInsert(
            doc->rows[r][static_cast<size_t>(c)]);
      }
      auto checked = guard.interpreter().CheckedCheck(row);
      ASSERT_TRUE(checked.ok());
      const RowResult& got = response.rows[r];
      if (checked->empty()) {
        EXPECT_EQ(got.verdict, RowVerdict::kOk) << "row " << r;
        EXPECT_TRUE(got.detail.empty());
        continue;
      }
      EXPECT_EQ(got.verdict, RowVerdict::kViolation) << "row " << r;
      EXPECT_EQ(got.violations, checked->size());
      if (scheme == core::ErrorPolicy::kRaise ||
          scheme == core::ErrorPolicy::kIgnore) {
        EXPECT_TRUE(got.detail.empty());
      } else {
        auto repaired = guard.ProcessRow(row, scheme);
        ASSERT_TRUE(repaired.ok());
        std::string expected;
        if (!(*repaired == row)) {
          std::vector<std::string> fields;
          for (AttrIndex c = 0; c < 2; ++c) {
            ValueId v = (*repaired)[static_cast<size_t>(c)];
            fields.push_back(
                v == kNullValue ? "" : offline_schema.attribute(c).label(v));
          }
          expected = WriteCsvRecord(fields);
        }
        EXPECT_EQ(got.detail, expected)
            << "row " << r << " scheme " << core::ErrorPolicyName(scheme);
      }
    }
  }
}

// The JSON wire format yields the same verdicts as CSV, including null for
// a missing cell.
TEST(EngineParityTest, JsonRowsMatchCsvRows) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  const std::string csv =
      "zip,city\n"
      "94704,Berkeley\n"
      "94704,Oakland\n"
      "94607,\n";
  const std::string json =
      "[{\"zip\":\"94704\",\"city\":\"Berkeley\"},"
      "{\"zip\":\"94704\",\"city\":\"Oakland\"},"
      "{\"zip\":\"94607\",\"city\":\"\"}]";

  ValidateResponse from_csv =
      engine.Handle(DemoRequest(csv, core::ErrorPolicy::kRectify));
  ValidateResponse from_json = engine.Handle(
      DemoRequest(json, core::ErrorPolicy::kRectify, RowFormat::kJson));
  ASSERT_EQ(from_csv.code, StatusCode::kOk) << from_csv.error;
  ASSERT_EQ(from_json.code, StatusCode::kOk) << from_json.error;
  ASSERT_EQ(from_csv.rows.size(), from_json.rows.size());
  for (size_t r = 0; r < from_csv.rows.size(); ++r) {
    EXPECT_TRUE(from_csv.rows[r] == from_json.rows[r]) << "row " << r;
  }

  // JSON null is a real missing cell (kNullValue), unlike the CSV empty
  // field; a null city draws no equality violation here because the
  // interpreter treats it as a missing observation to coerce, not a label.
  ValidateResponse with_null = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\",\"city\":null}]", core::ErrorPolicy::kRaise,
      RowFormat::kJson));
  ASSERT_EQ(with_null.code, StatusCode::kOk) << with_null.error;
  ASSERT_EQ(with_null.rows.size(), 1u);
}

TEST(EngineTest, MalformedPayloadsAreInvalidArgument) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});

  // Ragged CSV.
  ValidateResponse r1 = engine.Handle(DemoRequest("zip,city\n94704\n"));
  EXPECT_EQ(r1.code, StatusCode::kInvalidArgument);
  EXPECT_TRUE(r1.rows.empty());

  // Header mismatch.
  ValidateResponse r2 =
      engine.Handle(DemoRequest("city,zip\nBerkeley,94704\n"));
  EXPECT_EQ(r2.code, StatusCode::kInvalidArgument);

  // JSON with an unknown attribute.
  ValidateResponse r3 = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\",\"state\":\"CA\"}]", core::ErrorPolicy::kRaise,
      RowFormat::kJson));
  EXPECT_EQ(r3.code, StatusCode::kInvalidArgument);

  // JSON with a missing attribute.
  ValidateResponse r4 = engine.Handle(DemoRequest(
      "[{\"zip\":\"94704\"}]", core::ErrorPolicy::kRaise, RowFormat::kJson));
  EXPECT_EQ(r4.code, StatusCode::kInvalidArgument);

  // Unknown dataset.
  ValidateRequest request = DemoRequest("zip,city\n94704,Berkeley\n");
  request.dataset = "nope";
  EXPECT_EQ(engine.Handle(request).code, StatusCode::kNotFound);

  // The engine stays serviceable after every failure.
  ValidateResponse ok = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(ok.code, StatusCode::kOk);
  ASSERT_EQ(ok.rows.size(), 1u);
  EXPECT_EQ(ok.rows[0].verdict, RowVerdict::kOk);
}

TEST(EngineTest, BatchRowCapIsEnforced) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  EngineOptions options;
  options.max_batch_rows = 2;
  ValidationEngine engine(&registry, options);
  ValidateResponse response = engine.Handle(
      DemoRequest("zip,city\n94704,Berkeley\n94704,Berkeley\n94704,Berkeley\n"));
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_NE(response.error.find("cap"), std::string::npos);
}

TEST(EngineTest, ParallelBatchMatchesSerial) {
  ProgramRegistry registry;
  LoadDemo(&registry);

  // 6000 rows with a violation sprinkled every 7th row.
  std::string batch = "zip,city\n";
  for (int i = 0; i < 6000; ++i) {
    batch += i % 7 == 0 ? "94704,Oakland\n" : "94704,Berkeley\n";
  }

  EngineOptions serial;
  serial.parallel_batch_threshold = 1 << 30;  // Force the serial loop.
  EngineOptions parallel;
  parallel.parallel_batch_threshold = 1;  // Force the sharded scan.
  parallel.rows_per_shard = 256;
  ValidationEngine serial_engine(&registry, serial);
  ValidationEngine parallel_engine(&registry, parallel);

  ValidateResponse a =
      serial_engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
  ValidateResponse b =
      parallel_engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
  ASSERT_EQ(a.code, StatusCode::kOk) << a.error;
  ASSERT_EQ(b.code, StatusCode::kOk) << b.error;
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_TRUE(a.rows[r] == b.rows[r]) << "row " << r;
  }
}

TEST(EngineTest, ExpiredDeadlineAnswersTimeout) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  // A large serial batch with an already-expired budget: the stride-64
  // checker fires early and the whole request answers kTimeout.
  std::string batch = "zip,city\n";
  for (int i = 0; i < 1000; ++i) batch += "94704,Berkeley\n";
  ValidateRequest request = DemoRequest(batch);
  request.deadline_ms = 1;
  // Burn past the deadline before the scan starts.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ValidateResponse response = engine.Handle(request);
  // Either the request finished before expiry (tiny batch, fast machine) or
  // it timed out — but a timeout must be the clean kTimeout wire code.
  if (response.code != StatusCode::kOk) {
    EXPECT_EQ(response.code, StatusCode::kTimeout);
    EXPECT_TRUE(response.rows.empty());
  }
}

// ---- Decode: columnar decoder vs the row decoder it replaced -------------

// The request decoder the engine used before it decoded into columns, kept
// verbatim as the differential oracle: a ParseCsv document (or the JSON
// reader's cell lists) resolved row by row with GetOrInsert on a schema
// copy.
class SeedJsonRowsParser {
 public:
  using Cells = std::vector<std::pair<AttrIndex, std::optional<std::string>>>;

  explicit SeedJsonRowsParser(std::string_view text) : text_(text) {}

  Status Parse(const Schema& schema, std::vector<Cells>* rows) {
    SkipWs();
    GUARDRAIL_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return ExpectEnd();
    }
    while (true) {
      rows->emplace_back();
      GUARDRAIL_RETURN_NOT_OK(ParseObject(schema, &rows->back()));
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      GUARDRAIL_RETURN_NOT_OK(Expect(']'));
      return ExpectEnd();
    }
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON rows: " + what + " at byte " +
                                   std::to_string(pos_));
  }
  Status Expect(char c) {
    if (Peek() != c) return Fail(std::string("expected '") + c + "'");
    ++pos_;
    return Status::OK();
  }
  Status ExpectEnd() {
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing content");
    return Status::OK();
  }
  Status ParseObject(const Schema& schema, Cells* row) {
    SkipWs();
    GUARDRAIL_RETURN_NOT_OK(Expect('{'));
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      std::string key;
      GUARDRAIL_RETURN_NOT_OK(ParseString(&key));
      AttrIndex attr = schema.FindAttribute(key);
      if (attr < 0) return Fail("unknown attribute '" + key + "'");
      SkipWs();
      GUARDRAIL_RETURN_NOT_OK(Expect(':'));
      SkipWs();
      if (Peek() == 'n') {
        if (text_.substr(pos_, 4) != "null") return Fail("expected 'null'");
        pos_ += 4;
        row->emplace_back(attr, std::nullopt);
      } else {
        std::string value;
        GUARDRAIL_RETURN_NOT_OK(ParseString(&value));
        row->emplace_back(attr, std::move(value));
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      return Expect('}');
    }
  }
  Status ParseString(std::string* out) {
    GUARDRAIL_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t code = 0;
          GUARDRAIL_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            GUARDRAIL_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
  }
  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<std::vector<Row>> SeedDecodeRows(RowFormat format,
                                        const std::string& payload,
                                        Schema* schema, int64_t max_rows) {
  auto cap = [&](size_t rows) {
    return Status::InvalidArgument(
        "batch of " + std::to_string(rows) +
        " row(s) exceeds the per-request cap of " + std::to_string(max_rows));
  };
  const int32_t width = schema->num_attributes();
  std::vector<Row> rows;
  if (format == RowFormat::kCsv) {
    GUARDRAIL_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsv(payload));
    if (static_cast<int64_t>(doc.rows.size()) > max_rows) {
      return cap(doc.rows.size());
    }
    if (static_cast<int32_t>(doc.header.size()) != width) {
      return Status::InvalidArgument(
          "CSV header has " + std::to_string(doc.header.size()) +
          " column(s), dataset schema has " + std::to_string(width));
    }
    for (AttrIndex c = 0; c < width; ++c) {
      if (doc.header[static_cast<size_t>(c)] != schema->attribute(c).name()) {
        return Status::InvalidArgument(
            "CSV header column " + std::to_string(c + 1) + " is '" +
            doc.header[static_cast<size_t>(c)] + "', expected '" +
            schema->attribute(c).name() + "'");
      }
    }
    for (const auto& record : doc.rows) {
      Row row(static_cast<size_t>(width), kNullValue);
      for (AttrIndex c = 0; c < width; ++c) {
        row[static_cast<size_t>(c)] =
            schema->attribute(c).GetOrInsert(record[static_cast<size_t>(c)]);
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }
  std::vector<SeedJsonRowsParser::Cells> parsed;
  GUARDRAIL_RETURN_NOT_OK(SeedJsonRowsParser(payload).Parse(*schema, &parsed));
  if (static_cast<int64_t>(parsed.size()) > max_rows) return cap(parsed.size());
  for (size_t r = 0; r < parsed.size(); ++r) {
    Row row(static_cast<size_t>(width), kNullValue);
    std::vector<bool> seen(row.size(), false);
    for (auto& [attr, label] : parsed[r]) {
      if (seen[static_cast<size_t>(attr)]) {
        return Status::InvalidArgument(
            "JSON row " + std::to_string(r + 1) + " repeats attribute '" +
            schema->attribute(attr).name() + "'");
      }
      seen[static_cast<size_t>(attr)] = true;
      if (label.has_value()) {
        row[static_cast<size_t>(attr)] =
            schema->attribute(attr).GetOrInsert(*label);
      }
    }
    for (AttrIndex c = 0; c < width; ++c) {
      if (!seen[static_cast<size_t>(c)]) {
        return Status::InvalidArgument(
            "JSON row " + std::to_string(r + 1) + " is missing attribute '" +
            schema->attribute(c).name() + "' (use null for a missing cell)");
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Three attributes whose base domains include labels that need CSV quoting
// or JSON escaping.
Schema DecodeTestSchema() {
  Attribute a("a");
  Attribute b("b");
  Attribute c("c");
  for (const char* label : {"a0", "a1", "x,y"}) a.GetOrInsert(label);
  for (const char* label : {"b0", "", "q\"t"}) b.GetOrInsert(label);
  for (const char* label : {"c0", "long label past eight bytes", "l\nb"}) {
    c.GetOrInsert(label);
  }
  return Schema({a, b, c});
}

// A random label for attribute `attr`: one the base knows, or an unseen one
// (some of which also need quoting, or cross the 8-byte scan steps).
std::string RandomLabel(const Schema& schema, AttrIndex attr, Rng* rng) {
  static const char* const kUnseen[] = {
      "fresh", "", "n,1", "m\"2", "o\n3", "p\r\n4", "unseen label, long",
      "\xc3\xa9t\xc3\xa9", "f0", "f1", "f2"};
  if (rng->NextUint64(2) == 0) {
    const auto& domain = schema.attribute(attr).domain();
    return domain[rng->NextUint64(domain.size())];
  }
  return kUnseen[rng->NextUint64(std::size(kUnseen))];
}

std::string CsvField(const std::string& label, Rng* rng) {
  if (label.find_first_of(",\"\r\n") == std::string::npos &&
      rng->NextUint64(4) != 0) {
    return label;
  }
  std::string out = "\"";
  for (char ch : label) out += ch == '"' ? std::string("\"\"") : std::string(1, ch);
  return out + "\"";
}

// A CSV payload with every accept path (quoted fields, "" escapes, CRLF,
// blank lines, empty fields, unseen labels) and, sometimes, one or more
// faults of each class: header mismatch, ragged row, NUL byte, unterminated
// or misplaced quote, characters after a closing quote, overlong field.
std::string RandomCsvPayload(const Schema& schema, Rng* rng) {
  auto chance = [&](uint64_t one_in) { return rng->NextUint64(one_in) == 0; };
  auto eol = [&]() -> std::string { return chance(3) ? "\r\n" : "\n"; };
  const size_t width = static_cast<size_t>(schema.num_attributes());
  std::vector<std::string> header = schema.AttributeNames();
  if (chance(12)) std::swap(header[0], header[1]);
  size_t fields = width;
  if (chance(16)) fields = width - 1;
  if (chance(16)) fields = width + 1;
  std::string text;
  for (size_t c = 0; c < fields; ++c) {
    if (c > 0) text += ',';
    text += c < header.size() ? CsvField(header[c], rng) : "extra";
  }
  const uint64_t rows = rng->NextUint64(9);
  for (uint64_t r = 0; r < rows; ++r) {
    text += eol();
    if (chance(6)) text += eol();  // Blank line.
    size_t row_fields = fields;
    if (chance(20)) row_fields = chance(2) ? fields + 1 : fields - 1;
    for (size_t c = 0; c < row_fields; ++c) {
      if (c > 0) text += ',';
      AttrIndex attr = static_cast<AttrIndex>(c % width);
      std::string field = CsvField(RandomLabel(schema, attr, rng), rng);
      if (chance(40)) field = "ab\"c";
      if (chance(40)) field = "\"ab\"c";
      if (chance(1500)) field = std::string(kMaxCsvFieldBytes, 'z');
      text += field;
    }
  }
  if (chance(30)) text += eol() + "\"unterminated";
  if (chance(30)) text.insert(rng->NextUint64(text.size() + 1), 1, '\0');
  if (chance(2)) text += eol();
  return text;
}

std::string JsonString(const std::string& text, Rng* rng) {
  std::string out = "\"";
  for (unsigned char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += static_cast<char>(ch);
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\r') {
      out += "\\r";
    } else if (ch < 0x80 && rng->NextUint64(8) == 0) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += static_cast<char>(ch);
    }
  }
  return out + "\"";
}

// A JSON payload: objects with keys in random order and null cells, and,
// sometimes, a missing, repeated or unknown attribute, a non-string value,
// a stray byte, a truncation or trailing content.
std::string RandomJsonPayload(const Schema& schema, Rng* rng) {
  auto chance = [&](uint64_t one_in) { return rng->NextUint64(one_in) == 0; };
  auto ws = [&]() -> std::string { return chance(4) ? " \n" : ""; };
  std::string text = "[" + ws();
  const uint64_t rows = rng->NextUint64(8);
  for (uint64_t r = 0; r < rows; ++r) {
    if (r > 0) text += "," + ws();
    std::vector<AttrIndex> keys;
    for (AttrIndex c = 0; c < schema.num_attributes(); ++c) keys.push_back(c);
    rng->Shuffle(&keys);
    if (chance(15)) keys.pop_back();
    if (chance(15)) keys.push_back(keys.front());
    text += "{";
    for (size_t k = 0; k < keys.size(); ++k) {
      if (k > 0) text += "," + ws();
      text += JsonString(schema.attribute(keys[k]).name(), rng) + ":" + ws();
      if (chance(6)) {
        text += "null";
      } else if (chance(60)) {
        text += "42";
      } else {
        text += JsonString(RandomLabel(schema, keys[k], rng), rng);
      }
    }
    if (chance(40)) text += ",\"zz\":\"u\"";
    text += "}";
  }
  text += ws() + "]";
  if (chance(25)) text += "x";
  if (chance(25)) text.insert(rng->NextUint64(text.size() + 1), 1, '}');
  if (chance(25)) text.resize(rng->NextUint64(text.size() + 1));
  return text;
}

// Seeded differential test: on random CSV and JSON payloads the columnar
// decoder reports the oracle's status text, the oracle's codes, and as its
// overlay exactly the labels GetOrInsert appended to the oracle's schema
// copy. DecodeRows agrees too, and grows its schema only on success.
TEST(DecodeTest, ColumnsMatchSeedRowDecoder) {
  const Schema base = DecodeTestSchema();
  Rng rng(13);
  int accepted = 0;
  int unseen = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const RowFormat format = iter % 2 == 0 ? RowFormat::kCsv : RowFormat::kJson;
    const std::string payload = format == RowFormat::kCsv
                                    ? RandomCsvPayload(base, &rng)
                                    : RandomJsonPayload(base, &rng);
    const int64_t max_rows =
        rng.NextUint64(8) == 0 ? static_cast<int64_t>(rng.NextUint64(6)) : 64;
    const std::string context = testing::PrintToString(payload);

    Schema oracle_schema = base;
    Result<std::vector<Row>> want =
        SeedDecodeRows(format, payload, &oracle_schema, max_rows);
    Result<DecodedColumns> got = DecodeColumns(format, payload, base, max_rows);
    Schema wrapped_schema = base;
    Result<std::vector<Row>> wrapped =
        DecodeRows(format, payload, &wrapped_schema, max_rows);

    ASSERT_EQ(got.ok(), want.ok()) << context << "\n"
                                   << got.status().ToString() << "\n"
                                   << want.status().ToString();
    ASSERT_EQ(wrapped.ok(), want.ok()) << context;
    if (!want.ok()) {
      ASSERT_EQ(got.status().ToString(), want.status().ToString()) << context;
      ASSERT_EQ(wrapped.status().ToString(), want.status().ToString());
      for (AttrIndex c = 0; c < base.num_attributes(); ++c) {
        ASSERT_EQ(wrapped_schema.attribute(c).domain(),
                  base.attribute(c).domain())
            << context;
      }
      continue;
    }
    ++accepted;
    ASSERT_EQ(got->num_rows(), static_cast<int64_t>(want->size())) << context;
    for (int64_t r = 0; r < got->num_rows(); ++r) {
      ASSERT_EQ(got->MaterializeRow(r), (*want)[static_cast<size_t>(r)])
          << context << " row " << r;
    }
    ASSERT_EQ(*wrapped, *want) << context;
    for (AttrIndex c = 0; c < base.num_attributes(); ++c) {
      const auto& full = oracle_schema.attribute(c).domain();
      const std::vector<std::string> minted(
          full.begin() + base.attribute(c).domain_size(), full.end());
      ASSERT_EQ(got->overlay(c), minted) << context;
      ASSERT_EQ(wrapped_schema.attribute(c).domain(), full) << context;
      unseen += static_cast<int>(minted.size());
    }
  }
  // The generator must exercise both outcomes, and the overlay.
  EXPECT_GT(accepted, 1500);
  EXPECT_GT(unseen, 1500);
}

// The regression DecodeRows used to have: a rejected batch extended the
// schema with the labels it had already resolved. StreamService passes a
// stream's own schema here, so every rejection class must leave it as is.
TEST(DecodeTest, RejectedBatchLeavesDomainsUnchanged) {
  struct Case {
    const char* name;
    RowFormat format;
    std::string payload;
    int64_t max_rows;
  };
  const Case kCases[] = {
      {"ragged row", RowFormat::kCsv, "zip,city\nfresh_z,fresh_c\n94704\n",
       16},
      {"NUL byte", RowFormat::kCsv,
       std::string("zip,city\nfresh_z,fresh_c\nx\0y,z\n", 32), 16},
      {"row cap", RowFormat::kCsv,
       "zip,city\nfresh_z,fresh_c\nfresh_y,fresh_d\nfresh_x,fresh_e\n", 2},
      {"header mismatch", RowFormat::kCsv, "city,zip\nfresh_c,fresh_z\n", 16},
      {"repeated JSON attribute", RowFormat::kJson,
       "[{\"zip\":\"fresh_z\",\"city\":\"fresh_c\",\"zip\":\"fresh_y\"}]", 16},
      {"missing JSON attribute", RowFormat::kJson,
       "[{\"zip\":\"fresh_a\",\"city\":\"fresh_b\"},{\"zip\":\"x\"}]", 16},
  };
  for (const Case& c : kCases) {
    Schema schema = DemoSchema();
    const int32_t zips = schema.attribute(0).domain_size();
    const int32_t cities = schema.attribute(1).domain_size();
    auto rows = DecodeRows(c.format, c.payload, &schema, c.max_rows);
    ASSERT_FALSE(rows.ok()) << c.name;
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_EQ(schema.attribute(0).domain_size(), zips) << c.name;
    EXPECT_EQ(schema.attribute(1).domain_size(), cities) << c.name;
  }

  // An accepted batch does extend the schema, with the codes its rows carry.
  Schema schema = DemoSchema();
  auto rows = DecodeRows(RowFormat::kJson,
                         "[{\"zip\":\"fresh_a\",\"city\":\"fresh_b\"}]",
                         &schema, 16);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(schema.attribute(0).label((*rows)[0][0]), "fresh_a");
  EXPECT_EQ(schema.attribute(1).label((*rows)[0][1]), "fresh_b");
}

// ---- Engine: unseen labels ---------------------------------------------

// zip -> city with a free-text note column the program never reads, so an
// unseen note survives a rectify repair and must render verbatim.
const char* kNotesCsv =
    "zip,city,note\n"
    "94704,Berkeley,n\n"
    "94704,Berkeley,n\n"
    "94607,Oakland,n\n"
    "94607,Oakland,n\n";

void LoadNotes(ProgramRegistry* registry) {
  auto doc = ParseCsv(kNotesCsv);
  ASSERT_TRUE(doc.ok());
  auto table = Table::FromCsv(*doc);
  ASSERT_TRUE(table.ok());
  auto version = registry->LoadFromText("notes", kProgramText, table->schema());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
}

std::vector<int32_t> DomainSizes(const Schema& schema) {
  std::vector<int32_t> sizes;
  for (AttrIndex c = 0; c < schema.num_attributes(); ++c) {
    sizes.push_back(schema.attribute(c).domain_size());
  }
  return sizes;
}

TEST(EngineTest, UnseenLabelsLeaveTheSnapshotSchemaUntouched) {
  ProgramRegistry registry;
  LoadNotes(&registry);
  auto snapshot = registry.Get("notes");
  const std::vector<int32_t> before = DomainSizes(snapshot->schema);

  for (bool parallel : {false, true}) {
    EngineOptions options;
    if (parallel) {
      options.parallel_batch_threshold = 1;
      options.rows_per_shard = 2;
    }
    ValidationEngine configured(&registry, options);
    ValidateRequest request = DemoRequest(
        "zip,city,note\n"
        "94704,Oakland,\"fresh, with comma\"\n"
        "94704,Fresno,fresh\n"
        "10001,Berkeley,other\n"
        "94607,Oakland,fresh\n"
        "94607,Fresno,\"q\"\"uote\"\n",
        core::ErrorPolicy::kRectify);
    request.dataset = "notes";
    ValidateResponse response = configured.Handle(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    ASSERT_EQ(response.rows.size(), 5u);
    // Overlay labels the repair keeps render verbatim (CSV-quoted as
    // needed); an unseen label the repair replaces is gone.
    EXPECT_EQ(response.rows[0].detail, "94704,Berkeley,\"fresh, with comma\"");
    EXPECT_EQ(response.rows[1].detail, "94704,Berkeley,fresh");
    EXPECT_EQ(response.rows[2].verdict, RowVerdict::kOk);  // Unseen zip.
    EXPECT_EQ(response.rows[3].verdict, RowVerdict::kOk);
    EXPECT_EQ(response.rows[4].detail, "94607,Oakland,\"q\"\"uote\"");

    request.scheme = core::ErrorPolicy::kCoerce;
    ValidateResponse coerced = configured.Handle(request);
    ASSERT_EQ(coerced.code, StatusCode::kOk) << coerced.error;
    EXPECT_EQ(coerced.rows[1].detail, "94704,,fresh");
  }
  EXPECT_EQ(DomainSizes(snapshot->schema), before);
  EXPECT_EQ(DomainSizes(registry.Get("notes")->schema), before);
}

// Concurrent requests each resolve their own unseen labels: the same
// overlay code means a different label in each request, and no request
// sees another's.
TEST(ServeConcurrencyTest, DisjointUnseenLabelsStayPerRequest) {
  ProgramRegistry registry;
  LoadNotes(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  const std::vector<int32_t> before =
      DomainSizes(registry.Get("notes")->schema);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::string tag = "t" + std::to_string(t) + "_" +
                                std::to_string(i);
        ValidateRequest request = DemoRequest(
            "zip,city,note\n94704,Oakland," + tag + "_a\n94607," + tag +
                "_city," + tag + "_b\n94704,Berkeley," + tag + "_c\n",
            core::ErrorPolicy::kRectify);
        request.dataset = "notes";
        ValidateResponse response = engine.Handle(request);
        ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
        ASSERT_EQ(response.rows.size(), 3u);
        EXPECT_EQ(response.rows[0].detail, "94704,Berkeley," + tag + "_a");
        EXPECT_EQ(response.rows[1].detail, "94607,Oakland," + tag + "_b");
        EXPECT_EQ(response.rows[2].verdict, RowVerdict::kOk);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(DomainSizes(registry.Get("notes")->schema), before);
}

// ---- Engine: admission backpressure ------------------------------------

TEST(AdmissionTest, BoundedAndReleased) {
  AdmissionController admission(2);
  EXPECT_TRUE(admission.TryAcquire());
  EXPECT_TRUE(admission.TryAcquire());
  EXPECT_FALSE(admission.TryAcquire());  // Third arrival is shed.
  EXPECT_EQ(admission.inflight(), 2);
  admission.Release();
  EXPECT_TRUE(admission.TryAcquire());
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.inflight(), 0);
}

TEST(AdmissionTest, OverloadedEngineAnswersResourceExhausted) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  EngineOptions options;
  options.max_inflight = 1;
  ValidationEngine engine(&registry, options);

  // Saturate the single slot by hand, then observe the shed response.
  ASSERT_TRUE(engine.admission().TryAcquire());
  ValidateResponse shed = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.rows.empty());
  engine.admission().Release();

  ValidateResponse ok = engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(ok.code, StatusCode::kOk);
}

// ---- Engine: fault isolation -------------------------------------------

TEST(EngineTest, InjectedFaultsAreIsolatedPerRequest) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  auto& failpoints = FailpointRegistry::Instance();
  failpoints.DisarmAll();

  // Request-level fault: the request fails cleanly with the injected code.
  {
    ScopedFailpoint fp("serve.handle_request", 1.0, StatusCode::kIoError);
    ValidateResponse response =
        engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
    EXPECT_EQ(response.code, StatusCode::kIoError);
    EXPECT_TRUE(response.rows.empty());
  }

  // Row-level fault (interpreter.check): rows fail individually, the batch
  // still completes with kOk and per-row kFailed verdicts.
  {
    ScopedFailpoint fp("interpreter.check", 1.0, StatusCode::kInternal);
    ValidateResponse response =
        engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n94607,Oakland\n"));
    EXPECT_EQ(response.code, StatusCode::kOk);
    ASSERT_EQ(response.rows.size(), 2u);
    for (const RowResult& row : response.rows) {
      EXPECT_EQ(row.verdict, RowVerdict::kFailed);
      EXPECT_FALSE(row.detail.empty());
    }
  }

  // Disarmed: the very next request is clean.
  ValidateResponse clean =
      engine.Handle(DemoRequest("zip,city\n94704,Berkeley\n"));
  EXPECT_EQ(clean.code, StatusCode::kOk);
  ASSERT_EQ(clean.rows.size(), 1u);
  EXPECT_EQ(clean.rows[0].verdict, RowVerdict::kOk);
}

// ---- Registry + engine concurrency (TSan-exercised) ---------------------

// Validation requests race a loader republishing new versions. TSan (the CI
// thread-sanitizer job runs this test) must see no torn reads, and every
// response must report a version that was live at some point during the
// request: >= the version the loader had stored as published before the
// call, <= the registry's live version after it. The upper bound comes from
// the registry itself because LoadFromText publishes before the loader
// thread stores `published`.
TEST(ServeConcurrencyTest, HotReloadDoesNotTearInFlightRequests) {
  ProgramRegistry registry;
  LoadDemo(&registry);
  ValidationEngine engine(&registry, EngineOptions{});
  Schema base = DemoSchema();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> published{1};

  std::thread loader([&] {
    for (int i = 0; i < 50; ++i) {
      auto version = registry.LoadFromText("demo", kProgramText, base);
      ASSERT_TRUE(version.ok());
      published.store(*version, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
  });

  const std::string batch =
      "zip,city\n94704,Berkeley\n94704,Oakland\n94607,Oakland\n";
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t before = published.load(std::memory_order_acquire);
        ValidateResponse response =
            engine.Handle(DemoRequest(batch, core::ErrorPolicy::kRectify));
        uint64_t after = registry.Get("demo")->version;
        ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
        EXPECT_GE(response.program_version, before);
        EXPECT_LE(response.program_version, after);
        ASSERT_EQ(response.rows.size(), 3u);
        EXPECT_EQ(response.rows[0].verdict, RowVerdict::kOk);
        EXPECT_EQ(response.rows[1].verdict, RowVerdict::kViolation);
        EXPECT_EQ(response.rows[1].detail, "94704,Berkeley");
        EXPECT_EQ(response.rows[2].verdict, RowVerdict::kOk);
      }
    });
  }
  loader.join();
  for (auto& t : workers) t.join();
  EXPECT_EQ(registry.Get("demo")->version, 51u);
}

// ---- Server end-to-end --------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadDemo(&registry_);
    EngineOptions options;
    engine_ = std::make_unique<ValidationEngine>(&registry_, options);
    ServerOptions server_options;
    server_options.port = 0;
    server_ = std::make_unique<Server>(&registry_, engine_.get(),
                                       server_options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  ProgramRegistry registry_;
  std::unique_ptr<ValidationEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, ValidateOverLocalhost) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = client->Validate(
      DemoRequest("zip,city\n94704,Berkeley\n94704,Oakland\n",
                  core::ErrorPolicy::kRectify));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
  EXPECT_EQ(response->program_version, 1u);
  ASSERT_EQ(response->rows.size(), 2u);
  EXPECT_EQ(response->rows[0].verdict, RowVerdict::kOk);
  EXPECT_EQ(response->rows[1].verdict, RowVerdict::kViolation);
  EXPECT_EQ(response->rows[1].detail, "94704,Berkeley");

  // Same connection, next request: unknown dataset.
  ValidateRequest bad = DemoRequest("zip,city\n94704,Berkeley\n");
  bad.dataset = "nope";
  auto not_found = client->Validate(bad);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->code, StatusCode::kNotFound);

  // Ping reports the live dataset.
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->protocol_version, kProtocolVersion);
  EXPECT_FALSE(pong->draining);
  ASSERT_EQ(pong->datasets.size(), 1u);
  EXPECT_EQ(pong->datasets[0].dataset, "demo");
  EXPECT_EQ(pong->datasets[0].version, 1u);
}

TEST_F(ServerTest, GarbagePayloadGetsErrorResponseNotACrash) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  // A well-framed but undecodable payload (empty request body is bad CSV)
  // must come back as a clean error response on the same connection...
  ValidateRequest probe = DemoRequest("zip,city\n94704,Berkeley\n");
  auto error_response = client->Validate(DemoRequest(""));
  ASSERT_TRUE(error_response.ok());
  EXPECT_EQ(error_response->code, StatusCode::kInvalidArgument);

  // ...and the connection still works afterwards.
  auto ok_response = client->Validate(probe);
  ASSERT_TRUE(ok_response.ok());
  EXPECT_EQ(ok_response->code, StatusCode::kOk);
}

TEST_F(ServerTest, DrainFinishesInFlightThenStops) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());

  // Kick off a drain concurrently with a request in flight.
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_->Drain();
    drained.store(true);
  });

  // Requests issued before/during the drain either complete normally or,
  // if the connection was already past the drain point, fail at transport
  // level — but never with a torn/partial response.
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    auto response = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    if (!response.ok()) break;  // Connection closed by the drain.
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    ASSERT_EQ(response->rows.size(), 1u);
    ++completed;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_GT(completed, 0);
  EXPECT_TRUE(server_->draining());

  // New connections are refused or reset after the drain.
  auto late = Client::Connect("127.0.0.1", server_->port(), 500);
  if (late.ok()) {
    auto response = late->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    EXPECT_FALSE(response.ok());
  }
}

TEST(ServerWatchTest, ServesFromWatchedDirectoryAndHotReloads) {
  TempDir dir;
  dir.Write("demo.grl", kProgramText);
  dir.Write("demo.csv", kCsv);

  ProgramRegistry registry;
  ValidationEngine engine(&registry, EngineOptions{});
  ServerOptions options;
  options.port = 0;
  options.watch_dir = dir.path.string();
  options.reload_interval_ms = 50;
  Server server(&registry, &engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
  EXPECT_EQ(response->program_version, 1u);

  // Touch the program: the watcher republishes within a few intervals.
  std::string updated = kProgramText;
  updated += "# rev 2\n";
  dir.Write("demo.grl", updated);
  uint64_t version = 1;
  for (int i = 0; i < 100 && version < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto again = client->Validate(DemoRequest("zip,city\n94704,Berkeley\n"));
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->code, StatusCode::kOk);
    version = again->program_version;
  }
  EXPECT_EQ(version, 2u);
  server.Drain();
}

}  // namespace
}  // namespace serve
}  // namespace guardrail
