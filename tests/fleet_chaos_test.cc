#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "core/guard.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/pool.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_oracle.h"
#include "table/table.h"

// Resilient-fleet suite (docs/SERVING.md, "Resilience"): the ReplicaPool's
// failover / circuit breakers / hedging, the exactly-once dedup window, the
// Health frames, and the chaos soaks — nodes killed and restarted mid-stream,
// sequentially and under concurrent streaming workers, while every collected
// verdict stays byte-identical to the offline Guard.

namespace guardrail {
namespace serve {
namespace {

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

// Mixed batch: clean rows, a wrong city, an unseen zip, an empty city.
const char* kBatch =
    "zip,city\n"
    "94704,Berkeley\n"
    "94704,Oakland\n"
    "10001,Berkeley\n"
    "94607,\n"
    "94607,Fresno\n";

Schema SeedSchema(const std::string& csv) {
  auto doc = ParseCsv(csv);
  EXPECT_TRUE(doc.ok());
  auto table = Table::FromCsv(*doc);
  EXPECT_TRUE(table.ok());
  return table->schema();
}

Schema DemoSchema() { return SeedSchema(kCsv); }

ValidateRequest BatchRequest(core::ErrorPolicy scheme) {
  ValidateRequest request;
  request.dataset = "demo";
  request.scheme = scheme;
  request.format = RowFormat::kCsv;
  request.payload = kBatch;
  return request;
}

/// The offline Guard pass the fleet's verdicts for kBatch must match byte
/// for byte.
std::vector<RowResult> ExpectedBatch(const ProgramRegistry& registry,
                                     core::ErrorPolicy scheme) {
  auto snapshot = registry.Get("demo");
  EXPECT_NE(snapshot, nullptr);
  Schema schema = snapshot->schema;
  core::Guard guard(&snapshot->program);
  auto expected = OfflineGuardPass(guard, &schema, kBatch, scheme);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  return expected.ok() ? *std::move(expected) : std::vector<RowResult>{};
}

/// One in-process replica: registry + engine survive a Kill/Restart cycle
/// (a warm node restart — the OS would hand a cold restart an empty dedup
/// window, which is also safe: re-running a kOk batch is deterministic).
struct Node {
  std::string seed_csv = kCsv;
  std::string program_text = kProgramText;
  ProgramRegistry registry;
  std::unique_ptr<ValidationEngine> engine;
  std::unique_ptr<Server> server;
  int port = 0;

  Status Start(int port_hint = 0) {
    if (engine == nullptr) {
      auto version =
          registry.LoadFromText("demo", program_text, SeedSchema(seed_csv));
      if (!version.ok()) return version.status();
      engine = std::make_unique<ValidationEngine>(&registry, EngineOptions{});
    }
    ServerOptions options;
    options.port = port_hint;
    server = std::make_unique<Server>(&registry, engine.get(), options);
    Status st = server->Start();
    if (st.ok()) port = server->port();
    return st;
  }

  void Kill() { server.reset(); }  // Destructor drains and joins.

  Status Restart() {
    Kill();
    // The freed port can need a beat to become bindable again.
    Status st = Status::OK();
    for (int i = 0; i < 50; ++i) {
      st = Start(port);
      if (st.ok()) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return st;
  }
};

PoolOptions ChaosPoolOptions() {
  PoolOptions options;
  options.connect_timeout_ms = 2000;
  options.retry.max_attempts = 8;
  options.retry.initial_backoff_ms = 2;
  options.retry.max_backoff_ms = 50;
  options.retry.seed = 0xC4A05;
  return options;
}

// ---- Endpoint parsing ---------------------------------------------------

TEST(EndpointParseTest, ParsesHostPortList) {
  auto endpoints = ParseEndpoints("127.0.0.1:7001, 127.0.0.1:7002,:7003");
  ASSERT_TRUE(endpoints.ok()) << endpoints.status().ToString();
  ASSERT_EQ(endpoints->size(), 3u);
  EXPECT_EQ((*endpoints)[0].ToString(), "127.0.0.1:7001");
  EXPECT_EQ((*endpoints)[1].port, 7002);
  EXPECT_EQ((*endpoints)[2].host, "127.0.0.1");  // Bare :port defaults.
}

TEST(EndpointParseTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseEndpoints("").ok());
  EXPECT_FALSE(ParseEndpoints("localhost").ok());
  EXPECT_FALSE(ParseEndpoints("host:notaport").ok());
  EXPECT_FALSE(ParseEndpoints("host:70000").ok());
  EXPECT_FALSE(ParseEndpoints("host:").ok());
  // Trailing garbage and fractions are refused, not truncated to a port.
  EXPECT_FALSE(ParseEndpoints("h:80x").ok());
  EXPECT_FALSE(ParseEndpoints("h:7001.5").ok());
  auto huge = ParseEndpoints("h:99999999999");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().ToString().find("out of range"), std::string::npos);
}

// ---- Health frames ------------------------------------------------------

TEST(HealthFrameTest, RoundTripsOnTheWire) {
  HealthResponse health;
  health.draining = true;
  health.inflight = 3;
  health.max_inflight = 64;
  health.registry_versions = 7;
  health.live_datasets = 2;
  health.superseded_snapshots = 1;

  std::string frame = EncodeHealthResponse(health);
  std::string_view payload(frame.data() + kFramePrefixBytes,
                           frame.size() - kFramePrefixBytes);
  HealthResponse decoded;
  ASSERT_TRUE(DecodeHealthResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_TRUE(decoded.draining);
  EXPECT_EQ(decoded.inflight, 3u);
  EXPECT_EQ(decoded.max_inflight, 64u);
  EXPECT_EQ(decoded.registry_versions, 7u);
  EXPECT_EQ(decoded.live_datasets, 2u);
  EXPECT_EQ(decoded.superseded_snapshots, 1u);

  std::string request = EncodeHealthRequest();
  EXPECT_TRUE(DecodeHealthRequest(std::string_view(
                  request.data() + kFramePrefixBytes,
                  request.size() - kFramePrefixBytes))
                  .ok());
}

TEST(HealthFrameTest, ServerReportsEngineAndRegistryState) {
  Node node;
  ASSERT_TRUE(node.Start().ok());
  auto client = Client::Connect("127.0.0.1", node.port);
  ASSERT_TRUE(client.ok());

  auto health = client->Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->protocol_version, kProtocolVersion);
  EXPECT_FALSE(health->draining);
  EXPECT_EQ(health->inflight, 0u);
  EXPECT_EQ(health->max_inflight, 64u);
  EXPECT_EQ(health->registry_versions, 1u);
  EXPECT_EQ(health->live_datasets, 1u);
  EXPECT_EQ(health->superseded_snapshots, 0u);
}

TEST(HealthFrameTest, SupersededGaugeTracksPinnedSnapshots) {
  Node node;
  ASSERT_TRUE(node.Start().ok());
  auto client = Client::Connect("127.0.0.1", node.port);
  ASSERT_TRUE(client.ok());

  {
    // Pin v1 like an in-flight request would, then publish v2.
    auto pinned = node.registry.Get("demo");
    ASSERT_NE(pinned, nullptr);
    auto v2 = node.registry.LoadFromText("demo", kProgramText, DemoSchema());
    ASSERT_TRUE(v2.ok());
    auto health = client->Health();
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->registry_versions, 2u);
    EXPECT_EQ(health->superseded_snapshots, 1u);
  }
  // Pin released: the next probe's GC evicts the drained snapshot.
  auto health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->superseded_snapshots, 0u);
}

// ---- Registry GC --------------------------------------------------------

TEST(RegistryGcTest, EvictsOnlyDrainedSnapshots) {
  ProgramRegistry registry;
  ASSERT_TRUE(registry.LoadFromText("demo", kProgramText, DemoSchema()).ok());
  auto pinned = registry.Get("demo");
  ASSERT_TRUE(registry.LoadFromText("demo", kProgramText, DemoSchema()).ok());
  EXPECT_EQ(registry.superseded_live(), 1);
  EXPECT_EQ(registry.GcSuperseded(), 0);  // Still pinned: must survive.
  EXPECT_EQ(registry.superseded_live(), 1);
  pinned.reset();
  EXPECT_EQ(registry.GcSuperseded(), 1);
  EXPECT_EQ(registry.superseded_live(), 0);
  EXPECT_EQ(registry.live_datasets(), 1);
}

// ---- Exactly-once dedup -------------------------------------------------

TEST(DedupTest, RetransmitReplaysOriginalVerdicts) {
  Node node;
  ASSERT_TRUE(node.Start().ok());
  auto client = Client::Connect("127.0.0.1", node.port);
  ASSERT_TRUE(client.ok());

  ValidateRequest request = BatchRequest(core::ErrorPolicy::kRectify);
  request.request_id = 77;

  auto first = client->Validate(request);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->code, StatusCode::kOk);
  EXPECT_FALSE(first->duplicate);
  EXPECT_EQ(first->program_version, 1u);

  // The retransmit (same id, e.g. after a lost response) replays the cached
  // bytes and is marked as a duplicate.
  auto second = client->Validate(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->duplicate);
  EXPECT_EQ(second->rows.size(), first->rows.size());
  for (size_t r = 0; r < first->rows.size(); ++r) {
    EXPECT_TRUE(second->rows[r] == first->rows[r]) << "row " << r;
  }

  // A hot reload publishing v2 invalidates the cached v1 entry: the same id
  // recomputes against the live program — replaying v1 repairs against v2
  // constraints would hand back stale verdicts — and the recompute becomes
  // the remembered answer for the id.
  ASSERT_TRUE(
      node.registry.LoadFromText("demo", kProgramText, DemoSchema()).ok());
  auto third = client->Validate(request);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->duplicate);
  EXPECT_EQ(third->program_version, 2u);

  // Retransmitting once more replays the v2 recompute.
  auto fourth = client->Validate(request);
  ASSERT_TRUE(fourth.ok());
  EXPECT_TRUE(fourth->duplicate);
  EXPECT_EQ(fourth->program_version, 2u);

  // A fresh id is computed anew, against the new version.
  request.request_id = 78;
  auto fresh = client->Validate(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->duplicate);
  EXPECT_EQ(fresh->program_version, 2u);
}

TEST(DedupTest, WindowIsBoundedFifo) {
  ResponseDedupWindow window(2);
  ValidateResponse response;
  response.code = StatusCode::kOk;
  response.program_version = 1;
  window.Remember(1, response);
  window.Remember(2, response);
  window.Remember(3, response);  // Evicts id 1.
  EXPECT_EQ(window.size(), 2);
  ValidateResponse out;
  EXPECT_FALSE(window.Lookup(1, 1, &out));
  EXPECT_TRUE(window.Lookup(2, 1, &out));
  EXPECT_TRUE(out.duplicate);
  EXPECT_TRUE(window.Lookup(3, 1, &out));
  EXPECT_FALSE(window.Lookup(0, 1, &out));  // 0 = unassigned, never cached.

  // Version scoping: an entry computed against v1 misses once v2 is live...
  EXPECT_FALSE(window.Lookup(2, 2, &out));
  // ...and the v2 recompute displaces it, while a same-version Remember
  // keeps the first answer.
  ValidateResponse v2 = response;
  v2.program_version = 2;
  v2.error = "recomputed";
  window.Remember(2, v2);
  ValidateResponse v2_again = v2;
  v2_again.error = "second answer, must not win";
  window.Remember(2, v2_again);
  EXPECT_TRUE(window.Lookup(2, 2, &out));
  EXPECT_EQ(out.error, "recomputed");
  EXPECT_FALSE(window.Lookup(2, 1, &out));
}

TEST(DedupTest, ShedResponsesAreNotCached) {
  ProgramRegistry registry;
  ASSERT_TRUE(registry.LoadFromText("demo", kProgramText, DemoSchema()).ok());
  ValidationEngine engine(&registry, EngineOptions{});

  // Occupy every admission slot so the next request is shed.
  std::vector<bool> held;
  for (int i = 0; i < engine.admission().limit(); ++i) {
    held.push_back(engine.admission().TryAcquire());
  }
  ValidateRequest request = BatchRequest(core::ErrorPolicy::kRaise);
  request.request_id = 99;
  ValidateResponse shed = engine.Handle(request);
  EXPECT_EQ(shed.code, StatusCode::kResourceExhausted);
  EXPECT_GT(shed.retry_after_ms, 0u);  // Graceful shedding carries a hint.
  for (bool h : held) {
    if (h) engine.admission().Release();
  }

  // The shed answer was not remembered: the retry really runs.
  ValidateResponse retried = engine.Handle(request);
  EXPECT_EQ(retried.code, StatusCode::kOk);
  EXPECT_FALSE(retried.duplicate);
}

// ---- Pool failover / breakers / hedging ---------------------------------

TEST(ReplicaPoolTest, FailsOverToSurvivingReplica) {
  Node a;
  Node b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  std::vector<Endpoint> endpoints = {{"127.0.0.1", a.port},
                                     {"127.0.0.1", b.port}};
  a.Kill();  // Node a is gone for good.

  ReplicaPool pool(endpoints, ChaosPoolOptions());
  auto expected = ExpectedBatch(b.registry, core::ErrorPolicy::kRectify);
  auto response = pool.Validate(BatchRequest(core::ErrorPolicy::kRectify));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
  ASSERT_EQ(response->rows.size(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_TRUE(response->rows[r] == expected[r]) << "row " << r;
  }
  // The dead endpoint's transport failure was observed and recorded.
  auto stats = pool.Stats();
  EXPECT_GE(stats[0].failures, 1u);
  EXPECT_EQ(stats[1].failures, 0u);
}

TEST(ReplicaPoolTest, BreakerOpensOnDeadReplicaAndTrafficRoutesAround) {
  Node live;
  ASSERT_TRUE(live.Start().ok());
  // A port with nothing behind it: start-then-kill reserves a refused port.
  Node dead;
  ASSERT_TRUE(dead.Start().ok());
  int dead_port = dead.port;
  dead.Kill();

  PoolOptions options = ChaosPoolOptions();
  options.breaker_failure_threshold = 2;
  options.breaker_open_ms = 60000;  // Stay open for the whole test.
  ReplicaPool pool({{"127.0.0.1", dead_port}, {"127.0.0.1", live.port}},
                   options);

  for (int i = 0; i < 4; ++i) {
    auto response = pool.Validate(BatchRequest(core::ErrorPolicy::kRaise));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kOk);
  }
  auto stats = pool.Stats();
  EXPECT_TRUE(stats[0].breaker_open);
  EXPECT_GE(stats[0].failures, 2u);
  EXPECT_FALSE(stats[1].breaker_open);
}

TEST(ReplicaPoolTest, HedgedRequestAnswersOnce) {
  Node a;
  Node b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  PoolOptions options = ChaosPoolOptions();
  options.hedge_ms = 1;  // Hedge aggressively; dedup absorbs the duplicate.
  ReplicaPool pool({{"127.0.0.1", a.port}, {"127.0.0.1", b.port}}, options);

  auto expected = ExpectedBatch(a.registry, core::ErrorPolicy::kRectify);
  for (int i = 0; i < 5; ++i) {
    auto response = pool.Validate(BatchRequest(core::ErrorPolicy::kRectify));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    ASSERT_EQ(response->rows.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_TRUE(response->rows[r] == expected[r]) << "row " << r;
    }
  }
}

TEST(ReplicaPoolTest, HealthProbeMarksDrainingReplica) {
  Node a;
  Node b;
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  ReplicaPool pool({{"127.0.0.1", a.port}, {"127.0.0.1", b.port}},
                   ChaosPoolOptions());
  auto health = pool.Health(0);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_FALSE(health->draining);
  EXPECT_EQ(health->registry_versions, 1u);
  EXPECT_FALSE(pool.Health(2).ok());  // Out of range.
}

// ---- The chaos soak -----------------------------------------------------

// Three replicas; connections randomly cut mid-request by the
// serve.connection_drop failpoint; nodes killed and restarted round-robin
// every few batches. Every batch streamed through the pool must come back,
// exactly once, with verdicts byte-identical to the offline Guard pass.
TEST(FleetChaosTest, SoakVerdictsMatchOfflineGuardUnderKillRestart) {
  Node nodes[3];
  for (Node& node : nodes) ASSERT_TRUE(node.Start().ok());
  std::vector<Endpoint> endpoints;
  for (Node& node : nodes) {
    endpoints.push_back({"127.0.0.1", node.port});
  }

  auto expected = ExpectedBatch(nodes[0].registry, core::ErrorPolicy::kRectify);

  ReplicaPool pool(endpoints, ChaosPoolOptions());
  // Cut ~1 in 4 connections after the request is read, before the response
  // is written — the lost-response window where only request-id dedup keeps
  // verdicts exactly-once.
  ScopedFailpoint chaos("serve.connection_drop", 0.25, StatusCode::kIoError,
                        /*seed=*/1234);

  constexpr int kBatches = 36;
  int completed = 0;
  for (int i = 0; i < kBatches; ++i) {
    if (i > 0 && i % 6 == 0) {
      // Kill a node mid-stream and bring it back on the same port.
      Node& victim = nodes[(i / 6 - 1) % 3];
      ASSERT_TRUE(victim.Restart().ok());
    }
    auto response = pool.Validate(BatchRequest(core::ErrorPolicy::kRectify));
    ASSERT_TRUE(response.ok())
        << "batch " << i << ": " << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk)
        << "batch " << i << ": " << response->error;
    ASSERT_EQ(response->rows.size(), expected.size()) << "batch " << i;
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_TRUE(response->rows[r] == expected[r])
          << "batch " << i << " row " << r;
    }
    ++completed;
  }
  EXPECT_EQ(completed, kBatches);  // No lost batch, each answered once.
}

// ---- The concurrent soak ------------------------------------------------

// zip 940NN determines city_NN, for kSoakZips zips.
constexpr int kSoakZips = 20;

std::string SoakZip(int i) { return "9" + std::to_string(4000 + i); }
std::string SoakCity(int i) { return "city_" + std::to_string(i); }

std::string SoakSeedCsv() {
  std::string csv = "zip,city\n";
  for (int i = 0; i < kSoakZips; ++i) {
    csv += SoakZip(i) + "," + SoakCity(i) + "\n";
  }
  return csv;
}

std::string SoakProgramText() {
  std::string text = "# guardrail-program v1\nGIVEN zip ON city HAVING\n";
  for (int i = 0; i < kSoakZips; ++i) {
    text += "  IF zip = '" + SoakZip(i) + "' THEN city <- '" + SoakCity(i) +
            "';\n";
  }
  return text;
}

// A batch with ~2% corrupted city labels, so rectification really fires.
std::string SoakBatch(Rng* rng, int rows) {
  std::string payload = "zip,city\n";
  for (int r = 0; r < rows; ++r) {
    int zip = static_cast<int>(rng->NextUint64(kSoakZips));
    int city = zip;
    if (rng->NextBernoulli(0.02)) {
      city = (zip + 1 + static_cast<int>(rng->NextUint64(kSoakZips - 1))) %
             kSoakZips;
    }
    payload += SoakZip(zip) + "," + SoakCity(city) + "\n";
  }
  return payload;
}

// Three workers stream seeded rectify batches through one pool with active
// health probing, while the main thread kills and restarts the nodes
// round-robin and ~15% of connections drop mid-request. The run is bounded
// by batch count: each worker streams its quota and keeps going until the
// last restart is done, so every kill lands under traffic. Every batch must
// come back, with rows byte-identical to the offline Guard.
TEST(FleetChaosTest, ConcurrentSoakMatchesOfflineGuardUnderKillRestart) {
  constexpr int kWorkers = 3;
  constexpr int kBatchesPerWorker = 100;
  constexpr int kRowsPerBatch = 64;
  constexpr int kKills = 9;  // Three rounds over the three nodes.

  Node nodes[3];
  for (Node& node : nodes) {
    node.seed_csv = SoakSeedCsv();
    node.program_text = SoakProgramText();
    ASSERT_TRUE(node.Start().ok());
  }
  std::vector<Endpoint> endpoints;
  for (Node& node : nodes) endpoints.push_back({"127.0.0.1", node.port});
  PoolOptions options = ChaosPoolOptions();
  options.health_probe_interval_ms = 200;
  ReplicaPool pool(endpoints, options);
  ScopedFailpoint chaos("serve.connection_drop", 0.15, StatusCode::kIoError,
                        /*seed=*/0xC405);

  std::atomic<int64_t> batches_ok{0};
  std::atomic<int64_t> batches_failed{0};
  std::atomic<int64_t> mismatched_rows{0};
  std::atomic<int64_t> repaired_rows{0};
  std::atomic<bool> kills_done{false};
  std::mutex failure_mu;
  std::string first_failure;
  auto note_failure = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mu);
    if (first_failure.empty()) first_failure = what;
  };

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0x50AC5EEDULL + static_cast<uint64_t>(w));
      auto snapshot = nodes[0].registry.Get("demo");
      Schema schema = snapshot->schema;
      core::Guard guard(&snapshot->program);
      for (int b = 0; b < kBatchesPerWorker || !kills_done.load(); ++b) {
        const std::string where =
            "worker " + std::to_string(w) + " batch " + std::to_string(b);
        ValidateRequest request;
        request.dataset = "demo";
        request.scheme = core::ErrorPolicy::kRectify;
        request.payload = SoakBatch(&rng, kRowsPerBatch);
        auto expected =
            OfflineGuardPass(guard, &schema, request.payload, request.scheme);
        auto response = pool.Validate(request);
        if (!expected.ok() || !response.ok() ||
            response->code != StatusCode::kOk ||
            response->rows.size() != expected->size()) {
          batches_failed.fetch_add(1);
          note_failure(where + ": " +
                       (!expected.ok()   ? expected.status().ToString()
                        : !response.ok() ? response.status().ToString()
                                         : response->error));
          continue;
        }
        for (size_t r = 0; r < expected->size(); ++r) {
          if (!(response->rows[r] == (*expected)[r])) {
            mismatched_rows.fetch_add(1);
            note_failure(where + " row " + std::to_string(r) + ": got '" +
                         response->rows[r].detail + "', want '" +
                         (*expected)[r].detail + "'");
          }
          if (!response->rows[r].detail.empty()) repaired_rows.fetch_add(1);
        }
        batches_ok.fetch_add(1);
      }
    });
  }

  // Spread the restarts over the quotas: restart k waits until
  // (k + 1) / (kKills + 1) of the quota batches have come back.
  int kills = 0;
  Status restarted;
  for (int k = 0; k < kKills && restarted.ok(); ++k) {
    const int64_t due =
        int64_t{k + 1} * kWorkers * kBatchesPerWorker / (kKills + 1);
    while (batches_ok.load() + batches_failed.load() < due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    restarted = nodes[k % 3].Restart();
    if (restarted.ok()) ++kills;
  }
  kills_done.store(true);
  for (std::thread& worker : workers) worker.join();

  EXPECT_TRUE(restarted.ok()) << restarted.ToString();
  EXPECT_EQ(kills, kKills);
  EXPECT_EQ(batches_failed.load(), 0) << first_failure;
  EXPECT_GE(batches_ok.load(), kWorkers * kBatchesPerWorker);
  EXPECT_EQ(mismatched_rows.load(), 0) << first_failure;
  EXPECT_GT(repaired_rows.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace guardrail
