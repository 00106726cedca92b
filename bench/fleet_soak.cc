// Chaos soak for the resilient validation fleet (docs/SERVING.md,
// "Resilience"): three in-process servers behind a ReplicaPool, worker
// threads streaming randomized rectify batches while the main thread
// kill/restarts one node at a time and a failpoint cuts ~15% of
// connections mid-request. Every pooled response is compared byte-for-byte
// against an offline Guard pass of the same batch — the bench doubles as a
// correctness gate and exits nonzero on any lost, failed, or mismatched
// batch, or when the soak ended before any node was killed. Time-bounded:
// GUARDRAIL_SOAK_SECONDS (default 10, CI uses <= 30); GUARDRAIL_BENCH_FAST=1
// shrinks to 3 s.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "core/guard.h"
#include "serve/engine.h"
#include "serve/pool.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "common/telemetry/log.h"
#include "serve/server.h"
#include "table/table.h"

namespace guardrail {
namespace {

constexpr int kZips = 20;
constexpr int kNodes = 3;

std::string ZipLabel(int i) { return "9" + std::to_string(4000 + i); }
std::string CityLabel(int i) { return "city_" + std::to_string(i); }

std::string SeedCsv() {
  std::string csv = "zip,city\n";
  for (int i = 0; i < kZips; ++i) {
    csv += ZipLabel(i) + "," + CityLabel(i) + "\n";
  }
  return csv;
}

std::string ProgramText() {
  std::string text = "# guardrail-program v1\nGIVEN zip ON city HAVING\n";
  for (int i = 0; i < kZips; ++i) {
    text += "  IF zip = '" + ZipLabel(i) + "' THEN city <- '" + CityLabel(i) +
            "';\n";
  }
  return text;
}

// One batch with ~2% corrupted city labels so rectification really fires.
std::string MakeBatch(Rng* rng, int rows) {
  std::string payload = "zip,city\n";
  for (int r = 0; r < rows; ++r) {
    int zip = static_cast<int>(rng->NextUint64(kZips));
    int city = zip;
    if (rng->NextBernoulli(0.02)) {
      city = (zip + 1 + static_cast<int>(rng->NextUint64(kZips - 1))) % kZips;
    }
    payload += ZipLabel(zip) + "," + CityLabel(city) + "\n";
  }
  return payload;
}

/// One fleet node; registry and engine survive server kill/restart cycles
/// (a warm restart on the same port).
struct Node {
  serve::ProgramRegistry registry;
  std::unique_ptr<serve::ValidationEngine> engine;
  std::unique_ptr<serve::Server> server;
  int port = 0;

  Status Start(const Schema& schema, int port_hint) {
    if (engine == nullptr) {
      auto version = registry.LoadFromText("demo", ProgramText(), schema);
      if (!version.ok()) return version.status();
      engine =
          std::make_unique<serve::ValidationEngine>(&registry,
                                                    serve::EngineOptions{});
    }
    serve::ServerOptions options;
    options.port = port_hint;
    server = std::make_unique<serve::Server>(&registry, engine.get(), options);
    Status st = server->Start();
    if (st.ok()) port = server->port();
    return st;
  }

  Status Restart(const Schema& schema) {
    server.reset();  // Drains and joins.
    Status st = Status::OK();
    for (int i = 0; i < 100; ++i) {
      st = Start(schema, port);
      if (st.ok()) return st;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return st;
  }
};

/// Offline Guard oracle: an independent pass over one batch. The schema
/// copy persists across batches per worker so unseen labels get stable ids.
class OfflineOracle {
 public:
  OfflineOracle(const serve::ProgramRegistry& registry)
      : snapshot_(registry.Get("demo")),
        schema_(snapshot_->schema),
        guard_(&snapshot_->program) {}

  Result<std::vector<serve::RowResult>> Pass(const std::string& payload) {
    auto doc = ParseCsv(payload);
    GUARDRAIL_RETURN_NOT_OK(doc.status());
    std::vector<serve::RowResult> expected;
    for (const auto& record : doc->rows) {
      Row row(2, kNullValue);
      for (AttrIndex c = 0; c < 2; ++c) {
        row[static_cast<size_t>(c)] =
            schema_.attribute(c).GetOrInsert(record[static_cast<size_t>(c)]);
      }
      serve::RowResult out;
      auto checked = guard_.interpreter().CheckedCheck(row);
      GUARDRAIL_RETURN_NOT_OK(checked.status());
      if (!checked->empty()) {
        out.verdict = serve::RowVerdict::kViolation;
        out.violations = static_cast<uint16_t>(checked->size());
        auto repaired = guard_.ProcessRow(row, core::ErrorPolicy::kRectify);
        GUARDRAIL_RETURN_NOT_OK(repaired.status());
        if (!(*repaired == row)) {
          std::vector<std::string> fields;
          for (AttrIndex c = 0; c < 2; ++c) {
            ValueId v = (*repaired)[static_cast<size_t>(c)];
            fields.push_back(v == kNullValue ? ""
                                             : schema_.attribute(c).label(v));
          }
          out.detail = WriteCsvRecord(fields);
        }
      }
      expected.push_back(std::move(out));
    }
    return expected;
  }

 private:
  std::shared_ptr<const serve::ProgramSnapshot> snapshot_;
  Schema schema_;
  core::Guard guard_;
};

struct SoakStats {
  std::atomic<int64_t> batches_ok{0};
  std::atomic<int64_t> batches_failed{0};
  std::atomic<int64_t> mismatched_rows{0};
  std::atomic<int64_t> rows_checked{0};
  std::atomic<int64_t> repaired_rows{0};
};

int Run() {
  // Tripped-failpoint warnings are the point of this bench; don't log each.
  telemetry::SetLogLevel(telemetry::LogLevel::kError);
  const bool fast = std::getenv("GUARDRAIL_BENCH_FAST") != nullptr;
  int soak_seconds = fast ? 3 : 10;
  if (const char* env = std::getenv("GUARDRAIL_SOAK_SECONDS")) {
    soak_seconds = std::atoi(env);
    if (soak_seconds <= 0) soak_seconds = 10;
  }
  const int workers = 3;
  const int rows_per_batch = 64;

  auto doc = ParseCsv(SeedCsv());
  if (!doc.ok()) return 1;
  auto seed_table = Table::FromCsv(*doc);
  if (!seed_table.ok()) return 1;
  const Schema schema = seed_table->schema();

  Node nodes[kNodes];
  for (Node& node : nodes) {
    if (Status st = node.Start(schema, 0); !st.ok()) {
      std::fprintf(stderr, "node start failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::vector<serve::Endpoint> endpoints;
  for (Node& node : nodes) endpoints.push_back({"127.0.0.1", node.port});

  serve::PoolOptions pool_options;
  pool_options.retry.max_attempts = 8;
  pool_options.retry.initial_backoff_ms = 2;
  pool_options.retry.max_backoff_ms = 50;
  pool_options.retry.seed = 0x50AC;
  pool_options.health_probe_interval_ms = 200;
  serve::ReplicaPool pool(endpoints, pool_options);

  // Cut ~15% of connections after the request is read, before the response
  // is written — the retransmit-after-lost-response window.
  ScopedFailpoint chaos("serve.connection_drop", 0.15, StatusCode::kIoError,
                        /*seed=*/0xC405);

  SoakStats stats;
  std::atomic<bool> stop{false};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(soak_seconds);

  std::vector<std::thread> streamers;
  for (int w = 0; w < workers; ++w) {
    streamers.emplace_back([&, w] {
      Rng rng(0x50AC5EEDULL + static_cast<uint64_t>(w));
      OfflineOracle oracle(nodes[0].registry);
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ValidateRequest request;
        request.dataset = "demo";
        request.scheme = core::ErrorPolicy::kRectify;
        request.payload = MakeBatch(&rng, rows_per_batch);
        auto expected = oracle.Pass(request.payload);
        if (!expected.ok()) {
          stats.batches_failed.fetch_add(1);
          continue;
        }
        auto response = pool.Validate(request);
        if (!response.ok() || response->code != StatusCode::kOk ||
            response->rows.size() != expected->size()) {
          stats.batches_failed.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < expected->size(); ++r) {
          stats.rows_checked.fetch_add(1);
          if (!(response->rows[r] == (*expected)[r])) {
            stats.mismatched_rows.fetch_add(1);
          }
          if (!response->rows[r].detail.empty()) {
            stats.repaired_rows.fetch_add(1);
          }
        }
        stats.batches_ok.fetch_add(1);
      }
    });
  }

  // Chaos driver: kill/restart one node at a time, round robin.
  int kills = 0;
  int victim = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    if (std::chrono::steady_clock::now() >= deadline) break;
    if (Status st = nodes[victim].Restart(schema); !st.ok()) {
      std::fprintf(stderr, "node %d restart failed: %s\n", victim,
                   st.ToString().c_str());
      stop.store(true);
      for (auto& t : streamers) t.join();
      return 1;
    }
    ++kills;
    victim = (victim + 1) % kNodes;
  }
  stop.store(true);
  for (auto& t : streamers) t.join();

  auto replica_stats = pool.Stats();
  int64_t attempts = 0, failures = 0;
  for (const auto& s : replica_stats) {
    attempts += static_cast<int64_t>(s.requests);
    failures += static_cast<int64_t>(s.failures);
  }

  bench::TextTable table({"Metric", "Value"});
  table.AddRow({"soak seconds", bench::FmtInt(soak_seconds)});
  table.AddRow({"node kills", bench::FmtInt(kills)});
  table.AddRow({"batches ok", bench::FmtInt(stats.batches_ok.load())});
  table.AddRow({"batches failed", bench::FmtInt(stats.batches_failed.load())});
  table.AddRow({"rows checked", bench::FmtInt(stats.rows_checked.load())});
  table.AddRow({"rows repaired", bench::FmtInt(stats.repaired_rows.load())});
  table.AddRow({"mismatched rows", bench::FmtInt(stats.mismatched_rows.load())});
  table.AddRow({"replica attempts", bench::FmtInt(attempts)});
  table.AddRow({"replica failures", bench::FmtInt(failures)});
  std::printf("Fleet chaos soak (%d nodes, %d workers, %d rows/batch):\n\n",
              kNodes, workers, rows_per_batch);
  table.Print();

  // Correctness gate: verdicts must be byte-identical to the offline Guard
  // and no batch may be lost despite the kill/restart churn, which must
  // have happened at least once.
  if (kills == 0) return 1;
  if (stats.mismatched_rows.load() > 0) return 1;
  if (stats.batches_failed.load() > 0) return 1;
  if (stats.batches_ok.load() == 0) return 1;
  return 0;
}

}  // namespace
}  // namespace guardrail

int main() { return guardrail::Run(); }
