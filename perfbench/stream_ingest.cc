// stream_ingest: writes beside reads. One feeder connection sends
// IngestRequest batches to a server running StreamService (drift policy)
// while one validate connection reads concurrently. The generating SEM moves
// through a seeded chain of one-node drifts (MakeDriftedSem), so incremental
// refresh and certified hot publish recur through the run. Accumulated rows
// are deliberately left to grow without bound: peak_rss_mb and rows_per_s
// show that cost instead of hiding it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/telemetry/telemetry.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "stream/drift_detector.h"
#include "stream/incremental.h"
#include "stream/policy.h"
#include "stream/service.h"
#include "stream/stats_store.h"
#include "table/sem_generator.h"
#include "validate_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = guardrail::serve;
namespace stream = guardrail::stream;
using guardrail::SemModel;
using guardrail::telemetry::Span;

constexpr int64_t kBootstrapRows = 6000;
constexpr int64_t kBatchRows = 600;
constexpr int64_t kDriftEvery = 8;     // Batches per SEM in the drift chain.
constexpr int64_t kPreludeBatches = 16;  // Two epochs, one drift.
// rows_per_s is taken over this fixed stretch of the scenario (five drift
// epochs after the prelude), so every run times the same refresh work: the
// cost of one batch ranges from 15 ms (incremental) to seconds (full), and
// where a time limit falls would otherwise decide the throughput.
constexpr int64_t kThroughputBatches = 40;
constexpr int kPairs = 8;
// Reads use serve_validate's request mix (one 8192-row request in eight,
// the rest 256 rows), so op_p50_ms reads small requests and op_p90_ms large
// ones, each under concurrent refresh and publish.
constexpr int64_t kSmallReadRows = 256;
constexpr int64_t kLargeReadRows = 8192;
// Blocks of eight reads in the seeded pool: enough distinct requests that
// the read median does not hinge on a few of them.
constexpr int kReadBlocks = 16;
constexpr double kReaderLimitSeconds = 150.0;  // Stopped by the feeder.
const char* const kDataset = "stream";

// Functional pairs (root card 6 -> child card 6, 1% noise) plus two free
// roots: chain-free, so every one-node drift localizes to one pair and is
// answered by an incremental refresh.
SemModel PairsSem() {
  std::vector<guardrail::SemNode> nodes;
  for (int i = 0; i < kPairs; ++i) {
    const std::string base = "p" + std::to_string(i);
    guardrail::AttrIndex root = static_cast<guardrail::AttrIndex>(nodes.size());
    nodes.push_back(guardrail::SemNode{base + "_src", 6, {}, 0.0});
    nodes.push_back(guardrail::SemNode{base + "_dst", 6, {root}, 0.01});
  }
  nodes.push_back(guardrail::SemNode{"free0", 4, {}, 0.0});
  nodes.push_back(guardrail::SemNode{"free1", 3, {}, 0.0});
  return SemModel(std::move(nodes), 0xC0FFEE);
}

// The ingest scenario: batch b is sampled from SEM b / kDriftEvery of the
// drift chain with its own generator, so any prefix is reproducible. The
// scenario is the same for every workload seed (the seed drives the read
// traffic): the refresh ladder escalates to a full resynthesis whenever one
// of the ~20 marginal CI tests it re-runs per drifted refresh flips, a
// sampling-level event, so ingest throughput would otherwise swing by half
// between seeds and bury any code change.
class BatchSource {
 public:
  static constexpr uint64_t kScenarioSeed = 0x57E4;
  BatchSource() : drift_rng_(0xD41F7) { chain_.push_back(PairsSem()); }
  const SemModel& sem(int64_t epoch) {
    while (static_cast<int64_t>(chain_.size()) <= epoch) {
      guardrail::SemDriftOptions options;
      options.changed_fraction = 0.01;  // max(1, ...) -> exactly one node.
      chain_.push_back(
          guardrail::MakeDriftedSem(chain_.back(), options, &drift_rng_).model);
    }
    return chain_[static_cast<size_t>(epoch)];
  }
  std::string Bootstrap() {
    guardrail::Rng rng(kScenarioSeed);
    return guardrail::WriteCsv(sem(0).Sample(kBootstrapRows, &rng).ToCsv());
  }
  std::string Batch(int64_t b) {
    guardrail::Rng rng(kScenarioSeed * 0x9E3779B97F4A7C15ULL +
                       static_cast<uint64_t>(b) + 1);
    return guardrail::WriteCsv(
        sem(b / kDriftEvery).Sample(kBatchRows, &rng).ToCsv());
  }
  static bool DriftStarts(int64_t b) { return b > 0 && b % kDriftEvery == 0; }

 private:
  guardrail::Rng drift_rng_;
  std::vector<SemModel> chain_;
};

// The traced run's ingest handler: the same public calls, in the same order,
// as StreamService::HandleIngest under the drift policy, with a span around
// each layer. Refresh scores drift itself, so the handler only copies the two
// stores Refresh is about to compare; ReplayDrift re-runs
// DriftDetector::Compare on the copies after the response is out, which puts
// a span on the drift layer without a second Compare on the request path.
// The set-up prelude and the timed batches check that it takes exactly the
// refresh actions StreamService takes on the same batches.
class LedgerIngest {
 public:
  LedgerIngest(serve::ProgramRegistry* registry,
               const stream::StreamServiceOptions& options)
      : registry_(registry),
        options_(options),
        synth_(options.incremental),
        policy_(options.policy),
        detector_(options.incremental.drift) {}

  serve::IngestResponse Handle(const serve::IngestRequest& request) {
    std::lock_guard<std::mutex> lock(mu_);
    serve::IngestResponse response;
    Span root("stream.handle");
    root.AddArg("request_id", static_cast<int64_t>(++handled_));
    {
      Span span("stream.ingest");
      if (synth_.schema().num_attributes() > 0) {
        auto rows = serve::DecodeRows(request.format, request.payload,
                                      &synth_.mutable_schema(),
                                      options_.max_batch_rows);
        if (!rows.ok()) return Fail(rows.status(), &response);
        guardrail::Status st = synth_.IngestRows(*rows);
        if (!st.ok()) return Fail(st, &response);
        response.rows_ingested = rows->size();
      } else {
        auto doc = guardrail::ParseCsv(request.payload);
        if (!doc.ok()) return Fail(doc.status(), &response);
        auto batch = guardrail::Table::FromCsv(*doc);
        if (!batch.ok()) return Fail(batch.status(), &response);
        guardrail::Status st = synth_.IngestTable(*batch);
        if (!st.ok()) return Fail(st, &response);
        response.rows_ingested = static_cast<uint64_t>(batch->num_rows());
      }
    }
    ++batches_since_refresh_;
    const bool attempt =
        synth_.bootstrapped()
            ? policy_.ShouldRefresh(batches_since_refresh_, false)
            : synth_.rows_ingested() >= options_.bootstrap_rows;
    if (attempt) {
      batches_since_refresh_ = 0;
      // Refresh(false) scores drift exactly when the synthesizer is
      // bootstrapped and the window holds the detector's minimum rows.
      std::optional<DriftInputs> scored;
      if (synth_.bootstrapped() &&
          synth_.window_rows() >= options_.incremental.drift.min_window_rows) {
        scored = DriftInputs{synth_.baseline(), synth_.window(), 0.0};
      }
      auto start = std::chrono::steady_clock::now();
      guardrail::Result<stream::RefreshResult> refreshed =
          guardrail::Status::Internal("not refreshed");
      {
        Span span("stream.refresh");
        refreshed = synth_.Refresh(false);
      }
      if (!refreshed.ok()) return Fail(refreshed.status(), &response);
      if (scored) {
        scored->max_statistic = refreshed->drift.max_statistic;
        pending_drift_ = std::move(scored);
      }
      refreshes_.push_back({refreshed->action, SecondsSince(start) * 1e3,
                            refreshed->statements_refilled,
                            refreshed->statements_reused,
                            refreshed->ci_tests_rerun});
      response.action = ToWire(refreshed->action);
      response.drift_score = refreshed->drift.max_statistic;
      if (refreshed->published_changed) {
        Span span("serve.publish");
        auto version = registry_->LoadFromText(
            request.dataset, refreshed->program_text, synth_.schema(),
            "stream://" + request.dataset, refreshed->certificate_text);
        if (!version.ok()) return Fail(version.status(), &response);
        served_version_ = *version;
        response.published = true;
      }
    }
    response.program_version = served_version_;
    return response;
  }

  // Re-runs the drift scoring of the last refresh, if it scored any, on
  // copies of its inputs, in a "stream.drift_replay" span. False when the
  // replayed report differs from the one the refresh acted on.
  bool ReplayDrift() {
    std::optional<DriftInputs> inputs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      inputs.swap(pending_drift_);
    }
    if (!inputs) return true;
    Span span("stream.drift_replay");
    const stream::DriftReport report =
        detector_.Compare(inputs->baseline, inputs->window);
    return report.max_statistic == inputs->max_statistic;
  }

  struct Refresh {
    stream::RefreshAction action;
    double ms;
    int64_t refilled, reused, ci_tests;
  };
  std::vector<Refresh> TakeRefreshes() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(refreshes_);
  }
  int64_t rows_ingested() {
    std::lock_guard<std::mutex> lock(mu_);
    return synth_.rows_ingested();
  }

 private:
  static serve::IngestAction ToWire(stream::RefreshAction action) {
    switch (action) {
      case stream::RefreshAction::kNoop:
        return serve::IngestAction::kNoop;
      case stream::RefreshAction::kIncremental:
        return serve::IngestAction::kIncremental;
      case stream::RefreshAction::kFull:
        return serve::IngestAction::kFull;
      case stream::RefreshAction::kNone:
        break;
    }
    return serve::IngestAction::kNone;
  }
  serve::IngestResponse Fail(const guardrail::Status& status,
                             serve::IngestResponse* response) {
    response->code = status.code();
    response->error = status.message();
    response->program_version = served_version_;
    return *response;
  }

  struct DriftInputs {
    stream::StatsStore baseline;
    stream::StatsStore window;
    double max_statistic;  // What the refresh's own Compare reported.
  };

  std::mutex mu_;
  serve::ProgramRegistry* registry_;
  stream::StreamServiceOptions options_;
  stream::IncrementalSynthesizer synth_;
  stream::ResynthesisPolicy policy_;
  stream::DriftDetector detector_;
  int64_t batches_since_refresh_ = 0;
  uint64_t served_version_ = 0;
  uint64_t handled_ = 0;
  std::vector<Refresh> refreshes_;
  std::optional<DriftInputs> pending_drift_;
};

stream::StreamServiceOptions ServiceOptions() {
  stream::StreamServiceOptions service;
  service.incremental.drift.min_window_rows = kBatchRows;
  // Serial refresh leaves the other cores to the read path, so read
  // latency measures contention with publishes, not oversubscription.
  service.incremental.synthesis.num_threads = 1;
  service.bootstrap_rows = kBootstrapRows;
  return service;
}

// One complete serving stack: registry, validate engine, ingest handler
// (StreamService, or LedgerIngest when traced) and a localhost server.
struct Stack {
  serve::ProgramRegistry registry;
  std::unique_ptr<serve::ValidationEngine> engine;
  std::unique_ptr<stream::StreamService> service;
  std::unique_ptr<LedgerIngest> ledger;
  std::unique_ptr<serve::Server> server;
  std::optional<serve::Client> feeder;
  std::unique_ptr<BatchSource> source;
  std::vector<PooledRequest> reads;
  std::map<uint64_t, std::shared_ptr<const serve::ProgramSnapshot>> snapshots;
  std::vector<serve::IngestAction> prelude_actions;
  int64_t next_batch = 0;

  ~Stack() {
    feeder.reset();
    if (server != nullptr) server->Drain();
  }
};

guardrail::Status Ingest(Stack* stack, const std::string& payload,
                         serve::IngestResponse* out) {
  serve::IngestRequest request;
  request.dataset = kDataset;
  request.payload = payload;
  auto response = stack->feeder->Ingest(request);
  if (!response.ok()) return response.status();
  *out = *response;
  if (out->code != guardrail::StatusCode::kOk) {
    return guardrail::Status::Internal("ingest refused: " + out->error);
  }
  if (out->published) {
    auto snapshot = stack->registry.Get(kDataset);
    if (snapshot == nullptr || snapshot->version != out->program_version) {
      return guardrail::Status::Internal("published version not live");
    }
    stack->snapshots[snapshot->version] = snapshot;
  }
  return guardrail::Status::OK();
}

// Set-up proper (timed): server start and the bootstrap synthesis + publish.
guardrail::Status Setup(bool ledger_handler, Stack* stack) {
  const stream::StreamServiceOptions service_options = ServiceOptions();
  stack->engine = std::make_unique<serve::ValidationEngine>(
      &stack->registry, serve::EngineOptions{});
  serve::ServerOptions server_options;
  server_options.port = 0;
  if (ledger_handler) {
    stack->ledger =
        std::make_unique<LedgerIngest>(&stack->registry, service_options);
    LedgerIngest* ledger = stack->ledger.get();
    server_options.ingest_handler = [ledger](const serve::IngestRequest& r) {
      return ledger->Handle(r);
    };
  } else {
    stack->service = std::make_unique<stream::StreamService>(&stack->registry,
                                                             service_options);
    stream::StreamService* service = stack->service.get();
    server_options.ingest_handler = [service](const serve::IngestRequest& r) {
      return service->HandleIngest(r);
    };
  }
  stack->server = std::make_unique<serve::Server>(
      &stack->registry, stack->engine.get(), server_options);
  GUARDRAIL_RETURN_NOT_OK(stack->server->Start());
  auto feeder = serve::Client::Connect("127.0.0.1", stack->server->port());
  if (!feeder.ok()) return feeder.status();
  stack->feeder.emplace(std::move(*feeder));
  stack->source = std::make_unique<BatchSource>();
  serve::IngestResponse response;
  GUARDRAIL_RETURN_NOT_OK(Ingest(stack, stack->source->Bootstrap(), &response));
  if (!response.published) {
    return guardrail::Status::Internal("bootstrap published no program");
  }
  return guardrail::Status::OK();
}

// Warm-up and determinism gate (untimed): the first kPreludeBatches
// batches, one drift included, with their refresh actions recorded.
guardrail::Status Prelude(const Options& options, Stack* stack) {
  for (int64_t i = 0; i < kPreludeBatches; ++i) {
    serve::IngestResponse response;
    GUARDRAIL_RETURN_NOT_OK(Ingest(
        stack, stack->source->Batch(stack->next_batch++), &response));
    if (stack->ledger != nullptr && !stack->ledger->ReplayDrift()) {
      return guardrail::Status::Internal("drift replay differs from refresh");
    }
    stack->prelude_actions.push_back(response.action);
  }
  guardrail::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 0x4EAD5);
  stack->reads = MakeRequestPool(stack->source->sem(0), kReadBlocks, kSmallReadRows,
                                kLargeReadRows, &rng);
  return guardrail::Status::OK();
}

struct StreamPhase {
  Phase phase;  // Read latencies; rows = rows ingested.
  std::vector<double> ingest_ms;
  std::vector<serve::IngestAction> batch_actions;  // One per timed batch.
  std::map<serve::IngestAction, int64_t> actions;
  std::vector<double> publish_latency_ms;
  std::vector<int64_t> drift_lag;
  int64_t read_errors = 0;
  int64_t unknown_versions = 0;
  int64_t read_mismatches = 0;
  std::string first_ingest_error;
};

// Ingests for `seconds` and at least `min_batches` batches; the throughput
// unit is the first `min_batches` of them.
StreamPhase Measure(Stack* stack, double seconds, int64_t min_batches) {
  StreamPhase out;
  std::atomic<bool> stop{false};
  ClientLog reads;
  std::thread reader([&] {
    RunClient(stack->server->port(), kDataset, stack->reads, uint64_t{1} << 50,
              kReaderLimitSeconds, &stop, nullptr, kLargeReadRows, &reads);
  });
  struct Drift {
    int64_t batch;
    int64_t sent_ns;
    uint64_t version_before;
    std::optional<int64_t> reacted_batch;
  };
  std::vector<Drift> drifts;
  uint64_t live = stack->snapshots.rbegin()->first;
  auto start = std::chrono::steady_clock::now();
  const int64_t first_batch = stack->next_batch;
  double throughput_s = 0.0;
  int64_t throughput_rows = 0;
  while (SecondsSince(start) < seconds ||
         stack->next_batch - first_batch < min_batches) {
    const int64_t b = stack->next_batch++;
    const std::string payload = stack->source->Batch(b);
    if (BatchSource::DriftStarts(b)) {
      drifts.push_back(Drift{b, SteadyNs(), live, std::nullopt});
    }
    serve::IngestResponse response;
    auto t0 = std::chrono::steady_clock::now();
    guardrail::Status st;
    {
      Span span("serve.ingest_roundtrip");
      span.AddArg("request_id", b + 1);
      st = Ingest(stack, payload, &response);
    }
    out.ingest_ms.push_back(SecondsSince(t0) * 1e3);
    if (stack->ledger != nullptr && !stack->ledger->ReplayDrift()) {
      st = guardrail::Status::Internal("drift replay differs from refresh");
    }
    out.phase.ledger.Record(st.ok());
    if (!st.ok()) {
      if (out.first_ingest_error.empty()) out.first_ingest_error = st.ToString();
      continue;
    }
    out.phase.rows += static_cast<int64_t>(response.rows_ingested);
    if (b - first_batch < min_batches) {
      throughput_rows = out.phase.rows;
      throughput_s = SecondsSince(start);
    }
    out.batch_actions.push_back(response.action);
    ++out.actions[response.action];
    live = response.program_version;
    const bool reacted = response.action == serve::IngestAction::kIncremental ||
                         response.action == serve::IngestAction::kFull;
    if (reacted && !drifts.empty() && !drifts.back().reacted_batch) {
      drifts.back().reacted_batch = b;
    }
  }
  out.phase.wall_s = SecondsSince(start);
  if (throughput_s > 0.0) {
    out.phase.unit_rows_per_s = {static_cast<double>(throughput_rows) /
                                 throughput_s};
  }
  stop.store(true);
  reader.join();

  // Reads: each response must equal the offline Guard under the program
  // version it reports.
  std::map<std::pair<size_t, uint64_t>, uint64_t> reference;
  for (const ClientLog::Entry& e : reads.entries) {
    auto snapshot = stack->snapshots.find(e.version);
    bool ok = e.hash != 0 && snapshot != stack->snapshots.end();
    if (e.hash == 0) {
      ++out.read_errors;
    } else if (!ok) {
      ++out.unknown_versions;
    }
    if (ok) {
      auto key = std::make_pair(e.request, e.version);
      auto it = reference.find(key);
      if (it == reference.end()) {
        it = reference
                 .emplace(key, ReferenceHash(*snapshot->second,
                                             stack->reads[e.request]))
                 .first;
      }
      ok = it->second == e.hash;
      out.read_mismatches += ok ? 0 : 1;
    }
    out.phase.ledger.Record(ok);
  }
  out.phase.op_ms = reads.phase.op_ms;
  for (const Drift& d : drifts) {
    if (d.reacted_batch) out.drift_lag.push_back(*d.reacted_batch - d.batch + 1);
    for (const ClientLog::Entry& e : reads.entries) {
      if (e.done_ns >= d.sent_ns && e.version > d.version_before) {
        out.publish_latency_ms.push_back(
            static_cast<double>(e.done_ns - d.sent_ns) / 1e6);
        break;
      }
    }
  }
  return out;
}

std::vector<double> AsDouble(const std::vector<int64_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

std::string Summary(const StreamPhase& p) {
  auto count = [&](serve::IngestAction a) {
    auto it = p.actions.find(a);
    return std::to_string(it == p.actions.end() ? 0 : it->second);
  };
  return "ingest_batches=" + std::to_string(p.ingest_ms.size()) +
         " noop=" + count(serve::IngestAction::kNoop) +
         " incremental=" + count(serve::IngestAction::kIncremental) +
         " full=" + count(serve::IngestAction::kFull) +
         " publish_latency_ms(p50)=" + FormatNumber(Median(p.publish_latency_ms)) +
         " drift_lag_batches(p50)=" + FormatNumber(Median(AsDouble(p.drift_lag))) +
         " ingest_roundtrip_ms(p50)=" + FormatNumber(Median(p.ingest_ms)) +
         " failed_reads(error/unknown_version/mismatch)=" +
         std::to_string(p.read_errors) + "/" +
         std::to_string(p.unknown_versions) + "/" +
         std::to_string(p.read_mismatches) +
         (p.first_ingest_error.empty() ? ""
                                       : " first_ingest_error=" +
                                             p.first_ingest_error);
}

}  // namespace

RunResult RunStreamIngest(const Options& options) {
  // The reader and the refresh are one thread each: keep their latencies
  // from timing the speed of the CPU each happens to land on.
  const CpuShuffler shuffler;
  RunResult result;
  result.notes.push_back(
      "dataset=pairs(" + std::to_string(2 * kPairs + 2) +
      " attributes) bootstrap_rows=" + std::to_string(kBootstrapRows) +
      " batch_rows=" + std::to_string(kBatchRows) + " drift_every=" +
      std::to_string(kDriftEvery) + " connections=2(feeder+reader) threads=" +
      std::to_string(options.threads) +
      " refresh_threads=1 reads=256x7+8192x1 per 8 loop=closed policy=drift");
  std::vector<double> setup_s;
  std::vector<serve::IngestAction> first_prelude;
  // Fresh stacks; every prelude must take the same refresh actions. The
  // traced run builds a StreamService stack (untraced half) and a
  // LedgerIngest stack (traced half).
  auto build = [&](bool ledger_handler) -> std::unique_ptr<Stack> {
    auto stack = std::make_unique<Stack>();
    auto start = std::chrono::steady_clock::now();
    guardrail::Status st = Setup(ledger_handler, stack.get());
    setup_s.push_back(SecondsSince(start));
    if (st.ok()) st = Prelude(options, stack.get());
    if (!st.ok()) {
      result.notes.push_back("setup failed: " + st.ToString());
      result.ledger.Record(false);
      return nullptr;
    }
    if (first_prelude.empty()) first_prelude = stack->prelude_actions;
    result.ledger.Record(stack->prelude_actions == first_prelude);
    return stack;
  };

  if (!options.trace) {
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < kSetupRepeats; ++i) {
      stack.reset();
      stack = build(false);
      if (stack == nullptr) return result;
    }
    StreamPhase p = Measure(stack.get(), options.seconds, kThroughputBatches);
    AddEndToEnd(setup_s, p.phase, "validate read under ingest", &result);
    result.notes.push_back(Summary(p));
    result.notes.push_back("rows_per_s counts rows ingested; rows_accumulated=" +
                           std::to_string(stack->next_batch * kBatchRows +
                                          kBootstrapRows));
    return result;
  }

  std::unique_ptr<Stack> plain = build(false);
  if (plain == nullptr) return result;
  StreamPhase untraced = Measure(plain.get(), options.seconds / 2, 0);
  plain.reset();
  std::unique_ptr<Stack> stack = build(true);
  if (stack == nullptr) return result;
  stack->ledger->TakeRefreshes();
  StartTracing();
  StreamPhase traced = Measure(stack.get(), options.seconds / 2, 0);
  const std::vector<SpanRecord> spans = StopTracing(&result.ledger);
  // Both halves ingest the same batches from the end of the prelude on: the
  // traced handler must take StreamService's actions on every batch both
  // halves reached.
  const size_t common =
      std::min(untraced.batch_actions.size(), traced.batch_actions.size());
  result.ledger.Record(
      std::equal(traced.batch_actions.begin(),
                 traced.batch_actions.begin() + static_cast<long>(common),
                 untraced.batch_actions.begin()));
  result.notes.push_back("timed batches whose actions were compared with "
                         "the untraced half: " + std::to_string(common));
  auto total = TotalSeconds(spans);
  auto counts = SpanCounts(spans);
  auto mean = [&](const char* name, double scale) {
    return PerUnit(total[name], static_cast<double>(counts[name]), scale);
  };
  std::map<stream::RefreshAction, std::vector<double>> refresh_ms;
  int64_t refilled = 0, reused = 0, ci_tests = 0;
  for (const LedgerIngest::Refresh& r : stack->ledger->TakeRefreshes()) {
    refresh_ms[r.action].push_back(r.ms);
    refilled += r.refilled;
    reused += r.reused;
    ci_tests += r.ci_tests;
  }
  SetLayer(&result, "stream.ingest_us", mean("stream.ingest", 1e6));
  SetLayer(&result, "stream.drift_us", mean("stream.drift_replay", 1e6));
  SetLayer(&result, "stream.refresh_noop_ms",
           Mean(refresh_ms[stream::RefreshAction::kNoop]));
  SetLayer(&result, "stream.refresh_incremental_ms",
           Mean(refresh_ms[stream::RefreshAction::kIncremental]));
  SetLayer(&result, "stream.refresh_full_ms",
           Mean(refresh_ms[stream::RefreshAction::kFull]));
  SetLayer(&result, "stream.refresh.noop",
           static_cast<double>(refresh_ms[stream::RefreshAction::kNoop].size()));
  SetLayer(&result, "stream.refresh.incremental",
           static_cast<double>(
               refresh_ms[stream::RefreshAction::kIncremental].size()));
  SetLayer(&result, "stream.refresh.full",
           static_cast<double>(refresh_ms[stream::RefreshAction::kFull].size()));
  SetLayer(&result, "stream.statements_refilled", static_cast<double>(refilled));
  SetLayer(&result, "stream.statements_reused", static_cast<double>(reused));
  SetLayer(&result, "stream.ci_tests_rerun", static_cast<double>(ci_tests));
  SetLayer(&result, "stream.rows_accumulated",
           static_cast<double>(stack->ledger->rows_ingested()));
  SetLayer(&result, "stream.publish_latency_ms",
           Median(traced.publish_latency_ms));
  SetLayer(&result, "stream.drift_lag_batches",
           Median(AsDouble(traced.drift_lag)));
  SetLayer(&result, "serve.publish_ms", mean("serve.publish", 1e3));
  SetLayer(&result, "serve.ingest_roundtrip_ms",
           mean("serve.ingest_roundtrip", 1e3));
  SetLayer(&result, "serve.dedup_hits",
           static_cast<double>(
               guardrail::telemetry::MetricsRegistry::Instance().CounterValue(
                   "serve.dedup_hits")));
  AddCommonLayers(untraced.phase, traced.phase, &result);
  result.notes.push_back("untraced: " + Summary(untraced));
  result.notes.push_back("traced: " + Summary(traced));
  return result;
}

}  // namespace perfbench
