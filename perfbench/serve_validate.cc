// serve_validate: a read-only closed loop. Two localhost TCP connections
// send CSV validate requests to an in-process Server for a wide repository
// dataset (Phishing Websites, 31 attributes). Every request crosses frame
// I/O, schema copy, CSV decode, transpose, evaluate, repair and encode; the
// size mix (one request in eight has 8192 rows, the rest 256) puts requests
// on both sides of EngineOptions::parallel_batch_threshold, so op_p50_ms
// reads the small mode and op_p90_ms the large one.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/telemetry/telemetry.h"
#include "core/batch_eval.h"
#include "core/serialization.h"
#include "core/synthesizer.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "table/column_batch.h"
#include "table/dataset_repository.h"
#include "validate_client.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = guardrail::serve;
namespace core = guardrail::core;
using guardrail::telemetry::Span;

constexpr int kDatasetId = 11;
constexpr int kConnections = 2;
constexpr int kBlocksPerConnection = 4;
constexpr int64_t kSmallRows = 256;
constexpr int64_t kLargeRows = 8192;
const char* const kDataset = "phishing";

struct State {
  serve::ProgramRegistry registry;
  std::unique_ptr<serve::ValidationEngine> engine;
  std::unique_ptr<serve::Server> server;
  std::vector<std::vector<PooledRequest>> pools;
  std::vector<std::vector<uint64_t>> expected;  // [connection][request]

  ~State() {
    if (server != nullptr) server->Drain();
  }
};

guardrail::Status Setup(const Options& options, State* state) {
  guardrail::DatasetBundle bundle =
      guardrail::DatasetRepository::Build(kDatasetId, kRowCap);
  core::SynthesisOptions synthesis;
  synthesis.fill.epsilon = 0.05;
  synthesis.num_threads = options.threads;
  // A fixed sampler seed: the served program is the same for every workload
  // seed, which drives the request traffic.
  guardrail::Rng rng(0xE9A1);
  core::SynthesisReport report =
      core::Synthesizer(synthesis).Synthesize(bundle.clean, &rng);
  auto version = state->registry.LoadFromText(
      kDataset, core::SerializeProgram(report.program, bundle.clean.schema()),
      bundle.clean.schema());
  if (!version.ok()) return version.status();

  state->engine = std::make_unique<serve::ValidationEngine>(
      &state->registry, serve::EngineOptions{});
  serve::ServerOptions server_options;
  server_options.port = 0;
  state->server = std::make_unique<serve::Server>(
      &state->registry, state->engine.get(), server_options);
  GUARDRAIL_RETURN_NOT_OK(state->server->Start());

  auto snapshot = state->registry.Get(kDataset);
  for (int c = 0; c < kConnections; ++c) {
    guardrail::Rng pool_rng(options.seed * 0x9E3779B97F4A7C15ULL +
                            static_cast<uint64_t>(c) + 1);
    state->pools.push_back(MakeRequestPool(*bundle.sem, kBlocksPerConnection,
                                           kSmallRows, kLargeRows, &pool_rng));
    std::vector<uint64_t> hashes;
    for (const PooledRequest& request : state->pools.back()) {
      hashes.push_back(ReferenceHash(*snapshot, request));
    }
    state->expected.push_back(std::move(hashes));
  }
  return guardrail::Status::OK();
}

// Replays one request layer by layer through the library's public functions,
// each call in its own span carrying the request's id. The engine replay
// uses request id 0 so it never touches the dedup window.
class LayerReplay {
 public:
  explicit LayerReplay(State* state)
      : engine_(&state->registry, serve::EngineOptions{}),
        snapshot_(state->registry.Get(kDataset)) {}

  void operator()(const serve::ValidateRequest& request,
                  const serve::ValidateResponse& response, uint64_t rid) {
    serve::ValidateRequest anonymous = request;
    anonymous.request_id = 0;
    const int64_t request_id = static_cast<int64_t>(rid);
    {
      Span span("serve.engine");
      span.AddArg("request_id", request_id);
      engine_.Handle(anonymous);
    }
    Span root("serve.replay");
    root.AddArg("request_id", request_id);
    std::string request_frame;
    std::string response_frame;
    {
      Span span("serve.frame_encode");
      request_frame = serve::EncodeValidateRequest(request);
      response_frame = serve::EncodeValidateResponse(response);
    }
    {
      Span span("serve.frame_decode");
      serve::ValidateRequest decoded_request;
      serve::ValidateResponse decoded_response;
      std::string_view req_view(request_frame);
      std::string_view resp_view(response_frame);
      (void)serve::DecodeValidateRequest(
          req_view.substr(serve::kFramePrefixBytes), &decoded_request);
      (void)serve::DecodeValidateResponse(
          resp_view.substr(serve::kFramePrefixBytes), &decoded_response);
    }
    guardrail::Schema working;
    {
      Span span("serve.schema_copy");
      working = snapshot_->schema;
    }
    guardrail::Result<std::vector<guardrail::Row>> rows =
        guardrail::Status::Internal("not decoded");
    {
      Span span("serve.decode_rows");
      rows = serve::DecodeRows(request.format, request.payload, &working,
                               engine_.options().max_batch_rows);
    }
    if (!rows.ok()) return;
    // The engine's inline path, block by block (EngineOptions::
    // rows_per_shard rows each); large requests run the same blocks there,
    // spread over the shared pool.
    const core::CompiledProgram& compiled = *snapshot_->compiled;
    const size_t n = rows->size();
    const size_t per_block = static_cast<size_t>(
        std::max<int64_t>(1, engine_.options().rows_per_shard));
    for (size_t begin = 0; begin < n; begin += per_block) {
      const size_t count = std::min(per_block, n - begin);
      guardrail::ColumnBatch batch;
      {
        Span span("table.transpose");
        batch = guardrail::ColumnBatch::FromRows(
            *rows, begin, count, static_cast<int32_t>(compiled.min_row_width()),
            compiled.referenced_attributes());
      }
      core::BatchVerdict verdict;
      {
        Span span("core.evaluate");
        compiled.Evaluate(batch, &verdict);
      }
      if (request.scheme != core::ErrorPolicy::kRectify) continue;
      Span span("core.repair");
      for (int64_t r = 0; r < verdict.num_rows; ++r) {
        if (verdict.ViolationCount(r) == 0) continue;
        guardrail::Row repaired = (*rows)[begin + static_cast<size_t>(r)];
        for (const core::Violation* v = verdict.ViolationsBegin(r);
             v != verdict.ViolationsEnd(r); ++v) {
          core::ApplyRectifyRepair(snapshot_->program, *v, &repaired);
        }
        std::vector<std::string> fields;
        for (guardrail::AttrIndex c = 0; c < working.num_attributes(); ++c) {
          guardrail::ValueId value = repaired[static_cast<size_t>(c)];
          fields.push_back(value == guardrail::kNullValue
                               ? ""
                               : working.attribute(c).label(value));
        }
        guardrail::WriteCsvRecord(fields);
      }
    }
  }

 private:
  serve::ValidationEngine engine_;
  std::shared_ptr<const serve::ProgramSnapshot> snapshot_;
};

struct Totals {
  Phase phase;
  int64_t flagged = 0;
  int64_t requests = 0;
  int64_t large = 0;
};

// Both connections' closed loops for `seconds`; every response is checked
// against the offline-Guard reference of the request it answered.
Totals Measure(State* state, double seconds, bool traced, uint64_t* id_base) {
  std::vector<ClientLog> logs(kConnections);
  std::vector<std::unique_ptr<LayerReplay>> replays;
  for (int c = 0; c < kConnections; ++c) {
    replays.push_back(traced ? std::make_unique<LayerReplay>(state) : nullptr);
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::function<void(const serve::ValidateRequest&,
                         const serve::ValidateResponse&, uint64_t)>
          after;
      if (replays[c] != nullptr) after = std::ref(*replays[c]);
      RunClient(state->server->port(), kDataset, state->pools[c],
                *id_base + (static_cast<uint64_t>(c) << 40), seconds, nullptr,
                after, kLargeRows, &logs[c]);
    });
  }
  for (auto& t : threads) t.join();
  *id_base += uint64_t{1} << 44;

  Totals totals;
  const uint64_t live = state->registry.Get(kDataset)->version;
  for (int c = 0; c < kConnections; ++c) {
    ClientLog& log = logs[c];
    totals.phase.op_ms.insert(totals.phase.op_ms.end(),
                              log.phase.op_ms.begin(), log.phase.op_ms.end());
    totals.phase.rows += log.phase.rows;
    totals.phase.wall_s = std::max(totals.phase.wall_s, log.phase.wall_s);
    totals.phase.ledger.Merge(log.phase.ledger);
    for (const ClientLog::Entry& e : log.entries) {
      totals.phase.ledger.Record(e.version == live && e.hash != 0 &&
                                 e.hash == state->expected[c][e.request]);
    }
    totals.flagged += log.flagged;
    totals.requests += static_cast<int64_t>(log.entries.size());
    totals.large += log.large_requests;
  }
  totals.phase.unit_rows_per_s = {static_cast<double>(totals.phase.rows) /
                                  totals.phase.wall_s};
  return totals;
}

}  // namespace

RunResult RunServeValidate(const Options& options) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  const int setups = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    state.reset();
    auto start = std::chrono::steady_clock::now();
    auto fresh = std::make_unique<State>();
    guardrail::Status st = Setup(options, fresh.get());
    setup_s.push_back(SecondsSince(start));
    if (!st.ok()) {
      result.notes.push_back("setup failed: " + st.ToString());
      result.ledger.Record(false);
      return result;
    }
    state = std::move(fresh);
  }
  result.notes.push_back(
      "dataset=" + std::to_string(kDatasetId) + " connections=" +
      std::to_string(kConnections) + " threads=" +
      std::to_string(options.threads) + " rows=256x7+8192x1 per 8 requests "
      "schemes=ignore,rectify loop=closed");

  uint64_t id_base = 1;
  Totals warm = Measure(state.get(), 1.0, false, &id_base);
  result.ledger.Merge(warm.phase.ledger);

  if (!options.trace) {
    Totals totals = Measure(state.get(), options.seconds, false, &id_base);
    AddEndToEnd(setup_s, totals.phase, "validate request", &result);
    result.notes.push_back("flagged_rows=" + std::to_string(totals.flagged));
    return result;
  }

  Totals untraced = Measure(state.get(), options.seconds / 2, false, &id_base);
  StartTracing();
  Totals traced = Measure(state.get(), options.seconds / 2, true, &id_base);
  const std::vector<SpanRecord> spans = StopTracing(&result.ledger);
  auto self = SelfSeconds(spans);
  auto total = TotalSeconds(spans);
  const double n = static_cast<double>(SpanCounts(spans)["serve.roundtrip"]);
  auto us = [&](double seconds) { return PerUnit(seconds, n, 1e6); };
  const double roundtrip = us(total["serve.roundtrip"]);
  const double engine = us(total["serve.engine"]);
  const double evaluate = us(self["core.evaluate"]);
  double itemized = 0.0;
  for (const char* name :
       {"serve.frame_encode", "serve.frame_decode", "serve.schema_copy",
        "serve.decode_rows", "table.transpose", "core.evaluate",
        "core.repair"}) {
    itemized += us(self[name]);
  }
  SetLayer(&result, "serve.frame_encode_us", us(self["serve.frame_encode"]));
  SetLayer(&result, "serve.frame_decode_us", us(self["serve.frame_decode"]));
  SetLayer(&result, "serve.schema_copy_us", us(self["serve.schema_copy"]));
  SetLayer(&result, "serve.decode_rows_us", us(self["serve.decode_rows"]));
  SetLayer(&result, "table.transpose_us", us(self["table.transpose"]));
  SetLayer(&result, "core.evaluate_us", evaluate);
  SetLayer(&result, "core.repair_us", us(self["core.repair"]));
  SetLayer(&result, "serve.engine_us", engine);
  SetLayer(&result, "serve.roundtrip_us", roundtrip);
  SetLayer(&result, "serve.wire_us", roundtrip - engine);
  SetLayer(&result, "serve.unattributed_us", roundtrip - itemized);
  SetLayer(&result, "serve.kernel_share",
           roundtrip > 0 ? evaluate / roundtrip : 0.0);
  auto& registry = guardrail::telemetry::MetricsRegistry::Instance();
  const double requests = static_cast<double>(traced.requests);
  SetLayer(&result, "serve.rows_flagged",
           PerUnit(static_cast<double>(traced.flagged), requests, 1.0));
  SetLayer(&result, "serve.dedup_hits",
           static_cast<double>(registry.CounterValue("serve.dedup_hits")));
  SetLayer(&result, "serve.rejected_overload",
           static_cast<double>(registry.CounterValue("serve.rejected_overload")));
  SetLayer(&result, "serve.sharded_request_share",
           PerUnit(static_cast<double>(traced.large), requests, 1.0));
  const double overhead =
      AddCommonLayers(untraced.phase, traced.phase, &result);
  // The itemized self times account for the roundtrip when what is left
  // unattributed is no larger than what tracing itself adds.
  const double unattributed_share =
      roundtrip > 0 ? std::abs(roundtrip - itemized) / roundtrip : 0.0;
  result.notes.push_back(
      "per-request means over " + FormatNumber(n) +
      " traced requests; itemized layers cover " +
      FormatNumber(roundtrip > 0 ? itemized / roundtrip : 0.0) +
      " of the roundtrip; |unattributed|/roundtrip=" +
      FormatNumber(unattributed_share) +
      " tracing_overhead=" + FormatNumber(overhead) + " -> " +
      (unattributed_share <= std::abs(overhead) ? "accounted within"
                                                : "NOT accounted within") +
      " tracing_overhead");
  return result;
}

}  // namespace perfbench
