// Streaming resynthesis bench (docs/STREAMING.md): how much cheaper is an
// incremental refresh than re-running the whole pipeline, and how many
// batches does the drift detector lag behind an injected shift?
//
// Setup: a SEM of independent functional pairs (wide enough that PC + MEC +
// fill dominate full synthesis), bootstrapped from a clean prefix. The
// stream then ingests clean batches (expected: noop) until a drifted model
// takes over mid-stream; the bench records (a) the number of batches from
// the switch until the detector reacts, (b) the wall time of the resulting
// incremental refresh, and (c) the wall time of a from-scratch synthesis
// over the same accumulated rows, minimize + certify included in both.
//
// The bench doubles as a correctness gate: it exits nonzero when the drift
// reaction is not an incremental refresh, when the detector lags more than
// kMaxDriftLag batches, when the refresh refilled or reused no statement,
// when the refreshed program fails the registry's certificate gate, or when
// the incremental path is not at least kMinSpeedup x faster.
// GUARDRAIL_BENCH_FAST=1 shrinks the relation.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "serve/registry.h"
#include "stream/incremental.h"
#include "table/sem_generator.h"
#include "table/table.h"

namespace guardrail {
namespace {

constexpr double kMinSpeedup = 5.0;
constexpr int kMaxDriftLag = 10;

// P functional pairs (root card 6 -> child card 6, 1% noise) plus two free
// roots; chain-free so the ensemble cannot self-contradict and every drift
// localizes to one pair.
SemModel BenchSem(int num_pairs) {
  std::vector<SemNode> nodes;
  for (int i = 0; i < num_pairs; ++i) {
    const std::string base = "p" + std::to_string(i);
    AttrIndex root = static_cast<AttrIndex>(nodes.size());
    nodes.push_back(SemNode{base + "_src", 6, {}, 0.0});
    nodes.push_back(SemNode{base + "_dst", 6, {root}, 0.01});
  }
  nodes.push_back(SemNode{"free0", 4, {}, 0.0});
  nodes.push_back(SemNode{"free1", 3, {}, 0.0});
  return SemModel(std::move(nodes), 0xC0FFEE);
}

int Run() {
  const bool fast = std::getenv("GUARDRAIL_BENCH_FAST") != nullptr;
  const int num_pairs = fast ? 4 : 8;
  const int64_t bootstrap_rows = fast ? 3000 : 12000;
  const int64_t batch_rows = fast ? 300 : 600;
  const int max_drift_batches = 40;

  SemModel sem = BenchSem(num_pairs);
  Rng rng(0x57E4);

  stream::IncrementalOptions options;
  options.drift.min_window_rows = batch_rows;
  stream::IncrementalSynthesizer synth(options);

  Status ingested = synth.IngestTable(sem.Sample(bootstrap_rows, &rng));
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest: %s\n", ingested.ToString().c_str());
    return 1;
  }
  auto bootstrap = synth.Refresh();
  if (!bootstrap.ok()) {
    std::fprintf(stderr, "bootstrap: %s\n",
                 bootstrap.status().ToString().c_str());
    return 1;
  }
  const double bootstrap_ms = bootstrap->seconds * 1e3;

  // A couple of clean batches: the steady-state (noop) refresh cost.
  double noop_ms = 0.0;
  for (int i = 0; i < 2; ++i) {
    (void)synth.IngestTable(sem.Sample(batch_rows, &rng));
    auto noop = synth.Refresh();
    if (!noop.ok() || noop->action != stream::RefreshAction::kNoop) {
      std::fprintf(stderr, "clean batch %d did not noop\n", i);
      return 1;
    }
    noop_ms = std::max(noop_ms, noop->seconds * 1e3);
  }

  // Shift one pair's conditional and count batches until the detector
  // reacts.
  SemDriftOptions drift_options;
  drift_options.changed_fraction = 0.01;  // max(1, ...) -> exactly one node.
  Rng drift_rng(0xD41F7);
  SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &drift_rng);

  int lag_batches = 0;
  stream::RefreshResult reaction;
  for (int batch = 1; batch <= max_drift_batches; ++batch) {
    (void)synth.IngestTable(drifted.model.Sample(batch_rows, &rng));
    auto refreshed = synth.Refresh();
    if (!refreshed.ok()) {
      std::fprintf(stderr, "drift refresh: %s\n",
                   refreshed.status().ToString().c_str());
      return 1;
    }
    if (refreshed->action != stream::RefreshAction::kNoop &&
        refreshed->action != stream::RefreshAction::kNone) {
      lag_batches = batch;
      reaction = *std::move(refreshed);
      break;
    }
  }
  if (lag_batches == 0) {
    std::fprintf(stderr, "drift was never detected within %d batches\n",
                 max_drift_batches);
    return 1;
  }
  if (reaction.action != stream::RefreshAction::kIncremental) {
    std::fprintf(stderr,
                 "localized drift escalated to %s instead of an "
                 "incremental refresh (%s)\n",
                 stream::RefreshActionName(reaction.action),
                 reaction.reason.c_str());
    return 1;
  }
  const double incremental_ms = reaction.seconds * 1e3;

  // The refreshed program must clear the same publish gate the daemon uses.
  serve::ProgramRegistry registry;
  auto version =
      registry.LoadFromText("bench", synth.program_text(), synth.schema(),
                            "stream://bench", synth.certificate_text());
  if (!version.ok()) {
    std::fprintf(stderr, "publish gate refused the refreshed program: %s\n",
                 version.status().ToString().c_str());
    return 1;
  }

  // From-scratch baseline: a fresh pipeline over the identical accumulated
  // rows (same options, minimize + certify included).
  stream::IncrementalSynthesizer scratch(options);
  scratch.SeedSchema(synth.schema());
  (void)scratch.IngestRows([&] {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(synth.data().num_rows()));
    for (RowIndex r = 0; r < synth.data().num_rows(); ++r) {
      rows.push_back(synth.data().GetRow(r));
    }
    return rows;
  }());
  auto full = scratch.Refresh();
  if (!full.ok()) {
    std::fprintf(stderr, "from-scratch: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }
  const double full_ms = full->seconds * 1e3;
  const double speedup = incremental_ms > 0 ? full_ms / incremental_ms : 0.0;

  bench::TextTable table({"metric", "value"});
  table.AddRow({"attributes", bench::FmtInt(synth.schema().num_attributes())});
  table.AddRow({"rows at reaction", bench::FmtInt(synth.data().num_rows())});
  table.AddRow({"bootstrap full ms", bench::Fmt(bootstrap_ms, 1)});
  table.AddRow({"steady-state noop ms", bench::Fmt(noop_ms, 2)});
  table.AddRow({"drift lag (batches)", bench::FmtInt(lag_batches)});
  table.AddRow({"incremental refresh ms", bench::Fmt(incremental_ms, 2)});
  table.AddRow({"from-scratch ms", bench::Fmt(full_ms, 1)});
  table.AddRow({"speedup", bench::Fmt(speedup, 1)});
  table.AddRow({"statements refilled",
                bench::FmtInt(reaction.statements_refilled)});
  table.AddRow({"statements reused",
                bench::FmtInt(reaction.statements_reused)});
  std::printf("Streaming resynthesis (%d functional pairs, %lld-row "
              "batches):\n\n",
              num_pairs, static_cast<long long>(batch_rows));
  table.Print();

  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "incremental refresh only %.1fx faster than from-scratch "
                 "(acceptance floor: %.0fx)\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  if (lag_batches > kMaxDriftLag) {
    std::fprintf(stderr, "drift detected after %d batches (bound: %d)\n",
                 lag_batches, kMaxDriftLag);
    return 1;
  }
  if (reaction.statements_refilled == 0 || reaction.statements_reused == 0) {
    std::fprintf(stderr,
                 "incremental refresh refilled %lld and reused %lld "
                 "statement(s); both must be nonzero\n",
                 static_cast<long long>(reaction.statements_refilled),
                 static_cast<long long>(reaction.statements_reused));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace guardrail

int main() { return guardrail::Run(); }
