#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/math_util.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "pgm/ci_test.h"
#include "pgm/encoded_data.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/drift_detector.h"
#include "stream/incremental.h"
#include "stream/policy.h"
#include "stream/service.h"
#include "stream/stats_store.h"
#include "table/sem_generator.h"
#include "table/table.h"

// Streaming-synthesis suite (docs/STREAMING.md): mergeable sufficient
// statistics, drift detection against SEM ground truth, the incremental
// synthesizer's noop/incremental/full ladder, protocol-v3 ingest frames,
// and the daemon end-to-end (hot publish through the certificate gate).

namespace guardrail {
namespace stream {
namespace {

// ---- Fixtures -----------------------------------------------------------

// Hand-built SEM: two independent functional pairs plus a free root, so
// drift injection has high-cardinality conditionals to move and synthesis
// has clean constraints to learn. Deliberately chain-free: with exactly one
// determinant set per dependent attribute the synthesized ensemble can
// never self-contradict (GRL301), so publish-gate refusals in these tests
// would mean a real bug, not a noisy-fill artifact.
SemModel DemoSem(uint64_t seed = 0xBEEF) {
  std::vector<SemNode> nodes;
  nodes.push_back(SemNode{"a0", 6, {}, 0.0});
  nodes.push_back(SemNode{"a1", 6, {0}, 0.01});
  nodes.push_back(SemNode{"a2", 3, {}, 0.0});
  nodes.push_back(SemNode{"a3", 5, {2}, 0.0});
  nodes.push_back(SemNode{"a4", 4, {}, 0.0});
  return SemModel(std::move(nodes), seed);
}

StatsStore StoreOf(const Table& table, int64_t begin = 0,
                   int64_t count = -1) {
  StatsStore store(table.num_columns());
  store.IngestTable(table, begin, count);
  return store;
}

// ---- StatsStore ---------------------------------------------------------

TEST(StatsStoreTest, MergeIsAssociativeAndBatchInvariant) {
  SemModel sem = DemoSem();
  Rng rng(11);
  Table table = sem.Sample(601, &rng);  // Deliberately not batch-aligned.

  StatsStore serial = StoreOf(table);
  ASSERT_EQ(serial.num_rows(), 601);

  // Three disjoint shards, merged under both parenthesizations.
  StatsStore a = StoreOf(table, 0, 200);
  StatsStore b = StoreOf(table, 200, 200);
  StatsStore c = StoreOf(table, 400, -1);
  StatsStore left = a;
  left.Merge(b);
  left.Merge(c);
  StatsStore bc = b;
  bc.Merge(c);
  StatsStore right = a;
  right.Merge(bc);

  EXPECT_EQ(left.ContentHash(), serial.ContentHash());
  EXPECT_EQ(right.ContentHash(), serial.ContentHash());
  EXPECT_EQ(left.num_rows(), serial.num_rows());

  // Any batch size reproduces the serial hash (split invariance).
  for (int64_t batch : {1, 7, 64, 601}) {
    StatsStore batched(table.num_columns());
    for (int64_t begin = 0; begin < table.num_rows(); begin += batch) {
      batched.IngestTable(table, begin,
                          std::min(batch, table.num_rows() - begin));
    }
    EXPECT_EQ(batched.ContentHash(), serial.ContentHash())
        << "batch size " << batch;
  }

  // Pair totals agree with the marginals they project.
  const auto& pair01 = serial.pair(0, 1);
  int64_t from_cells = 0;
  for (ValueId x = 0; x < pair01.card_x; ++x) {
    for (ValueId y = 0; y < pair01.card_y; ++y) {
      from_cells += pair01.Count(x, y);
    }
  }
  EXPECT_EQ(from_cells, pair01.total);
  EXPECT_EQ(pair01.total, serial.num_rows());  // SEM data has no NULLs.
}

TEST(StatsStoreTest, HashDistinguishesDifferentData) {
  SemModel sem = DemoSem();
  Rng rng_a(1), rng_b(2);
  Table a = sem.Sample(300, &rng_a);
  Table b = sem.Sample(300, &rng_b);
  EXPECT_NE(StoreOf(a).ContentHash(), StoreOf(b).ContentHash());
}

// ---- DriftDetector ------------------------------------------------------

TEST(DriftDetectorTest, CleanWindowScoresClean) {
  SemModel sem = DemoSem();
  Rng rng(21);
  Table baseline_rows = sem.Sample(4000, &rng);
  Table window_rows = sem.Sample(2000, &rng);

  DriftDetector detector(DriftOptions{});
  DriftReport report =
      detector.Compare(StoreOf(baseline_rows), StoreOf(window_rows));
  EXPECT_FALSE(report.any()) << "false positive on same-distribution window";
  EXPECT_FALSE(report.global);
}

TEST(DriftDetectorTest, FlagsAndLocalizesInjectedShift) {
  SemModel sem = DemoSem();
  Rng rng(22);
  Table baseline_rows = sem.Sample(4000, &rng);

  SemDriftOptions drift_options;
  drift_options.changed_fraction = 0.34;
  Rng drift_rng(23);
  SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &drift_rng);
  ASSERT_FALSE(drifted.changed_nodes.empty());
  Table window_rows = drifted.model.Sample(2000, &rng);

  DriftDetector detector(DriftOptions{});
  DriftReport report =
      detector.Compare(StoreOf(baseline_rows), StoreOf(window_rows));
  ASSERT_TRUE(report.any()) << "injected shift went undetected";

  // Ground truth: a changed conditional moves pairs touching the changed
  // node or anything downstream of it (a child's joint distribution shifts
  // because its input's marginal did) — never pairs among untouched
  // upstream attributes.
  std::vector<bool> affected(static_cast<size_t>(sem.num_nodes()), false);
  for (AttrIndex node : drifted.changed_nodes) {
    affected[static_cast<size_t>(node)] = true;
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (AttrIndex j = 0; j < sem.num_nodes(); ++j) {
      if (affected[static_cast<size_t>(j)]) continue;
      for (AttrIndex p : sem.nodes()[static_cast<size_t>(j)].parents) {
        if (affected[static_cast<size_t>(p)]) {
          affected[static_cast<size_t>(j)] = true;
          grew = true;
        }
      }
    }
  }
  for (const auto& [x, y] : report.drifted) {
    EXPECT_TRUE(affected[static_cast<size_t>(x)] ||
                affected[static_cast<size_t>(y)])
        << "pair (" << x << ", " << y
        << ") flagged but neither endpoint is downstream of a change";
  }
  for (AttrIndex node : drifted.changed_nodes) {
    bool found = false;
    for (AttrIndex a : report.drifted_attributes) {
      if (a == node) found = true;
    }
    EXPECT_TRUE(found) << "changed node " << node << " not localized";
  }
}

// The two-sample G² loops the detector ran before it called
// pgm::G2FromCounts, kept as the oracle for its pair and marginal scores.
PairDrift OracleScorePair(AttrIndex x, AttrIndex y,
                          const StatsStore::PairTable& base,
                          const StatsStore::PairTable& win) {
  PairDrift out;
  out.x = x;
  out.y = y;
  const double nb = static_cast<double>(base.total);
  const double nw = static_cast<double>(win.total);
  const double grand = nb + nw;
  if (base.total == 0 || win.total == 0) return out;
  const int32_t cx = std::max(base.card_x, win.card_x);
  const int32_t cy = std::max(base.card_y, win.card_y);
  double g2 = 0.0;
  int64_t support_cells = 0;
  for (int32_t vx = 0; vx < cx; ++vx) {
    for (int32_t vy = 0; vy < cy; ++vy) {
      const double b = static_cast<double>(base.Count(vx, vy));
      const double w = static_cast<double>(win.Count(vx, vy));
      const double pooled = b + w;
      if (pooled <= 0.0) continue;
      ++support_cells;
      const double eb = nb * pooled / grand;
      const double ew = nw * pooled / grand;
      if (b > 0.0) g2 += b * std::log(b / eb);
      if (w > 0.0) g2 += w * std::log(w / ew);
    }
  }
  if (support_cells <= 1) return out;
  out.statistic = 2.0 * g2;
  out.dof = static_cast<double>(support_cells - 1);
  out.p_value = ChiSquareSurvival(out.statistic, out.dof);
  return out;
}

double OracleMarginalPValue(const std::vector<int64_t>& base,
                            const std::vector<int64_t>& win) {
  double nb = 0.0, nw = 0.0;
  const size_t k = std::max(base.size(), win.size());
  for (int64_t c : base) nb += static_cast<double>(c);
  for (int64_t c : win) nw += static_cast<double>(c);
  const double grand = nb + nw;
  if (nb <= 0.0 || nw <= 0.0) return 1.0;
  double g2 = 0.0;
  int64_t support = 0;
  for (size_t v = 0; v < k; ++v) {
    const double b = v < base.size() ? static_cast<double>(base[v]) : 0.0;
    const double w = v < win.size() ? static_cast<double>(win[v]) : 0.0;
    const double pooled = b + w;
    if (pooled <= 0.0) continue;
    ++support;
    if (b > 0.0) g2 += b * std::log(b / (nb * pooled / grand));
    if (w > 0.0) g2 += w * std::log(w / (nw * pooled / grand));
  }
  if (support <= 1) return 1.0;
  return ChiSquareSurvival(2.0 * g2, static_cast<double>(support - 1));
}

// Pair and marginal scores through the shared G² kernel equal the loops
// above bit for bit, on drifting SEM windows of several sizes.
TEST(DriftDetectorTest, ScoresMatchTwoSampleLoopsBitForBit) {
  DriftOptions options;
  options.min_pair_rows = 1;
  DriftDetector detector(options);
  int64_t pairs_compared = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SemModel sem = DemoSem(seed);
    Rng rng(seed * 31);
    const StatsStore baseline = StoreOf(sem.Sample(1500, &rng));
    SemDriftOptions drift_options;
    drift_options.changed_fraction = 0.25 * static_cast<double>(seed % 4);
    SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &rng);
    // Tiny windows leave cells and whole categories empty.
    const StatsStore window =
        StoreOf(drifted.model.Sample(static_cast<int64_t>(seed) * 40, &rng));

    DriftReport report = detector.Compare(baseline, window);
    size_t next = 0;
    for (AttrIndex x = 0; x < baseline.num_attributes(); ++x) {
      for (AttrIndex y = x + 1; y < baseline.num_attributes(); ++y) {
        PairDrift want = OracleScorePair(x, y, baseline.pair(x, y),
                                         window.pair(x, y));
        if (want.dof <= 0.0) continue;
        ASSERT_LT(next, report.pairs.size()) << "seed " << seed;
        const PairDrift& got = report.pairs[next++];
        EXPECT_EQ(got.x, x);
        EXPECT_EQ(got.y, y);
        EXPECT_EQ(got.statistic, want.statistic) << "seed " << seed;
        EXPECT_EQ(got.dof, want.dof) << "seed " << seed;
        EXPECT_EQ(got.p_value, want.p_value) << "seed " << seed;
        ++pairs_compared;
      }
    }
    EXPECT_EQ(next, report.pairs.size()) << "seed " << seed;

    pgm::G2Scratch scratch;
    for (AttrIndex a = 0; a < baseline.num_attributes(); ++a) {
      const std::vector<int64_t>& base = baseline.marginal(a);
      const std::vector<int64_t>& win = window.marginal(a);
      std::vector<int64_t> cells(2 * std::max(base.size(), win.size()), 0);
      for (size_t v = 0; v < base.size(); ++v) cells[2 * v] = base[v];
      for (size_t v = 0; v < win.size(); ++v) cells[2 * v + 1] = win[v];
      EXPECT_EQ(TestHomogeneity(cells, &scratch).p_value,
                OracleMarginalPValue(base, win))
          << "seed " << seed << " attribute " << a;
    }
  }
  EXPECT_GT(pairs_compared, 100);
}

// ---- IncrementalSynthesizer ---------------------------------------------

IncrementalOptions SmallStreamOptions() {
  IncrementalOptions options;
  options.drift.min_window_rows = 200;
  options.drift.min_pair_rows = 32;
  return options;
}

TEST(IncrementalTest, CleanStreamIsByteIdenticalNoop) {
  SemModel sem = DemoSem();
  Rng rng(31);
  IncrementalSynthesizer synth(SmallStreamOptions());
  ASSERT_TRUE(synth.IngestTable(sem.Sample(600, &rng)).ok());

  auto bootstrap = synth.Refresh();
  ASSERT_TRUE(bootstrap.ok()) << bootstrap.status().ToString();
  EXPECT_EQ(bootstrap->action, RefreshAction::kFull);
  EXPECT_TRUE(bootstrap->published_changed);
  ASSERT_FALSE(synth.program_text().empty());
  const std::string published = synth.program_text();
  const std::string certificate = synth.certificate_text();

  // Clean batches: drift scores clean, nothing re-fills, bytes untouched.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(synth.IngestTable(sem.Sample(300, &rng)).ok());
    auto refreshed = synth.Refresh();
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_EQ(refreshed->action, RefreshAction::kNoop) << refreshed->reason;
    EXPECT_FALSE(refreshed->published_changed);
    EXPECT_EQ(refreshed->statements_refilled, 0);
    EXPECT_EQ(synth.program_text(), published) << "bytes moved on a noop";
    EXPECT_EQ(synth.certificate_text(), certificate);
  }
}

TEST(IncrementalTest, TinyWindowIsNotScored) {
  SemModel sem = DemoSem();
  Rng rng(32);
  IncrementalSynthesizer synth(SmallStreamOptions());
  ASSERT_TRUE(synth.IngestTable(sem.Sample(600, &rng)).ok());
  ASSERT_TRUE(synth.Refresh().ok());

  ASSERT_TRUE(synth.IngestTable(sem.Sample(50, &rng)).ok());
  auto refreshed = synth.Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->action, RefreshAction::kNone)
      << "a 50-row window is below the power floor";
  // The undersized window is retained, not discarded: rows keep
  // accumulating until the floor is crossed.
  EXPECT_EQ(synth.window_rows(), 50);
}

TEST(IncrementalTest, DriftTriggersRefreshAndRepublish) {
  SemModel sem = DemoSem();
  Rng rng(33);
  IncrementalSynthesizer synth(SmallStreamOptions());
  ASSERT_TRUE(synth.IngestTable(sem.Sample(1500, &rng)).ok());
  ASSERT_TRUE(synth.Refresh().ok());
  const std::string before = synth.program_text();

  SemDriftOptions drift_options;
  drift_options.changed_fraction = 0.5;
  Rng drift_rng(34);
  SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &drift_rng);
  ASSERT_TRUE(synth.IngestTable(drifted.model.Sample(1500, &rng)).ok());

  auto refreshed = synth.Refresh();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_TRUE(refreshed->action == RefreshAction::kIncremental ||
              refreshed->action == RefreshAction::kFull)
      << RefreshActionName(refreshed->action) << ": " << refreshed->reason;
  EXPECT_TRUE(refreshed->drift.any());
  // The refreshed program re-entered the minimize + certify gate: the
  // registry (strict verifier included) must accept it.
  serve::ProgramRegistry registry;
  auto version = registry.LoadFromText("drifted", synth.program_text(),
                                       synth.schema(), "stream://drifted",
                                       synth.certificate_text());
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  (void)before;  // Bytes may or may not differ; the gate is what matters.
}

TEST(IncrementalTest, ProgramBytesAreThreadCountInvariant) {
  SemModel sem = DemoSem();
  std::vector<std::string> programs;
  for (int threads : {1, 4}) {
    Rng rng(35);  // Identical row stream for both runs.
    IncrementalOptions options = SmallStreamOptions();
    options.synthesis.num_threads = threads;
    IncrementalSynthesizer synth(options);
    ASSERT_TRUE(synth.IngestTable(sem.Sample(900, &rng)).ok());
    ASSERT_TRUE(synth.Refresh().ok());

    SemDriftOptions drift_options;
    Rng drift_rng(36);
    SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &drift_rng);
    ASSERT_TRUE(synth.IngestTable(drifted.model.Sample(900, &rng)).ok());
    ASSERT_TRUE(synth.Refresh().ok());
    programs.push_back(synth.program_text());
  }
  ASSERT_EQ(programs.size(), 2u);
  EXPECT_EQ(programs[0], programs[1])
      << "streamed program bytes depend on the thread count";
}

// ---- Resynthesis policy -------------------------------------------------

// The refresh ladder's marginal CI tests read baseline + window counts; on
// drifting batches they must equal GSquareTest scanning the accumulated
// rows, bit for bit.
TEST(IncrementalTest, StoreMarginalTestsMatchRowScan) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SemModel sem = DemoSem(seed);
    Rng rng(seed);
    IncrementalOptions options = SmallStreamOptions();
    IncrementalSynthesizer synth(options);
    ASSERT_TRUE(synth.IngestTable(sem.Sample(600, &rng)).ok());
    ASSERT_TRUE(synth.Refresh().ok());
    SemDriftOptions drift_options;
    drift_options.changed_fraction = 0.5;
    SemModel drifting = MakeDriftedSem(sem, drift_options, &rng).model;
    for (int batch = 0; batch < 3; ++batch) {
      ASSERT_TRUE(synth.IngestTable(drifting.Sample(150, &rng)).ok());
    }

    const std::vector<pgm::CiResult> tests = synth.MarginalCiTests();
    const pgm::EncodedData encoded = pgm::EncodeIdentity(synth.data());
    const pgm::GSquareTest test(&encoded, options.ci);
    const int32_t n = synth.data().num_columns();
    ASSERT_EQ(tests.size(), static_cast<size_t>(n * (n - 1) / 2));
    size_t next = 0;
    for (AttrIndex x = 0; x < n; ++x) {
      for (AttrIndex y = x + 1; y < n; ++y) {
        const pgm::CiResult& got = tests[next++];
        const pgm::CiResult want = test.Test(x, y, {});
        const std::string label = "seed " + std::to_string(seed) + " pair (" +
                                  std::to_string(x) + ", " +
                                  std::to_string(y) + ")";
        EXPECT_EQ(got.statistic, want.statistic) << label;
        EXPECT_EQ(got.p_value, want.p_value) << label;
        EXPECT_EQ(got.dof, want.dof) << label;
        EXPECT_EQ(got.independent, want.independent) << label;
        EXPECT_EQ(got.reliable, want.reliable) << label;
      }
    }
  }
}

TEST(PolicyTest, ModesGateRefreshAttempts) {
  PolicyOptions interval;
  interval.mode = ResynthesisMode::kInterval;
  interval.interval_batches = 3;
  ResynthesisPolicy p1(interval);
  EXPECT_FALSE(p1.ShouldRefresh(2, false));
  EXPECT_TRUE(p1.ShouldRefresh(3, false));
  EXPECT_TRUE(p1.ShouldRefresh(0, true));  // Manual overrides.

  ResynthesisPolicy p2(PolicyOptions{});  // Drift-threshold default.
  EXPECT_TRUE(p2.ShouldRefresh(1, false));

  PolicyOptions manual;
  manual.mode = ResynthesisMode::kManual;
  ResynthesisPolicy p3(manual);
  EXPECT_FALSE(p3.ShouldRefresh(100, false));
  EXPECT_TRUE(p3.ShouldRefresh(0, true));

  EXPECT_EQ(ParseResynthesisMode("drift"), ResynthesisMode::kDriftThreshold);
  EXPECT_EQ(ParseResynthesisMode("interval"), ResynthesisMode::kInterval);
  EXPECT_EQ(ParseResynthesisMode("manual"), ResynthesisMode::kManual);
  EXPECT_FALSE(ParseResynthesisMode("bogus").has_value());
}

// ---- Protocol v3 --------------------------------------------------------

TEST(IngestProtocolTest, RequestRoundTrips) {
  serve::IngestRequest request;
  request.dataset = "orders";
  request.format = serve::RowFormat::kJson;
  request.force_refresh = true;
  request.payload = "[{\"zip\":\"94704\"}]";

  std::string frame = serve::EncodeIngestRequest(request);
  // Strip the 4-byte length prefix; decoders take the payload.
  std::string_view payload(frame.data() + 4, frame.size() - 4);
  serve::MsgType type;
  ASSERT_TRUE(serve::PeekMsgType(payload, &type).ok());
  EXPECT_EQ(type, serve::MsgType::kIngestRequest);

  serve::IngestRequest decoded;
  ASSERT_TRUE(serve::DecodeIngestRequest(payload, &decoded).ok());
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(decoded.format, request.format);
  EXPECT_EQ(decoded.force_refresh, request.force_refresh);
  EXPECT_EQ(decoded.payload, request.payload);
}

TEST(IngestProtocolTest, ResponseRoundTripsBitExactDrift) {
  serve::IngestResponse response;
  response.code = StatusCode::kOk;
  response.rows_ingested = 12345;
  response.action = serve::IngestAction::kIncremental;
  response.drift_score = 98.7654321;
  response.program_version = 7;
  response.published = true;

  std::string frame = serve::EncodeIngestResponse(response);
  std::string_view payload(frame.data() + 4, frame.size() - 4);
  serve::IngestResponse decoded;
  ASSERT_TRUE(serve::DecodeIngestResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.rows_ingested, 12345u);
  EXPECT_EQ(decoded.action, serve::IngestAction::kIncremental);
  EXPECT_EQ(decoded.drift_score, 98.7654321);  // Bit-cast, so exact.
  EXPECT_EQ(decoded.program_version, 7u);
  EXPECT_TRUE(decoded.published);
}

TEST(IngestProtocolTest, TruncatedFramesAreRejected) {
  serve::IngestRequest request;
  request.dataset = "orders";
  request.payload = "zip,city\n94704,Berkeley\n";
  std::string frame = serve::EncodeIngestRequest(request);
  std::string_view payload(frame.data() + 4, frame.size() - 4);
  for (size_t len : {size_t{0}, size_t{1}, payload.size() / 2,
                     payload.size() - 1}) {
    serve::IngestRequest decoded;
    EXPECT_FALSE(
        serve::DecodeIngestRequest(payload.substr(0, len), &decoded).ok())
        << "accepted a frame truncated to " << len << " bytes";
  }
}

// ---- End-to-end over the wire -------------------------------------------

std::string CsvOf(const Table& table, int64_t begin, int64_t count) {
  CsvDocument doc = table.ToCsv();
  CsvDocument slice;
  slice.header = doc.header;
  slice.rows.assign(doc.rows.begin() + begin,
                    doc.rows.begin() + begin + count);
  return WriteCsv(slice);
}

StreamServiceOptions SmallServiceOptions() {
  StreamServiceOptions options;
  options.incremental = SmallStreamOptions();
  options.bootstrap_rows = 400;
  return options;
}

// ---- DatasetStream ------------------------------------------------------

// A CSV batch with labels that need quoting (commas, quotes, embedded
// newlines), empty fields and a header name with a comma; every label
// repeats across rows.
std::string AwkwardCsv(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  CsvDocument doc = DemoSem().Sample(rows, &rng).ToCsv();
  doc.header[2] = "a2, \"quoted\"";
  const std::string emptied = doc.rows[0][4];
  for (std::vector<std::string>& record : doc.rows) {
    record[0] += ", \"q\"";
    record[1] += "\nsecond line";
    if (record[4] == emptied) record[4].clear();
  }
  return WriteCsv(doc);
}

// A fresh stream takes its schema from the first CSV batch's header and
// decodes that batch through serve::DecodeRows like every later one; the
// result must equal the offline Table::FromCsv + IngestTable path.
TEST(DatasetStreamTest, FirstCsvBatchMatchesOfflineTable) {
  const std::string payload = AwkwardCsv(600, 51);
  auto doc = ParseCsv(payload);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto table = Table::FromCsv(*doc);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  StreamServiceOptions options = SmallServiceOptions();
  options.bootstrap_rows = int64_t{1} << 20;  // Ingest only.
  IncrementalSynthesizer offline(options.incremental);
  ASSERT_TRUE(offline.IngestTable(*table).ok());

  DatasetStream step(options);
  serve::IngestRequest request;
  request.payload = payload;
  auto outcome = step.Ingest(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->rows_ingested, 600);
  EXPECT_FALSE(outcome->refresh.has_value());

  const Schema& got = step.synth().schema();
  const Schema& want = offline.schema();
  ASSERT_EQ(got.num_attributes(), want.num_attributes());
  for (AttrIndex a = 0; a < want.num_attributes(); ++a) {
    EXPECT_EQ(got.attribute(a).name(), want.attribute(a).name());
    EXPECT_EQ(got.attribute(a).domain(), want.attribute(a).domain())
        << "attribute " << a;
  }
  EXPECT_NE(want.attribute(4).Lookup(""), kNullValue)
      << "the fixture lost its empty labels";
  ASSERT_EQ(step.synth().rows_ingested(), offline.rows_ingested());
  for (RowIndex r = 0; r < offline.rows_ingested(); ++r) {
    ASSERT_EQ(step.synth().data().GetRow(r), offline.data().GetRow(r))
        << "row " << r;
  }
  EXPECT_EQ(step.synth().window().ContentHash(),
            offline.window().ContentHash());

  // The bootstrap over those rows publishes the same bytes.
  DatasetStream forced(options);
  request.force_refresh = true;
  auto booted = forced.Ingest(request);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  ASSERT_TRUE(booted->refresh.has_value());
  EXPECT_EQ(booted->refresh->action, RefreshAction::kFull);
  auto offline_boot = offline.Refresh();
  ASSERT_TRUE(offline_boot.ok()) << offline_boot.status().ToString();
  EXPECT_FALSE(offline_boot->program_text.empty());
  EXPECT_EQ(booted->refresh->program_text, offline_boot->program_text);
  EXPECT_EQ(booted->refresh->certificate_text,
            offline_boot->certificate_text);
}

// End of file: a stream shorter than bootstrap_rows bootstraps when its last
// batch carries force_refresh (the rule `guardrail stream` replays with).
TEST(DatasetStreamTest, ShortStreamBootstrapsOnForcedLastBatch) {
  Rng rng(52);
  Table rows = DemoSem().Sample(200, &rng);
  DatasetStream step(SmallServiceOptions());  // bootstrap_rows = 400.
  serve::IngestRequest request;
  request.payload = CsvOf(rows, 0, 100);
  auto first = step.Ingest(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->refresh.has_value())
      << "100 rows are below the bootstrap floor";
  EXPECT_FALSE(step.synth().bootstrapped());

  request.payload = CsvOf(rows, 100, 100);
  request.force_refresh = true;
  auto last = step.Ingest(request);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  ASSERT_TRUE(last->refresh.has_value());
  EXPECT_EQ(last->refresh->action, RefreshAction::kFull);
  EXPECT_TRUE(last->refresh->published_changed);
  EXPECT_TRUE(step.synth().bootstrapped());
  EXPECT_EQ(step.synth().rows_ingested(), 200);
}

TEST(StreamServiceTest, IngestWithoutHandlerIsNotImplemented) {
  serve::ProgramRegistry registry;
  serve::ValidationEngine engine(&registry, serve::EngineOptions{});
  serve::Server server(&registry, &engine, serve::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = serve::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  serve::IngestRequest request;
  request.dataset = "demo";
  request.payload = "zip,city\n94704,Berkeley\n";
  auto response = client->Ingest(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kNotImplemented);
}

TEST(StreamServiceTest, EndToEndNoDriftNeverRepublishes) {
  SemModel sem = DemoSem();
  Rng rng(41);
  Table rows = sem.Sample(1600, &rng);

  serve::ProgramRegistry registry;
  serve::ValidationEngine engine(&registry, serve::EngineOptions{});
  StreamService service(&registry, SmallServiceOptions());
  serve::ServerOptions options;
  options.ingest_handler = [&service](const serve::IngestRequest& r) {
    return service.HandleIngest(r);
  };
  serve::Server server(&registry, &engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  uint64_t version_after_bootstrap = 0;
  uint64_t hash_after_bootstrap = 0;
  for (int64_t begin = 0; begin < rows.num_rows(); begin += 400) {
    serve::IngestRequest request;
    request.dataset = "demo";
    request.payload = CsvOf(rows, begin, 400);
    auto response = client->Ingest(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    EXPECT_EQ(response->rows_ingested, 400u);
    if (begin == 0) {
      // First batch crosses bootstrap_rows: full synthesis, first publish.
      EXPECT_EQ(response->action, serve::IngestAction::kFull);
      EXPECT_TRUE(response->published);
      version_after_bootstrap = response->program_version;
      EXPECT_GT(version_after_bootstrap, 0u);
      auto snapshot = registry.Get("demo");
      ASSERT_NE(snapshot, nullptr);
      hash_after_bootstrap = snapshot->source_hash;
    } else {
      EXPECT_EQ(response->action, serve::IngestAction::kNoop)
          << "clean batch at row " << begin;
      EXPECT_FALSE(response->published);
      EXPECT_EQ(response->program_version, version_after_bootstrap);
    }
  }
  // The served snapshot never moved: same version, same source bytes
  // (source_hash is FNV-1a over the published program text).
  auto snapshot = registry.Get("demo");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, version_after_bootstrap);
  EXPECT_EQ(snapshot->source_hash, hash_after_bootstrap);
}

TEST(StreamServiceTest, EndToEndInjectedShiftAdvancesVersion) {
  SemModel sem = DemoSem();
  Rng rng(42);
  Table clean = sem.Sample(800, &rng);
  SemDriftOptions drift_options;
  drift_options.changed_fraction = 0.5;
  Rng drift_rng(43);
  SemDriftInfo drifted = MakeDriftedSem(sem, drift_options, &drift_rng);
  Table shifted = drifted.model.Sample(1200, &rng);

  serve::ProgramRegistry registry;
  serve::ValidationEngine engine(&registry, serve::EngineOptions{});
  StreamService service(&registry, SmallServiceOptions());
  serve::ServerOptions options;
  options.ingest_handler = [&service](const serve::IngestRequest& r) {
    return service.HandleIngest(r);
  };
  serve::Server server(&registry, &engine, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  serve::IngestRequest bootstrap;
  bootstrap.dataset = "demo";
  bootstrap.payload = CsvOf(clean, 0, clean.num_rows());
  auto booted = client->Ingest(bootstrap);
  ASSERT_TRUE(booted.ok());
  ASSERT_EQ(booted->code, StatusCode::kOk) << booted->error;
  ASSERT_TRUE(booted->published);
  const uint64_t v1 = booted->program_version;

  bool republished = false;
  uint64_t final_version = v1;
  for (int64_t begin = 0; begin < shifted.num_rows(); begin += 400) {
    serve::IngestRequest request;
    request.dataset = "demo";
    request.payload = CsvOf(shifted, begin, 400);
    auto response = client->Ingest(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
    if (response->published) {
      republished = true;
      EXPECT_TRUE(response->action == serve::IngestAction::kIncremental ||
                  response->action == serve::IngestAction::kFull);
      EXPECT_GT(response->drift_score, 0.0);
    }
    final_version = response->program_version;
  }
  EXPECT_TRUE(republished) << "injected shift never republished";
  EXPECT_GT(final_version, v1);
  // The hot-published program went through the registry's full analyzer +
  // certificate gate (LoadFromText would have refused it otherwise) and is
  // what Validate now serves.
  auto snapshot = registry.Get("demo");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, final_version);
}

// A publish the registry refuses stays pending: the next refresh attempt
// retries it even though a clean batch leaves the program bytes unchanged.
TEST(StreamServiceTest, RefusedPublishIsRetried) {
  SemModel sem = DemoSem();
  Rng rng(45);
  Table rows = sem.Sample(1600, &rng);
  serve::ProgramRegistry registry;
  StreamService service(&registry, SmallServiceOptions());
  serve::IngestRequest request;
  request.dataset = "demo";
  request.payload = CsvOf(rows, 0, 400);
  {
    ScopedFailpoint refuse("serve.registry_load");
    const serve::IngestResponse booted = service.HandleIngest(request);
    EXPECT_EQ(booted.code, StatusCode::kInternal) << booted.error;
    EXPECT_FALSE(booted.published);
    EXPECT_EQ(booted.program_version, 0u);
    EXPECT_EQ(registry.Get("demo"), nullptr);
  }

  request.payload = CsvOf(rows, 400, 400);
  const serve::IngestResponse retried = service.HandleIngest(request);
  ASSERT_EQ(retried.code, StatusCode::kOk) << retried.error;
  EXPECT_EQ(retried.action, serve::IngestAction::kNoop);
  EXPECT_TRUE(retried.published);
  EXPECT_EQ(retried.program_version, 1u);
  auto snapshot = registry.Get("demo");
  ASSERT_NE(snapshot, nullptr) << "the refused bootstrap was never retried";
  EXPECT_EQ(snapshot->version, 1u);

  // Once live, clean batches publish nothing more.
  for (int64_t begin = 800; begin < rows.num_rows(); begin += 400) {
    request.payload = CsvOf(rows, begin, 400);
    const serve::IngestResponse response = service.HandleIngest(request);
    ASSERT_EQ(response.code, StatusCode::kOk) << response.error;
    EXPECT_FALSE(response.published);
    EXPECT_EQ(response.program_version, 1u);
  }
}

TEST(StreamServiceTest, SurvivesConnectionDropChaos) {
  SemModel sem = DemoSem();
  Rng rng(44);
  Table rows = sem.Sample(1600, &rng);

  serve::ProgramRegistry registry;
  serve::ValidationEngine engine(&registry, serve::EngineOptions{});
  StreamService service(&registry, SmallServiceOptions());
  serve::ServerOptions options;
  options.ingest_handler = [&service](const serve::IngestRequest& r) {
    return service.HandleIngest(r);
  };
  serve::Server server(&registry, &engine, options);
  ASSERT_TRUE(server.Start().ok());

  // ~30% of connections die mid-request; the feeder retries with a fresh
  // connection. Ingest is idempotent at the stream level only if the
  // client resends after a *failed* send, which is exactly what happens
  // when the transport reports an error before a response arrived.
  ScopedFailpoint drop("serve.connection_drop", 0.3, StatusCode::kIoError,
                       /*seed=*/99);
  int64_t transport_errors = 0;
  for (int64_t begin = 0; begin < rows.num_rows(); begin += 400) {
    serve::IngestRequest request;
    request.dataset = "demo";
    request.payload = CsvOf(rows, begin, 400);
    bool delivered = false;
    for (int attempt = 0; attempt < 50 && !delivered; ++attempt) {
      auto client = serve::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) continue;
      auto response = client->Ingest(request);
      if (!response.ok()) {
        ++transport_errors;
        continue;
      }
      ASSERT_EQ(response->code, StatusCode::kOk) << response->error;
      delivered = true;
    }
    ASSERT_TRUE(delivered) << "batch at row " << begin
                           << " never got through";
  }
  EXPECT_GT(transport_errors, 0) << "failpoint never fired; chaos was a no-op";
  EXPECT_NE(registry.Get("demo"), nullptr)
      << "stream never published under chaos";
}

// ---- Streaming trace sink -----------------------------------------------

class TraceStreamTest : public ::testing::Test {
 protected:
  void SetUp() override { telemetry::ResetAllForTest(); }
  void TearDown() override { telemetry::ResetAllForTest(); }
};

TEST_F(TraceStreamTest, WritesLoadableJsonWithBoundedBuffer) {
  std::string path = ::testing::TempDir() + "/stream_trace.json";
  ASSERT_TRUE(telemetry::StartTraceStream(path, /*flush_threshold=*/4).ok());
  EXPECT_TRUE(telemetry::TraceStreamActive());
  // A second stream must be refused, not silently rebound.
  EXPECT_EQ(telemetry::StartTraceStream(path).code(),
            StatusCode::kAlreadyExists);

  constexpr int kEvents = 25;
  for (int i = 0; i < kEvents; ++i) {
    telemetry::InstantEvent("stream.test.event");
  }
  // Threshold 4 with 25 events: at most threshold - 1 remain unflushed, so
  // the in-memory buffer stayed bounded regardless of event volume.
  EXPECT_LT(telemetry::SnapshotTraceEvents().size(), 4u);
  ASSERT_TRUE(telemetry::StopTraceStream().ok());
  EXPECT_FALSE(telemetry::TraceStreamActive());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // All 25 events landed in the file.
  size_t count = 0;
  for (size_t pos = text.find("stream.test.event"); pos != std::string::npos;
       pos = text.find("stream.test.event", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, static_cast<size_t>(kEvents));
  // Structurally valid JSON document: final footer closes the array and
  // object (Chrome trace viewers parse it strictly).
  EXPECT_EQ(text.substr(text.size() - 4), "]\n}\n");
  std::remove(path.c_str());
}

TEST_F(TraceStreamTest, StopWithoutStartIsOk) {
  EXPECT_TRUE(telemetry::StopTraceStream().ok());
}

}  // namespace
}  // namespace stream
}  // namespace guardrail
