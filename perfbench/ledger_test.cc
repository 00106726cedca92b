// Tests of the ledger's own statistics: the numbers every later performance
// claim is read through.

#include "ledger.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

TEST(NearestRank, PicksTheSmallestSampleCoveringTheShare) {
  std::vector<double> v = OneTo(100);
  EXPECT_EQ(NearestRank(v, 0.50), 50);
  EXPECT_EQ(NearestRank(v, 0.90), 90);
  EXPECT_EQ(NearestRank(v, 0.99), 99);
  EXPECT_EQ(NearestRank(v, 1.00), 100);
  EXPECT_EQ(NearestRank({7.0}, 0.5), 7.0);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  // ceil(0.5 * 5) = 3rd smallest.
  EXPECT_EQ(NearestRank({5, 1, 4, 2, 3}, 0.5), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(SupportedPercentile, RefusesATailWithFewerThanTenSamplesBeyond) {
  // p99 of 1000 samples: rank 990, 10 beyond -> reported.
  auto p99 = SupportedPercentile(OneTo(1000), 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990);
  // p99 of 999 samples: rank 990, 9 beyond -> refused.
  EXPECT_FALSE(SupportedPercentile(OneTo(999), 0.99).has_value());
  // p90 needs 100 samples.
  EXPECT_TRUE(SupportedPercentile(OneTo(100), 0.90).has_value());
  EXPECT_FALSE(SupportedPercentile(OneTo(99), 0.90).has_value());
  EXPECT_FALSE(SupportedPercentile({}, 0.5).has_value());
}

SpanRecord Span(uint64_t id, uint64_t parent, const std::string& name,
                int64_t start, int64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfSeconds, SubtractsTheUnionOfDirectChildren) {
  // root [0, 1000): children [100, 300) and [200, 500) overlap -> cover 400;
  // a third child [900, 1200) is clipped to [900, 1000) -> 100 more.
  // The grandchild is the child's business, not the root's.
  std::vector<SpanRecord> spans = {
      Span(1, 0, "root", 0, 1000),     Span(2, 1, "a", 100, 300),
      Span(3, 1, "b", 200, 500),       Span(4, 1, "c", 900, 1200),
      Span(5, 2, "leaf", 150, 250),
  };
  auto self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self["root"], 500e-9);
  EXPECT_DOUBLE_EQ(self["a"], 100e-9);
  EXPECT_DOUBLE_EQ(self["b"], 300e-9);
  EXPECT_DOUBLE_EQ(self["c"], 300e-9);
  EXPECT_DOUBLE_EQ(self["leaf"], 100e-9);
  auto total = TotalSeconds(spans);
  EXPECT_DOUBLE_EQ(total["root"], 1000e-9);
  EXPECT_EQ(SpanCounts(spans)["root"], 1);
}

TEST(SelfSeconds, SumsOverSpansOfOneName) {
  std::vector<SpanRecord> spans = {
      Span(1, 0, "req", 0, 100), Span(2, 1, "eval", 10, 40),
      Span(3, 0, "req", 200, 260), Span(4, 3, "eval", 200, 260),
  };
  auto self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self["req"], 70e-9);
  EXPECT_DOUBLE_EQ(self["eval"], 90e-9);
}

guardrail::telemetry::TraceEventRecord Event(const char* name, char phase,
                                             int64_t ts_micros, uint32_t tid,
                                             std::string args = "") {
  guardrail::telemetry::TraceEventRecord e;
  e.name = name;
  e.phase = phase;
  e.ts_micros = ts_micros;
  e.tid = tid;
  e.args_json = std::move(args);
  return e;
}

TEST(SpansFromTrace, NestsPerThreadAndHandsDownTheRequestId) {
  // Thread 1: req(42) > [decode, eval]; thread 2 interleaves its own span.
  // A stray E and a B that never ends are skipped.
  std::vector<guardrail::telemetry::TraceEventRecord> events = {
      Event("stray", 'E', 0, 1),
      Event("req", 'B', 10, 1),
      Event("decode", 'B', 11, 1),
      Event("other", 'B', 12, 2),
      Event("decode", 'E', 15, 1),
      Event("eval", 'B', 15, 1),
      Event("other", 'E', 16, 2, "\"request_id\": 7"),
      Event("eval", 'E', 19, 1),
      Event("req", 'E', 20, 1, "\"rows\": 3, \"request_id\": 42"),
      Event("open", 'B', 21, 1),
  };
  std::vector<SpanRecord> spans = SpansFromTrace(events);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "req");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].request_id, 42u);
  EXPECT_EQ(spans[0].start_ns, 10000);
  EXPECT_EQ(spans[0].end_ns, 20000);
  EXPECT_EQ(spans[1].name, "decode");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request_id, 42u);
  EXPECT_EQ(spans[2].name, "other");
  EXPECT_EQ(spans[2].parent, 0u);
  EXPECT_EQ(spans[2].request_id, 7u);
  EXPECT_EQ(spans[3].name, "eval");
  EXPECT_EQ(spans[3].parent, spans[0].id);
  EXPECT_EQ(spans[3].request_id, 42u);
  auto self = SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self["req"], 2e-6);  // 10 us minus 4 + 4 us of children.
}

TEST(StartTracing, RecordsTheLibrarysSpans) {
  StartTracing();
  {
    guardrail::telemetry::Span root("root");
    root.AddArg("request_id", int64_t{42});
    guardrail::telemetry::Span child("child");
  }
  FailureLedger ledger;
  std::vector<SpanRecord> spans = StopTracing(&ledger);
  { guardrail::telemetry::Span ignored("ignored"); }
  EXPECT_EQ(ledger.failed(), 0);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[1].name, "child");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request_id, 42u);
  EXPECT_EQ(SpanCounts(SpansFromTrace(
                guardrail::telemetry::SnapshotTraceEvents()))["ignored"],
            0);
}

TEST(FailureLedger, CountsFailuresAgainstAttempts) {
  FailureLedger ledger;
  EXPECT_EQ(ledger.rate(), 0.0);
  for (int i = 0; i < 7; ++i) ledger.Record(true);
  ledger.Record(false);
  EXPECT_EQ(ledger.attempted(), 8);
  EXPECT_EQ(ledger.failed(), 1);
  EXPECT_DOUBLE_EQ(ledger.rate(), 0.125);
  FailureLedger other;
  other.Record(false);
  other.Record(false);
  ledger.Merge(other);
  EXPECT_EQ(ledger.attempted(), 10);
  EXPECT_EQ(ledger.failed(), 3);
}

TEST(ResultJson, ReportsCorrectnessFromTheLedger) {
  RunResult result;
  result.end_to_end.push_back({"setup_s", 0.5, "s"});
  result.per_layer.push_back({"op.samples", 3, "count"});
  result.ledger.Record(true);
  EXPECT_EQ(ResultJson(result, false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  result.ledger.Record(false);
  EXPECT_EQ(ResultJson(result, true),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"op.samples\": {\"value\": 3, \"unit\": "
            "\"count\"}}}");
  EXPECT_EQ(ResultJson(RunResult{}, false).substr(0, 20),
            "{\"correct\": false, \"");
}

}  // namespace
}  // namespace perfbench
