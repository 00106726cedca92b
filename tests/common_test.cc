#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/csv.h"
#include "common/hash.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace guardrail {
namespace {

double benchmark_sink_global = 0.0;

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, ConstraintViolationPredicate) {
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_FALSE(Status::NotFound("x").IsConstraintViolation());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MacroPropagation) {
  auto inner = []() -> Result<int> { return Status::OutOfRange("x"); };
  auto outer = [&]() -> Status {
    GUARDRAIL_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedValuesInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextUint64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, WeightedRespectsZeroWeights) {
  Rng rng(29);
  std::vector<double> w = {0.0, 1.0, 0.0, 3.0};
  for (int i = 0; i < 500; ++i) {
    size_t pick = rng.NextWeighted(w);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(RngTest, WeightedFrequenciesMatch) {
  Rng rng(31);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.NextWeighted(w) == 1;
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(43);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(47);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 5);
}

// ------------------------------------------------------------------ hash --

TEST(HashTest, Fnv1aMatchesStandardVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
  // Chaining hashes the concatenation; a byte-sized word mixes like a byte.
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
  EXPECT_EQ(FnvMix(kFnvOffset, 'a'), Fnv1a("a"));
}

// ---------------------------------------------------------- string utils --

TEST(StringUtilTest, SplitBasic) {
  auto parts = StrSplit("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitEmptyFields) {
  auto parts = StrSplit(",a,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, "--"), "x--y--z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("x"), "x");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(StrToLower("AbC"), "abc");
  EXPECT_TRUE(StrEqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(StrEqualsIgnoreCase("a", "ab"));
  EXPECT_TRUE(StrStartsWith("foobar", "foo"));
  EXPECT_TRUE(StrEndsWith("foobar", "bar"));
  EXPECT_FALSE(StrStartsWith("fo", "foo"));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64(" -5 ", &v));
  EXPECT_EQ(v, -5);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1.5", &v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5zz", &v));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
}

// ------------------------------------------------------------- math util --

TEST(MathUtilTest, LnGammaMatchesFactorials) {
  // lgamma(n+1) = ln(n!)
  double ln120 = std::log(120.0);
  EXPECT_NEAR(LnGamma(6.0), ln120, 1e-9);
  EXPECT_NEAR(LnGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LnGamma(0.5), std::log(std::sqrt(M_PI)), 1e-9);
}

TEST(MathUtilTest, GammaPQComplementary) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(RegularizedGammaP(a, x) + RegularizedGammaQ(a, x), 1.0,
                  1e-10);
    }
  }
}

TEST(MathUtilTest, ChiSquareKnownValues) {
  // For dof=1, P[X >= 3.841] ~ 0.05; for dof=2, survival(x) = exp(-x/2).
  EXPECT_NEAR(ChiSquareSurvival(3.841, 1), 0.05, 0.001);
  EXPECT_NEAR(ChiSquareSurvival(4.0, 2), std::exp(-2.0), 1e-6);
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(0.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(ChiSquareSurvival(10.0, 0), 1.0);
}

TEST(MathUtilTest, ChiSquareMonotoneInX) {
  double prev = 1.0;
  for (double x = 0.5; x < 30; x += 0.5) {
    double s = ChiSquareSurvival(x, 4);
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
}

TEST(MathUtilTest, LnBinomial) {
  EXPECT_NEAR(LnBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LnBinomial(10, 0), 0.0, 1e-9);
  EXPECT_NEAR(LnBinomial(52, 5), std::log(2598960.0), 1e-6);
}

TEST(MathUtilTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> yn = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, yn), -1.0, 1e-12);
}

TEST(MathUtilTest, PearsonDegenerate) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(MathUtilTest, SpearmanMonotoneNonlinear) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};  // Monotone, nonlinear.
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathUtilTest, SpearmanHandlesTies) {
  std::vector<double> x = {1, 2, 2, 3};
  std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
}

TEST(MathUtilTest, SpearmanPValueSmallForStrongCorrelation) {
  EXPECT_LT(SpearmanPValue(0.95, 12), 0.01);
  EXPECT_GT(SpearmanPValue(0.1, 12), 0.5);
}

TEST(MathUtilTest, MinMaxNormalize) {
  std::vector<double> v = {2, 4, 6};
  MinMaxNormalize(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.5);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
  std::vector<double> flat = {3, 3, 3};
  MinMaxNormalize(&flat);
  for (double x : flat) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(MathUtilTest, MeanStdDev) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(MathUtilTest, F1AndMcc) {
  EXPECT_DOUBLE_EQ(F1Score(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(F1Score(10, 0, 0), 1.0);
  EXPECT_NEAR(F1Score(5, 5, 5), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(MatthewsCorrelation(10, 0, 10, 0), 1.0);
  EXPECT_DOUBLE_EQ(MatthewsCorrelation(0, 10, 0, 10), -1.0);
  EXPECT_DOUBLE_EQ(MatthewsCorrelation(0, 0, 0, 0), 0.0);
}

TEST(MathUtilTest, WilcoxonDetectsShift) {
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(i + 1.0);
    b.push_back(i + 0.2);
  }
  EXPECT_LT(WilcoxonSignedRankPValue(a, b), 0.01);
  EXPECT_NEAR(WilcoxonSignedRankPValue(a, a), 1.0, 1e-9);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParseSimple) {
  auto doc = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][1], "4");
}

TEST(CsvTest, ParseQuotedFields) {
  auto doc = ParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "x,y");
  EXPECT_EQ(doc->rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, ParseCrlfAndNoTrailingNewline) {
  auto doc = ParseCsv("a,b\r\n1,2");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(CsvTest, RejectsWidthMismatch) {
  auto doc = ParseCsv("a,b\n1,2,3\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  // Errors carry 1-based row/column context for the operator.
  EXPECT_NE(doc.status().message().find("row 2"), std::string::npos)
      << doc.status().message();
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto doc = ParseCsv("a\n\"oops");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsEmpty) { EXPECT_FALSE(ParseCsv("").ok()); }

// Malformed-input table: every row is one adversarial document; all must be
// rejected as kInvalidArgument with row/column context, never crash or parse.
TEST(CsvTest, MalformedInputTable) {
  struct Case {
    const char* name;
    std::string input;
    const char* expect_context;  // Substring of the error message.
  };
  const Case kCases[] = {
      {"unterminated quote", "a,b\n\"x,2\n", "row 2"},
      {"unterminated quote at eof", "a\n\"", "row 2"},
      {"quote opening mid-field", "a,b\nx\"y\",2\n", "column 1"},
      {"garbage after closing quote", "a,b\n\"x\"y,2\n", "column 1"},
      {"ragged row too long", "a,b\n1,2\n1,2,3\n", "row 3"},
      {"ragged row too short", "a,b,c\n1,2\n", "row 2"},
      {"embedded NUL", std::string("a,b\n1,2\0x\n", 9), "NUL"},
      {"NUL in header", std::string("a\0b\n1\n", 6), "NUL"},
      {"overlong field",
       "a\n" + std::string(kMaxCsvFieldBytes + 1, 'x') + "\n", "exceeds"},
      {"empty input", "", "empty"},
  };
  for (const Case& c : kCases) {
    auto doc = ParseCsv(c.input);
    ASSERT_FALSE(doc.ok()) << c.name;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(doc.status().message().find(c.expect_context), std::string::npos)
        << c.name << ": " << doc.status().message();
  }
}

// Inputs that look suspicious but are well-formed RFC-4180.
TEST(CsvTest, AcceptsEdgeCasesThatAreWellFormed) {
  // CRLF line endings, quoted empty field, embedded newline in quotes.
  auto doc = ParseCsv("a,b\r\n\"\",\"line1\nline2\"\r\n");
  ASSERT_TRUE(doc.ok()) << doc.status().message();
  ASSERT_EQ(doc->rows.size(), 1u);
  EXPECT_EQ(doc->rows[0][0], "");
  EXPECT_EQ(doc->rows[0][1], "line1\nline2");
}

// The field cap is checked before each byte that would extend, close or
// end a field: an unquoted field of exactly kMaxCsvFieldBytes is accepted
// only when the input ends right after it.
TEST(CsvTest, FieldCapBoundaries) {
  const std::string full(kMaxCsvFieldBytes, 'x');
  auto at_end = ParseCsv("a\n" + full);
  ASSERT_TRUE(at_end.ok()) << at_end.status().ToString();
  ASSERT_EQ(at_end->rows.size(), 1u);
  EXPECT_EQ(at_end->rows[0][0].size(), kMaxCsvFieldBytes);

  auto separated = ParseCsv("a,b\n" + full + ",y\n");
  ASSERT_FALSE(separated.ok());
  EXPECT_EQ(separated.status().ToString(),
            "Invalid argument: CSV field exceeds 1048576 bytes at row 2, "
            "column 1");
}

TEST(CsvTest, QuotedFieldFaultsCarryExactContext) {
  auto nul = ParseCsv(std::string("a,b\n1,\"x\0y\"\n", 12));
  ASSERT_FALSE(nul.ok());
  EXPECT_EQ(nul.status().ToString(),
            "Invalid argument: CSV contains a NUL byte at row 2, column 2");

  auto trailing = ParseCsv("a,b\n\"x\"y,2\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().ToString(),
            "Invalid argument: characters after closing quote in CSV field "
            "at row 2, column 1");
}

// ScanCsv hands unquoted and escape-free quoted fields to the sink as views
// into the scanned text; only "" escapes need the scanner's scratch buffer.
TEST(CsvTest, ScanCsvPassesViewsIntoTheText) {
  struct Sink : CsvSink {
    std::vector<std::string_view> fields;
    std::vector<std::string> copies;
    int records = 0;
    void Field(std::string_view value) override {
      fields.push_back(value);
      copies.emplace_back(value);
    }
    void EndRecord() override { ++records; }
  } sink;
  const std::string text = "a,b\r\n\r\nxy,\"q,r\"\n\"he \"\"hi\"\"\",\n";
  ASSERT_TRUE(ScanCsv(text, &sink).ok());
  EXPECT_EQ(sink.records, 3);
  EXPECT_EQ(sink.copies, (std::vector<std::string>{"a", "b", "xy", "q,r",
                                                   "he \"hi\"", ""}));
  auto inside = [&](std::string_view v) {
    return v.data() >= text.data() && v.data() + v.size() <= text.data() +
                                                                 text.size();
  };
  EXPECT_TRUE(inside(sink.fields[2]));
  EXPECT_TRUE(inside(sink.fields[3]));
}

// The character-at-a-time grammar ParseCsv had before it became a ScanCsv
// sink, kept verbatim as the oracle for the differential test below.
Result<CsvDocument> SeedParseCsv(std::string_view text) {
  CsvDocument doc;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool record_has_content = false;
  size_t row = 1;
  size_t column = 1;
  auto at = [&] {
    return "row " + std::to_string(row) + ", column " + std::to_string(column);
  };
  auto end_field = [&]() {
    record.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
    ++column;
  };
  auto end_record = [&]() -> Status {
    end_field();
    if (doc.header.empty() && doc.rows.empty()) {
      doc.header = std::move(record);
    } else {
      if (record.size() != doc.header.size()) {
        return Status::InvalidArgument(
            "CSV row has " + std::to_string(record.size()) +
            " field(s) but the header has " +
            std::to_string(doc.header.size()) + " (row " + std::to_string(row) +
            ")");
      }
      doc.rows.push_back(std::move(record));
    }
    record.clear();
    record_has_content = false;
    ++row;
    column = 1;
    return Status::OK();
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '\0') {
      return Status::InvalidArgument("CSV contains a NUL byte at " + at());
    }
    if (field.size() >= kMaxCsvFieldBytes) {
      return Status::InvalidArgument("CSV field exceeds " +
                                     std::to_string(kMaxCsvFieldBytes) +
                                     " bytes at " + at());
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      if (!field.empty() || field_was_quoted) {
        return Status::InvalidArgument(
            "misplaced quote inside unquoted CSV field at " + at());
      }
      in_quotes = true;
      field_was_quoted = true;
      record_has_content = true;
    } else if (c == ',') {
      end_field();
      record_has_content = true;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      if (record_has_content || !field.empty() || !record.empty()) {
        GUARDRAIL_RETURN_NOT_OK(end_record());
      }
    } else {
      if (field_was_quoted) {
        return Status::InvalidArgument(
            "characters after closing quote in CSV field at " + at());
      }
      field += c;
      record_has_content = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field at " + at());
  }
  if (record_has_content || !field.empty() || !record.empty()) {
    GUARDRAIL_RETURN_NOT_OK(end_record());
  }
  if (doc.header.empty()) return Status::InvalidArgument("empty CSV input");
  return doc;
}

// Random texts over the grammar's alphabet (and ordinary bytes, in runs long
// enough to cross the scanner's 8-byte steps) hit every accept path and
// every fault class; ParseCsv must agree with the seed grammar on each:
// same document, or the same error text.
TEST(CsvTest, ParseCsvMatchesSeedGrammarOnRandomText) {
  const std::string alphabet[] = {"a", "bc", "defghijkl", ",", "\"", "\"\"",
                                  "\n", "\r", "\r\n", std::string(1, '\0')};
  Rng rng(20261017);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text;
    const uint64_t pieces = rng.NextUint64(24);
    for (uint64_t p = 0; p < pieces; ++p) {
      // Mostly ordinary text, so a fair share of documents are well-formed.
      uint64_t pick = rng.NextUint64(20);
      text += alphabet[pick < 10 ? pick % 4 : pick - 10];
    }
    Result<CsvDocument> got = ParseCsv(text);
    Result<CsvDocument> want = SeedParseCsv(text);
    ASSERT_EQ(got.ok(), want.ok()) << testing::PrintToString(text);
    if (!want.ok()) {
      ASSERT_EQ(got.status().ToString(), want.status().ToString())
          << testing::PrintToString(text);
      continue;
    }
    ++accepted;
    ASSERT_EQ(got->header, want->header) << testing::PrintToString(text);
    ASSERT_EQ(got->rows, want->rows) << testing::PrintToString(text);
  }
  EXPECT_GT(accepted, 1000);
}

// ParseCsv and the seed grammar give the same document, or the same error
// text, for `text`.
testing::AssertionResult MatchesSeedGrammar(const std::string& text) {
  const std::string shown = text.size() <= 400
                                ? testing::PrintToString(text)
                                : std::to_string(text.size()) + "-byte text";
  Result<CsvDocument> got = ParseCsv(text);
  Result<CsvDocument> want = SeedParseCsv(text);
  if (got.ok() != want.ok()) {
    return testing::AssertionFailure()
           << shown << ": got " << got.status().ToString() << ", want "
           << want.status().ToString();
  }
  if (!want.ok()) {
    if (got.status().ToString() == want.status().ToString()) {
      return testing::AssertionSuccess();
    }
    return testing::AssertionFailure()
           << shown << ": got " << got.status().ToString() << ", want "
           << want.status().ToString();
  }
  if (got->header != want->header || got->rows != want->rows) {
    return testing::AssertionFailure() << shown << ": documents differ";
  }
  return testing::AssertionSuccess();
}

// Whole records of three unquoted columns, fields of 0-9 letters (so field
// ends land at every offset of the scanner's 64-byte blocks) and the odd
// blank line, until the text reaches `bytes` bytes.
std::string PlainCsv(size_t bytes, Rng* rng) {
  std::string text = "id,name,city";
  while (text.size() < bytes) {
    text += '\n';
    if (rng->NextUint64(12) == 0) text += '\n';
    for (int c = 0; c < 3; ++c) {
      if (c > 0) text += ',';
      text.append(rng->NextUint64(10),
                  static_cast<char>('d' + rng->NextUint64(20)));
    }
  }
  return text;
}

// The 64-byte block scanner against the character-at-a-time seed grammar:
// texts of 0 to 300 bytes, well-formed and cut short, then with each fault
// class inserted at every byte offset (so at every offset modulo 64 of the
// first blocks): a quote, a CR, a NUL, an extra comma (a ragged record), a
// quote after a letter (misplaced), and a field one byte past the cap.
TEST(CsvTest, BlockScannerMatchesSeedGrammarAtEveryOffset) {
  Rng rng(64);
  const std::string faults[] = {"\"", "\r", std::string(1, '\0'), ",",
                                "m\""};
  int accepted = 0;
  for (size_t bytes = 0; bytes <= 300; bytes += 7) {
    const std::string text = PlainCsv(bytes, &rng);
    ASSERT_TRUE(MatchesSeedGrammar(text));
    accepted += ParseCsv(text).ok() ? 1 : 0;
    // Cut mid-record, mid-field and inside the last partial block.
    ASSERT_TRUE(MatchesSeedGrammar(text.substr(0, bytes)));
    for (size_t at = 0; at <= text.size(); ++at) {
      for (const std::string& fault : faults) {
        std::string faulty = text;
        faulty.insert(at, fault);
        ASSERT_TRUE(MatchesSeedGrammar(faulty));
      }
    }
  }
  EXPECT_GT(accepted, 30);

  // An overlong field starting, or growing, at each of the first 128
  // offsets.
  const std::string text = PlainCsv(200, &rng);
  const std::string overlong(kMaxCsvFieldBytes + 1, 'z');
  for (size_t at = 0; at < 128; ++at) {
    std::string faulty = text;
    faulty.insert(at, overlong);
    ASSERT_TRUE(MatchesSeedGrammar(faulty)) << "offset " << at;
  }
}

// Texts whose last block is partial: every length past the last whole
// block, ending with and without a newline, with a field straddling the
// last block boundary.
TEST(CsvTest, BlockScannerReadsPartialLastBlock) {
  Rng rng(65);
  for (size_t tail = 0; tail < 64; ++tail) {
    std::string text = "k,v\n";
    while (text.size() < 3 * 64 - 5) {
      text += "ab,cd\n";
    }
    text.resize(3 * 64 - 5);
    text += "\nlongish,";
    while (text.size() < 3 * 64 + tail) {
      text += static_cast<char>('e' + rng.NextUint64(10));
    }
    ASSERT_TRUE(ParseCsv(text).ok()) << "tail " << tail;
    ASSERT_TRUE(MatchesSeedGrammar(text)) << "tail " << tail;
    ASSERT_TRUE(MatchesSeedGrammar(text + "\n")) << "tail " << tail;
  }
}

// A field is quoted exactly when it holds a comma, quote, CR or LF.
TEST(CsvTest, WriteCsvRecordQuotesOnlyWhatNeedsIt) {
  EXPECT_EQ(WriteCsvRecord({"plain", "", "a,b", "q\"t", "c\rr", "l\nf",
                            "sp ace\t"}),
            "plain,,\"a,b\",\"q\"\"t\",\"c\rr\",\"l\nf\",sp ace\t");
}

TEST(CsvTest, WriteReadRoundTrip) {
  CsvDocument doc;
  doc.header = {"name", "note"};
  doc.rows = {{"alice", "likes,commas"}, {"bob", "quote\"inside"}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"x"};
  doc.rows = {{"1"}, {"2"}};
  std::string path = ::testing::TempDir() + "/guardrail_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, doc).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->rows, doc.rows);
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/x.csv").status().code(),
            StatusCode::kIoError);
}

// ----------------------------------------------------------------- Timer --

TEST(StopWatchTest, MeasuresElapsedTime) {
  StopWatch w;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  benchmark_sink_global = sink;  // Defeat dead-code elimination.
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMicros(), w.ElapsedMillis());
}

}  // namespace
}  // namespace guardrail
