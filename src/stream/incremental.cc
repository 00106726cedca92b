#include "stream/incremental.h"

#include <chrono>
#include <set>
#include <utility>

#include "analysis/semantic.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "core/normalize.h"
#include "core/serialization.h"
#include "core/sketch_filler.h"

namespace guardrail {
namespace stream {

namespace {

// Seed for the synthesizer's auxiliary-pairing shuffle. Fixed so that a
// refresh over identical data reproduces identical bytes.
constexpr uint64_t kSynthesisSeed = 7;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

size_t PairFlatIndex(int64_t n, AttrIndex x, AttrIndex y) {
  return static_cast<size_t>(x * (2 * n - x - 1) / 2 + (y - x - 1));
}

core::StatementSketch HeaderOf(const core::Statement& statement) {
  core::StatementSketch sketch;
  sketch.determinants = statement.determinants;
  sketch.dependent = statement.dependent;
  return sketch;
}

}  // namespace

const char* RefreshActionName(RefreshAction action) {
  switch (action) {
    case RefreshAction::kNone:
      return "none";
    case RefreshAction::kNoop:
      return "noop";
    case RefreshAction::kIncremental:
      return "incremental";
    case RefreshAction::kFull:
      return "full";
  }
  return "unknown";
}

IncrementalSynthesizer::IncrementalSynthesizer(IncrementalOptions options)
    : options_(std::move(options)), detector_(options_.drift) {}

void IncrementalSynthesizer::SeedSchema(const Schema& schema) {
  GUARDRAIL_CHECK_EQ(data_.num_rows(), 0)
      << "SeedSchema must precede the first ingest";
  data_ = Table(schema);
}

Status IncrementalSynthesizer::IngestTable(const Table& batch) {
  if (batch.num_rows() == 0) return Status::OK();
  if (data_.num_columns() == 0) {
    data_ = Table(batch.schema());
  }
  const int32_t n = data_.num_columns();
  if (batch.num_columns() != n) {
    return Status::InvalidArgument(
        "ingest batch width " + std::to_string(batch.num_columns()) +
        " does not match stream width " + std::to_string(n));
  }
  // Batches arrive independently dictionary-coded; translate through labels
  // so codes agree with the accumulated schema (extending domains as new
  // labels appear in the stream).
  std::vector<Row> rows(static_cast<size_t>(batch.num_rows()),
                        Row(static_cast<size_t>(n)));
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    Row& row = rows[static_cast<size_t>(r)];
    for (AttrIndex c = 0; c < n; ++c) {
      const ValueId v = batch.Get(r, c);
      row[static_cast<size_t>(c)] =
          v == kNullValue
              ? kNullValue
              : data_.mutable_schema().attribute(c).GetOrInsert(
                    batch.schema().attribute(c).label(v));
    }
  }
  return IngestRows(rows);
}

Status IncrementalSynthesizer::IngestRows(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  const int32_t n = data_.num_columns();
  if (n == 0) {
    return Status::InvalidArgument(
        "IngestRows needs a seeded schema (SeedSchema or a prior "
        "IngestTable)");
  }
  const int64_t begin = data_.num_rows();
  for (const Row& row : rows) {
    Status appended = data_.AppendRow(row);
    if (!appended.ok()) return appended;
  }
  if (window_.num_attributes() != n) window_.Reset(n);
  if (baseline_.num_attributes() != n) baseline_.Reset(n);
  window_.IngestTable(data_, begin, data_.num_rows() - begin);
  GUARDRAIL_COUNTER_ADD("stream.ingest.rows",
                        static_cast<int64_t>(rows.size()));
  return Status::OK();
}

std::vector<pgm::CiResult> IncrementalSynthesizer::MarginalCiTests() const {
  StatsStore counts = baseline_;
  counts.Merge(window_);
  const int32_t n = counts.num_attributes();
  std::vector<pgm::CiResult> tests;
  tests.reserve(static_cast<size_t>(n) * static_cast<size_t>(n - 1) / 2);
  for (AttrIndex x = 0; x < n; ++x) {
    for (AttrIndex y = x + 1; y < n; ++y) {
      const StatsStore::PairTable& pair = counts.pair(x, y);
      tests.push_back(pgm::GSquareTest::MarginalFromCounts(
          pair.counts.data(), pair.total, pair.card_x, pair.card_y,
          counts.num_rows(), data_.schema().attribute(x).domain_size(),
          data_.schema().attribute(y).domain_size(), options_.ci));
    }
  }
  return tests;
}

void IncrementalSynthesizer::Publish(const core::Program& program,
                                     const std::string& certificate,
                                     RefreshResult* out) {
  const std::string previous = program_text_;
  const std::string comment = std::string("streaming refresh (") +
                              RefreshActionName(out->action) + ")";
  program_text_ =
      certificate.empty()
          ? core::SerializeProgram(program, data_.schema(), comment)
          : analysis::SerializeMinimizedProgram(program, data_.schema(),
                                                comment);
  certificate_text_ = certificate;
  out->program_text = program_text_;
  out->certificate_text = certificate_text_;
  out->published_changed = program_text_ != previous;
}

Result<RefreshResult> IncrementalSynthesizer::FullResynthesis(
    RefreshAction action, std::string reason) {
  const auto start = std::chrono::steady_clock::now();
  RefreshResult out;
  out.action = action;
  out.reason = std::move(reason);

  const core::Synthesizer synthesizer(options_.synthesis);
  Rng rng(kSynthesisSeed);
  core::SynthesisReport report = synthesizer.Synthesize(data_, &rng);

  // The ensemble (union of member-DAG programs) is the shape replayed by
  // incremental refreshes; fall back to the chosen program when synthesis
  // degraded below the ensemble rung.
  const core::Program& shape =
      report.ensemble_program.empty() ? report.program
                                      : report.ensemble_program;
  ensemble_order_.clear();
  ensemble_order_.reserve(shape.statements.size());
  fill_cache_.clear();
  for (const core::Statement& statement : shape.statements) {
    core::StatementSketch sketch = HeaderOf(statement);
    ensemble_order_.push_back(sketch);
    fill_cache_[sketch] = statement;
  }
  baseline_ci_verdicts_.clear();
  for (const pgm::CiResult& test : MarginalCiTests()) {
    baseline_ci_verdicts_.push_back(test.independent);
  }
  out.ci_tests_rerun += static_cast<int64_t>(baseline_ci_verdicts_.size());

  if (report.minimized) {
    Publish(report.minimization.program, report.minimization.certificate,
            &out);
  } else {
    Publish(report.program, "", &out);
  }

  baseline_.Merge(window_);
  window_.Reset(data_.num_columns());
  bootstrapped_ = true;

  out.statements_refilled = static_cast<int64_t>(ensemble_order_.size());
  out.seconds = SecondsSince(start);
  GUARDRAIL_COUNTER_INC("stream.resynth.full");
  return out;
}

Result<RefreshResult> IncrementalSynthesizer::Bootstrap() {
  if (data_.num_rows() == 0) {
    return Status::InvalidArgument("cannot bootstrap an empty stream");
  }
  return FullResynthesis(RefreshAction::kFull, "bootstrap");
}

Result<RefreshResult> IncrementalSynthesizer::Refresh(bool force_full) {
  if (!bootstrapped_) return Bootstrap();
  const auto start = std::chrono::steady_clock::now();

  if (force_full) {
    return FullResynthesis(RefreshAction::kFull, "forced full resynthesis");
  }

  RefreshResult out;
  out.program_text = program_text_;
  out.certificate_text = certificate_text_;
  if (window_.num_rows() < options_.drift.min_window_rows) {
    out.action = RefreshAction::kNone;
    out.reason = "window below power floor (" +
                 std::to_string(window_.num_rows()) + " < " +
                 std::to_string(options_.drift.min_window_rows) + " rows)";
    out.seconds = SecondsSince(start);
    return out;
  }

  out.drift = detector_.Compare(baseline_, window_);
  if (!out.drift.any()) {
    // Clean window: served bytes stay untouched and the window keeps
    // accumulating — merging it into the baseline here would launder slow
    // drift in below the detection threshold.
    out.action = RefreshAction::kNoop;
    out.reason = "no drifted pairs (max G2 " +
                 std::to_string(out.drift.max_statistic) + ")";
    out.seconds = SecondsSince(start);
    GUARDRAIL_COUNTER_INC("stream.resynth.noop");
    return out;
  }
  if (out.drift.global) {
    Result<RefreshResult> full = FullResynthesis(
        RefreshAction::kFull,
        "global drift (" + std::to_string(out.drift.drifted.size()) +
            " pairs, fraction " +
            std::to_string(out.drift.drifted_fraction) + ")");
    if (full.ok()) full->drift = out.drift;
    return full;
  }

  // Localized drift. First re-test the moved pairs: a marginal-independence
  // verdict flip means the learned structure — not just the branch tables —
  // is stale, and patching statements under a wrong skeleton is unsound.
  {
    const int64_t n = data_.num_columns();
    const std::vector<pgm::CiResult> tests = MarginalCiTests();
    for (const auto& [x, y] : out.drift.drifted) {
      const size_t pair = PairFlatIndex(n, x, y);
      ++out.ci_tests_rerun;
      if (tests[pair].independent != baseline_ci_verdicts_[pair]) {
        Result<RefreshResult> full = FullResynthesis(
            RefreshAction::kFull,
            "ci verdict flipped for pair (" + std::to_string(x) + ", " +
                std::to_string(y) + ")");
        if (full.ok()) {
          full->drift = out.drift;
          full->ci_tests_rerun += out.ci_tests_rerun;
        }
        return full;
      }
    }
    GUARDRAIL_COUNTER_ADD("stream.resynth.ci_tests", out.ci_tests_rerun);
  }

  // Structure held: re-fill only the statements whose attribute footprint
  // intersects the drifted attributes; everything else replays its cached
  // fill byte-identically.
  out.action = RefreshAction::kIncremental;
  std::set<AttrIndex> moved(out.drift.drifted_attributes.begin(),
                            out.drift.drifted_attributes.end());
  std::set<core::StatementSketch> refilled;
  std::set<core::StatementSketch> dead;
  for (auto it = fill_cache_.begin(); it != fill_cache_.end();) {
    const core::StatementSketch& sketch = it->first;
    bool touched = moved.count(sketch.dependent) > 0;
    for (AttrIndex d : sketch.determinants) {
      if (touched) break;
      touched = moved.count(d) > 0;
    }
    if (!touched) {
      ++it;
      continue;
    }
    std::optional<core::Statement> fresh =
        core::FillStatementSketch(sketch, data_, options_.synthesis.fill);
    refilled.insert(sketch);
    if (fresh.has_value()) {
      it->second = std::move(*fresh);
      ++it;
    } else {
      // Fill reached Alg. 1's bottom: no epsilon-valid branch survives on
      // the drifted data, so the statement leaves the served program.
      dead.insert(sketch);
      it = fill_cache_.erase(it);
    }
  }

  core::Program ensemble;
  ensemble.statements.reserve(ensemble_order_.size());
  for (const core::StatementSketch& sketch : ensemble_order_) {
    auto it = fill_cache_.find(sketch);
    if (it == fill_cache_.end()) continue;
    ensemble.statements.push_back(it->second);
    if (refilled.count(sketch) > 0) {
      ++out.statements_refilled;
    } else {
      ++out.statements_reused;
    }
  }
  core::CanonicalizeProgramOrder(&ensemble);

  auto minimized = analysis::MinimizeProgram(
      ensemble, data_.schema(), options_.synthesis.minimize_options);
  if (!minimized.ok()) return minimized.status();
  Publish(minimized->program, minimized->certificate, &out);

  baseline_.Merge(window_);
  window_.Reset(data_.num_columns());

  out.reason = "localized drift: " +
               std::to_string(out.drift.drifted.size()) + " pairs, " +
               std::to_string(out.statements_refilled) +
               " statements refilled, " +
               std::to_string(out.statements_reused) + " reused" +
               (dead.empty() ? ""
                             : ", " + std::to_string(dead.size()) +
                                   " filled to bottom");
  out.seconds = SecondsSince(start);
  GUARDRAIL_COUNTER_INC("stream.resynth.incremental");
  return out;
}

}  // namespace stream
}  // namespace guardrail
