#ifndef GUARDRAIL_STREAM_INCREMENTAL_H_
#define GUARDRAIL_STREAM_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/sketch.h"
#include "core/synthesizer.h"
#include "pgm/ci_test.h"
#include "stream/drift_detector.h"
#include "stream/stats_store.h"
#include "table/table.h"

namespace guardrail {
namespace stream {

struct IncrementalOptions {
  /// The full pipeline configuration: used verbatim for the initial
  /// synthesis and every full-resynthesis fallback; `synthesis.fill` also
  /// drives the targeted statement refills.
  core::SynthesisOptions synthesis;
  DriftOptions drift;
  /// Marginal CI-test configuration for the verdict-flip check (raw-data
  /// identity space; see Refresh).
  pgm::GSquareTest::Options ci;
};

/// What a Refresh call did.
enum class RefreshAction {
  /// Refresh was not attempted (window below the power floor, or no
  /// baseline program exists yet).
  kNone,
  /// Drift was scored and came back clean: the served program is
  /// byte-identical and nothing is published.
  kNoop,
  /// Localized drift: only statements touching drifted attributes were
  /// re-filled; everything else replayed from the fill cache.
  kIncremental,
  /// Global drift, a CI-verdict flip, or an explicit force: the whole
  /// pipeline re-ran from scratch on the accumulated data.
  kFull,
};

const char* RefreshActionName(RefreshAction action);

struct RefreshResult {
  RefreshAction action = RefreshAction::kNone;
  DriftReport drift;
  /// Serialized program after the refresh (unchanged bytes on kNoop/kNone).
  std::string program_text;
  /// Companion minimization certificate ("" when minimization was skipped).
  std::string certificate_text;
  /// True when program_text differs from the previously served bytes — the
  /// caller should hot-publish through the registry iff this is set.
  bool published_changed = false;
  int64_t statements_refilled = 0;
  int64_t statements_reused = 0;
  int64_t ci_tests_rerun = 0;
  double seconds = 0.0;
  /// Human-readable explanation of the action taken.
  std::string reason;
};

/// The streaming synthesis core: accumulates ingested rows, keeps a frozen
/// baseline of sufficient statistics next to a fresh window, and on refresh
/// re-does only the work the drift report demands (docs/STREAMING.md).
///
/// Invariants:
///  - The window merges into the baseline only on a successful refresh
///    (incremental or full), never on a no-op — slow drift accumulates in
///    the window until it crosses the detection threshold instead of being
///    laundered into the baseline a sliver at a time.
///  - A no-op refresh leaves the served bytes untouched: statements are not
///    re-filled over the grown data, because supports (and hence bytes)
///    would shift without any distributional cause.
///  - Every published program re-enters through the same minimize + certify
///    gate as the initial synthesis; an incremental patch never bypasses
///    certification.
///
/// Not thread-safe; StreamService serializes access per dataset.
class IncrementalSynthesizer {
 public:
  explicit IncrementalSynthesizer(IncrementalOptions options);

  /// Translates a batch's labels into the accumulated schema (so
  /// independently coded batches merge correctly) and ingests the rows with
  /// IngestRows. The first non-empty batch seeds the schema.
  Status IngestTable(const Table& batch);

  /// Appends rows already dictionary-coded against schema() (the wire path:
  /// serve::DecodeRows resolves labels against mutable_schema() first).
  Status IngestRows(const std::vector<Row>& rows);

  /// Runs the initial full synthesis over everything ingested so far and
  /// freezes the baseline. Requires at least one ingested row.
  Result<RefreshResult> Bootstrap();

  /// Scores the window against the baseline and refreshes accordingly; see
  /// RefreshAction. `force_full` skips the drift gate and re-runs the whole
  /// pipeline (the manual-policy escape hatch).
  Result<RefreshResult> Refresh(bool force_full = false);

  bool bootstrapped() const { return bootstrapped_; }
  int64_t rows_ingested() const { return data_.num_rows(); }
  int64_t window_rows() const { return window_.num_rows(); }
  const std::string& program_text() const { return program_text_; }
  const std::string& certificate_text() const { return certificate_text_; }
  const Schema& schema() const { return data_.schema(); }
  /// Mutable schema for wire-side label decoding (serve::DecodeRows extends
  /// domains with an accepted batch's unseen labels, exactly like the
  /// offline CSV path; a rejected batch leaves them unchanged).
  Schema& mutable_schema() { return data_.mutable_schema(); }
  const Table& data() const { return data_; }
  const StatsStore& baseline() const { return baseline_; }
  const StatsStore& window() const { return window_; }

  /// The marginal G² test of every attribute pair (x < y, in lexicographic
  /// pair order) over all ingested rows, answered from the baseline merged
  /// with the window; each equals GSquareTest::Test(x, y, {}) scanning the
  /// accumulated rows, bit for bit (domain sizes drive the power heuristic).
  std::vector<pgm::CiResult> MarginalCiTests() const;

  /// Seeds the accumulated table's schema before the first ingest (so wire
  /// batches resolve against the serving schema's attribute order).
  void SeedSchema(const Schema& schema);

 private:
  /// Runs the full pipeline over data_, rebuilding the fill cache, the
  /// ensemble order, and the baseline CI verdicts.
  Result<RefreshResult> FullResynthesis(RefreshAction action,
                                        std::string reason);

  /// Serializes `program` into program_text_ and stores `certificate`, the
  /// minimization certificate proving it equivalent to the ensemble ("" when
  /// `program` is not a minimization).
  void Publish(const core::Program& program, const std::string& certificate,
               RefreshResult* out);

  IncrementalOptions options_;
  DriftDetector detector_;

  Table data_;
  StatsStore baseline_;
  StatsStore window_;
  bool bootstrapped_ = false;

  /// Ensemble statement headers in canonical order, duplicates included —
  /// the member-DAG union's shape, replayed on incremental refresh.
  std::vector<core::StatementSketch> ensemble_order_;
  /// Latest fill per sketch; entries for drifted attributes are re-filled,
  /// the rest replay byte-identically.
  std::map<core::StatementSketch, core::Statement> fill_cache_;
  /// Marginal independence verdicts per (x, y) pair (x < y, PairIndex
  /// order) captured at the last full resynthesis; a flip under drift
  /// escalates to full resynthesis because the learned structure itself is
  /// stale, not just the branch tables.
  std::vector<bool> baseline_ci_verdicts_;

  std::string program_text_;
  std::string certificate_text_;
};

}  // namespace stream
}  // namespace guardrail

#endif  // GUARDRAIL_STREAM_INCREMENTAL_H_
