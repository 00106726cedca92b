#ifndef GUARDRAIL_STREAM_DRIFT_DETECTOR_H_
#define GUARDRAIL_STREAM_DRIFT_DETECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "pgm/ci_test.h"
#include "stream/stats_store.h"
#include "table/value.h"

namespace guardrail {
namespace stream {

/// Knobs for per-pair drift scoring (docs/STREAMING.md, "Drift detection").
struct DriftOptions {
  /// Two-sample G² significance level: a pair whose homogeneity p-value
  /// falls below this is drifted. Deliberately much stricter than the CI
  /// test's alpha — a refresh costs synthesis work, so only confident shifts
  /// should trigger one.
  double alpha = 1e-4;
  /// Additionally require at least this G² statistic, guarding against
  /// astronomically significant but practically tiny shifts on huge windows.
  double min_statistic = 0.0;
  /// A pair is scored only when the window counted at least this many rows
  /// for it; below that the test has no power and the pair reads as clean.
  int64_t min_pair_rows = 64;
  /// Window row count below which no refresh is attempted at all (the
  /// stream-level power floor; see IncrementalSynthesizer::Refresh).
  int64_t min_window_rows = 256;
  /// When at least this fraction of scorable pairs drifted, the shift is
  /// global: patching statements locally would chase a moving target, so
  /// the synthesizer falls back to full resynthesis.
  double global_fraction = 0.5;
};

/// A two-sample G² test of homogeneity: are a window's counts over K
/// categories drawn from the same distribution as a baseline's?
struct Homogeneity {
  double statistic = 0.0;
  /// Categories with support - 1; 0 when fewer than two categories have
  /// support or either sample is empty.
  double dof = 0.0;
  /// 1 when dof is 0.
  double p_value = 1.0;
};

/// Scores `cells`, the cell-major K x 2 table {baseline, window} (category
/// k's counts at 2k and 2k + 1), with pgm::G2FromCounts. The drift detector
/// scores pair cells and attribute marginals this way.
Homogeneity TestHomogeneity(const std::vector<int64_t>& cells,
                            pgm::G2Scratch* scratch);

/// One attribute pair's shift score: a two-sample G² test of homogeneity
/// between the frozen baseline contingency table and the current window's.
struct PairDrift {
  AttrIndex x = 0;
  AttrIndex y = 0;
  double statistic = 0.0;
  double dof = 0.0;
  double p_value = 1.0;
  bool drifted = false;
};

struct DriftReport {
  /// Every pair with enough window data to score, in (x, y) order.
  std::vector<PairDrift> pairs;
  /// The drifted subset, in (x, y) order.
  std::vector<std::pair<AttrIndex, AttrIndex>> drifted;
  /// The attributes blamed for the drifted pairs, ascending — the set whose
  /// statements need re-filling. Not the raw endpoint union: when exactly
  /// one endpoint of a drifted pair also shifted marginally, that endpoint
  /// alone is blamed (a moved marginal perturbs every joint it appears in,
  /// and blaming both sides would smear one drifted node across the whole
  /// schema; see Compare).
  std::vector<AttrIndex> drifted_attributes;
  double max_statistic = 0.0;
  double min_p_value = 1.0;
  /// drifted / scorable pairs (0 when nothing was scorable).
  double drifted_fraction = 0.0;
  bool global = false;

  bool any() const { return !drifted.empty(); }
};

/// Scores a window of fresh rows against a frozen baseline, pair by pair.
/// Stateless and cheap: the cost is proportional to the contingency-table
/// cells, never to the rows behind them.
class DriftDetector {
 public:
  explicit DriftDetector(DriftOptions options) : options_(options) {}

  /// Two-sample G² per pair: are the window's (x, y) counts drawn from the
  /// same joint distribution as the baseline's? Both stores must cover the
  /// same attributes.
  DriftReport Compare(const StatsStore& baseline,
                      const StatsStore& window) const;

  const DriftOptions& options() const { return options_; }

 private:
  DriftOptions options_;
};

}  // namespace stream
}  // namespace guardrail

#endif  // GUARDRAIL_STREAM_DRIFT_DETECTOR_H_
