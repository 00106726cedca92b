#include "stream/drift_detector.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace stream {

Homogeneity TestHomogeneity(const std::vector<int64_t>& cells,
                            pgm::G2Scratch* scratch) {
  Homogeneity out;
  const int32_t categories = static_cast<int32_t>(cells.size() / 2);
  int64_t total = 0;
  for (int64_t c : cells) total += c;
  pgm::G2FromCounts(cells.data(), total, categories, 2, scratch,
                    &out.statistic, &out.dof);
  if (out.dof > 0.0) out.p_value = ChiSquareSurvival(out.statistic, out.dof);
  return out;
}

DriftReport DriftDetector::Compare(const StatsStore& baseline,
                                   const StatsStore& window) const {
  GUARDRAIL_CHECK_EQ(baseline.num_attributes(), window.num_attributes());
  DriftReport report;
  const int32_t n = baseline.num_attributes();
  int64_t scorable = 0;
  std::vector<bool> attr_drifted(static_cast<size_t>(n), false);

  // Marginal blame: a shifted attribute changes the *joint* counts of every
  // pair it appears in, so raw endpoint union would smear one drifted node
  // across the whole schema. When exactly one endpoint of a drifted pair
  // moved marginally, that endpoint alone takes the blame; pairs where both
  // or neither moved keep both endpoints (a conditional can shift without
  // moving either marginal).
  pgm::G2Scratch scratch;
  std::vector<int64_t> cells;  // Cell-major K x 2 {baseline, window}.
  std::vector<bool> marginal_moved(static_cast<size_t>(n), false);
  for (AttrIndex a = 0; a < n; ++a) {
    const std::vector<int64_t>& base = baseline.marginal(a);
    const std::vector<int64_t>& win = window.marginal(a);
    cells.assign(2 * std::max(base.size(), win.size()), 0);
    for (size_t v = 0; v < base.size(); ++v) cells[2 * v] = base[v];
    for (size_t v = 0; v < win.size(); ++v) cells[2 * v + 1] = win[v];
    marginal_moved[static_cast<size_t>(a)] =
        TestHomogeneity(cells, &scratch).p_value < options_.alpha;
  }
  for (AttrIndex x = 0; x < n; ++x) {
    for (AttrIndex y = x + 1; y < n; ++y) {
      const StatsStore::PairTable& win = window.pair(x, y);
      if (win.total < options_.min_pair_rows) continue;
      const StatsStore::PairTable& base = baseline.pair(x, y);
      const int32_t cx = std::max(base.card_x, win.card_x);
      const int32_t cy = std::max(base.card_y, win.card_y);
      cells.resize(2 * static_cast<size_t>(cx) * static_cast<size_t>(cy));
      size_t k = 0;
      for (int32_t vx = 0; vx < cx; ++vx) {
        for (int32_t vy = 0; vy < cy; ++vy) {
          cells[k++] = base.Count(vx, vy);
          cells[k++] = win.Count(vx, vy);
        }
      }
      const Homogeneity score = TestHomogeneity(cells, &scratch);
      if (score.dof <= 0.0) continue;
      PairDrift drift;
      drift.x = x;
      drift.y = y;
      drift.statistic = score.statistic;
      drift.dof = score.dof;
      drift.p_value = score.p_value;
      ++scorable;
      drift.drifted = drift.p_value < options_.alpha &&
                      drift.statistic >= options_.min_statistic;
      report.max_statistic = std::max(report.max_statistic, drift.statistic);
      report.min_p_value = std::min(report.min_p_value, drift.p_value);
      if (drift.drifted) {
        report.drifted.emplace_back(x, y);
        const bool x_moved = marginal_moved[static_cast<size_t>(x)];
        const bool y_moved = marginal_moved[static_cast<size_t>(y)];
        if (x_moved == y_moved) {
          attr_drifted[static_cast<size_t>(x)] = true;
          attr_drifted[static_cast<size_t>(y)] = true;
        } else if (x_moved) {
          attr_drifted[static_cast<size_t>(x)] = true;
        } else {
          attr_drifted[static_cast<size_t>(y)] = true;
        }
      }
      report.pairs.push_back(drift);
    }
  }
  for (AttrIndex a = 0; a < n; ++a) {
    if (attr_drifted[static_cast<size_t>(a)]) {
      report.drifted_attributes.push_back(a);
    }
  }
  if (scorable > 0) {
    report.drifted_fraction = static_cast<double>(report.drifted.size()) /
                              static_cast<double>(scorable);
  }
  report.global = scorable > 0 &&
                  report.drifted_fraction >= options_.global_fraction;
  GUARDRAIL_HISTOGRAM_RECORD("stream.drift.score",
                             static_cast<int64_t>(report.max_statistic));
  GUARDRAIL_COUNTER_ADD("stream.drift.pairs_scored", scorable);
  GUARDRAIL_COUNTER_ADD("stream.drift.pairs_drifted",
                        static_cast<int64_t>(report.drifted.size()));
  return report;
}

}  // namespace stream
}  // namespace guardrail
