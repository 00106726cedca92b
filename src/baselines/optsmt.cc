#include "baselines/optsmt.h"

#include <algorithm>
#include <vector>

#include "common/timer.h"
#include "core/sketch.h"
#include "core/sketch_filler.h"

namespace guardrail {
namespace baselines {

OptSmtSynthesizer::ReportedResult OptSmtSynthesizer::Synthesize(
    const Table& data) const {
  ReportedResult result;
  StopWatch watch;
  const int32_t n = data.num_columns();

  core::FillOptions fill;
  fill.epsilon = options_.epsilon;
  fill.min_branch_support = options_.min_branch_support;
  fill.max_conditions_per_statement = 1 << 30;  // Exact search: no cap.

  // For every dependent attribute, exhaustively search determinant subsets.
  for (AttrIndex dep = 0; dep < n && !result.timed_out; ++dep) {
    core::Statement best;
    double best_coverage = -1.0;

    // Enumerate subsets of the other attributes up to max_determinants via
    // an explicit combination walk per size.
    std::vector<AttrIndex> pool;
    for (AttrIndex a = 0; a < n; ++a) {
      if (a != dep) pool.push_back(a);
    }
    for (int32_t size = 1;
         size <= options_.max_determinants &&
         size <= static_cast<int32_t>(pool.size()) && !result.timed_out;
         ++size) {
      std::vector<int32_t> idx(static_cast<size_t>(size));
      for (int32_t i = 0; i < size; ++i) idx[static_cast<size_t>(i)] = i;
      while (true) {
        if (watch.ElapsedSeconds() > options_.time_budget_seconds ||
            result.clauses_generated > options_.max_clauses ||
            options_.cancel.Cancelled()) {
          result.timed_out = true;
          break;
        }
        core::StatementSketch sketch;
        sketch.dependent = dep;
        for (int32_t i : idx) {
          sketch.determinants.push_back(pool[static_cast<size_t>(i)]);
        }
        ++result.candidates_explored;

        // Clause accounting for the equivalent OptSMT encoding: every row
        // contributes one soft clause per candidate hole assignment of the
        // branch its determinant combination selects.
        result.clauses_generated +=
            data.num_rows() *
            static_cast<int64_t>(
                data.schema().attribute(dep).domain_size());

        // Unbounded fill (the budget is polled per candidate above); the
        // filler counts the statement's coverage in its own scan.
        Result<std::optional<core::FilledStatement>> filled =
            core::FillStatementSketch(sketch, data, fill,
                                      CancellationToken::Never());
        if (filled->has_value() && (*filled)->coverage > best_coverage) {
          best_coverage = (*filled)->coverage;
          best = std::move((*filled)->statement);
        }

        // Next combination.
        int32_t i = size - 1;
        int32_t limit = static_cast<int32_t>(pool.size());
        while (i >= 0 && idx[static_cast<size_t>(i)] == limit - size + i) --i;
        if (i < 0) break;
        ++idx[static_cast<size_t>(i)];
        for (int32_t j = i + 1; j < size; ++j) {
          idx[static_cast<size_t>(j)] = idx[static_cast<size_t>(j - 1)] + 1;
        }
      }
    }
    if (best_coverage > 0.0) {
      result.program.statements.push_back(std::move(best));
    }
  }
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace baselines
}  // namespace guardrail
