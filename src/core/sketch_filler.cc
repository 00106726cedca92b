#include "core/sketch_filler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"

namespace guardrail {
namespace core {

namespace {

/// Per-condition accumulator: the dependent-value histogram of the rows
/// matching one determinant combination.
struct ConditionGroup {
  std::vector<ValueId> determinant_values;  // Aligned with the determinants.
  std::unordered_map<ValueId, int64_t> dependent_histogram;
  /// Rows with a non-NULL dependent (the branch's support).
  int64_t support = 0;
  /// Every row matching the combination, NULL dependents included — the
  /// rows BranchCoverage counts.
  int64_t matched = 0;
};

/// Rows per scan shard. The shard count is a pure function of the row count
/// (never of the thread count), so the shard-merge order — and with it the
/// grouped result — is identical whether 1 or 16 threads execute the scan.
constexpr int64_t kFillShardRows = 8192;

/// Groups rows [begin, end) by their determinant combination into `groups`.
/// Key material (radices / FNV overflow fallback) is precomputed by the
/// caller and shared read-only across shards.
Status ScanRowsIntoGroups(const StatementSketch& sketch, const Table& data,
                          const std::vector<uint64_t>& radices, bool overflow,
                          int64_t begin, int64_t end,
                          const CancellationToken& cancel,
                          std::unordered_map<uint64_t, ConditionGroup>* groups) {
  DeadlineChecker deadline(&cancel, /*stride=*/1024);
  std::vector<ValueId> combo(sketch.determinants.size());
  for (RowIndex r = begin; r < end; ++r) {
    GUARDRAIL_RETURN_NOT_OK(deadline.Check("sketch fill"));
    bool has_null = false;
    uint64_t key = overflow ? kFnvShortOffset : 0;
    for (size_t i = 0; i < sketch.determinants.size(); ++i) {
      ValueId v = data.Get(r, sketch.determinants[i]);
      if (v == kNullValue) {
        has_null = true;
        break;
      }
      combo[i] = v;
      if (overflow) {
        key = FnvMix(key, static_cast<uint64_t>(v + 1));
      } else {
        key = key * radices[i] + static_cast<uint64_t>(v);
      }
    }
    if (has_null) continue;
    ConditionGroup& group = (*groups)[key];
    if (group.matched == 0) group.determinant_values = combo;
    ++group.matched;
    ValueId dep = data.Get(r, sketch.dependent);
    if (dep == kNullValue) continue;
    ++group.dependent_histogram[dep];
    ++group.support;
  }
  return Status::OK();
}

}  // namespace

std::optional<Statement> FillStatementSketch(const StatementSketch& sketch,
                                             const Table& data,
                                             const FillOptions& options) {
  Result<std::optional<FilledStatement>> filled =
      FillStatementSketch(sketch, data, options, CancellationToken::Never());
  // Infallible with an infinite budget.
  if (!filled->has_value()) return std::optional<Statement>();
  return std::optional<Statement>(std::move((*filled)->statement));
}

Result<std::optional<FilledStatement>> FillStatementSketch(
    const StatementSketch& sketch, const Table& data,
    const FillOptions& options, const CancellationToken& cancel) {
  GUARDRAIL_CHECK(!sketch.determinants.empty());
  // One pass over the data groups rows by their determinant combination —
  // this materializes exactly the warranted conditions comb(det) of
  // Alg. 1 line 11 (the Cartesian product restricted to observed support).
  std::vector<uint64_t> radices;
  radices.reserve(sketch.determinants.size());
  bool overflow = false;
  uint64_t space = 1;
  for (AttrIndex a : sketch.determinants) {
    uint64_t card = static_cast<uint64_t>(
        std::max(1, data.schema().attribute(a).domain_size()));
    radices.push_back(card);
    if (space > (1ULL << 62) / card) overflow = true;
    space *= card;
  }

  const int64_t num_rows = data.num_rows();
  const int64_t num_shards =
      std::max<int64_t>(1, (num_rows + kFillShardRows - 1) / kFillShardRows);
  std::unordered_map<uint64_t, ConditionGroup> groups;
  const int parallelism = ResolveThreads(options.num_threads);
  if (num_shards == 1 || parallelism <= 1) {
    GUARDRAIL_RETURN_NOT_OK(ScanRowsIntoGroups(
        sketch, data, radices, overflow, 0, num_rows, cancel, &groups));
  } else {
    // Sharded scan: each fixed row range groups into its own map, then the
    // maps merge serially in shard order. Counts add commutatively, so the
    // merged groups match the single-pass scan exactly.
    std::vector<std::unordered_map<uint64_t, ConditionGroup>> shard_groups(
        static_cast<size_t>(num_shards));
    std::vector<Status> shard_status(static_cast<size_t>(num_shards),
                                     Status::OK());
    ParallelForOptions pf;
    pf.max_parallelism = parallelism;
    pf.cancel = &cancel;
    Status pf_status = ParallelFor(
        &ThreadPool::Shared(), num_shards,
        [&](int64_t s) {
          int64_t begin = s * kFillShardRows;
          int64_t end = std::min(begin + kFillShardRows, num_rows);
          shard_status[static_cast<size_t>(s)] = ScanRowsIntoGroups(
              sketch, data, radices, overflow, begin, end, cancel,
              &shard_groups[static_cast<size_t>(s)]);
        },
        pf);
    GUARDRAIL_RETURN_NOT_OK(pf_status);
    for (const Status& status : shard_status) {
      GUARDRAIL_RETURN_NOT_OK(status);
    }
    for (auto& shard : shard_groups) {
      for (auto& [key, src] : shard) {
        ConditionGroup& dst = groups[key];
        if (dst.matched == 0) {
          dst = std::move(src);
          continue;
        }
        for (const auto& [value, count] : src.dependent_histogram) {
          dst.dependent_histogram[value] += count;
        }
        dst.support += src.support;
        dst.matched += src.matched;
      }
    }
  }

  // Order groups by descending support so the cap keeps the highest-impact
  // conditions (ties by determinant values for determinism). Combinations
  // seen only with a NULL dependent warrant no condition.
  std::vector<const ConditionGroup*> ordered;
  ordered.reserve(groups.size());
  for (const auto& [key, group] : groups) {
    if (group.support > 0) ordered.push_back(&group);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const ConditionGroup* a, const ConditionGroup* b) {
              if (a->support != b->support) return a->support > b->support;
              return a->determinant_values < b->determinant_values;
            });
  if (static_cast<int64_t>(ordered.size()) >
      options.max_conditions_per_statement) {
    ordered.resize(static_cast<size_t>(options.max_conditions_per_statement));
  }

  FilledStatement filled;
  Statement& stmt = filled.statement;
  stmt.determinants = sketch.determinants;
  stmt.dependent = sketch.dependent;
  for (const ConditionGroup* group : ordered) {
    if (group->support < options.min_branch_support) continue;
    // arg-min-loss literal == the mode of the dependent histogram
    // (Alg. 1 line 14). Ties broken toward the smaller code for determinism.
    ValueId best_value = kNullValue;
    int64_t best_count = -1;
    for (const auto& [value, count] : group->dependent_histogram) {
      if (count > best_count ||
          (count == best_count && value < best_value)) {
        best_value = value;
        best_count = count;
      }
    }
    int64_t loss = group->support - best_count;
    // Epsilon-validity check (Alg. 1 line 15).
    if (static_cast<double>(loss) >
        static_cast<double>(group->support) * options.epsilon) {
      continue;
    }
    Branch branch;
    branch.target = sketch.dependent;
    branch.assignment = best_value;
    branch.support = group->support;
    for (const auto& [value, count] : group->dependent_histogram) {
      branch.tolerated_values.push_back(value);
    }
    std::sort(branch.tolerated_values.begin(), branch.tolerated_values.end());
    for (size_t i = 0; i < sketch.determinants.size(); ++i) {
      branch.condition.equalities.emplace_back(sketch.determinants[i],
                                               group->determinant_values[i]);
    }
    std::sort(branch.condition.equalities.begin(),
              branch.condition.equalities.end());
    stmt.branches.push_back(std::move(branch));
    // BranchCoverage's division, summed in branch order as
    // StatementCoverage sums it.
    filled.coverage += static_cast<double>(group->matched) /
                       static_cast<double>(num_rows);
  }

  if (stmt.branches.empty()) {
    GUARDRAIL_COUNTER_INC("sketch_filler.statements_bottom");
    return std::optional<FilledStatement>();
  }
  GUARDRAIL_COUNTER_INC("sketch_filler.statements_filled");
  return std::optional<FilledStatement>(std::move(filled));
}

Program FillProgramSketch(const ProgramSketch& sketch, const Table& data,
                          const FillOptions& options) {
  Program program;
  for (const auto& stmt_sketch : sketch.statements) {
    std::optional<Statement> stmt =
        FillStatementSketch(stmt_sketch, data, options);
    if (stmt.has_value()) program.statements.push_back(std::move(*stmt));
  }
  return program;
}

}  // namespace core
}  // namespace guardrail
