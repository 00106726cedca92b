#include <algorithm>
#include <string>
#include <vector>

#include "analysis/passes/passes.h"
#include "core/metrics.h"
#include "core/sketch.h"
#include "pgm/ci_test.h"
#include "pgm/encoded_data.h"

namespace guardrail {
namespace analysis {

namespace {

/// A statement participates in the G-squared audit only when every attribute
/// it names is a real column; out-of-range indexes were already reported by
/// pass 1 and would make the CI tests read out of bounds.
bool StatementIndexableOnData(const core::Statement& stmt, const Table& data) {
  auto in_range = [&](AttrIndex a) {
    return a >= 0 && a < data.num_columns();
  };
  if (!in_range(stmt.dependent)) return false;
  for (AttrIndex a : stmt.determinants) {
    if (!in_range(a)) return false;
  }
  return true;
}

/// Alg. 1's warranted conditions are *observed determinant-value
/// combinations*: every branch binds the full determinant set. A condition
/// that binds only a subset fires over a widened region the synthesis
/// procedure never warranted.
bool BindsFullDeterminantSet(const core::Statement& stmt,
                             const core::Branch& branch) {
  if (branch.condition.equalities.size() != stmt.determinants.size()) {
    return false;
  }
  std::vector<AttrIndex> dets = stmt.determinants;
  std::sort(dets.begin(), dets.end());
  for (size_t i = 0; i < dets.size(); ++i) {
    if (branch.condition.equalities[i].first != dets[i]) return false;
  }
  return true;
}

}  // namespace

void RunNonTrivialityPass(const PassContext& ctx, DiagnosticReport* report) {
  const core::Program& program = *ctx.program;
  const Schema& schema = *ctx.schema;
  const Table& data = *ctx.data;
  const AnalysisOptions& options = *ctx.options;

  // ---- Alg. 1 branch invariants: warranted conditions, epsilon-validity,
  // ---- support floor.
  for (size_t si = 0; si < program.statements.size(); ++si) {
    const core::Statement& stmt = program.statements[si];
    const int32_t stmt_index = static_cast<int32_t>(si);
    const std::string dep_name =
        stmt.dependent >= 0 && stmt.dependent < schema.num_attributes()
            ? schema.attribute(stmt.dependent).name()
            : std::string();

    const GroupedStatementStats* grouped = GroupedStats(ctx, si);
    for (size_t bi = 0; bi < stmt.branches.size(); ++bi) {
      const core::Branch& branch = stmt.branches[bi];
      const int32_t branch_index = static_cast<int32_t>(bi);

      if (!BindsFullDeterminantSet(stmt, branch)) {
        report->Add(
            {"GRL403", Severity::kWarning, stmt_index, branch_index, dep_name,
             "condition does not bind the full GIVEN set; Alg. 1's "
             "warranted conditions are complete determinant-value "
             "combinations, so this branch fires over an unwarranted "
             "region"});
      }

      if (!BranchIndexableOnData(branch, data)) continue;
      const core::BranchStats stats =
          grouped != nullptr ? grouped->branches[bi]
                             : core::ComputeBranchStats(branch, data);
      if (static_cast<double>(stats.loss) >
          static_cast<double>(stats.support) * options.epsilon) {
        report->Add(
            {"GRL404", Severity::kError, stmt_index, branch_index, dep_name,
             "branch is not epsilon-valid on the analyzed data (loss " +
                 std::to_string(stats.loss) + " > " +
                 std::to_string(options.epsilon) + " * support " +
                 std::to_string(stats.support) +
                 "); enforcing it would repair legitimate rows"});
      } else if (stats.support > 0 &&
                 stats.support < options.min_branch_support) {
        report->Add({"GRL405", Severity::kWarning, stmt_index, branch_index,
                     dep_name,
                     "branch support " + std::to_string(stats.support) +
                         " is below the synthesis floor of " +
                         std::to_string(options.min_branch_support) +
                         "; the branch may be a single-row coincidence"});
      }
    }
  }

  // ---- Empirical LNT/GNT of the statement set (Defs. 4.1-4.2), with the
  // ---- same G-squared machinery PC used. Synthesis learns structure on the
  // ---- auxiliary sample where the tests are well-powered; re-testing on the
  // ---- raw relation can be underpowered, and an underpowered (unreliable)
  // ---- verdict is NOT evidence of triviality — the linter only reports when
  // ---- every determinant shows *reliable* independence.
  if (!options.check_lnt_gnt) return;
  core::ProgramSketch sketch;
  std::vector<int32_t> sketch_to_statement;
  for (size_t si = 0; si < program.statements.size(); ++si) {
    const core::Statement& stmt = program.statements[si];
    if (!StatementIndexableOnData(stmt, data) || stmt.determinants.empty()) {
      continue;
    }
    core::StatementSketch s;
    s.determinants = stmt.determinants;
    std::sort(s.determinants.begin(), s.determinants.end());
    s.dependent = stmt.dependent;
    sketch.statements.push_back(std::move(s));
    sketch_to_statement.push_back(static_cast<int32_t>(si));
  }
  if (sketch.empty()) return;

  pgm::EncodedData encoded = pgm::EncodeIdentity(data);
  pgm::GSquareTest test(&encoded, options.ci);
  auto reliably_trivial = [&](const core::StatementSketch& s,
                              const std::vector<int32_t>& z) {
    for (AttrIndex det : s.determinants) {
      pgm::CiResult r = test.Test(s.dependent, det, z);
      if (!r.reliable || !r.independent) return false;
    }
    return true;
  };
  for (size_t k = 0; k < sketch.statements.size(); ++k) {
    const core::StatementSketch& s = sketch.statements[k];
    const int32_t stmt_index = sketch_to_statement[k];
    const std::string dep_name = schema.attribute(s.dependent).name();
    if (reliably_trivial(s, {})) {
      report->Add(
          {"GRL401", Severity::kWarning, stmt_index, -1, dep_name,
           "statement fails local non-triviality (Def. 4.1): '" + dep_name +
               "' shows no detectable dependence on its determinants"});
      continue;
    }
    // GNT (Def. 4.2 / Example 4.1): conditioning on another statement's
    // determinants must not reliably extinguish this statement's dependence.
    for (size_t j = 0; j < sketch.statements.size(); ++j) {
      if (j == k) continue;
      const core::StatementSketch& other = sketch.statements[j];
      std::vector<int32_t> z;
      for (AttrIndex a : other.determinants) {
        if (a != s.dependent &&
            std::find(s.determinants.begin(), s.determinants.end(), a) ==
                s.determinants.end()) {
          z.push_back(a);
        }
      }
      if (z.empty()) continue;
      if (reliably_trivial(s, z)) {
        report->Add(
            {"GRL402", Severity::kWarning, stmt_index, -1, dep_name,
             "statement fails global non-triviality (Def. 4.2): its "
             "dependence vanishes when conditioning on another statement's "
             "determinants (Example 4.1 redundancy)"});
        break;
      }
    }
  }
}

}  // namespace analysis
}  // namespace guardrail
