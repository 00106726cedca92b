#include <string>
#include <vector>

#include "analysis/passes/passes.h"
#include "core/metrics.h"

namespace guardrail {
namespace analysis {

namespace {

/// True when every equality of `sub` appears in `super` (both sorted by
/// attribute, the AST invariant). An earlier branch whose condition is a
/// subset of a later branch's condition matches every row the later one
/// does, so the later branch is dead under first-match-wins.
bool ConditionSubset(const core::Condition& sub, const core::Condition& super) {
  size_t j = 0;
  for (const auto& eq : sub.equalities) {
    while (j < super.equalities.size() && super.equalities[j].first < eq.first) {
      ++j;
    }
    if (j >= super.equalities.size() || super.equalities[j] != eq) return false;
    ++j;
  }
  return true;
}

/// Self-conflict: the same attribute constrained to two different values.
/// Constructible only through corruption (Condition keeps attributes unique),
/// which is exactly what the analyzer exists to catch.
bool SelfConflicting(const core::Condition& condition) {
  for (size_t i = 1; i < condition.equalities.size(); ++i) {
    if (condition.equalities[i].first == condition.equalities[i - 1].first &&
        condition.equalities[i].second != condition.equalities[i - 1].second) {
      return true;
    }
  }
  return false;
}

/// When every branch condition binds the same attributes (every
/// synthesized statement binds its full determinant set), one condition is
/// a subset of another only when they are equal. Then entry b is the first
/// branch whose condition equals branch b's, found by hash; the result is
/// empty for any other statement, which takes the pairwise scan.
std::vector<size_t> FirstEqualCondition(const core::Statement& stmt) {
  if (stmt.branches.empty()) return {};
  const auto& shape = stmt.branches[0].condition.equalities;
  for (size_t i = 1; i < shape.size(); ++i) {
    if (shape[i].first <= shape[i - 1].first) return {};
  }
  for (const core::Branch& branch : stmt.branches) {
    const auto& eqs = branch.condition.equalities;
    if (eqs.size() != shape.size()) return {};
    for (size_t i = 0; i < eqs.size(); ++i) {
      if (eqs[i].first != shape[i].first) return {};
    }
  }
  CodeKeyIndex index(shape.size());
  std::vector<size_t> first_with_key;
  std::vector<size_t> first;
  std::vector<ValueId> key(shape.size());
  for (size_t b = 0; b < stmt.branches.size(); ++b) {
    const auto& eqs = stmt.branches[b].condition.equalities;
    for (size_t i = 0; i < eqs.size(); ++i) key[i] = eqs[i].second;
    const uint32_t id = index.FindOrInsert(key.data());
    if (id == first_with_key.size()) first_with_key.push_back(b);
    first.push_back(first_with_key[id]);
  }
  return first;
}

}  // namespace

void RunSatisfiabilityPass(const PassContext& ctx, DiagnosticReport* report) {
  const core::Program& program = *ctx.program;
  const Schema& schema = *ctx.schema;

  for (size_t si = 0; si < program.statements.size(); ++si) {
    const core::Statement& stmt = program.statements[si];
    const int32_t stmt_index = static_cast<int32_t>(si);
    const std::string dep_name =
        stmt.dependent >= 0 && stmt.dependent < schema.num_attributes()
            ? schema.attribute(stmt.dependent).name()
            : std::string();
    const GroupedStatementStats* grouped = GroupedStats(ctx, si);
    const std::vector<size_t> first_equal = FirstEqualCondition(stmt);

    for (size_t bi = 0; bi < stmt.branches.size(); ++bi) {
      const core::Branch& branch = stmt.branches[bi];
      const int32_t branch_index = static_cast<int32_t>(bi);

      if (SelfConflicting(branch.condition)) {
        report->Add({"GRL201", Severity::kError, stmt_index, branch_index,
                     dep_name,
                     "condition constrains one attribute to two different "
                     "values; no row can satisfy it"});
        continue;  // Shadowing/support of an unsatisfiable branch is moot.
      }

      // First-match-wins: an earlier branch with a subset condition fires on
      // every row this branch would, so this branch is unreachable. One
      // witness, the first, is enough.
      size_t ei = bi;
      if (!first_equal.empty()) {
        ei = first_equal[bi];
      } else {
        for (ei = 0; ei < bi; ++ei) {
          const core::Branch& earlier = stmt.branches[ei];
          if (!SelfConflicting(earlier.condition) &&
              ConditionSubset(earlier.condition, branch.condition)) {
            break;
          }
        }
      }
      if (ei < bi) {
        const core::Branch& earlier = stmt.branches[ei];
        const bool identical = earlier.condition == branch.condition;
        const bool same_effect = earlier.assignment == branch.assignment;
        report->Add(
            {identical ? "GRL203" : "GRL202", Severity::kWarning, stmt_index,
             branch_index, dep_name,
             std::string(identical ? "duplicate condition: " : "shadowed: ") +
                 "branch " + std::to_string(ei) +
                 (identical ? " has the identical condition"
                            : "'s more general condition matches first") +
                 (same_effect ? " (same assignment; dead but harmless)"
                              : " with a different assignment; this branch "
                                "never fires")});
      }

      if (ctx.data != nullptr && BranchIndexableOnData(branch, *ctx.data)) {
        const int64_t support =
            grouped != nullptr
                ? grouped->branches[bi].support
                : core::ComputeBranchStats(branch, *ctx.data).support;
        if (support == 0) {
          report->Add({"GRL204", Severity::kWarning, stmt_index, branch_index,
                       dep_name,
                       "no observed row satisfies this branch's condition "
                       "(support 0); the branch is unexercisable on the "
                       "analyzed data"});
        }
      }
    }
  }
}

}  // namespace analysis
}  // namespace guardrail
