#ifndef GUARDRAIL_ANALYSIS_PASSES_PASSES_H_
#define GUARDRAIL_ANALYSIS_PASSES_PASSES_H_

/// Internal pass interface of the static analyzer. Each pass is a free
/// function appending findings to the report; the checker owns ordering,
/// telemetry, and the final sort. To add a pass: implement it here (one file
/// under passes/), give its diagnostics a fresh GRLxxx range, register it in
/// checker.cc, and document it in docs/ANALYSIS.md.

#include <cstdint>
#include <vector>

#include "analysis/checker.h"
#include "analysis/diagnostics.h"
#include "core/ast.h"
#include "core/metrics.h"
#include "table/schema.h"
#include "table/table.h"

namespace guardrail {
namespace analysis {

/// One statement's data statistics from a single hashed scan of the rows,
/// keyed on its determinant codes in header order. Built only when every
/// branch binds exactly the determinant set (duplicate-free, all columns of
/// the data) and targets a column — true of every synthesized statement —
/// so a branch matches a row iff their keys are equal. Independent of the
/// filler's counts: the audit exists to check the filler.
struct GroupedStatementStats {
  /// False: the statement did not qualify and the passes scan per branch.
  bool grouped = false;
  /// Per branch, the numbers core::ComputeBranchStats counts.
  std::vector<core::BranchStats> branches;
  /// Determinant combinations, `determinants.size()` codes each, flat: every
  /// observed one plus every one a branch binds.
  std::vector<ValueId> keys;
  /// Per combination: rows carrying it, and whether some branch binds it.
  std::vector<int64_t> support;
  std::vector<char> covered;
};

/// One GroupedStatementStats per statement of `program`, in order.
std::vector<GroupedStatementStats> ComputeGroupedStats(
    const core::Program& program, const Table& data);

/// Everything a pass may look at. `data` is null for schema-only analysis;
/// data-dependent passes are not invoked without it. `grouped`, when set,
/// holds one entry per statement; the data passes read a grouped entry's
/// numbers and scan per branch (the oracle) for any other statement.
struct PassContext {
  const core::Program* program = nullptr;
  const Schema* schema = nullptr;
  const Table* data = nullptr;
  const AnalysisOptions* options = nullptr;
  const std::vector<GroupedStatementStats>* grouped = nullptr;
};

/// The statement's grouped numbers, or null when it must be scanned per
/// branch.
inline const GroupedStatementStats* GroupedStats(const PassContext& ctx,
                                                 size_t statement) {
  if (ctx.grouped == nullptr) return nullptr;
  const GroupedStatementStats& stats = (*ctx.grouped)[statement];
  return stats.grouped ? &stats : nullptr;
}

/// Exact hash index over fixed-width code tuples: each distinct key gets
/// the next dense id, in first-seen order.
class CodeKeyIndex {
 public:
  explicit CodeKeyIndex(size_t width);
  /// Id of the `width` codes at `key`, inserting them when new.
  uint32_t FindOrInsert(const ValueId* key);
  uint32_t size() const { return size_; }
  /// Key of id i at [i * width, (i + 1) * width).
  const std::vector<ValueId>& keys() const { return keys_; }

 private:
  void Grow();

  size_t width_;
  uint32_t size_ = 0;
  std::vector<ValueId> keys_;
  std::vector<uint32_t> slots_;
};

/// True when every attribute the branch references exists as a column of
/// `data`. Data-dependent passes must check this before computing branch
/// statistics: Table::Get is unchecked, and the analyzer's whole job is to
/// survive corrupted programs (pass 1 reports the bad index separately).
inline bool BranchIndexableOnData(const core::Branch& branch,
                                  const Table& data) {
  auto in_range = [&](AttrIndex a) {
    return a >= 0 && a < data.num_columns();
  };
  if (!in_range(branch.target)) return false;
  for (const auto& [attr, value] : branch.condition.equalities) {
    (void)value;
    if (!in_range(attr)) return false;
  }
  return true;
}

/// Pass 1 (GRL1xx): structural validity and type/domain checking. Every
/// attribute index in range, every literal inside its attribute's domain and
/// type-consistent with the column, conditions sorted and confined to the
/// GIVEN clause. When this pass reports errors the later passes still run —
/// they index-check defensively — but their findings on a broken program are
/// best-effort.
void RunTypeDomainPass(const PassContext& ctx, DiagnosticReport* report);

/// Pass 2 (GRL2xx): satisfiability and dead branches. Conflicting
/// equalities, duplicate conditions, branches shadowed by an earlier
/// more-general branch, and (with data) branches no observed row can fire.
void RunSatisfiabilityPass(const PassContext& ctx, DiagnosticReport* report);

/// Pass 3 (GRL3xx): intra-program contradictions. Two statements that force
/// conflicting values on the same attribute for a jointly satisfiable row
/// region — such rows violate at least one statement no matter their value.
void RunContradictionPass(const PassContext& ctx, DiagnosticReport* report);

/// Pass 4 (GRL4xx, needs data): non-triviality audit. Empirical LNT/GNT of
/// the statement set (Defs. 4.1-4.2) plus the Alg. 1 branch invariants:
/// warranted conditions bind the full determinant set, branches are
/// epsilon-valid and sufficiently supported.
void RunNonTrivialityPass(const PassContext& ctx, DiagnosticReport* report);

/// Pass 5 (GRL5xx, needs data): coverage holes. Observed determinant-value
/// combinations no branch covers, annotated with the enforcement scheme that
/// makes the hole dangerous.
void RunCoveragePass(const PassContext& ctx, DiagnosticReport* report);

/// Pass 6 (GRL6xx/GRL7xx): whole-program implication analysis. Statements
/// the rest of the program provably implies (GRL601), exact duplicates
/// (GRL602), branches whose whole region the program already condemns
/// (GRL701), and transitive cross-statement contradictions beyond GRL301's
/// pairwise scan (GRL702). Implemented in analysis/semantic.cc over the
/// closure engine of analysis/implication.h.
void RunSemanticPass(const PassContext& ctx, DiagnosticReport* report);

}  // namespace analysis
}  // namespace guardrail

#endif  // GUARDRAIL_ANALYSIS_PASSES_PASSES_H_
