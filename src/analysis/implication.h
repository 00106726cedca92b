#ifndef GUARDRAIL_ANALYSIS_IMPLICATION_H_
#define GUARDRAIL_ANALYSIS_IMPLICATION_H_

/// Whole-program implication engine: abstract interpretation of DSL programs
/// over partial-valuation regions. Where the pairwise passes (GRL2xx/3xx)
/// reason about one statement or one statement pair, this module asks what a
/// *program* forces: starting from a branch's condition region, which other
/// statements determinately fire, what values they pin, and what that closure
/// proves — statements implied by the rest of the program, branches whose
/// whole region is already flagged, and transitive cross-statement
/// contradictions no pairwise scan can see (zip→city ∧ city→state composing
/// against a conflicting zip→state).
///
/// Everything here is *sound but incomplete*: a claim of implication or
/// contradiction is a theorem about the DSL semantics (interpreter.h); a
/// failure to claim is merely "not provable by determinate-fire closure".
/// The certified minimizer (semantic.h) leans on soundness — it only drops
/// what the closure proves implied — and backstops it with a sampled
/// interpreter replay in the certificate.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ast.h"
#include "table/schema.h"

namespace guardrail {
namespace analysis {

/// A satisfiable row region: a sorted (by attribute, at most once each)
/// partial valuation. Rows "in" the region are exactly those matching every
/// binding; unbound attributes are free.
using Region = std::vector<std::pair<AttrIndex, ValueId>>;

/// Merges two sorted equality conjunctions. Returns false when they bind the
/// same attribute to different values (the joint region is empty); otherwise
/// fills `out` with the union of constraints.
bool MergeConditions(const core::Condition& a, const core::Condition& b,
                     Region* out);

/// True when `cond` holds everywhere in the (satisfiable) region: every
/// equality of `cond` is one of the region's bindings.
bool ConditionImpliedByRegion(const core::Condition& cond,
                              const Region& region);

/// True when no row of the region can match `cond`: some equality of `cond`
/// binds an attribute the region pins to a different value.
bool ConditionContradictsRegion(const core::Condition& cond,
                                const Region& region);

/// Whether an earlier branch of `stmt` preempts `branch_index` throughout
/// `region`: under first-match-wins the branch only fires on rows no earlier
/// branch matches, so if some earlier branch matches *everywhere* in the
/// region, this branch never fires there.
bool PreemptedInRegion(const core::Statement& stmt, size_t branch_index,
                       const Region& region);

/// First-match analysis of one statement against a region.
///   >= 0          — this branch fires on *every* row of the region (its
///                   condition is implied; all earlier ones are contradicted).
///   kNoBranch     — no branch can match any row of the region.
///   kUndetermined — which branch (if any) fires depends on unbound
///                   attributes; nothing is forced region-wide.
inline constexpr int kNoBranch = -1;
inline constexpr int kUndetermined = -2;
int DeterminateFireBranch(const core::Statement& stmt, const Region& region);

/// Result of closing a region under the determinate-fire consequences of a
/// statement subset.
struct ClosureResult {
  /// The seed region plus every forced dependent=assignment binding.
  Region region;
  /// The closure derived a=v while the region already pins a to a different
  /// value: no row of the *seed* region satisfies all active statements —
  /// every such row is flagged by at least one of them.
  bool contradiction = false;
  /// Statement whose forced assignment collided (valid when contradiction).
  size_t conflict_statement = 0;
  AttrIndex conflict_attribute = 0;
  /// Statements that determinately fired, in fire order. On contradiction the
  /// conflicting statement is included as the last entry.
  std::vector<size_t> fired;
  /// Fixpoint iteration (1-based) at which each fired statement fired; a
  /// statement firing at depth 1 needed only the seed region, deeper fires
  /// are transitive. Parallel to `fired`.
  std::vector<int> fire_depth;
};

/// Closes `seed` under every statement of `program` whose index has
/// active[i] != 0 (pass an empty vector for "all active"), except
/// `skip_statement` (pass program.statements.size() to skip none). Sound:
/// every row matching `seed` that satisfies all active statements also
/// matches every binding of the returned region; when `contradiction` is set
/// no such row exists at all.
ClosureResult ComputeClosure(Region seed, const core::Program& program,
                             const std::vector<char>& active,
                             size_t skip_statement);

/// Proof that statement `j` adds nothing to the active subset: dropping it
/// cannot change any row's verdict.
struct ImplicationProof {
  bool implied = false;
  /// Statements participating in some branch's proof, sorted and deduplicated.
  std::vector<size_t> impliers;
};

/// Statements grouped by `core::Statement::operator==` (advisory support and
/// tolerated values aside), hashed once so finding a statement's twins costs
/// its class size rather than a scan of the whole program.
class StatementTwins {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  explicit StatementTwins(const core::Program& program);

  /// The lowest index k != j with active[k] (an empty vector means all
  /// active) whose statement equals statement j, or kNone.
  size_t FirstActiveTwin(size_t j, const std::vector<char>& active) const;

 private:
  std::vector<size_t> class_of_;              // Per statement.
  std::vector<std::vector<size_t>> members_;  // Per class, ascending.
};

/// Sound implication test: true iff every row satisfying all active
/// statements (excluding `j`) provably satisfies statement `j` — i.e. for
/// every branch b of j, either b can never fire, or the closure of b's
/// condition region under the others forces b.target = b.assignment, or that
/// region is contradictory (already all-flagged). Rows where no branch of j
/// fires never violate j, so this per-branch obligation is exhaustive.
/// `twins` must be built over `program`.
ImplicationProof StatementImpliedBy(const core::Program& program, size_t j,
                                    const std::vector<char>& active,
                                    const StatementTwins& twins);

/// Per-attribute value sets mentioned by a program — the abstract domains the
/// lattice is built over. `assigned` holds every value some branch can write
/// to the attribute (its consequent domain); `tested` every value some
/// condition compares it against. Both sorted, deduplicated.
struct AttributeValueSets {
  std::vector<ValueId> assigned;
  std::vector<ValueId> tested;
};

/// Indexed by attribute; attributes the program never mentions have empty
/// sets. Sized to the widest attribute referenced, plus one.
std::vector<AttributeValueSets> ComputeProgramDomains(
    const core::Program& program);

/// The implication/subsumption structure of a whole program. `implied[j]`
/// holds iff statement j is provably implied by the *other* statements
/// (transitively: the closure engine composes chains, so zip→state implied
/// by zip→city ∧ city→state is an edge here even though no single statement
/// subsumes it). `duplicate_of[j]` names the first earlier statement equal
/// to j modulo advisory metadata (support / tolerated values), or
/// kNoDuplicate.
struct ImplicationLattice {
  static constexpr size_t kNoDuplicate = static_cast<size_t>(-1);
  std::vector<char> implied;
  std::vector<ImplicationProof> proofs;  // parallel to implied
  std::vector<size_t> duplicate_of;
};

ImplicationLattice BuildImplicationLattice(const core::Program& program);

}  // namespace analysis
}  // namespace guardrail

#endif  // GUARDRAIL_ANALYSIS_IMPLICATION_H_
