#include "analysis/implication.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/hash.h"

namespace guardrail {
namespace analysis {

bool MergeConditions(const core::Condition& a, const core::Condition& b,
                     Region* out) {
  out->clear();
  size_t i = 0;
  size_t j = 0;
  while (i < a.equalities.size() && j < b.equalities.size()) {
    const auto& ea = a.equalities[i];
    const auto& eb = b.equalities[j];
    if (ea.first < eb.first) {
      out->push_back(ea);
      ++i;
    } else if (eb.first < ea.first) {
      out->push_back(eb);
      ++j;
    } else {
      if (ea.second != eb.second) return false;
      out->push_back(ea);
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.equalities.begin() + static_cast<long>(i),
              a.equalities.end());
  out->insert(out->end(), b.equalities.begin() + static_cast<long>(j),
              b.equalities.end());
  return true;
}

bool ConditionImpliedByRegion(const core::Condition& cond,
                              const Region& region) {
  size_t j = 0;
  for (const auto& eq : cond.equalities) {
    while (j < region.size() && region[j].first < eq.first) ++j;
    if (j >= region.size() || region[j] != eq) return false;
    ++j;
  }
  return true;
}

bool ConditionContradictsRegion(const core::Condition& cond,
                                const Region& region) {
  size_t j = 0;
  for (const auto& eq : cond.equalities) {
    while (j < region.size() && region[j].first < eq.first) ++j;
    if (j < region.size() && region[j].first == eq.first &&
        region[j].second != eq.second) {
      return true;
    }
  }
  return false;
}

bool PreemptedInRegion(const core::Statement& stmt, size_t branch_index,
                       const Region& region) {
  for (size_t e = 0; e < branch_index; ++e) {
    if (ConditionImpliedByRegion(stmt.branches[e].condition, region)) {
      return true;
    }
  }
  return false;
}

int DeterminateFireBranch(const core::Statement& stmt, const Region& region) {
  for (size_t b = 0; b < stmt.branches.size(); ++b) {
    const core::Condition& cond = stmt.branches[b].condition;
    if (ConditionImpliedByRegion(cond, region)) return static_cast<int>(b);
    if (!ConditionContradictsRegion(cond, region)) return kUndetermined;
  }
  return kNoBranch;
}

namespace {

/// Binding of `attr` in the sorted region, or nullptr.
const std::pair<AttrIndex, ValueId>* FindBinding(const Region& region,
                                                 AttrIndex attr) {
  auto it = std::lower_bound(
      region.begin(), region.end(), attr,
      [](const std::pair<AttrIndex, ValueId>& e, AttrIndex a) {
        return e.first < a;
      });
  if (it == region.end() || it->first != attr) return nullptr;
  return &*it;
}

void InsertBinding(Region* region, AttrIndex attr, ValueId value) {
  auto it = std::lower_bound(
      region->begin(), region->end(), attr,
      [](const std::pair<AttrIndex, ValueId>& e, AttrIndex a) {
        return e.first < a;
      });
  region->insert(it, {attr, value});
}

}  // namespace

ClosureResult ComputeClosure(Region seed, const core::Program& program,
                             const std::vector<char>& active,
                             size_t skip_statement) {
  ClosureResult out;
  out.region = std::move(seed);
  const size_t n = program.statements.size();
  // kNoBranch and a determinate fire are both monotone under region growth
  // (bindings are only added, never removed), so each statement is visited
  // until it resolves one way and then retired; only kUndetermined re-polls.
  std::vector<char> resolved(n, 0);
  int depth = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    ++depth;
    for (size_t i = 0; i < n; ++i) {
      if (resolved[i] || i == skip_statement) continue;
      if (!active.empty() && !active[i]) continue;
      const core::Statement& stmt = program.statements[i];
      const int fire = DeterminateFireBranch(stmt, out.region);
      if (fire == kUndetermined) continue;
      resolved[i] = 1;
      if (fire == kNoBranch) continue;
      const core::Branch& branch =
          stmt.branches[static_cast<size_t>(fire)];
      out.fired.push_back(i);
      out.fire_depth.push_back(depth);
      const auto* bound = FindBinding(out.region, branch.target);
      if (bound == nullptr) {
        InsertBinding(&out.region, branch.target, branch.assignment);
        changed = true;
      } else if (bound->second != branch.assignment) {
        out.contradiction = true;
        out.conflict_statement = i;
        out.conflict_attribute = branch.target;
        return out;
      }
      // Binding already present with the same value: the fire confirms it
      // and the statement retires without growing the region.
    }
  }
  return out;
}

namespace {

/// FNV-1a over exactly the fields `core::Statement::operator==` compares.
uint64_t StructureHash(const core::Statement& stmt) {
  uint64_t h = kFnvOffset;
  auto mix = [&h](int64_t v) { h = FnvMix(h, static_cast<uint64_t>(v)); };
  mix(stmt.dependent);
  mix(static_cast<int64_t>(stmt.determinants.size()));
  for (AttrIndex a : stmt.determinants) mix(a);
  mix(static_cast<int64_t>(stmt.branches.size()));
  for (const core::Branch& branch : stmt.branches) {
    mix(static_cast<int64_t>(branch.condition.equalities.size()));
    for (const auto& [attr, value] : branch.condition.equalities) {
      mix(attr);
      mix(value);
    }
    mix(branch.target);
    mix(branch.assignment);
  }
  return h;
}

}  // namespace

StatementTwins::StatementTwins(const core::Program& program) {
  const size_t n = program.statements.size();
  class_of_.resize(n);
  std::unordered_map<uint64_t, std::vector<size_t>> classes_by_hash;
  for (size_t i = 0; i < n; ++i) {
    const core::Statement& stmt = program.statements[i];
    std::vector<size_t>& bucket = classes_by_hash[StructureHash(stmt)];
    size_t found = kNone;
    for (size_t c : bucket) {
      if (program.statements[members_[c].front()] == stmt) {
        found = c;
        break;
      }
    }
    if (found == kNone) {
      found = members_.size();
      bucket.push_back(found);
      members_.emplace_back();
    }
    class_of_[i] = found;
    members_[found].push_back(i);
  }
}

size_t StatementTwins::FirstActiveTwin(size_t j,
                                       const std::vector<char>& active) const {
  for (size_t k : members_[class_of_[j]]) {
    if (k != j && (active.empty() || active[k])) return k;
  }
  return kNone;
}

ImplicationProof StatementImpliedBy(const core::Program& program, size_t j,
                                    const std::vector<char>& active,
                                    const StatementTwins& twins) {
  ImplicationProof proof;
  if (j >= program.statements.size()) return proof;
  const core::Statement& stmt = program.statements[j];
  // Fast path: an exact structural duplicate of an active statement flags
  // precisely the rows its twin flags — no closure needed. This matters at
  // scale: the synthesis ensemble is a raw member-DAG union where most
  // statements are duplicates, and proving each via fixpoint closure over
  // the whole program would make minimization quadratic in union size.
  const size_t twin = twins.FirstActiveTwin(j, active);
  if (twin != StatementTwins::kNone) {
    proof.implied = true;
    proof.impliers.push_back(twin);
    return proof;
  }
  std::vector<size_t> impliers;
  for (size_t b = 0; b < stmt.branches.size(); ++b) {
    const core::Branch& branch = stmt.branches[b];
    const Region seed(branch.condition.equalities);
    // A branch an earlier sibling preempts everywhere never fires: vacuous.
    if (PreemptedInRegion(stmt, b, seed)) continue;
    ClosureResult closure = ComputeClosure(seed, program, active, j);
    if (closure.contradiction) {
      // Every row of the branch's region violates one of the active
      // statements already; the branch cannot be any row's sole flagger.
      impliers.insert(impliers.end(), closure.fired.begin(),
                      closure.fired.end());
      continue;
    }
    const auto* bound = FindBinding(closure.region, branch.target);
    if (bound != nullptr && bound->second == branch.assignment) {
      // Rows of the region satisfying the active statements carry exactly
      // the value this branch asserts, so a row this branch flags is
      // already flagged by whoever forced the binding.
      impliers.insert(impliers.end(), closure.fired.begin(),
                      closure.fired.end());
      continue;
    }
    return proof;  // Not provable for this branch.
  }
  proof.implied = true;
  std::sort(impliers.begin(), impliers.end());
  impliers.erase(std::unique(impliers.begin(), impliers.end()),
                 impliers.end());
  proof.impliers = std::move(impliers);
  return proof;
}

std::vector<AttributeValueSets> ComputeProgramDomains(
    const core::Program& program) {
  AttrIndex widest = -1;
  for (const auto& stmt : program.statements) {
    widest = std::max(widest, stmt.dependent);
    for (AttrIndex a : stmt.determinants) widest = std::max(widest, a);
    for (const auto& branch : stmt.branches) {
      widest = std::max(widest, branch.target);
      for (const auto& [attr, value] : branch.condition.equalities) {
        (void)value;
        widest = std::max(widest, attr);
      }
    }
  }
  std::vector<AttributeValueSets> domains(
      static_cast<size_t>(widest < 0 ? 0 : widest + 1));
  for (const auto& stmt : program.statements) {
    for (const auto& branch : stmt.branches) {
      if (branch.target >= 0) {
        domains[static_cast<size_t>(branch.target)].assigned.push_back(
            branch.assignment);
      }
      for (const auto& [attr, value] : branch.condition.equalities) {
        if (attr >= 0) {
          domains[static_cast<size_t>(attr)].tested.push_back(value);
        }
      }
    }
  }
  for (auto& d : domains) {
    std::sort(d.assigned.begin(), d.assigned.end());
    d.assigned.erase(std::unique(d.assigned.begin(), d.assigned.end()),
                     d.assigned.end());
    std::sort(d.tested.begin(), d.tested.end());
    d.tested.erase(std::unique(d.tested.begin(), d.tested.end()),
                   d.tested.end());
  }
  return domains;
}

ImplicationLattice BuildImplicationLattice(const core::Program& program) {
  const size_t n = program.statements.size();
  ImplicationLattice lattice;
  lattice.implied.assign(n, 0);
  lattice.proofs.resize(n);
  lattice.duplicate_of.assign(n, ImplicationLattice::kNoDuplicate);
  const std::vector<char> all_active(n, 1);
  const StatementTwins twins(program);
  for (size_t j = 0; j < n; ++j) {
    ImplicationProof proof = StatementImpliedBy(program, j, all_active, twins);
    lattice.implied[j] = proof.implied ? 1 : 0;
    lattice.proofs[j] = std::move(proof);
    // Statement equality ignores advisory support/tolerated metadata, the
    // right notion for "identical constraint synthesized twice". The lowest
    // twin is earlier exactly when j is not its class's first member.
    const size_t twin = twins.FirstActiveTwin(j, {});
    if (twin != StatementTwins::kNone && twin < j) {
      lattice.duplicate_of[j] = twin;
    }
  }
  return lattice;
}

}  // namespace analysis
}  // namespace guardrail
