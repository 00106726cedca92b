#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/passes/passes.h"

namespace guardrail {
namespace analysis {

namespace {

constexpr uint32_t kEmptySlot = ~uint32_t{0};

uint64_t HashKey(const ValueId* key, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < width; ++i) {
    h ^= static_cast<uint32_t>(key[i]);
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

CodeKeyIndex::CodeKeyIndex(size_t width) : width_(width) {
  slots_.assign(16, kEmptySlot);
}

uint32_t CodeKeyIndex::FindOrInsert(const ValueId* key) {
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t s = HashKey(key, width_) & mask;; s = (s + 1) & mask) {
    const uint32_t id = slots_[s];
    if (id == kEmptySlot) {
      slots_[s] = size_;
      keys_.insert(keys_.end(), key, key + width_);
      return size_++;
    }
    if (std::equal(key, key + width_, keys_.begin() + id * width_)) return id;
  }
}

void CodeKeyIndex::Grow() {
  slots_.assign(slots_.size() * 2, kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < size_; ++id) {
    size_t s = HashKey(keys_.data() + id * width_, width_) & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

namespace {

/// The grouped scan for one statement, or an ungrouped entry when some
/// branch does not bind exactly the determinant set (or names an attribute
/// that is not a column of `data`).
GroupedStatementStats GroupStatement(const core::Statement& stmt,
                                     const Table& data) {
  GroupedStatementStats out;
  const size_t width = stmt.determinants.size();
  auto is_column = [&](AttrIndex a) {
    return a >= 0 && a < data.num_columns();
  };
  std::vector<AttrIndex> sorted = stmt.determinants;
  std::sort(sorted.begin(), sorted.end());
  if (width == 0 ||
      std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end() ||
      !std::all_of(sorted.begin(), sorted.end(), is_column)) {
    return out;
  }
  for (const core::Branch& branch : stmt.branches) {
    const auto& eqs = branch.condition.equalities;
    if (!is_column(branch.target) || eqs.size() != width) return out;
    for (size_t i = 0; i < width; ++i) {
      if (eqs[i].first != sorted[i]) return out;
    }
  }

  // Key position p holds determinant p in header order (the order coverage
  // holes print in); conditions are sorted by attribute, so position p
  // reads condition equality rank[p].
  std::vector<size_t> rank(width);
  std::vector<const ValueId*> columns(width);
  for (size_t p = 0; p < width; ++p) {
    rank[p] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), stmt.determinants[p]) -
        sorted.begin());
    columns[p] = data.column(stmt.determinants[p]).data();
  }

  // Branch keys go in first, each combination chaining the branches that
  // bind it (a branch matches a row iff their keys are equal).
  const size_t num_branches = stmt.branches.size();
  CodeKeyIndex index(width);
  std::vector<int32_t> first_branch;
  std::vector<int32_t> next_branch(num_branches, -1);
  std::vector<uint32_t> branch_combo(num_branches);
  std::vector<ValueId> key(width);
  for (size_t b = num_branches; b-- > 0;) {
    const auto& eqs = stmt.branches[b].condition.equalities;
    for (size_t p = 0; p < width; ++p) key[p] = eqs[rank[p]].second;
    const uint32_t id = index.FindOrInsert(key.data());
    if (id == first_branch.size()) first_branch.push_back(-1);
    next_branch[b] = first_branch[id];
    first_branch[id] = static_cast<int32_t>(b);
    branch_combo[b] = id;
  }

  const size_t bound_combos = first_branch.size();
  out.branches.resize(num_branches);
  out.support.assign(bound_combos, 0);
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    const size_t row = static_cast<size_t>(r);
    for (size_t p = 0; p < width; ++p) key[p] = columns[p][row];
    const uint32_t id = index.FindOrInsert(key.data());
    if (id == out.support.size()) out.support.push_back(0);
    ++out.support[id];
    if (id >= bound_combos) continue;
    for (int32_t b = first_branch[id]; b >= 0; b = next_branch[b]) {
      const core::Branch& branch = stmt.branches[static_cast<size_t>(b)];
      if (data.Get(r, branch.target) != branch.assignment) {
        ++out.branches[static_cast<size_t>(b)].loss;
      }
    }
  }
  for (size_t b = 0; b < num_branches; ++b) {
    out.branches[b].support = out.support[branch_combo[b]];
  }
  out.covered.assign(index.size(), 0);
  std::fill(out.covered.begin(),
            out.covered.begin() + static_cast<long>(bound_combos), 1);
  out.keys = index.keys();
  out.grouped = true;
  return out;
}

}  // namespace

std::vector<GroupedStatementStats> ComputeGroupedStats(
    const core::Program& program, const Table& data) {
  std::vector<GroupedStatementStats> stats;
  stats.reserve(program.statements.size());
  for (const core::Statement& stmt : program.statements) {
    stats.push_back(GroupStatement(stmt, data));
  }
  return stats;
}

}  // namespace analysis
}  // namespace guardrail
