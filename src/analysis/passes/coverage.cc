#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/passes/passes.h"

namespace guardrail {
namespace analysis {

namespace {

struct ComboStats {
  int64_t support = 0;
  bool covered = false;
};

}  // namespace

void RunCoveragePass(const PassContext& ctx, DiagnosticReport* report) {
  const core::Program& program = *ctx.program;
  const Schema& schema = *ctx.schema;
  const Table& data = *ctx.data;
  const AnalysisOptions& options = *ctx.options;

  const Severity hole_severity = options.scheme == core::ErrorPolicy::kIgnore
                                     ? Severity::kInfo
                                     : Severity::kWarning;
  const char* scheme_note =
      options.scheme == core::ErrorPolicy::kIgnore
          ? "under the 'ignore' scheme the hole only under-reports"
          : "dangerous under the current scheme: erroneous rows in this "
            "region pass the guard silently instead of being raised or "
            "repaired";

  for (size_t si = 0; si < program.statements.size(); ++si) {
    const core::Statement& stmt = program.statements[si];
    const int32_t stmt_index = static_cast<int32_t>(si);

    // Determinants must be real columns to group on; pass 1 reported any
    // out-of-range index already.
    bool indexable = !stmt.determinants.empty() && stmt.dependent >= 0 &&
                     stmt.dependent < schema.num_attributes();
    for (AttrIndex a : stmt.determinants) {
      if (a < 0 || a >= data.num_columns()) indexable = false;
    }
    if (!indexable) continue;

    // Uncovered determinant combinations witnessed by enough rows, in key
    // order. A combination is covered when at least one of its rows fires a
    // branch (first match or not — coverage asks "does any branch speak for
    // this region at all").
    std::vector<std::pair<std::vector<ValueId>, int64_t>> holes;
    const size_t width = stmt.determinants.size();
    if (const GroupedStatementStats* grouped = GroupedStats(ctx, si)) {
      for (size_t id = 0; id < grouped->support.size(); ++id) {
        if (grouped->covered[id] ||
            grouped->support[id] < options.coverage_hole_min_support) {
          continue;
        }
        const ValueId* key = grouped->keys.data() + id * width;
        holes.emplace_back(std::vector<ValueId>(key, key + width),
                           grouped->support[id]);
      }
      std::sort(holes.begin(), holes.end());
    } else {
      std::vector<const core::Branch*> usable_branches;
      for (const core::Branch& branch : stmt.branches) {
        if (BranchIndexableOnData(branch, data)) {
          usable_branches.push_back(&branch);
        }
      }
      std::map<std::vector<ValueId>, ComboStats> combos;
      std::vector<ValueId> key(width);
      for (RowIndex r = 0; r < data.num_rows(); ++r) {
        for (size_t d = 0; d < width; ++d) {
          key[d] = data.Get(r, stmt.determinants[d]);
        }
        ComboStats& combo = combos[key];
        ++combo.support;
        if (!combo.covered) {
          Row row = data.GetRow(r);
          for (const core::Branch* branch : usable_branches) {
            if (branch->condition.Matches(row)) {
              combo.covered = true;
              break;
            }
          }
        }
      }
      for (const auto& [combo_key, combo] : combos) {
        if (!combo.covered &&
            combo.support >= options.coverage_hole_min_support) {
          holes.emplace_back(combo_key, combo.support);
        }
      }
    }

    int64_t holes_reported = 0;
    int64_t holes_elided = 0;
    for (const auto& [combo_key, support] : holes) {
      if (holes_reported >= options.max_holes_per_statement) {
        ++holes_elided;
        continue;
      }
      ++holes_reported;
      std::string region;
      for (size_t d = 0; d < stmt.determinants.size(); ++d) {
        if (d > 0) region += " AND ";
        const Attribute& attr = schema.attribute(stmt.determinants[d]);
        region += attr.name() + " = ";
        region += combo_key[d] == kNullValue
                      ? "<null>"
                      : "'" + attr.label(combo_key[d]) + "'";
      }
      report->Add({"GRL501", hole_severity, stmt_index, -1,
                   schema.attribute(stmt.dependent).name(),
                   "coverage hole: " + std::to_string(support) +
                       " row(s) with " + region +
                       " fire no branch; " + scheme_note});
    }
    if (holes_elided > 0) {
      report->Add({"GRL502", Severity::kInfo, stmt_index, -1,
                   schema.attribute(stmt.dependent).name(),
                   std::to_string(holes_elided) +
                       " further coverage hole(s) elided (cap " +
                       std::to_string(options.max_holes_per_statement) +
                       " per statement)"});
    }
  }
}

}  // namespace analysis
}  // namespace guardrail
