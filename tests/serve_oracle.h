#ifndef GUARDRAIL_TESTS_SERVE_ORACLE_H_
#define GUARDRAIL_TESTS_SERVE_ORACLE_H_

// The offline reference serving verdicts are compared against: the
// RowResult each row must come back with, re-derived through the scalar
// interpreter and core::Guard — never through serve::ValidationEngine, whose
// batch kernel is what the comparison checks.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/status.h"
#include "core/guard.h"
#include "serve/protocol.h"
#include "table/schema.h"

namespace guardrail {
namespace serve {

/// The RowResult for `row` under `scheme`: kViolation with the number of
/// violated statements when the row breaks the program, and under coerce /
/// rectify the repaired row as one CSV record labelled through `schema`
/// (empty when the repair left the row unchanged).
inline Result<RowResult> OfflineRowResult(const core::Guard& guard,
                                          const Schema& schema, const Row& row,
                                          core::ErrorPolicy scheme) {
  RowResult want;
  auto checked = guard.interpreter().CheckedCheck(row);
  GUARDRAIL_RETURN_NOT_OK(checked.status());
  if (checked->empty()) return want;
  want.verdict = RowVerdict::kViolation;
  want.violations = static_cast<uint16_t>(checked->size());
  if (scheme != core::ErrorPolicy::kCoerce &&
      scheme != core::ErrorPolicy::kRectify) {
    return want;
  }
  auto repaired = guard.ProcessRow(row, scheme);
  GUARDRAIL_RETURN_NOT_OK(repaired.status());
  if (*repaired == row) return want;
  std::vector<std::string> fields;
  for (AttrIndex c = 0; c < schema.num_attributes(); ++c) {
    const ValueId v = (*repaired)[static_cast<size_t>(c)];
    fields.push_back(v == kNullValue ? "" : schema.attribute(c).label(v));
  }
  want.detail = WriteCsvRecord(fields);
  return want;
}

/// OfflineRowResult for every row of a CSV batch whose columns follow
/// `schema`. Unseen labels are minted into `schema` the way the engine's
/// request-local overlay mints them, so a copy of the snapshot schema kept
/// across batches gives them stable codes.
inline Result<std::vector<RowResult>> OfflineGuardPass(
    const core::Guard& guard, Schema* schema, std::string_view csv,
    core::ErrorPolicy scheme) {
  auto doc = ParseCsv(csv);
  GUARDRAIL_RETURN_NOT_OK(doc.status());
  std::vector<RowResult> expected;
  for (const auto& record : doc->rows) {
    Row row(static_cast<size_t>(schema->num_attributes()), kNullValue);
    for (AttrIndex c = 0; c < schema->num_attributes(); ++c) {
      row[static_cast<size_t>(c)] =
          schema->attribute(c).GetOrInsert(record[static_cast<size_t>(c)]);
    }
    auto want = OfflineRowResult(guard, *schema, row, scheme);
    GUARDRAIL_RETURN_NOT_OK(want.status());
    expected.push_back(std::move(*want));
  }
  return expected;
}

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_TESTS_SERVE_ORACLE_H_
