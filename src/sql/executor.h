#ifndef GUARDRAIL_SQL_EXECUTOR_H_
#define GUARDRAIL_SQL_EXECUTOR_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/guard.h"
#include "ml/model.h"
#include "sql/ast.h"
#include "table/table.h"

namespace guardrail {
namespace sql {

/// Result set of a query.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;

  std::string ToString() const;
};

/// Execution statistics, including the guard / inference breakdown of paper
/// Table 6 and the pushdown effectiveness counters.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_after_pushdown = 0;
  int64_t predictions_made = 0;
  int64_t rows_guard_flagged = 0;
  double guard_seconds = 0.0;
  double inference_seconds = 0.0;
};

/// ML-integrated SQL executor over single-table scans (the paper's research
/// prototype, Sec. 7): parses and runs SELECT queries whose expressions may
/// call ML_PREDICT('model'), optionally vetting each row with a Guardrail
/// guard before it reaches the model.
class Executor {
 public:
  struct Options {
    bool enable_predicate_pushdown = true;
  };

  Executor() : options_() {}
  explicit Executor(Options options) : options_(options) {}

  /// Registers a table; the pointer must outlive the executor.
  void RegisterTable(const std::string& name, const Table* table);

  /// Registers an ML model callable as ML_PREDICT('<name>').
  void RegisterModel(const std::string& name, const ml::Model* model);

  /// Installs the Guardrail interception hook: every row is processed with
  /// `policy` before any model sees it. Pass nullptr to disable.
  ///
  /// Prefer AttachGuard: SetGuard is the unchecked low-level hook (kept for
  /// trusted in-process programs and tests that need to install broken
  /// guards on purpose).
  void SetGuard(const core::Guard* guard, core::ErrorPolicy policy);

  /// Checked attach: vets the guard's program with the static analyzer's
  /// schema-level passes (sql::ValidateGuardProgram) and rejects programs
  /// carrying error-severity diagnostics — a broken guard would silently
  /// mis-vet every subsequent query. `schema` is the schema of the table(s)
  /// the guard will see. Passing nullptr detaches and always succeeds.
  Status AttachGuard(const core::Guard* guard, core::ErrorPolicy policy,
                     const Schema& schema);

  /// Installs a cancellation token honored by subsequent Execute calls: the
  /// scan checks it per row (amortized) and returns Status::Timeout when it
  /// fires. Defaults to never-cancelled.
  void SetCancellation(CancellationToken cancel) {
    cancel_ = std::move(cancel);
  }

  /// Parses and executes `sql`.
  Result<QueryResult> Execute(std::string_view sql);
  Result<QueryResult> Execute(const SelectStatement& stmt);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

 private:
  Options options_;
  std::unordered_map<std::string, const Table*> tables_;
  std::unordered_map<std::string, const ml::Model*> models_;
  const core::Guard* guard_ = nullptr;
  core::ErrorPolicy guard_policy_ = core::ErrorPolicy::kIgnore;
  CancellationToken cancel_ = CancellationToken::Never();
  ExecStats stats_;
};

}  // namespace sql
}  // namespace guardrail

#endif  // GUARDRAIL_SQL_EXECUTOR_H_
