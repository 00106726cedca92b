#ifndef GUARDRAIL_CORE_SKETCH_FILLER_H_
#define GUARDRAIL_CORE_SKETCH_FILLER_H_

#include <cstdint>
#include <optional>

#include "common/deadline.h"
#include "core/ast.h"
#include "core/sketch.h"
#include "table/table.h"

namespace guardrail {
namespace core {

/// Knobs for Alg. 1 (Fill program sketch).
struct FillOptions {
  /// Branch tolerance: keep a branch when loss <= support * epsilon
  /// (Eqn. 3).
  double epsilon = 0.02;
  /// Branches must be witnessed by at least this many rows; guards against
  /// single-row "constraints" that are vacuously epsilon-valid.
  int64_t min_branch_support = 5;
  /// Cap on warranted conditions per statement (the observed combinations of
  /// determinant values); statements with more distinct combinations are
  /// truncated to the most frequent ones.
  int64_t max_conditions_per_statement = 4096;
  /// Parallelism for the row-grouping scan (0 = hardware concurrency via
  /// ThreadPool::DefaultThreads(), 1 = serial). The scan is sharded into
  /// fixed row ranges whose count depends only on the data size — never on
  /// the thread count — and shard results merge by commutative count
  /// addition, so the filled statement is identical for any setting.
  int num_threads = 0;
};

/// Fills a single statement sketch (Alg. 1, FillStmtSketch): enumerates the
/// warranted conditions comb(det) — the observed determinant-value
/// combinations — picks the arg-min-loss assignment for each hole, and keeps
/// epsilon-valid branches. Returns nullopt when no branch qualifies
/// (Alg. 1's bottom).
std::optional<Statement> FillStatementSketch(const StatementSketch& sketch,
                                             const Table& data,
                                             const FillOptions& options);

/// A filled statement together with its coverage cov(s, D) (Eqn. 6),
/// counted by the fill's own group scan: the scan already visits every row
/// matching each determinant combination (rows whose dependent is NULL
/// included, as BranchCoverage counts them), so the coverage costs no second
/// pass. `coverage` sums matched_b / |D| over the kept branches in branch
/// order — the same additions StatementCoverage(statement, data) makes, so
/// the two doubles are bit-identical.
struct FilledStatement {
  Statement statement;
  double coverage = 0.0;
};

/// Cancellable variant that also reports the coverage: polls `cancel`
/// amortized across the data scan and returns Status::Timeout on expiry (a
/// partially grouped statement would understate support, so no partial fill
/// is produced).
Result<std::optional<FilledStatement>> FillStatementSketch(
    const StatementSketch& sketch, const Table& data,
    const FillOptions& options, const CancellationToken& cancel);

/// Fills a whole program sketch (Alg. 1): statements that fill to bottom are
/// dropped.
Program FillProgramSketch(const ProgramSketch& sketch, const Table& data,
                          const FillOptions& options);

}  // namespace core
}  // namespace guardrail

#endif  // GUARDRAIL_CORE_SKETCH_FILLER_H_
