#ifndef GUARDRAIL_CORE_GUARD_H_
#define GUARDRAIL_CORE_GUARD_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/ast.h"
#include "core/batch_eval.h"
#include "core/interpreter.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace guardrail {
namespace core {

/// Error-handling schemes (paper Sec. 7 / Example 1.2), mirroring pandas
/// semantics plus the novel `rectify`:
///   kRaise   — fail on the first violating row.
///   kIgnore  — record violations, leave data untouched.
///   kCoerce  — replace each violating dependent value with NULL.
///   kRectify — repair the row to the most likely correct value entailed by
///              the program: either overwrite the dependent with the fired
///              branch's assignment, or — when the observed dependent value
///              is better explained by a corrupted *determinant* (an
///              alternative branch of the same statement with higher
///              training support assigns exactly the observed value) —
///              repair that determinant instead (MAP repair).
enum class ErrorPolicy { kRaise, kIgnore, kCoerce, kRectify };

const char* ErrorPolicyName(ErrorPolicy policy);

/// Which evaluation engine a GuardExecutor uses.
///   kAuto        — the compiled engine unless the "interpreter.check"
///                  failpoint is armed (armed chaos runs must replay the
///                  exact per-row interpreter trip sequence).
///   kInterpreter — always the per-row interpreter (baseline / parity tests).
///   kCompiled    — the compiled engine even with the failpoint armed.
/// Under every mode a batch narrower than the program's reach is judged by
/// the interpreter, which rejects each row with its width error.
enum class GuardEvalMode { kAuto, kInterpreter, kCompiled };

/// The MAP repair for one violation (see ErrorPolicy::kRectify), applied to
/// `row` in place.
void ApplyRectifyRepair(const Program& program, const Violation& violation,
                        Row* row);

/// Result of guarding a batch of rows.
struct GuardOutcome {
  int64_t rows_checked = 0;
  int64_t rows_flagged = 0;
  int64_t cells_repaired = 0;
  /// Rows whose evaluation itself failed (injected faults, malformed rows).
  /// Under kIgnore / kCoerce / kRectify such rows are skipped untouched and
  /// processing continues; under kRaise the first failure aborts the batch.
  int64_t rows_failed = 0;
  /// The first per-row evaluation error encountered; OK when rows_failed == 0.
  Status first_error;
  /// Per-row violation flag, aligned with the input table.
  std::vector<bool> flagged;
};

/// Runtime guard: vets rows against a synthesized constraint program before
/// they reach downstream consumers (the ML model in Fig. 1).
class Guard {
 public:
  explicit Guard(const Program* program)
      : program_(program), interpreter_(program) {}

  /// Applies the policy to one row. kRaise returns ConstraintViolation on a
  /// violating row; the other policies return the (possibly repaired) row.
  /// Rows narrower than the attributes the program references are rejected
  /// with InvalidArgument under every policy — a malformed row is an input
  /// error, not a constraint violation to ignore or repair.
  Result<Row> ProcessRow(const Row& row, ErrorPolicy policy) const;

  /// Applies the policy to a whole table. With kCoerce / kRectify the table
  /// is modified in place. With kRaise processing stops at the first
  /// violation or evaluation error (the outcome still reports it). Under the
  /// other policies a per-row evaluation failure is isolated: the row is
  /// counted in rows_failed and left untouched, and the batch continues.
  ///
  /// `mode` selects the GuardExecutor engine. Outcomes (counters, flags,
  /// repairs) are byte-identical across modes — tests/batch_eval_test.cc
  /// pins this.
  GuardOutcome ProcessTable(Table* table, ErrorPolicy policy,
                            GuardEvalMode mode = GuardEvalMode::kAuto) const;

  /// Pure detection: per-row violation flags (Eqn. 1), no mutation. A row
  /// whose evaluation fails is not flagged.
  std::vector<bool> DetectViolations(
      const Table& table, GuardEvalMode mode = GuardEvalMode::kAuto) const;

  /// The lazily built batch evaluator (compiled on first use, thread-safe).
  const CompiledProgram& compiled() const;

  const Interpreter& interpreter() const { return interpreter_; }
  const Program* program() const { return program_; }

 private:
  /// ProcessTable over `table`, writing repairs to `repaired` (nullptr for
  /// detection, whose kIgnore policy repairs nothing).
  GuardOutcome Scan(const Table& table, ErrorPolicy policy, GuardEvalMode mode,
                    Table* repaired) const;

  const Program* program_;
  Interpreter interpreter_;
  // Compiled on demand so scalar-only consumers never pay the build.
  mutable std::once_flag compile_once_;
  mutable std::unique_ptr<const CompiledProgram> compiled_;
};

/// One row's guard verdict after the executor applied its policy.
struct GuardVerdict {
  /// Violations found; 0 for a clean row and for a failed evaluation.
  int32_t violations = 0;
  /// Whether kCoerce / kRectify changed the row.
  bool repaired = false;
  /// Not OK when the evaluation failed (violations == 0: an injected fault
  /// or a row narrower than the program's reach) or when kRaise refused a
  /// violating row (ConstraintViolation).
  Status status;

  bool failed() const { return violations == 0 && !status.ok(); }
};

/// The one guard execution path behind every consumer: the offline Guard
/// (ProcessTable, DetectViolations, ProcessRow), SQL guarded scans, the
/// serve engine and therefore stream-published programs. It owns the four
/// decisions those consumers share, so verdict and repair bytes — and the
/// guard.* counters — are the same whichever consumer reads them:
///
///  - engine choice: the compiled evaluator (core/batch_eval.h) over whole
///    blocks, or the interpreter row by row (see GuardEvalMode);
///  - interpreter fallback: Interpreter::CheckedCheck for rows the compiled
///    engine cannot judge and for every row on the interpreter engine, run
///    when the row is read, so failpoint trips follow the read order;
///  - policy application: the kRaise refusal, kCoerce to NULL, kRectify via
///    ApplyRectifyRepair;
///  - counters: guard.rows_checked counts the rows whose verdict a consumer
///    read, once each; guard.rows_raised / rows_coerced / rows_rectified
///    the violating rows each policy handled. Tallies flush once per block
///    (and on destruction), so clean rows cost no per-row telemetry call.
///
/// Blocks are ColumnBatch views carrying every column in [0, width)
/// (FromTable / FromColumns); a block must outlive the calls reading it.
/// Not thread-safe: concurrent consumers use one executor each.
class GuardExecutor {
 public:
  /// `compiled` is a prebuilt evaluator of guard's program (the serve
  /// registry's); nullptr builds guard.compiled() when the compiled engine
  /// is chosen.
  GuardExecutor(const Guard& guard, ErrorPolicy policy,
                GuardEvalMode mode = GuardEvalMode::kAuto,
                const CompiledProgram* compiled = nullptr);
  ~GuardExecutor() { Flush(); }

  GuardExecutor(const GuardExecutor&) = delete;
  GuardExecutor& operator=(const GuardExecutor&) = delete;

  /// Starts a block: the compiled engine evaluates it whole; the
  /// interpreter engine defers each row to its read.
  void Evaluate(const ColumnBatch& block);

  /// Reads row `r` of the current block: `*row` receives the guarded row
  /// (repaired in place under kCoerce / kRectify).
  GuardVerdict Read(int64_t r, Row* row);

  /// Reads every row of `block` in order. Rows the compiled engine cleared
  /// are read without being materialized; for every other row
  /// `on_row(r, verdict, guarded_row)` runs and returns whether to keep
  /// reading. Returns the number of rows read.
  template <typename OnRow>
  int64_t Run(const ColumnBatch& block, OnRow&& on_row) {
    Evaluate(block);
    return ReadRows(nullptr, on_row);
  }

  /// Run over the rows of the current block (the last one passed to
  /// Evaluate) set in `mask`, rowmask words over the block: the other rows
  /// are neither read nor counted. Bits past the block's rows must be clear.
  template <typename OnRow>
  int64_t Run(const std::vector<uint64_t>& mask, OnRow&& on_row) {
    return ReadRows(mask.data(), on_row);
  }

 private:
  /// Publishes the tallies to the guard.* metrics.
  void Flush();

  /// Reads the rows set in `mask` (every row when nullptr) in order; see
  /// Run.
  template <typename OnRow>
  int64_t ReadRows(const uint64_t* mask, OnRow& on_row) {
    const int64_t rows = block_->num_rows();
    int64_t read = 0;
    for (size_t w = 0; w < rowmask::Words(rows); ++w) {
      const uint64_t wanted = mask != nullptr ? mask[w] : WordOfRows(rows, w);
      for (uint64_t judge = wanted & UnclearedWord(w); judge != 0;
           judge &= judge - 1) {
        const int bit = __builtin_ctzll(judge);
        const int64_t r = static_cast<int64_t>(w) * 64 + bit;
        if (!on_row(r, Judge(r, &row_), row_)) {
          const uint64_t through = bit == 63 ? ~uint64_t{0}
                                             : (uint64_t{2} << bit) - 1;
          read += __builtin_popcountll(wanted & through);
          rows_read_ += read;
          return read;
        }
      }
      read += __builtin_popcountll(wanted);
    }
    rows_read_ += read;
    return read;
  }

  /// Bits of word `w` for the rows of a `rows`-row block.
  static uint64_t WordOfRows(int64_t rows, size_t w) {
    const int64_t left = rows - static_cast<int64_t>(w) * 64;
    return left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
  }

  /// Word `w` of the rows the compiled engine did not clear.
  uint64_t UnclearedWord(size_t w) const;

  /// Row `r`'s verdict under the policy; uncounted.
  GuardVerdict Judge(int64_t r, Row* row);

  const Program& program_;
  const Interpreter& interpreter_;
  const ErrorPolicy policy_;
  /// nullptr: the interpreter engine.
  const CompiledProgram* compiled_;

  const ColumnBatch* block_ = nullptr;
  /// Whether the compiled engine judged the current block.
  bool block_compiled_ = false;
  BatchVerdict verdict_;
  std::vector<Violation> checked_;
  Row original_;
  Row row_;

  int64_t rows_read_ = 0;
  int64_t rows_failed_ = 0;
  /// Read rows with violations; each recorded its count in
  /// guard.violations_per_row, and the flush records a zero for every other
  /// read row that evaluated.
  int64_t rows_violating_ = 0;
  int64_t rows_raised_ = 0;
  int64_t rows_coerced_ = 0;
  int64_t rows_rectified_ = 0;
};

}  // namespace core
}  // namespace guardrail

#endif  // GUARDRAIL_CORE_GUARD_H_
