#include "core/guard.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/state.h"

namespace guardrail {
namespace core {

namespace {

/// Rows per compiled-evaluator chunk in table-level calls: small enough to
/// keep verdict scratch in cache, large enough to amortize the mask setup.
constexpr int64_t kGuardBatchRows = 4096;

}  // namespace

const char* ErrorPolicyName(ErrorPolicy policy) {
  switch (policy) {
    case ErrorPolicy::kRaise:
      return "raise";
    case ErrorPolicy::kIgnore:
      return "ignore";
    case ErrorPolicy::kCoerce:
      return "coerce";
    case ErrorPolicy::kRectify:
      return "rectify";
  }
  return "unknown";
}

void ApplyRectifyRepair(const Program& program, const Violation& violation,
                        Row* row) {
  const Statement& stmt =
      program.statements[static_cast<size_t>(violation.statement_index)];
  const Branch& fired =
      stmt.branches[static_cast<size_t>(violation.branch_index)];

  // Deviations the training data itself exhibited under this condition are
  // the epsilon-tolerated variation of the DGP, not errors; leave them.
  if (std::binary_search(fired.tolerated_values.begin(),
                         fired.tolerated_values.end(), violation.actual)) {
    return;
  }

  // Hypothesis A — the dependent cell is the error: repair it to the fired
  // branch's assignment. Plausibility = the support of the observed
  // determinant combination.
  int64_t best_score = fired.support;
  AttrIndex repair_attr = fired.target;
  ValueId repair_value = fired.assignment;

  // Hypotheses B_d — determinant d is the error: some sibling branch that
  // differs from the fired one in exactly the d-th equality assigns exactly
  // the observed dependent value. Plausibility = that branch's support.
  // Ties favor A (the paper's plain dependent repair).
  for (const Branch& sibling : stmt.branches) {
    if (sibling.assignment != violation.actual) continue;
    if (sibling.condition.equalities.size() !=
        fired.condition.equalities.size()) {
      continue;
    }
    int differing = -1;
    bool comparable = true;
    for (size_t i = 0; i < sibling.condition.equalities.size(); ++i) {
      const auto& [attr_s, value_s] = sibling.condition.equalities[i];
      const auto& [attr_f, value_f] = fired.condition.equalities[i];
      if (attr_s != attr_f) {
        comparable = false;
        break;
      }
      if (value_s != value_f) {
        if (differing >= 0) {
          comparable = false;  // More than one corrupted determinant.
          break;
        }
        differing = static_cast<int>(i);
      }
    }
    if (!comparable || differing < 0) continue;
    if (sibling.support > best_score) {
      best_score = sibling.support;
      repair_attr = sibling.condition.equalities[static_cast<size_t>(differing)].first;
      repair_value =
          sibling.condition.equalities[static_cast<size_t>(differing)].second;
    }
  }
  (*row)[static_cast<size_t>(repair_attr)] = repair_value;
}

const CompiledProgram& Guard::compiled() const {
  std::call_once(compile_once_, [this] {
    compiled_ = std::make_unique<const CompiledProgram>(
        CompiledProgram::Compile(*program_));
  });
  return *compiled_;
}

Result<Row> Guard::ProcessRow(const Row& row, ErrorPolicy policy) const {
  // One row, read through the interpreter engine as a one-row block.
  std::vector<const ValueId*> cells(row.size());
  for (size_t c = 0; c < row.size(); ++c) cells[c] = &row[c];
  const ColumnBatch block = ColumnBatch::FromColumns(std::move(cells), 1);
  GuardExecutor executor(*this, policy, GuardEvalMode::kInterpreter);
  executor.Evaluate(block);
  Row out;
  GuardVerdict verdict = executor.Read(0, &out);
  if (!verdict.status.ok()) return verdict.status;
  return out;
}

GuardOutcome Guard::ProcessTable(Table* table, ErrorPolicy policy,
                                 GuardEvalMode mode) const {
  return Scan(*table, policy, mode, table);
}

std::vector<bool> Guard::DetectViolations(const Table& table,
                                          GuardEvalMode mode) const {
  return Scan(table, ErrorPolicy::kIgnore, mode, nullptr).flagged;
}

GuardOutcome Guard::Scan(const Table& table, ErrorPolicy policy,
                         GuardEvalMode mode, Table* repaired) const {
  GuardOutcome outcome;
  outcome.flagged.assign(static_cast<size_t>(table.num_rows()), false);
  GuardExecutor executor(*this, policy, mode);
  bool stopped = false;
  for (RowIndex begin = 0; begin < table.num_rows() && !stopped;
       begin += kGuardBatchRows) {
    const int64_t count =
        std::min<int64_t>(kGuardBatchRows, table.num_rows() - begin);
    outcome.rows_checked += executor.Run(
        ColumnBatch::FromTable(table, begin, count),
        [&](int64_t r, const GuardVerdict& verdict, const Row& row) {
          if (verdict.failed()) {
            ++outcome.rows_failed;
            if (outcome.first_error.ok()) outcome.first_error = verdict.status;
            stopped = policy == ErrorPolicy::kRaise;
            return !stopped;
          }
          if (verdict.violations == 0) return true;
          const RowIndex global = begin + r;
          ++outcome.rows_flagged;
          outcome.flagged[static_cast<size_t>(global)] = true;
          if (!verdict.status.ok()) {  // kRaise.
            stopped = true;
            return false;
          }
          // Coerce counts one repaired cell per violation, even when two
          // violations name the same cell.
          if (policy == ErrorPolicy::kCoerce) {
            outcome.cells_repaired += verdict.violations;
          }
          if (!verdict.repaired || repaired == nullptr) return true;
          for (AttrIndex c = 0; c < table.num_columns(); ++c) {
            if (table.Get(global, c) == row[static_cast<size_t>(c)]) continue;
            repaired->Set(global, c, row[static_cast<size_t>(c)]);
            if (policy == ErrorPolicy::kRectify) ++outcome.cells_repaired;
          }
          return true;
        });
  }
  return outcome;
}

GuardExecutor::GuardExecutor(const Guard& guard, ErrorPolicy policy,
                             GuardEvalMode mode,
                             const CompiledProgram* compiled)
    : program_(*guard.program()),
      interpreter_(guard.interpreter()),
      policy_(policy),
      compiled_(nullptr) {
  const bool use_compiled =
      mode == GuardEvalMode::kCompiled ||
      (mode == GuardEvalMode::kAuto &&
       !FailpointRegistry::Instance().IsArmed("interpreter.check"));
  if (use_compiled) {
    compiled_ = compiled != nullptr ? compiled : &guard.compiled();
  }
}

void GuardExecutor::Evaluate(const ColumnBatch& block) {
  Flush();
  block_ = &block;
  // A block narrower than the program's reach would come back all fallback
  // rows; the interpreter judges those directly.
  block_compiled_ =
      compiled_ != nullptr &&
      static_cast<size_t>(block.width()) >= compiled_->min_row_width();
  if (block_compiled_) compiled_->Evaluate(block, &verdict_);
}

uint64_t GuardExecutor::UnclearedWord(size_t w) const {
  if (!block_compiled_) return ~uint64_t{0};
  uint64_t word = 0;
  if (verdict_.any_violation) word |= verdict_.violated[w];
  if (verdict_.any_fallback) word |= verdict_.fallback[w];
  return word;
}

GuardVerdict GuardExecutor::Read(int64_t r, Row* row) {
  ++rows_read_;
  return Judge(r, row);
}

GuardVerdict GuardExecutor::Judge(int64_t r, Row* row) {
  block_->CopyRow(r, row);

  GuardVerdict out;
  const Violation* begin = nullptr;
  const Violation* end = nullptr;
  if (block_compiled_ && !rowmask::Test(verdict_.fallback, r)) {
    begin = verdict_.ViolationsBegin(r);
    end = verdict_.ViolationsEnd(r);
  } else {
    Result<std::vector<Violation>> checked = interpreter_.CheckedCheck(*row);
    if (!checked.ok()) {
      ++rows_failed_;
      out.status = checked.status();
      return out;
    }
    checked_ = std::move(checked).value();
    begin = checked_.data();
    end = begin + checked_.size();
  }
  out.violations = static_cast<int32_t>(end - begin);
  if (out.violations == 0) return out;
  ++rows_violating_;
  GUARDRAIL_HISTOGRAM_RECORD("guard.violations_per_row", out.violations);

  switch (policy_) {
    case ErrorPolicy::kRaise:
      ++rows_raised_;
      out.status = Status::ConstraintViolation(
          "row violates " + std::to_string(out.violations) +
          " integrity constraint(s)");
      return out;
    case ErrorPolicy::kIgnore:
      return out;
    case ErrorPolicy::kCoerce:
      ++rows_coerced_;
      original_ = *row;
      for (const Violation* v = begin; v != end; ++v) {
        (*row)[static_cast<size_t>(v->attribute)] = kNullValue;
      }
      break;
    case ErrorPolicy::kRectify:
      ++rows_rectified_;
      original_ = *row;
      for (const Violation* v = begin; v != end; ++v) {
        ApplyRectifyRepair(program_, *v, row);
      }
      break;
  }
  out.repaired = !(*row == original_);
  return out;
}

void GuardExecutor::Flush() {
  if (rows_read_ == 0) return;
  if (telemetry::MetricsEnabled()) {
    GUARDRAIL_COUNTER_ADD("guard.rows_checked", rows_read_);
    if (rows_raised_ != 0) {
      GUARDRAIL_COUNTER_ADD("guard.rows_raised", rows_raised_);
    }
    if (rows_coerced_ != 0) {
      GUARDRAIL_COUNTER_ADD("guard.rows_coerced", rows_coerced_);
    }
    if (rows_rectified_ != 0) {
      GUARDRAIL_COUNTER_ADD("guard.rows_rectified", rows_rectified_);
    }
    static telemetry::Histogram* const violations_per_row =
        telemetry::MetricsRegistry::Instance().GetHistogram(
            "guard.violations_per_row");
    const int64_t clean = rows_read_ - rows_failed_ - rows_violating_;
    if (clean > 0) violations_per_row->Record(0, clean);
  }
  rows_read_ = rows_failed_ = rows_violating_ = 0;
  rows_raised_ = rows_coerced_ = rows_rectified_ = 0;
}

}  // namespace core
}  // namespace guardrail
