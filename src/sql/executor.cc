#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/failpoint.h"
#include "common/telemetry/telemetry.h"
#include "common/timer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace guardrail {
namespace sql {

namespace {

/// Aggregate accumulator for one (group, aggregate-node) pair.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool has_minmax = false;
  SqlValue min;
  SqlValue max;
};

// Resolves an ORDER BY key to a result-column index: a numeric literal is a
// 1-based position; otherwise the key's text must match a column header
// (alias or expression text).
Result<size_t> ResolveOrderColumn(const Expr* key,
                                  const std::vector<std::string>& columns) {
  if (key->kind == ExprKind::kLiteral && key->literal.is_number()) {
    int64_t position = static_cast<int64_t>(key->literal.number());
    if (position < 1 || position > static_cast<int64_t>(columns.size())) {
      return Status::OutOfRange("ORDER BY position " +
                                std::to_string(position));
    }
    return static_cast<size_t>(position - 1);
  }
  std::string wanted =
      key->kind == ExprKind::kColumnRef ? key->column : key->ToString();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == wanted) return i;
  }
  return Status::NotFound("ORDER BY key '" + wanted +
                          "' matches no output column");
}

// Sorts `result` by the ORDER BY keys and applies `limit` (post-sort).
Status ApplyOrderByAndLimit(const SelectStatement& stmt, QueryResult* result) {
  if (!stmt.order_by.empty()) {
    std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
    for (const auto& key : stmt.order_by) {
      GUARDRAIL_ASSIGN_OR_RETURN(
          size_t column, ResolveOrderColumn(key.expr.get(), result->columns));
      keys.emplace_back(column, key.descending);
    }
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const std::vector<SqlValue>& a,
                         const std::vector<SqlValue>& b) {
                       for (const auto& [column, descending] : keys) {
                         const SqlValue& va = a[column];
                         const SqlValue& vb = b[column];
                         // NULLs order last regardless of direction.
                         if (va.is_null() != vb.is_null()) return vb.is_null();
                         if (va.is_null()) continue;
                         int cmp = va.Compare(vb);
                         if (cmp != 0) return descending ? cmp > 0 : cmp < 0;
                       }
                       return false;
                     });
  }
  if (stmt.limit >= 0 &&
      static_cast<int64_t>(result->rows.size()) > stmt.limit) {
    result->rows.resize(static_cast<size_t>(stmt.limit));
  }
  return Status::OK();
}

// Canonical text of the statement for fingerprinting: same shape for the
// same logical query regardless of original whitespace, since it is rebuilt
// from the AST.
std::string CanonicalQueryText(const SelectStatement& stmt) {
  std::string out = "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += stmt.items[i].expr->ToString();
    if (!stmt.items[i].alias.empty()) out += " AS " + stmt.items[i].alias;
  }
  out += " FROM " + stmt.table_name;
  if (stmt.where != nullptr) out += " WHERE " + stmt.where->ToString();
  for (size_t i = 0; i < stmt.group_by.size(); ++i) {
    out += i == 0 ? " GROUP BY " : ", ";
    out += stmt.group_by[i]->ToString();
  }
  if (stmt.having != nullptr) out += " HAVING " + stmt.having->ToString();
  for (size_t i = 0; i < stmt.order_by.size(); ++i) {
    out += i == 0 ? " ORDER BY " : ", ";
    out += stmt.order_by[i].expr->ToString();
    if (stmt.order_by[i].descending) out += " DESC";
  }
  if (stmt.limit >= 0) out += " LIMIT " + std::to_string(stmt.limit);
  return out;
}

std::string QueryFingerprint(const SelectStatement& stmt) {
  // FNV-1a 64 over the canonical text, rendered as fixed-width hex.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : CanonicalQueryText(stmt)) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string QueryResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  out += "\n";
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

/// Per-row expression evaluator. Holds the scan state for the current row:
/// the raw row, the lazily guarded row (guard applied at most once per row),
/// and a finalized-aggregate substitution map for the post-aggregation pass.
class Evaluator {
 public:
  Evaluator(Executor* exec, const Table* table)
      : exec_(exec), table_(table) {}

  void BeginRow(RowIndex index) {
    row_index_ = index;
    raw_row_ = table_->GetRow(index);
    guarded_ready_ = false;
  }

  /// Post-aggregation mode: column refs resolve against `representative` and
  /// aggregate calls resolve through `finalized`.
  void SetAggregateResults(
      const std::map<const Expr*, SqlValue>* finalized) {
    finalized_ = finalized;
  }

  Result<SqlValue> Eval(const Expr* expr) {
    switch (expr->kind) {
      case ExprKind::kLiteral:
        return expr->literal;
      case ExprKind::kColumnRef:
        return EvalColumn(expr->column);
      case ExprKind::kUnary:
        return EvalUnary(expr);
      case ExprKind::kBinary:
        return EvalBinary(expr);
      case ExprKind::kCase:
        return EvalCase(expr);
      case ExprKind::kCall:
        return EvalCall(expr);
    }
    return Status::Internal("unknown expression kind");
  }

  /// The guarded row used for model input, computed at most once per row.
  /// The "sql.guard_row" failpoint trips once per consumed row.
  Result<Row> GuardedRow() {
    if (!guarded_ready_) {
      if (exec_->guard_ != nullptr) {
        GUARDRAIL_FAILPOINT("sql.guard_row");
        GUARDRAIL_RETURN_NOT_OK(GuardRow());
      } else {
        guarded_row_ = raw_row_;
      }
      guarded_ready_ = true;
    }
    return guarded_row_;
  }

 private:
  Result<SqlValue> EvalColumn(const std::string& name) {
    AttrIndex attr = table_->schema().FindAttribute(name);
    if (attr < 0) return Status::NotFound("unknown column '" + name + "'");
    ValueId v = raw_row_[static_cast<size_t>(attr)];
    if (v == kNullValue) return SqlValue::MakeNull();
    return SqlValue::String(table_->schema().attribute(attr).label(v));
  }

  Result<SqlValue> EvalUnary(const Expr* expr) {
    GUARDRAIL_ASSIGN_OR_RETURN(SqlValue inner, Eval(expr->left.get()));
    if (expr->op == "NOT") {
      if (inner.is_null()) return SqlValue::MakeNull();
      return SqlValue::Boolean(!inner.Truthy());
    }
    double n = 0;
    if (!inner.ToNumber(&n)) return SqlValue::MakeNull();
    return SqlValue::Number(-n);
  }

  Result<SqlValue> EvalBinary(const Expr* expr) {
    const std::string& op = expr->op;
    if (op == "AND" || op == "OR") {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue left, Eval(expr->left.get()));
      bool l = left.Truthy();
      // Short circuit.
      if (op == "AND" && !l) return SqlValue::Boolean(false);
      if (op == "OR" && l) return SqlValue::Boolean(true);
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right, Eval(expr->right.get()));
      return SqlValue::Boolean(right.Truthy());
    }
    GUARDRAIL_ASSIGN_OR_RETURN(SqlValue left, Eval(expr->left.get()));
    GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right, Eval(expr->right.get()));
    if (op == "=" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
        op == ">=") {
      if (left.is_null() || right.is_null()) return SqlValue::MakeNull();
      int cmp = left.Compare(right);
      bool result = false;
      if (op == "=") result = cmp == 0;
      else if (op == "!=") result = cmp != 0;
      else if (op == "<") result = cmp < 0;
      else if (op == "<=") result = cmp <= 0;
      else if (op == ">") result = cmp > 0;
      else result = cmp >= 0;
      return SqlValue::Boolean(result);
    }
    double a = 0, b = 0;
    if (!left.ToNumber(&a) || !right.ToNumber(&b)) {
      return SqlValue::MakeNull();
    }
    if (op == "+") return SqlValue::Number(a + b);
    if (op == "-") return SqlValue::Number(a - b);
    if (op == "*") return SqlValue::Number(a * b);
    if (op == "/") {
      if (b == 0.0) return SqlValue::MakeNull();
      return SqlValue::Number(a / b);
    }
    return Status::Internal("unknown binary operator " + op);
  }

  Result<SqlValue> EvalCase(const Expr* expr) {
    for (const auto& [when, then] : expr->when_clauses) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue cond, Eval(when.get()));
      if (cond.Truthy()) return Eval(then.get());
    }
    if (expr->else_clause) return Eval(expr->else_clause.get());
    return SqlValue::MakeNull();
  }

  Result<SqlValue> EvalCall(const Expr* expr) {
    const std::string& name = expr->call_name;
    if (name == "ML_PREDICT") {
      if (expr->args.size() != 1 ||
          expr->args[0]->kind != ExprKind::kLiteral ||
          !expr->args[0]->literal.is_string()) {
        return Status::InvalidArgument(
            "ML_PREDICT expects a single string literal model name");
      }
      const std::string& model_name = expr->args[0]->literal.string();
      auto it = exec_->models_.find(model_name);
      if (it == exec_->models_.end()) {
        return Status::NotFound("unregistered model '" + model_name + "'");
      }
      const ml::Model* model = it->second;
      GUARDRAIL_ASSIGN_OR_RETURN(Row input, GuardedRow());
      StopWatch watch;
      ValueId label = model->Predict(input);
      double inference_seconds = watch.ElapsedSeconds();
      exec_->stats_.inference_seconds += inference_seconds;
      GUARDRAIL_COUNTER_ADD("sql.inference_micros",
                            static_cast<int64_t>(inference_seconds * 1e6));
      ++exec_->stats_.predictions_made;
      GUARDRAIL_COUNTER_INC("sql.predictions");
      if (label == kNullValue) return SqlValue::MakeNull();
      return SqlValue::String(
          table_->schema().attribute(model->label_column()).label(label));
    }
    // Aggregates only appear pre-resolved through SetAggregateResults.
    if (finalized_ != nullptr) {
      auto it = finalized_->find(expr);
      if (it != finalized_->end()) return it->second;
    }
    return Status::InvalidArgument(
        "aggregate " + name + " in a non-aggregated context");
  }

  /// Scanned-table rows the guard executor judges per block.
  static constexpr int64_t kGuardChunkRows = 1024;

  /// Reads the current row's verdict from the guard executor, evaluating
  /// the chunk holding it first when it is not the cached one. The chunk's
  /// cost lands on the row that triggered it, so accumulated guard_seconds
  /// stays the true total.
  Status GuardRow() {
    StopWatch watch;
    if (guard_ == nullptr) {
      guard_ = std::make_unique<core::GuardExecutor>(*exec_->guard_,
                                                     exec_->guard_policy_);
    }
    if (guard_chunk_begin_ < 0 || row_index_ < guard_chunk_begin_ ||
        row_index_ >= guard_chunk_begin_ + guard_chunk_.num_rows()) {
      guard_chunk_begin_ = row_index_ - (row_index_ % kGuardChunkRows);
      guard_chunk_ = ColumnBatch::FromTable(
          *table_, guard_chunk_begin_,
          std::min<int64_t>(kGuardChunkRows,
                            table_->num_rows() - guard_chunk_begin_));
      guard_->Evaluate(guard_chunk_);
    }
    core::GuardVerdict verdict =
        guard_->Read(row_index_ - guard_chunk_begin_, &guarded_row_);
    double guard_seconds = watch.ElapsedSeconds();
    exec_->stats_.guard_seconds += guard_seconds;
    GUARDRAIL_COUNTER_ADD("sql.guard_micros",
                          static_cast<int64_t>(guard_seconds * 1e6));
    if (!verdict.status.ok()) return verdict.status;
    if (verdict.repaired) ++exec_->stats_.rows_guard_flagged;
    return Status::OK();
  }

  Executor* exec_;
  const Table* table_;
  RowIndex row_index_ = 0;
  Row raw_row_;
  Row guarded_row_;
  bool guarded_ready_ = false;
  std::unique_ptr<core::GuardExecutor> guard_;
  RowIndex guard_chunk_begin_ = -1;
  ColumnBatch guard_chunk_;
  const std::map<const Expr*, SqlValue>* finalized_ = nullptr;
};

void Executor::RegisterTable(const std::string& name, const Table* table) {
  tables_[name] = table;
}

void Executor::RegisterModel(const std::string& name, const ml::Model* model) {
  models_[name] = model;
}

void Executor::SetGuard(const core::Guard* guard, core::ErrorPolicy policy) {
  guard_ = guard;
  guard_policy_ = policy;
}

Status Executor::AttachGuard(const core::Guard* guard,
                             core::ErrorPolicy policy, const Schema& schema) {
  if (guard != nullptr) {
    GUARDRAIL_RETURN_NOT_OK(ValidateGuardProgram(*guard->program(), schema));
  }
  SetGuard(guard, policy);
  return Status::OK();
}

Result<QueryResult> Executor::Execute(std::string_view sql) {
  GUARDRAIL_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Execute(stmt);
}

Result<QueryResult> Executor::Execute(const SelectStatement& stmt) {
  GUARDRAIL_FAILPOINT("sql.execute");
  auto table_it = tables_.find(stmt.table_name);
  if (table_it == tables_.end()) {
    return Status::NotFound("unregistered table '" + stmt.table_name + "'");
  }
  const Table* table = table_it->second;
  telemetry::Span span("sql.execute");
  span.AddArg("table", stmt.table_name);
  span.AddArg("query_hash", QueryFingerprint(stmt));
  // Deltas against these baselines become span args on success; stats_
  // accumulates across queries on this executor.
  const int64_t scanned_before = stats_.rows_scanned;
  const int64_t pushdown_before = stats_.rows_after_pushdown;
  const int64_t predictions_before = stats_.predictions_made;
  // The guard and model calls inside the scan are O(columns) each, so a
  // small stride keeps expiry latency low at negligible polling cost.
  DeadlineChecker deadline(&cancel_, /*stride=*/32);

  // Column headers.
  QueryResult result;
  for (const auto& item : stmt.items) {
    result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                : item.alias);
  }

  // Classify the query: aggregation applies when GROUP BY is present or any
  // select item contains an aggregate call.
  bool has_aggregates = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    has_aggregates = has_aggregates || ContainsAggregate(item.expr.get());
  }

  FilterPlan filter =
      PlanFilter(stmt.where.get(), options_.enable_predicate_pushdown);

  Evaluator eval(this, table);

  if (!has_aggregates) {
    // Plain scan-filter-project.
    for (RowIndex r = 0; r < table->num_rows(); ++r) {
      GUARDRAIL_RETURN_NOT_OK(deadline.Check("sql scan"));
      GUARDRAIL_FAILPOINT("sql.scan_row");
      ++stats_.rows_scanned;
      GUARDRAIL_COUNTER_INC("sql.rows_scanned");
      eval.BeginRow(r);
      bool pass = true;
      for (const Expr* conjunct : filter.base_conjuncts) {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
        if (!v.Truthy()) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      ++stats_.rows_after_pushdown;
      for (const Expr* conjunct : filter.ml_conjuncts) {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
        if (!v.Truthy()) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      std::vector<SqlValue> out_row;
      for (const auto& item : stmt.items) {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(item.expr.get()));
        out_row.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out_row));
      // Early exit only when no ORDER BY needs the full result set.
      if (stmt.order_by.empty() && stmt.limit >= 0 &&
          static_cast<int64_t>(result.rows.size()) >= stmt.limit) {
        break;
      }
    }
    GUARDRAIL_RETURN_NOT_OK(ApplyOrderByAndLimit(stmt, &result));
    span.AddArg("rows_scanned", stats_.rows_scanned - scanned_before);
    span.AddArg("rows_after_pushdown",
                stats_.rows_after_pushdown - pushdown_before);
    span.AddArg("predictions", stats_.predictions_made - predictions_before);
    span.AddArg("rows_out", static_cast<int64_t>(result.rows.size()));
    return result;
  }

  // ---- Aggregation path ----
  std::vector<const Expr*> agg_nodes;
  for (const auto& item : stmt.items) {
    CollectAggregates(item.expr.get(), &agg_nodes);
  }
  // Aggregates referenced only by HAVING still need per-group state.
  CollectAggregates(stmt.having.get(), &agg_nodes);

  struct Group {
    std::vector<SqlValue> keys;
    std::vector<AggState> states;
    RowIndex representative = -1;
  };
  std::map<std::string, Group> groups;

  for (RowIndex r = 0; r < table->num_rows(); ++r) {
    GUARDRAIL_RETURN_NOT_OK(deadline.Check("sql aggregation scan"));
    GUARDRAIL_FAILPOINT("sql.scan_row");
    ++stats_.rows_scanned;
    GUARDRAIL_COUNTER_INC("sql.rows_scanned");
    eval.BeginRow(r);
    bool pass = true;
    for (const Expr* conjunct : filter.base_conjuncts) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
      if (!v.Truthy()) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++stats_.rows_after_pushdown;
    for (const Expr* conjunct : filter.ml_conjuncts) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(conjunct));
      if (!v.Truthy()) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;

    // Group key.
    std::string key;
    std::vector<SqlValue> key_values;
    for (const auto& g : stmt.group_by) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(g.get()));
      key += v.ToDisplayString();
      key += '\x1f';
      key_values.push_back(std::move(v));
    }
    Group& group = groups[key];
    if (group.representative < 0) {
      group.representative = r;
      group.keys = std::move(key_values);
      group.states.resize(agg_nodes.size());
    }

    // Update aggregate states.
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      const Expr* agg = agg_nodes[i];
      AggState& state = group.states[i];
      if (agg->star) {
        ++state.count;
        continue;
      }
      if (agg->args.size() != 1) {
        return Status::InvalidArgument(agg->call_name +
                                       " expects one argument");
      }
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(agg->args[0].get()));
      if (v.is_null()) continue;
      ++state.count;
      double n = 0;
      if (v.ToNumber(&n)) state.sum += n;
      if (!state.has_minmax) {
        state.min = v;
        state.max = v;
        state.has_minmax = true;
      } else {
        if (v.Compare(state.min) < 0) state.min = v;
        if (v.Compare(state.max) > 0) state.max = v;
      }
    }
  }

  // Finalize each group.
  for (auto& [key, group] : groups) {
    (void)key;
    std::map<const Expr*, SqlValue> finalized;
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      const Expr* agg = agg_nodes[i];
      const AggState& state = group.states[i];
      SqlValue v;
      if (agg->call_name == "COUNT") {
        v = SqlValue::Number(static_cast<double>(state.count));
      } else if (agg->call_name == "SUM") {
        v = state.count > 0 ? SqlValue::Number(state.sum)
                            : SqlValue::MakeNull();
      } else if (agg->call_name == "AVG") {
        v = state.count > 0
                ? SqlValue::Number(state.sum / static_cast<double>(state.count))
                : SqlValue::MakeNull();
      } else if (agg->call_name == "MIN") {
        v = state.has_minmax ? state.min : SqlValue::MakeNull();
      } else {
        v = state.has_minmax ? state.max : SqlValue::MakeNull();
      }
      finalized.emplace(agg, std::move(v));
    }
    eval.BeginRow(group.representative);
    eval.SetAggregateResults(&finalized);
    if (stmt.having != nullptr) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue keep, eval.Eval(stmt.having.get()));
      if (!keep.Truthy()) {
        eval.SetAggregateResults(nullptr);
        continue;
      }
    }
    std::vector<SqlValue> out_row;
    for (const auto& item : stmt.items) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, eval.Eval(item.expr.get()));
      out_row.push_back(std::move(v));
    }
    eval.SetAggregateResults(nullptr);
    result.rows.push_back(std::move(out_row));
  }
  GUARDRAIL_RETURN_NOT_OK(ApplyOrderByAndLimit(stmt, &result));
  span.AddArg("rows_scanned", stats_.rows_scanned - scanned_before);
  span.AddArg("rows_after_pushdown",
              stats_.rows_after_pushdown - pushdown_before);
  span.AddArg("predictions", stats_.predictions_made - predictions_before);
  span.AddArg("rows_out", static_cast<int64_t>(result.rows.size()));
  return result;
}

}  // namespace sql
}  // namespace guardrail
