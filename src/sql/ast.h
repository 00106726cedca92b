#ifndef GUARDRAIL_SQL_AST_H_
#define GUARDRAIL_SQL_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace guardrail {
namespace sql {

/// Runtime value of SQL expressions: NULL, number, string, or boolean.
class SqlValue {
 public:
  SqlValue() : value_(Null{}) {}
  static SqlValue MakeNull() { return SqlValue(); }
  static SqlValue Number(double n) {
    SqlValue v;
    v.value_ = n;
    return v;
  }
  static SqlValue String(std::string s) {
    SqlValue v;
    v.value_ = std::move(s);
    return v;
  }
  static SqlValue Boolean(bool b) {
    SqlValue v;
    v.value_ = b;
    return v;
  }

  bool is_null() const { return std::holds_alternative<Null>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  bool is_boolean() const { return std::holds_alternative<bool>(value_); }

  double number() const { return std::get<double>(value_); }
  const std::string& string() const { return std::get<std::string>(value_); }
  bool boolean() const { return std::get<bool>(value_); }

  /// Truthiness for WHERE: non-zero number / true boolean; NULL and strings
  /// are false except "true".
  bool Truthy() const;

  /// Numeric coercion: numbers verbatim, booleans 0/1, numeric-looking
  /// strings parsed; returns false when impossible (or NULL).
  bool ToNumber(double* out) const;

  /// Display form (NULL -> "NULL").
  std::string ToDisplayString() const;

  /// SQL comparison, a total order: values that coerce to a number (NaN
  /// aside) sort before those that do not; numbers compare by value, the
  /// rest by display string. Returns 0/-1/+1; NULL handled by callers.
  int Compare(const SqlValue& other) const;

  bool Equals(const SqlValue& other) const;

 private:
  struct Null {};
  std::variant<Null, double, std::string, bool> value_;
};

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,      // - , NOT
  kBinary,     // + - * / = != < <= > >= AND OR
  kCase,       // CASE WHEN ... THEN ... [ELSE ...] END
  kCall,       // function call: aggregates, ML_PREDICT
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression tree node. A deliberately flat struct (RocksDB-style plain
/// data) — the evaluator switches on `kind`.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  SqlValue literal;

  // kColumnRef
  std::string column;

  // kUnary / kBinary: op is "-", "NOT", "+", "*", "/", "=", "!=", "<", "<=",
  // ">", ">=", "AND", "OR".
  std::string op;
  ExprPtr left;
  ExprPtr right;

  // kCase
  std::vector<std::pair<ExprPtr, ExprPtr>> when_clauses;
  ExprPtr else_clause;

  // kCall: name upper-cased; `star` marks COUNT(*).
  std::string call_name;
  std::vector<ExprPtr> args;
  bool star = false;

  /// Deep copy.
  ExprPtr Clone() const;

  /// Unparsed (canonical) form, for plan explanation and test assertions.
  std::string ToString() const;
};

/// One SELECT output column.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // Empty = derived from the expression text.
};

/// One ORDER BY key: an output column referenced by alias, expression text,
/// or 1-based position, plus a direction.
struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed SELECT statement over a single table (the paper's research
/// prototype supports no native JOIN; multi-table queries go through
/// materialized views, see Sec. 7).
struct SelectStatement {
  std::vector<SelectItem> items;
  std::string table_name;
  ExprPtr where;                  // Optional.
  std::vector<ExprPtr> group_by;   // Optional.
  ExprPtr having;                  // Optional; filters groups post-aggregation.
  std::vector<OrderKey> order_by;  // Optional; sorts the result set.
  int64_t limit = -1;              // Optional; -1 = none.
};

}  // namespace sql
}  // namespace guardrail

#endif  // GUARDRAIL_SQL_AST_H_
