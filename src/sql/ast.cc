#include "sql/ast.h"

#include <cmath>

#include "common/string_util.h"

namespace guardrail {
namespace sql {

bool SqlValue::Truthy() const {
  if (is_boolean()) return boolean();
  if (is_number()) return number() != 0.0;
  if (is_string()) return StrEqualsIgnoreCase(string(), "true");
  return false;
}

bool SqlValue::ToNumber(double* out) const {
  if (is_number()) {
    *out = number();
    return true;
  }
  if (is_boolean()) {
    *out = boolean() ? 1.0 : 0.0;
    return true;
  }
  if (is_string()) return ParseDouble(string(), out);
  return false;
}

std::string SqlValue::ToDisplayString() const {
  if (is_null()) return "NULL";
  if (is_boolean()) return boolean() ? "true" : "false";
  if (is_number()) return FormatDouble(number(), 10);
  return string();
}

int SqlValue::Compare(const SqlValue& other) const {
  // NaN has no place among the numbers' order, so it sorts as text.
  double a, b;
  const bool a_number = ToNumber(&a) && !std::isnan(a);
  const bool b_number = other.ToNumber(&b) && !std::isnan(b);
  if (a_number != b_number) return a_number ? -1 : 1;
  if (a_number) {
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  std::string sa = ToDisplayString(), sb = other.ToDisplayString();
  if (sa < sb) return -1;
  if (sa > sb) return 1;
  return 0;
}

bool SqlValue::Equals(const SqlValue& other) const {
  if (is_null() || other.is_null()) return false;
  return Compare(other) == 0;
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->column = column;
  out->op = op;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  for (const auto& [when, then] : when_clauses) {
    out->when_clauses.emplace_back(when->Clone(), then->Clone());
  }
  if (else_clause) out->else_clause = else_clause->Clone();
  out->call_name = call_name;
  for (const auto& arg : args) out->args.push_back(arg->Clone());
  out->star = star;
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_string()) return "'" + literal.string() + "'";
      return literal.ToDisplayString();
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kUnary:
      // Fully parenthesized so unary expressions stay valid operands
      // anywhere (e.g. `(NOT a) >= b` — a bare NOT cannot appear on the
      // right of a comparison in the grammar).
      return op == "NOT" ? "(NOT " + left->ToString() + ")"
                         : "(-" + left->ToString() + ")";
    case ExprKind::kBinary:
      return "(" + left->ToString() + " " + op + " " + right->ToString() + ")";
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (const auto& [when, then] : when_clauses) {
        out += " WHEN " + when->ToString() + " THEN " + then->ToString();
      }
      if (else_clause) out += " ELSE " + else_clause->ToString();
      out += " END";
      return out;
    }
    case ExprKind::kCall: {
      std::string out = call_name + "(";
      if (star) {
        out += "*";
      } else {
        for (size_t i = 0; i < args.size(); ++i) {
          if (i > 0) out += ", ";
          out += args[i]->ToString();
        }
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace sql
}  // namespace guardrail
