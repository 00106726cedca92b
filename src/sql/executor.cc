#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/telemetry/telemetry.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace guardrail {
namespace sql {

namespace {

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
  const uint64_t h = Fnv1a(CanonicalQueryText(stmt));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ------------------------------------------------------------ operators --

enum class Op {
  kNone, kNot, kNegate, kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv,
};

Result<Op> DecodeBinaryOp(const std::string& op) {
  static const std::pair<const char*, Op> kOps[] = {
      {"AND", Op::kAnd}, {"OR", Op::kOr},  {"=", Op::kEq},  {"!=", Op::kNe},
      {"<", Op::kLt},    {"<=", Op::kLe},  {">", Op::kGt},  {">=", Op::kGe},
      {"+", Op::kAdd},   {"-", Op::kSub},  {"*", Op::kMul}, {"/", Op::kDiv},
  };
  for (const auto& [text, decoded] : kOps) {
    if (op == text) return decoded;
  }
  return Status::Internal("unknown binary operator " + op);
}

SqlValue ApplyUnary(Op op, const SqlValue& inner) {
  if (op == Op::kNot) {
    if (inner.is_null()) return SqlValue::MakeNull();
    return SqlValue::Boolean(!inner.Truthy());
  }
  double n = 0;
  if (!inner.ToNumber(&n)) return SqlValue::MakeNull();
  return SqlValue::Number(-n);
}

/// Comparison and arithmetic operators (AND / OR short-circuit at their
/// call sites).
SqlValue ApplyBinary(Op op, const SqlValue& left, const SqlValue& right) {
  switch (op) {
    case Op::kEq: case Op::kNe: case Op::kLt:
    case Op::kLe: case Op::kGt: case Op::kGe: {
      if (left.is_null() || right.is_null()) return SqlValue::MakeNull();
      const int cmp = left.Compare(right);
      bool result = false;
      if (op == Op::kEq) result = cmp == 0;
      else if (op == Op::kNe) result = cmp != 0;
      else if (op == Op::kLt) result = cmp < 0;
      else if (op == Op::kLe) result = cmp <= 0;
      else if (op == Op::kGt) result = cmp > 0;
      else result = cmp >= 0;
      return SqlValue::Boolean(result);
    }
    default:
      break;
  }
  double a = 0, b = 0;
  if (!left.ToNumber(&a) || !right.ToNumber(&b)) return SqlValue::MakeNull();
  switch (op) {
    case Op::kAdd: return SqlValue::Number(a + b);
    case Op::kSub: return SqlValue::Number(a - b);
    case Op::kMul: return SqlValue::Number(a * b);
    default:
      if (b == 0.0) return SqlValue::MakeNull();
      return SqlValue::Number(a / b);
  }
}

// ---------------------------------------------------------------- blocks --

/// Scanned rows per block: the ColumnBatch the guard evaluates, the unit of
/// every mask, and the batch handed to Model::PredictBatch.
constexpr int64_t kBlockRows = 1024;
constexpr size_t kBlockWords = kBlockRows / 64;

/// A row mask over one block (rowmask layout, kBlockWords words).
using Mask = std::vector<uint64_t>;

Mask EmptyMask() { return Mask(kBlockWords, 0); }

bool Any(const Mask& mask) {
  for (uint64_t word : mask) {
    if (word != 0) return true;
  }
  return false;
}

/// Calls fn(r) for every row r set in `mask`, ascending.
template <typename Fn>
void ForEachRow(const Mask& mask, const Fn& fn) {
  for (size_t w = 0; w < kBlockWords; ++w) {
    rowmask::ForEachBit(mask[w], [&](int bit) {
      fn(static_cast<int64_t>(w) * 64 + bit);
    });
  }
}

/// Rows of `mask` below `end`.
Mask Below(Mask mask, int64_t end) {
  for (size_t w = 0; w < kBlockWords; ++w) {
    const int64_t first = static_cast<int64_t>(w) * 64;
    if (end <= first) {
      mask[w] = 0;
    } else if (end < first + 64) {
      mask[w] &= (uint64_t{1} << (end - first)) - 1;
    }
  }
  return mask;
}

/// Rows of `mask` in [begin, end).
Mask Range(Mask mask, int64_t begin, int64_t end) {
  mask = Below(std::move(mask), end);
  const Mask before = Below(Mask(kBlockWords, ~uint64_t{0}), begin);
  for (size_t w = 0; w < kBlockWords; ++w) mask[w] &= ~before[w];
  return mask;
}

int64_t CountBelow(const Mask& mask, int64_t end) {
  return rowmask::Count(Below(mask, end));
}

// ---------------------------------------------------------- query plan --

/// Sources a sub-expression can read: table column `attr` is source `attr`;
/// the prediction of the query's model slot m is source num_columns + m.
using SourceSet = std::vector<int>;  // Sorted, unique.

SourceSet Union(SourceSet a, const SourceSet& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// Per-code state bits.
constexpr uint8_t kReady = 1;
constexpr uint8_t kTruthy = 2;
constexpr uint8_t kNumeric = 4;
constexpr uint8_t kIsNull = 8;

/// A compiled expression node: names resolved, operators decoded, and the
/// sources it reads worked out once per query.
struct Node {
  ExprKind kind = ExprKind::kLiteral;
  Op op = Op::kNone;
  SqlValue literal;
  AttrIndex attr = -1;  // kColumnRef.
  int model = -1;       // ML_PREDICT: model slot.
  int aggregate = -1;   // Aggregate call in a post-aggregation expression.
  /// Unary: {operand}; binary: {left, right}; CASE: when/then pairs, then
  /// the ELSE branch when has_else.
  std::vector<Node*> kids;
  bool has_else = false;

  /// Sources read anywhere below, and those read on every evaluation (not
  /// behind a CASE branch or the right side of AND / OR).
  SourceSet reads;
  SourceSet always_reads;
  bool has_aggregate = false;

  /// Reads no source and no aggregate: one value for every row.
  bool constant = false;
  /// When >= 0, the node reads only this source and, if it is a model,
  /// reaches the model on every evaluation: its value is a function of the
  /// source's code, tabulated once per query below (index code + 1).
  int source = -1;

  std::vector<SqlValue> values;
  std::vector<uint8_t> state;
  std::vector<double> numbers;
};

/// One aggregate call of an aggregation query.
struct AggSpec {
  enum Kind { kCount, kSum, kAvg, kMin, kMax } kind = kCount;
  bool star = false;
  Node* arg = nullptr;  // Scan-context argument; nullptr for COUNT(*).
};

bool AggregateKindOf(const std::string& name, AggSpec::Kind* kind) {
  static const std::pair<const char*, AggSpec::Kind> kKinds[] = {
      {"COUNT", AggSpec::kCount}, {"SUM", AggSpec::kSum},
      {"AVG", AggSpec::kAvg},     {"MIN", AggSpec::kMin},
      {"MAX", AggSpec::kMax}};
  for (const auto& [text, k] : kKinds) {
    if (name == text) {
      *kind = k;
      return true;
    }
  }
  return false;
}

/// Aggregate accumulator for one (group, aggregate) pair.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool has_minmax = false;
  SqlValue min;
  SqlValue max;
};

/// The value of an expression over the rows of one mask.
struct Vec {
  enum Kind { kConst, kCoded, kRows } kind = kConst;
  SqlValue constant;         // kConst.
  Node* node = nullptr;      // kCoded: node->values[codes[r] + 1].
  const ValueId* codes = nullptr;
  std::vector<SqlValue> rows;  // kRows, indexed by block row.
};

/// Supplies source codes to the scalar evaluator.
class SourceReader {
 public:
  virtual ~SourceReader() = default;
  virtual Result<ValueId> Code(int source) = 0;
};

/// Reads one fixed code for the node's single source.
class FixedCode : public SourceReader {
 public:
  explicit FixedCode(ValueId code) : code_(code) {}
  Result<ValueId> Code(int) override { return code_; }

 private:
  ValueId code_;
};

/// One group of an aggregation query: its key, first row and that row's
/// guard and model outcomes from the scan, so the post-aggregation pass
/// guards and predicts it at most once more.
struct Group {
  std::vector<int32_t> classes;  // Key class per GROUP BY expression.
  RowIndex representative = -1;
  bool guarded = false;
  bool repaired = false;
  Row guarded_row;                  // When repaired.
  std::vector<ValueId> predictions;  // Per model slot; kUnpredicted if none.
  std::vector<AggState> states;
};

constexpr ValueId kUnpredicted = std::numeric_limits<ValueId>::min();

/// One GROUP BY expression: its value classes (values with the same display
/// string group together, as the key string did row at a time).
struct KeyPart {
  Node* node = nullptr;
  uint64_t radix = 1;  // Bound on the number of classes.
  std::unordered_map<std::string, int32_t> ids;
  std::vector<std::string> names;
  std::vector<int32_t> by_code;  // Per-code nodes: code + 1 -> class or -1.

  int32_t Intern(std::string display) {
    auto [it, inserted] =
        ids.emplace(std::move(display), static_cast<int32_t>(names.size()));
    if (inserted) names.push_back(it->first);
    return it->second;
  }
};

/// Groups whose key space (the product of the key parts' class bounds) is
/// at most this many keys index a dense array; larger spaces hash the key's
/// class vector.
constexpr uint64_t kDenseGroupKeys = uint64_t{1} << 16;

/// Runs one SELECT over one table: compiles it, scans the table in blocks
/// and writes the result.
///
/// Each block is a ColumnBatch::FromTable view. Base (model-free) WHERE
/// conjuncts run first, then the model-dependent ones, each on the rows the
/// previous ones kept; CASE branches and AND / OR operands run on the rows
/// row-at-a-time evaluation would reach. A sub-expression that reads one
/// column, or one model's prediction, is evaluated once per dictionary code
/// (plus NULL) per query and looked up per row; only expressions over two
/// or more sources build SqlValues per row. ML_PREDICT runs at most once per
/// (row, model): the guard reads each row handed to a model once, repaired
/// rows are predicted from their guarded Row and every other row through
/// Model::PredictBatch.
///
/// A row's first error wins, and rows after the first erroring row are
/// neither guarded nor predicted: the error and the scan counters are those
/// of evaluating row by row.
class QueryExecution {
 public:
  using ModelMap = std::unordered_map<std::string, const ml::Model*>;

  QueryExecution(const Table& table, const ModelMap& models,
                 const core::Guard* guard, core::ErrorPolicy policy,
                 const CancellationToken* cancel, ExecStats* stats)
      : table_(table),
        schema_(table.schema()),
        registered_models_(models),
        guard_(guard),
        policy_(policy),
        cancel_(cancel),
        stats_(stats) {}

  ~QueryExecution() {
    // Each timing is one sum of nanoseconds per query, converted once, so
    // the counters and ExecStats read the same measurement.
    stats_->guard_seconds += static_cast<double>(guard_ns_) * 1e-9;
    stats_->inference_seconds += static_cast<double>(inference_ns_) * 1e-9;
    GUARDRAIL_COUNTER_ADD("sql.guard_micros", guard_ns_ / 1000);
    GUARDRAIL_COUNTER_ADD("sql.inference_micros", inference_ns_ / 1000);
    GUARDRAIL_COUNTER_ADD("sql.rows_scanned", rows_scanned_);
    GUARDRAIL_COUNTER_ADD("sql.predictions", predictions_);
  }

  Result<QueryResult> Run(const SelectStatement& stmt, bool pushdown);

 private:
  struct ModelSlot {
    std::string name;
    const ml::Model* model = nullptr;
    AttrIndex label = -1;
    Mask predicted;                 // Rows of the block predicted so far.
    std::vector<ValueId> codes;     // Per block row.
  };

  using Clock = std::chrono::steady_clock;
  static int64_t NanosSince(Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  }

  // ---- compilation ----
  enum class Context { kScan, kPostAggregate };
  Result<Node*> Compile(const Expr* expr, Context context);
  /// The query's slot for the model an ML_PREDICT call names.
  Result<int> ModelSlotFor(const Expr* call);
  /// The attribute whose dictionary a source's codes index.
  const Attribute& SourceAttribute(int source) const;
  int32_t Domain(int source) const {
    return SourceAttribute(source).domain_size();
  }

  // ---- scalar evaluation ----
  Result<SqlValue> EvalScalar(const Node* node, SourceReader* reader);
  /// Tabulates `node` at `code` (a code of its source) unless done.
  void Prepare(Node* node, ValueId code);
  uint8_t StateOf(Node* node, ValueId code) {
    const size_t i = static_cast<size_t>(code + 1);
    if (i >= node->state.size()) GrowTables(node, i);
    if ((node->state[i] & kReady) == 0) Prepare(node, code);
    return node->state[i];
  }
  /// Grows a per-code node's tables to hold `index` (code + 1), which must
  /// be within the source's domain. Codes number labels in order of first
  /// appearance, so a scan that stops early sizes them to a prefix.
  void GrowTables(Node* node, size_t index);

  // ---- block evaluation ----
  void StartBlock(RowIndex begin, int64_t rows);
  /// Trips "sql.scan_row" once per block row in [begin, end), in row order,
  /// up to the first error.
  void TripScanRows(int64_t begin, int64_t end);
  Vec Eval(Node* node, const Mask& mask);
  Mask Truth(const Vec& vec, const Mask& mask);
  const SqlValue& At(Vec& vec, int64_t r);
  const ValueId* SourceCodes(int source, const Mask& mask);
  void EnsurePredictions(ModelSlot& slot, const Mask& mask);
  void GuardRows(Mask* need);
  void RecordError(int64_t r, Status status, bool row_scanned);
  Mask Filter(const std::vector<Node*>& conjuncts, Mask mask);
  /// Adds the block's rows up to the stop (exclusive) to the scan counters.
  void CountScanned(int64_t end, const Mask& base_pass);

  // ---- post-aggregation ----
  class RepresentativeReader;
  Result<ValueId> RepresentativePrediction(Group* group, int slot);

  // ---- the two query shapes ----
  Result<QueryResult> RunProjection(const SelectStatement& stmt,
                                    QueryResult result);
  Result<QueryResult> RunAggregation(const SelectStatement& stmt,
                                     QueryResult result);
  int32_t ClassOf(KeyPart& part, Vec& key, int64_t r);
  int32_t GroupOf(std::vector<Vec>& keys, int64_t r);
  void Accumulate(Group* group, std::vector<Vec>& args, int64_t r);

  const Table& table_;
  const Schema& schema_;
  const ModelMap& registered_models_;
  const core::Guard* guard_;
  const core::ErrorPolicy policy_;
  const CancellationToken* cancel_;
  ExecStats* stats_;

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<ModelSlot> models_;
  std::vector<AggSpec> aggregates_;
  std::vector<Node*> base_conjuncts_;
  std::vector<Node*> ml_conjuncts_;

  // Block state.
  ColumnBatch block_;
  RowIndex block_begin_ = 0;
  int64_t block_rows_ = 0;
  Mask live_;       // Rows before the block's first error.
  Mask guarded_;    // Rows the guard has read.
  Mask repaired_;   // Rows the guard changed.
  std::vector<Row> guarded_rows_;  // Per block row, when repaired.
  bool block_evaluated_ = false;
  int64_t error_row_ = kBlockRows;
  bool error_row_scanned_ = false;
  Status error_;
  bool trip_scan_row_ = false;
  bool trip_guard_row_ = false;

  std::unique_ptr<core::GuardExecutor> guard_executor_;

  // Aggregation state.
  std::vector<KeyPart> key_parts_;
  std::vector<Group> groups_;
  bool dense_ = true;
  std::vector<int32_t> dense_groups_;  // Mixed-radix key -> group or -1.
  std::unordered_map<std::string, int32_t> hashed_groups_;  // Class bytes.
  std::vector<int32_t> key_classes_;
  /// Aggregate values of the group the post-aggregation pass is on.
  const std::vector<SqlValue>* finalized_ = nullptr;

  int64_t guard_ns_ = 0;
  int64_t inference_ns_ = 0;
  int64_t rows_scanned_ = 0;
  int64_t predictions_ = 0;
};

// ------------------------------------------------------------ compile --

const Attribute& QueryExecution::SourceAttribute(int source) const {
  const int columns = schema_.num_attributes();
  return schema_.attribute(
      source < columns ? source
                       : models_[static_cast<size_t>(source - columns)].label);
}

Result<Node*> QueryExecution::Compile(const Expr* expr, Context context) {
  nodes_.push_back(std::make_unique<Node>());
  Node* node = nodes_.back().get();
  node->kind = expr->kind;
  auto compile_kid = [&](const Expr* kid, bool on_every_path) -> Status {
    GUARDRAIL_ASSIGN_OR_RETURN(Node* compiled, Compile(kid, context));
    node->kids.push_back(compiled);
    node->reads = Union(std::move(node->reads), compiled->reads);
    if (on_every_path) {
      node->always_reads =
          Union(std::move(node->always_reads), compiled->always_reads);
    }
    node->has_aggregate = node->has_aggregate || compiled->has_aggregate;
    return Status::OK();
  };

  switch (expr->kind) {
    case ExprKind::kLiteral:
      node->literal = expr->literal;
      break;
    case ExprKind::kColumnRef:
      node->attr = schema_.FindAttribute(expr->column);
      if (node->attr < 0) {
        return Status::NotFound("unknown column '" + expr->column + "'");
      }
      node->reads = node->always_reads = {node->attr};
      break;
    case ExprKind::kUnary:
      node->op = expr->op == "NOT" ? Op::kNot : Op::kNegate;
      GUARDRAIL_RETURN_NOT_OK(compile_kid(expr->left.get(), true));
      break;
    case ExprKind::kBinary: {
      GUARDRAIL_ASSIGN_OR_RETURN(node->op, DecodeBinaryOp(expr->op));
      const bool short_circuit = node->op == Op::kAnd || node->op == Op::kOr;
      GUARDRAIL_RETURN_NOT_OK(compile_kid(expr->left.get(), true));
      GUARDRAIL_RETURN_NOT_OK(compile_kid(expr->right.get(), !short_circuit));
      break;
    }
    case ExprKind::kCase: {
      bool first = true;
      for (const auto& [when, then] : expr->when_clauses) {
        GUARDRAIL_RETURN_NOT_OK(compile_kid(when.get(), first));
        GUARDRAIL_RETURN_NOT_OK(compile_kid(then.get(), false));
        first = false;
      }
      if (expr->else_clause) {
        node->has_else = true;
        GUARDRAIL_RETURN_NOT_OK(
            compile_kid(expr->else_clause.get(), expr->when_clauses.empty()));
      }
      break;
    }
    case ExprKind::kCall: {
      const std::string& name = expr->call_name;
      AggSpec spec;
      if (name == "ML_PREDICT") {
        GUARDRAIL_ASSIGN_OR_RETURN(node->model, ModelSlotFor(expr));
        node->reads = node->always_reads = {schema_.num_attributes() +
                                            node->model};
      } else if (context == Context::kPostAggregate &&
                 AggregateKindOf(name, &spec.kind)) {
        // Resolves to the group's finalized value; the argument is
        // evaluated by the scan.
        spec.star = expr->star;
        if (!spec.star) {
          if (expr->args.size() != 1) {
            return Status::InvalidArgument(name + " expects one argument");
          }
          GUARDRAIL_ASSIGN_OR_RETURN(
              spec.arg, Compile(expr->args[0].get(), Context::kScan));
        }
        node->aggregate = static_cast<int>(aggregates_.size());
        node->has_aggregate = true;
        aggregates_.push_back(spec);
      } else {
        return Status::InvalidArgument("aggregate " + name +
                                       " in a non-aggregated context");
      }
      break;
    }
  }

  const SourceSet& reads = node->reads;
  node->constant = !node->has_aggregate && reads.empty();
  if (!node->has_aggregate && reads.size() == 1 &&
      (reads[0] < schema_.num_attributes() ||
       !node->always_reads.empty())) {
    node->source = reads[0];
  }
  if (node->constant) {
    FixedCode none(kNullValue);
    GUARDRAIL_ASSIGN_OR_RETURN(node->literal, EvalScalar(node, &none));
  }
  return node;
}

Result<int> QueryExecution::ModelSlotFor(const Expr* call) {
  if (call->args.size() != 1 || call->args[0]->kind != ExprKind::kLiteral ||
      !call->args[0]->literal.is_string()) {
    return Status::InvalidArgument(
        "ML_PREDICT expects a single string literal model name");
  }
  const std::string& name = call->args[0]->literal.string();
  auto it = registered_models_.find(name);
  if (it == registered_models_.end()) {
    return Status::NotFound("unregistered model '" + name + "'");
  }
  for (size_t m = 0; m < models_.size(); ++m) {
    if (models_[m].name == name) return static_cast<int>(m);
  }
  ModelSlot slot;
  slot.name = name;
  slot.model = it->second;
  slot.label = it->second->label_column();
  slot.predicted = EmptyMask();
  slot.codes.assign(kBlockRows, kNullValue);
  models_.push_back(std::move(slot));
  return static_cast<int>(models_.size()) - 1;
}

// -------------------------------------------------------------- scalar --

Result<SqlValue> QueryExecution::EvalScalar(const Node* node,
                                            SourceReader* reader) {
  switch (node->kind) {
    case ExprKind::kLiteral:
      return node->literal;
    case ExprKind::kColumnRef: {
      GUARDRAIL_ASSIGN_OR_RETURN(ValueId code, reader->Code(node->attr));
      if (code == kNullValue) return SqlValue::MakeNull();
      return SqlValue::String(SourceAttribute(node->attr).label(code));
    }
    case ExprKind::kUnary: {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue inner,
                                 EvalScalar(node->kids[0], reader));
      return ApplyUnary(node->op, inner);
    }
    case ExprKind::kBinary: {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue left,
                                 EvalScalar(node->kids[0], reader));
      if (node->op == Op::kAnd || node->op == Op::kOr) {
        const bool l = left.Truthy();
        if (node->op == Op::kAnd && !l) return SqlValue::Boolean(false);
        if (node->op == Op::kOr && l) return SqlValue::Boolean(true);
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right,
                                   EvalScalar(node->kids[1], reader));
        return SqlValue::Boolean(right.Truthy());
      }
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue right,
                                 EvalScalar(node->kids[1], reader));
      return ApplyBinary(node->op, left, right);
    }
    case ExprKind::kCase: {
      const size_t pairs = node->kids.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        GUARDRAIL_ASSIGN_OR_RETURN(SqlValue cond,
                                   EvalScalar(node->kids[2 * i], reader));
        if (cond.Truthy()) return EvalScalar(node->kids[2 * i + 1], reader);
      }
      if (node->has_else) return EvalScalar(node->kids.back(), reader);
      return SqlValue::MakeNull();
    }
    case ExprKind::kCall: {
      if (node->aggregate >= 0) {
        GUARDRAIL_CHECK(finalized_ != nullptr);
        return (*finalized_)[static_cast<size_t>(node->aggregate)];
      }
      const int source = schema_.num_attributes() + node->model;
      GUARDRAIL_ASSIGN_OR_RETURN(ValueId code, reader->Code(source));
      if (code == kNullValue) return SqlValue::MakeNull();
      return SqlValue::String(SourceAttribute(source).label(code));
    }
  }
  return Status::Internal("unknown expression kind");
}

void QueryExecution::Prepare(Node* node, ValueId code) {
  const size_t i = static_cast<size_t>(code + 1);
  FixedCode reader(code);
  Result<SqlValue> value = EvalScalar(node, &reader);
  GUARDRAIL_CHECK(value.ok());
  const SqlValue& v = *value;
  uint8_t state = kReady;
  if (v.Truthy()) state |= kTruthy;
  if (v.is_null()) state |= kIsNull;
  double n = 0;
  if (v.ToNumber(&n)) {
    state |= kNumeric;
    node->numbers[i] = n;
  }
  node->values[i] = std::move(value).value();
  node->state[i] = state;
}

void QueryExecution::GrowTables(Node* node, size_t index) {
  const size_t limit = static_cast<size_t>(Domain(node->source)) + 1;
  GUARDRAIL_CHECK_LT(index, limit);
  const size_t size =
      std::min(limit, std::max(index + 1, 2 * node->state.size()));
  node->values.resize(size);
  node->state.resize(size, 0);
  node->numbers.resize(size, 0.0);
}

// --------------------------------------------------------------- blocks --

void QueryExecution::StartBlock(RowIndex begin, int64_t rows) {
  block_ = ColumnBatch::FromTable(table_, begin, rows);
  block_begin_ = begin;
  block_rows_ = rows;
  live_ = Below(Mask(kBlockWords, ~uint64_t{0}), rows);
  guarded_ = EmptyMask();
  repaired_ = EmptyMask();
  for (ModelSlot& slot : models_) slot.predicted = EmptyMask();
  block_evaluated_ = false;
  error_row_ = kBlockRows;
  error_row_scanned_ = false;
  error_ = Status::OK();
}

void QueryExecution::TripScanRows(int64_t begin, int64_t end) {
  if (!trip_scan_row_) return;
  for (int64_t r = begin; r < std::min(end, error_row_); ++r) {
    Status st = FailpointTrip("sql.scan_row");
    if (!st.ok()) {
      RecordError(r, std::move(st), /*row_scanned=*/false);
      return;
    }
  }
}

void QueryExecution::RecordError(int64_t r, Status status, bool row_scanned) {
  if (r >= error_row_) return;
  error_row_ = r;
  error_row_scanned_ = row_scanned;
  error_ = std::move(status);
  live_ = Below(std::move(live_), r);
}

void QueryExecution::CountScanned(int64_t end, const Mask& base_pass) {
  const int64_t rows = std::min(end, block_rows_);
  stats_->rows_scanned += rows;
  rows_scanned_ += rows;
  stats_->rows_after_pushdown += CountBelow(base_pass, rows);
}

const SqlValue& QueryExecution::At(Vec& vec, int64_t r) {
  switch (vec.kind) {
    case Vec::kConst:
      return vec.constant;
    case Vec::kCoded: {
      const ValueId code = vec.codes[r];
      StateOf(vec.node, code);
      return vec.node->values[static_cast<size_t>(code + 1)];
    }
    case Vec::kRows:
      break;
  }
  return vec.rows[static_cast<size_t>(r)];
}

Mask QueryExecution::Truth(const Vec& vec, const Mask& mask) {
  switch (vec.kind) {
    case Vec::kConst:
      return vec.constant.Truthy() ? mask : EmptyMask();
    case Vec::kCoded: {
      Mask out = EmptyMask();
      ForEachRow(mask, [&](int64_t r) {
        if (StateOf(vec.node, vec.codes[r]) & kTruthy) rowmask::Set(&out, r);
      });
      return out;
    }
    case Vec::kRows:
      break;
  }
  Mask out = EmptyMask();
  ForEachRow(mask, [&](int64_t r) {
    if (vec.rows[static_cast<size_t>(r)].Truthy()) rowmask::Set(&out, r);
  });
  return out;
}

Mask QueryExecution::Filter(const std::vector<Node*>& conjuncts, Mask mask) {
  for (Node* conjunct : conjuncts) {
    if (!Any(mask)) break;
    mask = Truth(Eval(conjunct, mask), mask);
  }
  return mask;
}

const ValueId* QueryExecution::SourceCodes(int source, const Mask& mask) {
  if (source < schema_.num_attributes()) return block_.column(source);
  ModelSlot& slot =
      models_[static_cast<size_t>(source - schema_.num_attributes())];
  EnsurePredictions(slot, mask);
  return slot.codes.data();
}

Vec QueryExecution::Eval(Node* node, const Mask& mask) {
  Vec out;
  if (node->constant || !Any(mask)) {
    out.constant = node->constant ? node->literal : SqlValue::MakeNull();
    return out;
  }
  if (node->source >= 0) {
    out.kind = Vec::kCoded;
    out.node = node;
    out.codes = SourceCodes(node->source, mask);
    return out;
  }
  // Two or more sources: row by row on codes, children first.
  switch (node->kind) {
    case ExprKind::kBinary:
      if (node->op == Op::kAnd || node->op == Op::kOr) {
        const Mask left = Truth(Eval(node->kids[0], mask), mask);
        Mask rest = mask;
        for (size_t w = 0; w < kBlockWords; ++w) {
          rest[w] &= node->op == Op::kAnd ? left[w] : ~left[w];
        }
        const Mask right = Truth(Eval(node->kids[1], rest), rest);
        out.kind = Vec::kRows;
        out.rows.resize(kBlockRows);
        ForEachRow(mask, [&](int64_t r) {
          out.rows[static_cast<size_t>(r)] = SqlValue::Boolean(
              rowmask::Test(right, r) ||
              (node->op == Op::kOr && rowmask::Test(left, r)));
        });
        return out;
      }
      [[fallthrough]];
    case ExprKind::kUnary: {
      std::vector<Vec> kids;
      for (Node* kid : node->kids) kids.push_back(Eval(kid, mask));
      out.kind = Vec::kRows;
      out.rows.resize(kBlockRows);
      ForEachRow(mask, [&](int64_t r) {
        out.rows[static_cast<size_t>(r)] =
            node->kind == ExprKind::kUnary
                ? ApplyUnary(node->op, At(kids[0], r))
                : ApplyBinary(node->op, At(kids[0], r), At(kids[1], r));
      });
      return out;
    }
    case ExprKind::kCase: {
      out.kind = Vec::kRows;
      out.rows.resize(kBlockRows);
      Mask remaining = mask;
      auto take = [&](Node* branch, const Mask& rows) {
        if (!Any(rows)) return;
        Vec value = Eval(branch, rows);
        ForEachRow(rows, [&](int64_t r) {
          out.rows[static_cast<size_t>(r)] = At(value, r);
        });
      };
      const size_t pairs = node->kids.size() / 2;
      for (size_t i = 0; i < pairs && Any(remaining); ++i) {
        const Mask taken =
            Truth(Eval(node->kids[2 * i], remaining), remaining);
        take(node->kids[2 * i + 1], taken);
        for (size_t w = 0; w < kBlockWords; ++w) remaining[w] &= ~taken[w];
      }
      if (node->has_else) take(node->kids.back(), remaining);
      return out;
    }
    default:
      break;
  }
  // Literals are constant; column refs and ML_PREDICT read one source.
  GUARDRAIL_CHECK(false);
  return out;
}

void QueryExecution::EnsurePredictions(ModelSlot& slot, const Mask& mask) {
  Mask need = EmptyMask();
  bool any = false;
  for (size_t w = 0; w < kBlockWords; ++w) {
    need[w] = mask[w] & live_[w] & ~slot.predicted[w];
    any = any || need[w] != 0;
  }
  if (!any) return;
  if (guard_ != nullptr) {
    GuardRows(&need);
    if (!Any(need)) return;
  }
  const auto start = Clock::now();
  Mask batch = need;
  for (size_t w = 0; w < kBlockWords; ++w) batch[w] &= ~repaired_[w];
  slot.model->PredictBatch(block_, batch, slot.codes.data());
  ForEachRow(need, [&](int64_t r) {
    if (rowmask::Test(repaired_, r)) {
      slot.codes[static_cast<size_t>(r)] =
          slot.model->Predict(guarded_rows_[static_cast<size_t>(r)]);
    }
  });
  inference_ns_ += NanosSince(start);
  const int64_t made = rowmask::Count(need);
  stats_->predictions_made += made;
  predictions_ += made;
  for (size_t w = 0; w < kBlockWords; ++w) slot.predicted[w] |= need[w];
}

void QueryExecution::GuardRows(Mask* need) {
  Mask read = *need;
  bool any = false;
  for (size_t w = 0; w < kBlockWords; ++w) {
    read[w] &= ~guarded_[w];
    any = any || read[w] != 0;
  }
  if (!any) return;
  const auto start = Clock::now();
  if (guard_executor_ == nullptr) {
    guard_executor_ = std::make_unique<core::GuardExecutor>(*guard_, policy_);
  }
  if (!block_evaluated_) {
    guard_executor_->Evaluate(block_);
    block_evaluated_ = true;
  }
  // The "sql.guard_row" failpoint trips once per row the guard reads.
  if (trip_guard_row_) {
    ForEachRow(read, [&](int64_t r) {
      if (r >= error_row_) return;
      Status st = FailpointTrip("sql.guard_row");
      if (!st.ok()) RecordError(r, std::move(st), /*row_scanned=*/true);
    });
    read = Below(std::move(read), error_row_);
  }
  if (guarded_rows_.empty()) guarded_rows_.resize(kBlockRows);
  guard_executor_->Run(read, [&](int64_t r, const core::GuardVerdict& verdict,
                                 const Row& row) {
    if (!verdict.status.ok()) {
      RecordError(r, verdict.status, /*row_scanned=*/true);
      return false;
    }
    if (verdict.repaired) {
      rowmask::Set(&repaired_, r);
      guarded_rows_[static_cast<size_t>(r)] = row;
      ++stats_->rows_guard_flagged;
    }
    return true;
  });
  for (size_t w = 0; w < kBlockWords; ++w) {
    guarded_[w] |= read[w];
    (*need)[w] &= live_[w];
  }
  guard_ns_ += NanosSince(start);
}

// ------------------------------------------------------------- queries --

Result<QueryResult> QueryExecution::Run(const SelectStatement& stmt,
                                        bool pushdown) {
  QueryResult result;
  for (const auto& item : stmt.items) {
    result.columns.push_back(item.alias.empty() ? item.expr->ToString()
                                                : item.alias);
  }
  FilterPlan filter = PlanFilter(stmt.where.get(), pushdown);
  for (const Expr* conjunct : filter.base_conjuncts) {
    GUARDRAIL_ASSIGN_OR_RETURN(Node* node, Compile(conjunct, Context::kScan));
    base_conjuncts_.push_back(node);
  }
  for (const Expr* conjunct : filter.ml_conjuncts) {
    GUARDRAIL_ASSIGN_OR_RETURN(Node* node, Compile(conjunct, Context::kScan));
    ml_conjuncts_.push_back(node);
  }
  trip_scan_row_ = FailpointRegistry::Instance().IsArmed("sql.scan_row");
  trip_guard_row_ = FailpointRegistry::Instance().IsArmed("sql.guard_row");

  // Aggregation applies when GROUP BY is present or any select item
  // contains an aggregate call.
  bool has_aggregates = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    has_aggregates = has_aggregates || ContainsAggregate(item.expr.get());
  }
  if (has_aggregates) return RunAggregation(stmt, std::move(result));
  return RunProjection(stmt, std::move(result));
}

Result<QueryResult> QueryExecution::RunProjection(const SelectStatement& stmt,
                                                  QueryResult result) {
  std::vector<Node*> items;
  for (const auto& item : stmt.items) {
    GUARDRAIL_ASSIGN_OR_RETURN(Node* node,
                               Compile(item.expr.get(), Context::kScan));
    items.push_back(node);
  }
  // Without ORDER BY, LIMIT stops the scan at the row that fills it (LIMIT
  // 0 after the first output row), so rows past it are never evaluated:
  // each window takes just enough base-filtered rows to fill the rest.
  const bool early_exit = stmt.order_by.empty() && stmt.limit >= 0;
  const int64_t stop_after = std::max<int64_t>(stmt.limit, 1);
  DeadlineChecker deadline(cancel_, /*stride=*/1);
  for (RowIndex begin = 0; begin < table_.num_rows(); begin += kBlockRows) {
    GUARDRAIL_RETURN_NOT_OK(deadline.Check("sql scan"));
    StartBlock(begin, std::min(kBlockRows, table_.num_rows() - begin));
    const Mask base_pass = Filter(base_conjuncts_, live_);
    int64_t window_begin = 0;
    bool done = false;
    while (!done && window_begin < block_rows_) {
      int64_t window_end = block_rows_;
      if (early_exit) {
        int64_t room =
            stop_after - static_cast<int64_t>(result.rows.size());
        window_end = window_begin;
        while (window_end < block_rows_ && room > 0) {
          if (rowmask::Test(base_pass, window_end)) --room;
          ++window_end;
        }
        if (room > 0) window_end = block_rows_;
      }
      TripScanRows(window_begin, window_end);
      const Mask window =
          Range(base_pass, window_begin, std::min(window_end, error_row_));
      const Mask pass = Filter(ml_conjuncts_, window);
      std::vector<Vec> values;
      for (Node* item : items) values.push_back(Eval(item, pass));
      if (!error_.ok()) {
        CountScanned(error_row_ + (error_row_scanned_ ? 1 : 0), base_pass);
        return error_;
      }
      ForEachRow(pass, [&](int64_t r) {
        if (done) return;
        std::vector<SqlValue> row;
        row.reserve(values.size());
        for (Vec& value : values) row.push_back(At(value, r));
        result.rows.push_back(std::move(row));
        if (early_exit &&
            static_cast<int64_t>(result.rows.size()) >= stop_after) {
          done = true;
          window_end = r + 1;
        }
      });
      if (done) CountScanned(window_end, base_pass);
      window_begin = window_end;
    }
    if (done) break;
    CountScanned(block_rows_, base_pass);
  }
  GUARDRAIL_RETURN_NOT_OK(ApplyOrderByAndLimit(stmt, &result));
  return result;
}

int32_t QueryExecution::ClassOf(KeyPart& part, Vec& key, int64_t r) {
  if (key.kind != Vec::kCoded) return part.Intern(At(key, r).ToDisplayString());
  int32_t& cls = part.by_code[static_cast<size_t>(key.codes[r] + 1)];
  if (cls < 0) cls = part.Intern(At(key, r).ToDisplayString());
  return cls;
}

int32_t QueryExecution::GroupOf(std::vector<Vec>& keys, int64_t r) {
  for (size_t i = 0; i < key_parts_.size(); ++i) {
    key_classes_[i] = ClassOf(key_parts_[i], keys[i], r);
  }
  int32_t* slot = nullptr;
  if (dense_) {
    uint64_t key = 0;
    uint64_t scale = 1;
    for (size_t i = 0; i < key_parts_.size(); ++i) {
      key += static_cast<uint64_t>(key_classes_[i]) * scale;
      scale *= key_parts_[i].radix;
    }
    slot = &dense_groups_[key];
  } else {
    std::string key(reinterpret_cast<const char*>(key_classes_.data()),
                    key_classes_.size() * sizeof(int32_t));
    slot = &hashed_groups_.try_emplace(std::move(key), -1).first->second;
  }
  if (*slot >= 0) return *slot;
  *slot = static_cast<int32_t>(groups_.size());
  Group group;
  group.classes = key_classes_;
  group.representative = block_begin_ + r;
  group.guarded = rowmask::Test(guarded_, r);
  group.repaired = rowmask::Test(repaired_, r);
  if (group.repaired) group.guarded_row = guarded_rows_[static_cast<size_t>(r)];
  for (const ModelSlot& model : models_) {
    group.predictions.push_back(rowmask::Test(model.predicted, r)
                                    ? model.codes[static_cast<size_t>(r)]
                                    : kUnpredicted);
  }
  group.states.resize(aggregates_.size());
  groups_.push_back(std::move(group));
  return *slot;
}

void QueryExecution::Accumulate(Group* group, std::vector<Vec>& args,
                                int64_t r) {
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggSpec& spec = aggregates_[i];
    AggState& state = group->states[i];
    if (spec.star) {
      ++state.count;
      continue;
    }
    Vec& arg = args[i];
    if (arg.kind == Vec::kCoded) {
      const ValueId code = arg.codes[r];
      const uint8_t bits = StateOf(arg.node, code);
      if (bits & kIsNull) continue;
      ++state.count;
      if (bits & kNumeric) {
        state.sum += arg.node->numbers[static_cast<size_t>(code + 1)];
      }
    } else {
      const SqlValue& v = At(arg, r);
      if (v.is_null()) continue;
      ++state.count;
      double n = 0;
      if (v.ToNumber(&n)) state.sum += n;
    }
    if (spec.kind != AggSpec::kMin && spec.kind != AggSpec::kMax) continue;
    // Compare is a total order, so MIN / MAX do not depend on row order;
    // among values that compare equal (`1` and `1.0`) the first row's wins.
    const SqlValue& v = At(arg, r);
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

/// Source codes of a group's representative row for the post-aggregation
/// pass: columns from the table, predictions from the scan when it made
/// them, otherwise guarded and predicted now.
class QueryExecution::RepresentativeReader : public SourceReader {
 public:
  RepresentativeReader(QueryExecution* query, Group* group)
      : query_(query), group_(group) {}
  Result<ValueId> Code(int source) override {
    const int columns = query_->schema_.num_attributes();
    if (source < columns) {
      return query_->table_.Get(group_->representative, source);
    }
    return query_->RepresentativePrediction(group_, source - columns);
  }

 private:
  QueryExecution* query_;
  Group* group_;
};

Result<ValueId> QueryExecution::RepresentativePrediction(Group* group,
                                                         int slot_index) {
  ValueId& code = group->predictions[static_cast<size_t>(slot_index)];
  if (code != kUnpredicted) return code;
  const ModelSlot& slot = models_[static_cast<size_t>(slot_index)];
  if (guard_ != nullptr && !group->guarded) {
    GUARDRAIL_FAILPOINT("sql.guard_row");
    const auto start = Clock::now();
    if (guard_executor_ == nullptr) {
      guard_executor_ =
          std::make_unique<core::GuardExecutor>(*guard_, policy_);
    }
    const ColumnBatch block =
        ColumnBatch::FromTable(table_, group->representative, 1);
    guard_executor_->Evaluate(block);
    Row row;
    const core::GuardVerdict verdict = guard_executor_->Read(0, &row);
    guard_ns_ += NanosSince(start);
    if (!verdict.status.ok()) return verdict.status;
    group->guarded = true;
    if (verdict.repaired) {
      ++stats_->rows_guard_flagged;
      group->repaired = true;
      group->guarded_row = std::move(row);
    }
  }
  const Row input = group->repaired ? group->guarded_row
                                    : table_.GetRow(group->representative);
  const auto start = Clock::now();
  code = slot.model->Predict(input);
  inference_ns_ += NanosSince(start);
  ++stats_->predictions_made;
  ++predictions_;
  return code;
}

Result<QueryResult> QueryExecution::RunAggregation(const SelectStatement& stmt,
                                                   QueryResult result) {
  // Post-aggregation expressions first: compiling them collects the
  // aggregates (select items, then HAVING).
  std::vector<Node*> items;
  for (const auto& item : stmt.items) {
    GUARDRAIL_ASSIGN_OR_RETURN(
        Node* node, Compile(item.expr.get(), Context::kPostAggregate));
    items.push_back(node);
  }
  Node* having = nullptr;
  if (stmt.having != nullptr) {
    GUARDRAIL_ASSIGN_OR_RETURN(
        having, Compile(stmt.having.get(), Context::kPostAggregate));
  }
  uint64_t key_space = 1;
  for (const auto& expr : stmt.group_by) {
    KeyPart part;
    GUARDRAIL_ASSIGN_OR_RETURN(part.node, Compile(expr.get(), Context::kScan));
    if (part.node->constant) {
      part.radix = 1;
    } else if (part.node->source >= 0) {
      part.radix = static_cast<uint64_t>(Domain(part.node->source)) + 1;
      part.by_code.assign(part.radix, -1);
    } else {
      part.radix = static_cast<uint64_t>(table_.num_rows()) + 1;
    }
    dense_ = dense_ && key_space <= kDenseGroupKeys / part.radix;
    if (dense_) key_space *= part.radix;
    key_parts_.push_back(std::move(part));
  }
  if (dense_) dense_groups_.assign(key_space, -1);
  key_classes_.resize(key_parts_.size());

  DeadlineChecker deadline(cancel_, /*stride=*/1);
  for (RowIndex begin = 0; begin < table_.num_rows(); begin += kBlockRows) {
    GUARDRAIL_RETURN_NOT_OK(deadline.Check("sql aggregation scan"));
    StartBlock(begin, std::min(kBlockRows, table_.num_rows() - begin));
    TripScanRows(0, block_rows_);
    const Mask base_pass = Filter(base_conjuncts_, live_);
    const Mask pass = Filter(ml_conjuncts_, base_pass);
    std::vector<Vec> keys;
    for (KeyPart& part : key_parts_) keys.push_back(Eval(part.node, pass));
    std::vector<Vec> args;
    for (const AggSpec& spec : aggregates_) {
      args.push_back(spec.star ? Vec() : Eval(spec.arg, pass));
    }
    if (!error_.ok()) {
      CountScanned(error_row_ + (error_row_scanned_ ? 1 : 0), base_pass);
      return error_;
    }
    CountScanned(block_rows_, base_pass);
    ForEachRow(pass, [&](int64_t r) {
      Accumulate(&groups_[static_cast<size_t>(GroupOf(keys, r))], args, r);
    });
  }

  // Groups in the order of their key strings (each key's display string
  // followed by a unit separator), as a map over those strings would list
  // them.
  std::vector<std::pair<std::string, size_t>> order;
  order.reserve(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    std::string key;
    for (size_t i = 0; i < key_parts_.size(); ++i) {
      key += key_parts_[i].names[static_cast<size_t>(groups_[g].classes[i])];
      key += '\x1f';
    }
    order.emplace_back(std::move(key), g);
  }
  std::sort(order.begin(), order.end());

  std::vector<SqlValue> finalized(aggregates_.size());
  for (const auto& entry : order) {
    Group& group = groups_[entry.second];
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      const AggSpec& spec = aggregates_[i];
      const AggState& state = group.states[i];
      SqlValue& v = finalized[i];
      switch (spec.kind) {
        case AggSpec::kCount:
          v = SqlValue::Number(static_cast<double>(state.count));
          break;
        case AggSpec::kSum:
          v = state.count > 0 ? SqlValue::Number(state.sum)
                              : SqlValue::MakeNull();
          break;
        case AggSpec::kAvg:
          v = state.count > 0 ? SqlValue::Number(
                                    state.sum /
                                    static_cast<double>(state.count))
                              : SqlValue::MakeNull();
          break;
        case AggSpec::kMin:
          v = state.has_minmax ? state.min : SqlValue::MakeNull();
          break;
        case AggSpec::kMax:
          v = state.has_minmax ? state.max : SqlValue::MakeNull();
          break;
      }
    }
    finalized_ = &finalized;
    RepresentativeReader reader(this, &group);
    if (having != nullptr) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue keep, EvalScalar(having, &reader));
      if (!keep.Truthy()) continue;
    }
    std::vector<SqlValue> out_row;
    for (const Node* item : items) {
      GUARDRAIL_ASSIGN_OR_RETURN(SqlValue v, EvalScalar(item, &reader));
      out_row.push_back(std::move(v));
    }
    result.rows.push_back(std::move(out_row));
  }
  GUARDRAIL_RETURN_NOT_OK(ApplyOrderByAndLimit(stmt, &result));
  return result;
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
  telemetry::Span span("sql.execute");
  span.AddArg("table", stmt.table_name);
  span.AddArg("query_hash", QueryFingerprint(stmt));
  // Deltas against these baselines become span args on success; stats_
  // accumulates across queries on this executor.
  const int64_t scanned_before = stats_.rows_scanned;
  const int64_t pushdown_before = stats_.rows_after_pushdown;
  const int64_t predictions_before = stats_.predictions_made;
  Result<QueryResult> result = [&] {
    QueryExecution query(*table_it->second, models_, guard_, guard_policy_,
                         &cancel_, &stats_);
    return query.Run(stmt, options_.enable_predicate_pushdown);
  }();
  if (!result.ok()) return result;
  span.AddArg("rows_scanned", stats_.rows_scanned - scanned_before);
  span.AddArg("rows_after_pushdown",
              stats_.rows_after_pushdown - pushdown_before);
  span.AddArg("predictions", stats_.predictions_made - predictions_before);
  span.AddArg("rows_out", static_cast<int64_t>(result->rows.size()));
  return result;
}

}  // namespace sql
}  // namespace guardrail
