#include "serve/decode.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/csv.h"
#include "common/csv_scan.h"

namespace guardrail {
namespace serve {

/// Appends decoded cells to a DecodedColumns and keeps the outcome of the
/// decode: a batch past the row cap, or with a deferred (non-syntax) fault,
/// stops storing cells but keeps counting rows, because a syntax fault
/// anywhere in the payload still outranks both.
class ColumnWriter {
 public:
  ColumnWriter(DecodedColumns* out, int64_t max_rows)
      : out_(out), max_rows_(max_rows) {}

  /// False once later cells only need counting.
  bool accepting() const { return rows_ < max_rows_ && deferred_.ok(); }
  /// Rows completed so far.
  int64_t rows() const { return rows_; }

  /// Starts the next row's unresolved texts, each empty (a JSON null) until
  /// its cell arrives.
  void BeginRow() {
    out_->texts_.resize(out_->texts_.size() + out_->text_slots_);
  }
  void Put(AttrIndex attr, std::string_view label) {
    const int32_t slot = out_->text_slot_[static_cast<size_t>(attr)];
    if (slot < 0) {
      out_->columns_[static_cast<size_t>(attr)].push_back(
          out_->Resolve(attr, label));
    } else {
      out_->texts_[static_cast<size_t>(rows_) * out_->text_slots_ +
                   static_cast<size_t>(slot)] = out_->KeepText(label);
    }
  }
  void PutNull(AttrIndex attr) {
    if (out_->resolved(attr)) {
      out_->columns_[static_cast<size_t>(attr)].push_back(kNullValue);
    }
  }
  void EndRow() { ++rows_; }

  /// Records a fault that loses to any syntax fault; the first one wins.
  void Defer(Status status) {
    if (deferred_.ok()) deferred_ = std::move(status);
  }

  /// The decode's status once the scan returned `scanned`.
  Status Finish(const Status& scanned) {
    GUARDRAIL_RETURN_NOT_OK(scanned);
    if (rows_ > max_rows_) {
      return Status::InvalidArgument(
          "batch of " + std::to_string(rows_) +
          " row(s) exceeds the per-request cap of " + std::to_string(max_rows_));
    }
    GUARDRAIL_RETURN_NOT_OK(deferred_);
    out_->num_rows_ = rows_;
    return Status::OK();
  }

 private:
  DecodedColumns* out_;
  const int64_t max_rows_;
  int64_t rows_ = 0;
  Status deferred_;
};

namespace {

/// CSV records to columns. The header is the contract: it must name the
/// base schema's attributes in schema order, so a client compiled against a
/// stale schema fails loudly instead of silently validating shifted
/// columns. Empty fields are ordinary labels, exactly as Table::FromCsv
/// treats them — serving must agree with offline byte for byte.
class CsvColumnSink final : public CsvSink {
 public:
  CsvColumnSink(const Schema& schema, ColumnWriter* writer)
      : schema_(schema), writer_(writer) {}

  void Field(std::string_view value) override {
    const AttrIndex attr = column_++;
    if (!in_header_) {
      // A ragged record may run past the schema; ScanCsv rejects it.
      if (attr < schema_.num_attributes() && writer_->accepting()) {
        if (attr == 0) writer_->BeginRow();
        writer_->Put(attr, value);
      }
      return;
    }
    if (attr < schema_.num_attributes() && header_fault_.empty() &&
        value != schema_.attribute(attr).name()) {
      header_fault_ = "CSV header column " + std::to_string(attr + 1) +
                      " is '" + std::string(value) + "', expected '" +
                      schema_.attribute(attr).name() + "'";
    }
  }

  void EndRecord() override {
    const AttrIndex width = column_;
    column_ = 0;
    if (!in_header_) {
      writer_->EndRow();
      return;
    }
    in_header_ = false;
    if (width != schema_.num_attributes()) {
      writer_->Defer(Status::InvalidArgument(
          "CSV header has " + std::to_string(width) +
          " column(s), dataset schema has " +
          std::to_string(schema_.num_attributes())));
    } else if (!header_fault_.empty()) {
      writer_->Defer(Status::InvalidArgument(header_fault_));
    }
  }

 private:
  const Schema& schema_;
  ColumnWriter* writer_;
  bool in_header_ = true;
  AttrIndex column_ = 0;
  std::string header_fault_;  // First misnamed header column.
};

/// Minimal JSON reader for the serve row format: an array of flat objects
/// whose values are strings or null. Anything else — nested structures,
/// numbers, booleans, syntax errors — is InvalidArgument with a byte
/// offset. Kept local to the decoder: this is a wire format, not a general
/// JSON library.
class JsonRowsParser {
 public:
  explicit JsonRowsParser(std::string_view text) : text_(text) {}

  /// Parses the whole text, feeding each row's cells to `writer`.
  Status Parse(const Schema& schema, ColumnWriter* writer) {
    schema_ = &schema;
    writer_ = writer;
    seen_.resize(static_cast<size_t>(schema.num_attributes()));
    SkipWs();
    GUARDRAIL_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return ExpectEnd();
    }
    while (true) {
      GUARDRAIL_RETURN_NOT_OK(ParseObject());
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      GUARDRAIL_RETURN_NOT_OK(Expect(']'));
      return ExpectEnd();
    }
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON rows: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  Status Expect(char c) {
    if (Peek() != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ExpectEnd() {
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing content");
    return Status::OK();
  }

  Status ParseObject() {
    SkipWs();
    GUARDRAIL_RETURN_NOT_OK(Expect('{'));
    std::fill(seen_.begin(), seen_.end(), 0);
    if (writer_->accepting()) writer_->BeginRow();
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      EndRow();
      return Status::OK();
    }
    while (true) {
      SkipWs();
      GUARDRAIL_RETURN_NOT_OK(ParseString(&key_));
      AttrIndex attr = schema_->FindAttribute(key_);
      if (attr < 0) return Fail("unknown attribute '" + key_ + "'");
      SkipWs();
      GUARDRAIL_RETURN_NOT_OK(Expect(':'));
      SkipWs();
      if (Peek() == 'n') {
        GUARDRAIL_RETURN_NOT_OK(ExpectLiteral("null"));
        Cell(attr, nullptr);
      } else {
        GUARDRAIL_RETURN_NOT_OK(ParseString(&value_));
        Cell(attr, &value_);
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      GUARDRAIL_RETURN_NOT_OK(Expect('}'));
      EndRow();
      return Status::OK();
    }
  }

  // A repeated or missing attribute is not a syntax fault: it is deferred,
  // so a later syntax fault (or the row cap) still wins.
  void Cell(AttrIndex attr, const std::string* label) {
    if (!writer_->accepting()) return;
    uint8_t& seen = seen_[static_cast<size_t>(attr)];
    if (seen != 0) {
      writer_->Defer(Status::InvalidArgument(
          "JSON row " + std::to_string(writer_->rows() + 1) +
          " repeats attribute '" + schema_->attribute(attr).name() + "'"));
      return;
    }
    seen = 1;
    if (label != nullptr) {
      writer_->Put(attr, *label);
    } else {
      writer_->PutNull(attr);
    }
  }

  void EndRow() {
    if (writer_->accepting()) {
      for (AttrIndex c = 0; c < schema_->num_attributes(); ++c) {
        if (seen_[static_cast<size_t>(c)] == 0) {
          writer_->Defer(Status::InvalidArgument(
              "JSON row " + std::to_string(writer_->rows() + 1) +
              " is missing attribute '" + schema_->attribute(c).name() +
              "' (use null for a missing cell)"));
          break;
        }
      }
    }
    writer_->EndRow();
  }

  Status ExpectLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("expected '" + std::string(literal) + "'");
    }
    pos_ += literal.size();
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    GUARDRAIL_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t code = 0;
          GUARDRAIL_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: the low half must follow immediately.
            if (text_.substr(pos_, 2) != "\\u") {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            GUARDRAIL_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  const Schema* schema_ = nullptr;
  ColumnWriter* writer_ = nullptr;
  std::vector<uint8_t> seen_;  // Per attribute: present in the current row.
  std::string key_;
  std::string value_;
};

}  // namespace

DecodedColumns::DecodedColumns(const Schema* base, std::string_view payload,
                               const std::vector<AttrIndex>* resolve)
    : base_(base),
      payload_(payload),
      text_slot_(static_cast<size_t>(base->num_attributes()),
                 resolve == nullptr ? -1 : 0),
      columns_(static_cast<size_t>(base->num_attributes())),
      overlay_(static_cast<size_t>(base->num_attributes())) {
  if (resolve == nullptr) return;
  for (AttrIndex a : *resolve) {
    if (a >= 0 && a < base->num_attributes()) {
      text_slot_[static_cast<size_t>(a)] = -1;
    }
  }
  for (int32_t& slot : text_slot_) {
    if (slot >= 0) slot = static_cast<int32_t>(text_slots_++);
  }
}

ValueId DecodedColumns::Resolve(AttrIndex attr, std::string_view label) {
  const Attribute& known = base_->attribute(attr);
  const ValueId code = known.Lookup(label);
  if (code != kNullValue) return code;
  return known.domain_size() +
         overlay_[static_cast<size_t>(attr)].Insert(label);
}

DecodedColumns::TextRef DecodedColumns::KeepText(std::string_view label) {
  // Offsets fit in 31 bits: DecodeColumns resolves every attribute of a
  // payload of 2 GiB or more, and the arena never outgrows the payload.
  const auto at = reinterpret_cast<uintptr_t>(label.data());
  const auto from = reinterpret_cast<uintptr_t>(payload_.data());
  const auto size = static_cast<uint32_t>(label.size());
  if (at >= from && label.size() <= payload_.size() &&
      at - from <= payload_.size() - label.size()) {
    return {static_cast<uint32_t>(at - from), size};
  }
  const auto begin = static_cast<uint32_t>(arena_.size()) | kArenaBit;
  arena_.append(label);
  return {begin, size};
}

ColumnBatch DecodedColumns::View(int64_t begin, int64_t count) const {
  std::vector<const ValueId*> views(columns_.size(), nullptr);
  for (size_t a = 0; a < columns_.size(); ++a) {
    if (text_slot_[a] < 0) views[a] = columns_[a].data() + begin;
  }
  return ColumnBatch::FromColumns(std::move(views), count);
}

Row DecodedColumns::MaterializeRow(int64_t row) const {
  Row out(columns_.size(), kNullValue);
  for (size_t a = 0; a < columns_.size(); ++a) {
    if (text_slot_[a] < 0) out[a] = columns_[a][static_cast<size_t>(row)];
  }
  return out;
}

const std::string& DecodedColumns::Label(AttrIndex attr, ValueId code) const {
  const Attribute& known = base_->attribute(attr);
  if (code < known.domain_size()) return known.label(code);
  return overlay(attr)[static_cast<size_t>(code - known.domain_size())];
}

Result<DecodedColumns> DecodeColumns(RowFormat format,
                                     std::string_view payload,
                                     const Schema& base, int64_t max_rows,
                                     const std::vector<AttrIndex>* resolve) {
  // Text offsets have 31 bits.
  if (payload.size() >= size_t{1} << 31) resolve = nullptr;
  DecodedColumns columns(&base, payload, resolve);
  ColumnWriter writer(&columns, max_rows);
  Status scanned;
  switch (format) {
    case RowFormat::kCsv: {
      CsvColumnSink sink(base, &writer);
      scanned = csv_internal::ScanCsvWith(payload, &sink);
      break;
    }
    case RowFormat::kJson:
      scanned = JsonRowsParser(payload).Parse(base, &writer);
      break;
    default:
      return Status::InvalidArgument("unknown row format");
  }
  GUARDRAIL_RETURN_NOT_OK(writer.Finish(scanned));
  return columns;
}

Result<std::vector<Row>> DecodeRows(RowFormat format,
                                    const std::string& payload,
                                    Schema* schema, int64_t max_rows) {
  GUARDRAIL_ASSIGN_OR_RETURN(DecodedColumns columns,
                             DecodeColumns(format, payload, *schema, max_rows));
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(columns.num_rows()));
  for (int64_t r = 0; r < columns.num_rows(); ++r) {
    rows.push_back(columns.MaterializeRow(r));
  }
  // `schema` is the decode's base, so each overlay label gets the code the
  // rows already carry.
  for (AttrIndex a = 0; a < columns.num_attributes(); ++a) {
    for (const std::string& label : columns.overlay(a)) {
      schema->attribute(a).GetOrInsert(label);
    }
  }
  return rows;
}

}  // namespace serve
}  // namespace guardrail
