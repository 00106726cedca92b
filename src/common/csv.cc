#include "common/csv.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/failpoint.h"

namespace guardrail {

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

std::string QuoteField(std::string_view field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// Bytes that end an unquoted field's text (or, for '"' and NUL, reject it).
bool IsDelimiterOrQuote(char c) {
  return c == ',' || c == '\n' || c == '\r' || c == '"' || c == '\0';
}

// Index of the first IsDelimiterOrQuote byte in text[from, limit), or
// `limit` when there is none. Sixteen bytes per step where SSE2 is
// available: serve requests are megabytes of short fields, and this loop
// reads every byte.
size_t FindDelimiter(std::string_view text, size_t from, size_t limit) {
  size_t j = from;
#if defined(__SSE2__)
  const __m128i comma = _mm_set1_epi8(',');
  const __m128i lf = _mm_set1_epi8('\n');
  const __m128i cr = _mm_set1_epi8('\r');
  const __m128i quote = _mm_set1_epi8('"');
  const __m128i nul = _mm_setzero_si128();
  for (; j + 16 <= limit; j += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(text.data() + j));
    const __m128i hits = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(block, comma), _mm_cmpeq_epi8(block, lf)),
        _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi8(block, cr),
                         _mm_cmpeq_epi8(block, quote)),
            _mm_cmpeq_epi8(block, nul)));
    const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(hits));
    if (mask != 0) return j + static_cast<size_t>(std::countr_zero(mask));
  }
#endif
  while (j < limit && !IsDelimiterOrQuote(text[j])) ++j;
  return j;
}

// "row R, column C" with 1-based positions (row 1 is the header).
std::string At(size_t row, size_t column) {
  return "row " + std::to_string(row) + ", column " + std::to_string(column);
}

}  // namespace

Status ScanCsv(std::string_view text, CsvSink* sink) {
  GUARDRAIL_FAILPOINT("csv.parse");
  const size_t n = text.size();
  // 1-based positions for error context. `row` counts records (header = 1);
  // `column` counts fields within the current record.
  size_t row = 1;
  size_t column = 1;
  size_t header_fields = 0;  // 0 until the header record is complete.
  std::string scratch;  // Unescaped text of a quoted field with "" escapes.

  auto end_record = [&]() -> Status {
    const size_t fields = column - 1;
    if (header_fields == 0) {
      header_fields = fields;
    } else if (fields != header_fields) {
      return Status::InvalidArgument(
          "CSV row has " + std::to_string(fields) +
          " field(s) but the header has " + std::to_string(header_fields) +
          " (row " + std::to_string(row) + ")");
    }
    sink->EndRecord();
    ++row;
    column = 1;
    return Status::OK();
  };
  auto nul_byte = [&]() {
    return Status::InvalidArgument("CSV contains a NUL byte at " +
                                   At(row, column));
  };
  auto too_long = [&]() {
    return Status::InvalidArgument("CSV field exceeds " +
                                   std::to_string(kMaxCsvFieldBytes) +
                                   " bytes at " + At(row, column));
  };

  size_t i = 0;  // Start of the current field.
  while (i < n) {
    const char c = text[i];
    // A line break before a record's first field is a blank line; after a
    // comma it ends the record with an empty last field.
    if (column == 1 && (c == '\n' || c == '\r')) {
      i += c == '\r' && i + 1 < n && text[i + 1] == '\n' ? 2 : 1;
      continue;
    }
    std::string_view value;
    size_t j;  // The delimiter after the field, or n.
    if (c == '"') {
      bool escaped = false;
      size_t len = 0;  // Unescaped bytes so far.
      j = i + 1;
      while (true) {
        if (j >= n) {
          return Status::InvalidArgument("unterminated quoted CSV field at " +
                                         At(row, column));
        }
        const char q = text[j];
        if (q == '\0') return nul_byte();
        // A field already at the cap fails on its next byte, the closing
        // quote included.
        if (len >= kMaxCsvFieldBytes) return too_long();
        if (q == '"') {
          if (j + 1 < n && text[j + 1] == '"') {
            if (!escaped) {
              scratch.assign(text.substr(i + 1, j - i - 1));
              escaped = true;
            }
            scratch += '"';
            ++len;
            j += 2;
            continue;
          }
          ++j;
          break;
        }
        if (escaped) scratch += q;
        ++len;
        ++j;
      }
      value = escaped ? std::string_view(scratch) : text.substr(i + 1, len);
      if (j < n) {
        const char d = text[j];
        if (d == '\0') return nul_byte();
        if (d != ',' && d != '\n' && d != '\r') {
          return Status::InvalidArgument(
              "characters after closing quote in CSV field at " +
              At(row, column));
        }
      }
    } else {
      const size_t limit = std::min(n, i + kMaxCsvFieldBytes);
      j = FindDelimiter(text, i, limit);
      if (j < n) {
        const char d = text[j];
        if (d == '\0') return nul_byte();
        if (j - i >= kMaxCsvFieldBytes) return too_long();
        if (d == '"') {
          // RFC 4180: a quote may only open a field or escape inside one.
          // `ab"cd` would silently mis-parse; reject instead.
          return Status::InvalidArgument(
              "misplaced quote inside unquoted CSV field at " +
              At(row, column));
        }
      }
      value = text.substr(i, j - i);
    }
    sink->Field(value);
    ++column;
    // Past the delimiter; the '\n' of a CRLF then reads as a blank line.
    i = j + 1;
    if (j == n || text[j] != ',') GUARDRAIL_RETURN_NOT_OK(end_record());
  }
  if (column > 1) {  // A trailing comma leaves one last, empty field.
    sink->Field(std::string_view());
    ++column;
    GUARDRAIL_RETURN_NOT_OK(end_record());
  }
  if (header_fields == 0) return Status::InvalidArgument("empty CSV input");
  return Status::OK();
}

namespace {

/// Collects every record into a CsvDocument.
class DocumentSink : public CsvSink {
 public:
  void Field(std::string_view value) override { record_.emplace_back(value); }
  void EndRecord() override {
    if (doc_.header.empty()) {
      doc_.header = std::move(record_);
    } else {
      doc_.rows.push_back(std::move(record_));
    }
    record_.clear();
  }
  CsvDocument Take() { return std::move(doc_); }

 private:
  CsvDocument doc_;
  std::vector<std::string> record_;
};

}  // namespace

Result<CsvDocument> ParseCsv(std::string_view text) {
  DocumentSink sink;
  GUARDRAIL_RETURN_NOT_OK(ScanCsv(text, &sink));
  return sink.Take();
}

std::string WriteCsvRecord(const std::vector<std::string>& record) {
  std::string out;
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += ',';
    out += NeedsQuoting(record[i]) ? QuoteField(record[i]) : record[i];
  }
  return out;
}

std::string WriteCsv(const CsvDocument& doc) {
  std::string out;
  auto write_record = [&](const std::vector<std::string>& record) {
    out += WriteCsvRecord(record);
    out += '\n';
  };
  write_record(doc.header);
  for (const auto& row : doc.rows) write_record(row);
  return out;
}

Result<CsvDocument> ReadCsvFile(const std::string& path) {
  GUARDRAIL_FAILPOINT("csv.open");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ParseCsv(ss.str());
}

Status WriteCsvFile(const std::string& path, const CsvDocument& doc) {
  GUARDRAIL_FAILPOINT("csv.write");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsv(doc);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace guardrail
