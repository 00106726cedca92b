#ifndef GUARDRAIL_COMMON_CSV_H_
#define GUARDRAIL_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace guardrail {

/// A parsed CSV document: a header row plus data rows, all as strings.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Upper bound on a single field's size; longer fields are rejected rather
/// than ballooning memory on hostile input.
inline constexpr size_t kMaxCsvFieldBytes = 1u << 20;  // 1 MiB

/// Receives the records ScanCsv finds, field by field, in text order.
class CsvSink {
 public:
  virtual ~CsvSink() = default;

  /// One field of the current record. `value` points into the scanned text
  /// (or, for a quoted field with "" escapes, into the scanner's scratch
  /// buffer) and is valid only for the duration of the call. A ragged
  /// record's fields arrive before ScanCsv rejects it, so a sink must
  /// tolerate more or fewer fields than the header has.
  virtual void Field(std::string_view value) = 0;

  /// The current record is complete and as wide as the header (the header
  /// itself is the first record).
  virtual void EndRecord() = 0;
};

/// Scans RFC-4180-style CSV text: comma separated, double-quote quoting with
/// "" escapes, LF or CRLF line endings, blank lines skipped. The first
/// record is the header. Malformed input — ragged rows, unterminated or
/// misplaced quotes, embedded NUL bytes, overlong fields — is rejected with
/// Status::InvalidArgument carrying 1-based row/column context, never
/// silently mis-parsed. The sink may already have seen part of the text
/// when an error is returned.
Status ScanCsv(std::string_view text, CsvSink* sink);

/// ScanCsv into an owned document of strings.
Result<CsvDocument> ParseCsv(std::string_view text);

/// Serializes a document back to CSV text, quoting fields that need it.
std::string WriteCsv(const CsvDocument& doc);

/// Serializes a single record as one CSV line (no trailing newline), with
/// the same quoting rules as WriteCsv.
std::string WriteCsvRecord(const std::vector<std::string>& record);

/// File convenience wrappers.
Result<CsvDocument> ReadCsvFile(const std::string& path);
Status WriteCsvFile(const std::string& path, const CsvDocument& doc);

}  // namespace guardrail

#endif  // GUARDRAIL_COMMON_CSV_H_
