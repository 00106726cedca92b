#include "common/csv.h"

#include <fstream>
#include <sstream>

#include "common/csv_scan.h"
#include "common/failpoint.h"

namespace guardrail {

Status ScanCsv(std::string_view text, CsvSink* sink) {
  return csv_internal::ScanCsvWith(text, sink);
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

void AppendCsvField(std::string_view field, std::string* out) {
  // One pass over the bytes; find_first_of would rescan its four-byte set
  // for every byte of the field.
  bool quote = false;
  for (char c : field) quote |= c == ',' || c == '"' || c == '\r' || c == '\n';
  if (!quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string WriteCsvRecord(const std::vector<std::string>& record) {
  std::string out;
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += ',';
    AppendCsvField(record[i], &out);
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
