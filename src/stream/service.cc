#include "stream/service.h"

#include <string_view>
#include <utility>

#include "common/csv.h"
#include "common/logging.h"
#include "common/telemetry/telemetry.h"
#include "serve/decode.h"

namespace guardrail {
namespace stream {

namespace {

serve::IngestAction ToWire(RefreshAction action) {
  switch (action) {
    case RefreshAction::kNone:
      return serve::IngestAction::kNone;
    case RefreshAction::kNoop:
      return serve::IngestAction::kNoop;
    case RefreshAction::kIncremental:
      return serve::IngestAction::kIncremental;
    case RefreshAction::kFull:
      return serve::IngestAction::kFull;
  }
  return serve::IngestAction::kNone;
}

// Collects a CSV payload's first record: the header a fresh stream takes
// its schema from.
class HeaderSink : public CsvSink {
 public:
  void Field(std::string_view value) override {
    if (!done_) header.emplace_back(value);
  }
  void EndRecord() override { done_ = true; }

  std::vector<std::string> header;

 private:
  bool done_ = false;
};

}  // namespace

DatasetStream::DatasetStream(const StreamServiceOptions& options)
    : synth_(options.incremental),
      policy_(options.policy),
      max_batch_rows_(options.max_batch_rows),
      bootstrap_rows_(options.bootstrap_rows) {}

Result<std::vector<Row>> DatasetStream::Decode(
    const serve::IngestRequest& request) {
  if (synth_.schema().num_attributes() > 0) {
    return serve::DecodeRows(request.format, request.payload,
                             &synth_.mutable_schema(), max_batch_rows_);
  }
  if (request.format != serve::RowFormat::kCsv) {
    return Status::InvalidArgument(
        "JSON ingest needs an existing schema; publish a program for this "
        "dataset or send the first batch as CSV");
  }
  HeaderSink sink;
  GUARDRAIL_RETURN_NOT_OK(ScanCsv(request.payload, &sink));
  Schema schema;
  for (const std::string& name : sink.header) {
    GUARDRAIL_RETURN_NOT_OK(schema.AddAttribute(Attribute(name)));
  }
  GUARDRAIL_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      serve::DecodeRows(request.format, request.payload, &schema,
                        max_batch_rows_));
  synth_.SeedSchema(schema);
  return rows;
}

Result<DatasetStream::Outcome> DatasetStream::Ingest(
    const serve::IngestRequest& request) {
  GUARDRAIL_ASSIGN_OR_RETURN(std::vector<Row> rows, Decode(request));
  GUARDRAIL_RETURN_NOT_OK(synth_.IngestRows(rows));
  Outcome outcome;
  outcome.rows_ingested = static_cast<int64_t>(rows.size());

  ++batches_since_refresh_;
  const bool manual = request.force_refresh;
  // Bootstrap once enough rows accumulated for a meaningful first synthesis
  // (or on an explicit trigger); after that the policy decides.
  const bool attempt =
      synth_.bootstrapped()
          ? policy_.ShouldRefresh(batches_since_refresh_, manual)
          : manual || synth_.rows_ingested() >= bootstrap_rows_;
  if (!attempt) return outcome;
  batches_since_refresh_ = 0;
  GUARDRAIL_ASSIGN_OR_RETURN(outcome.refresh,
                             synth_.Refresh(manual && synth_.bootstrapped()));
  return outcome;
}

StreamService::StreamService(serve::ProgramRegistry* registry,
                             StreamServiceOptions options)
    : registry_(registry), options_(std::move(options)) {}

int64_t StreamService::active_streams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(streams_.size());
}

StreamService::Entry* StreamService::GetOrCreate(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(dataset);
  if (it == streams_.end()) {
    it = streams_.emplace(dataset, std::make_unique<Entry>(options_)).first;
  }
  return it->second.get();
}

serve::IngestResponse StreamService::HandleIngest(
    const serve::IngestRequest& request) {
  serve::IngestResponse response;
  if (request.dataset.empty()) {
    response.code = StatusCode::kInvalidArgument;
    response.error = "ingest request names no dataset";
    return response;
  }
  Entry* entry = GetOrCreate(request.dataset);
  std::lock_guard<std::mutex> lock(entry->mu);
  GUARDRAIL_COUNTER_INC("stream.ingest.batches");
  auto fail = [&](const Status& status) {
    response.code = status.code();
    response.error = status.message();
    response.program_version = entry->served_version;
    return response;
  };

  // A fresh stream adopts the served schema when the dataset already has a
  // published program (the wire row layout must agree with validation);
  // otherwise the first CSV batch's header defines it.
  if (entry->stream.synth().schema().num_attributes() == 0) {
    if (auto snapshot = registry_->Get(request.dataset)) {
      entry->stream.SeedSchema(snapshot->schema);
      entry->served_version = snapshot->version;
    }
  }

  Result<DatasetStream::Outcome> outcome = entry->stream.Ingest(request);
  if (!outcome.ok()) return fail(outcome.status());
  response.rows_ingested = static_cast<uint64_t>(outcome->rows_ingested);
  if (const std::optional<RefreshResult>& refreshed = outcome->refresh) {
    response.action = ToWire(refreshed->action);
    response.drift_score = refreshed->drift.max_statistic;
    if (refreshed->published_changed || entry->publish_pending) {
      Result<uint64_t> version = registry_->LoadFromText(
          request.dataset, refreshed->program_text,
          entry->stream.synth().schema(), "stream://" + request.dataset,
          refreshed->certificate_text);
      entry->publish_pending = !version.ok();
      if (!version.ok()) {
        // The registry refused the program (analyzer/certificate gate or a
        // failed load); the previous version stays live, as for a bad
        // watch-dir reload, and the next refresh attempt retries.
        GUARDRAIL_LOG(WARN) << "stream publish refused for '"
                            << request.dataset
                            << "': " << version.status().message();
        return fail(version.status());
      }
      entry->served_version = *version;
      response.published = true;
      GUARDRAIL_COUNTER_INC("stream.resynth.published");
    }
  }
  response.program_version = entry->served_version;
  return response;
}

}  // namespace stream
}  // namespace guardrail
