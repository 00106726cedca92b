#ifndef GUARDRAIL_STREAM_SERVICE_H_
#define GUARDRAIL_STREAM_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "serve/registry.h"
#include "stream/incremental.h"
#include "stream/policy.h"
#include "table/schema.h"
#include "table/value.h"

namespace guardrail {
namespace stream {

struct StreamServiceOptions {
  IncrementalOptions incremental;
  PolicyOptions policy;
  /// Per-ingest row cap (mirrors EngineOptions::max_batch_rows).
  int64_t max_batch_rows = int64_t{1} << 20;
  /// Rows the stream must accumulate before the first (bootstrap) synthesis
  /// runs; a force_refresh ingest overrides the floor.
  int64_t bootstrap_rows = 256;
};

/// One dataset's stream step: the only code that turns an ingest request
/// into rows, a bootstrap/policy decision and a RefreshResult. The daemon
/// (StreamService) and `guardrail stream`'s local replay both drive it, so
/// a replayed file takes exactly the refresh actions a daemon would take on
/// the same batches. Publishing is the caller's job.
///
/// Not thread-safe; StreamService serializes ingests per dataset.
class DatasetStream {
 public:
  /// What one ingest did.
  struct Outcome {
    int64_t rows_ingested = 0;
    /// Set when the batch triggered a refresh attempt.
    std::optional<RefreshResult> refresh;
  };

  explicit DatasetStream(const StreamServiceOptions& options);

  /// Decodes the batch against the stream schema with serve::DecodeRows (a
  /// fresh stream first takes its schema from the CSV header) and ingests
  /// it. Then, on a stream not yet bootstrapped, bootstraps once
  /// bootstrap_rows accumulated; otherwise refreshes when the policy says
  /// so. `force_refresh` fires under every policy: it bootstraps a stream
  /// still below the floor and forces a full resynthesis on a bootstrapped
  /// one. A rejected batch ingests nothing.
  Result<Outcome> Ingest(const serve::IngestRequest& request);

  /// Adopts a served schema before the first ingest, so batches resolve
  /// against the serving schema's attribute order and dictionaries.
  void SeedSchema(const Schema& schema) { synth_.SeedSchema(schema); }

  const IncrementalSynthesizer& synth() const { return synth_; }

 private:
  Result<std::vector<Row>> Decode(const serve::IngestRequest& request);

  IncrementalSynthesizer synth_;
  ResynthesisPolicy policy_;
  int64_t max_batch_rows_;
  int64_t bootstrap_rows_;
  int64_t batches_since_refresh_ = 0;
};

/// The daemon's ingest hook: one DatasetStream per dataset, each behind its
/// own mutex, hot-publishing refreshed programs through the shared
/// ProgramRegistry — the exact versioned-reload path the watch directory
/// uses, certificate gate included (docs/STREAMING.md). A publish the
/// registry refuses stays pending and is retried on the dataset's next
/// refresh attempt, even when the program bytes did not change.
///
/// Thread-safe: the stream map has its own mutex and every dataset stream
/// serializes its ingests behind a per-dataset mutex, so concurrent
/// connections feeding different datasets never contend.
class StreamService {
 public:
  StreamService(serve::ProgramRegistry* registry,
                StreamServiceOptions options);

  /// The server's ingest hook (ServerOptions::ingest_handler). Never
  /// throws; failures come back as response codes.
  serve::IngestResponse HandleIngest(const serve::IngestRequest& request);

  /// Datasets with an active stream.
  int64_t active_streams() const;

 private:
  struct Entry {
    std::mutex mu;
    DatasetStream stream;
    uint64_t served_version = 0;
    /// The stream's current program was refused by the registry.
    bool publish_pending = false;

    explicit Entry(const StreamServiceOptions& options) : stream(options) {}
  };

  Entry* GetOrCreate(const std::string& dataset);

  serve::ProgramRegistry* registry_;
  StreamServiceOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> streams_;
};

}  // namespace stream
}  // namespace guardrail

#endif  // GUARDRAIL_STREAM_SERVICE_H_
