#include "serve/registry.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/checker.h"
#include "analysis/semantic.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/telemetry/telemetry.h"
#include "core/serialization.h"
#include "table/table.h"

namespace guardrail {
namespace serve {

namespace {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int64_t NowUnixMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<uint64_t> ProgramRegistry::LoadFromText(
    const std::string& dataset, const std::string& program_text,
    const Schema& base_schema, const std::string& source_path,
    const std::string& certificate_text) {
  GUARDRAIL_FAILPOINT("serve.registry_load");
  telemetry::Span span("serve.load_program");
  span.AddArg("dataset", dataset);

  auto snapshot = std::make_shared<ProgramSnapshot>();
  snapshot->dataset = dataset;
  snapshot->schema = base_schema;
  snapshot->source_path = source_path;
  snapshot->source_hash = Fnv1a(program_text);
  if (!certificate_text.empty()) {
    // The certificate is part of the published identity: editing only the
    // certificate must look like a new source to the reload change check.
    snapshot->source_hash =
        Fnv1a(certificate_text, snapshot->source_hash);
  }
  GUARDRAIL_ASSIGN_OR_RETURN(
      snapshot->program,
      core::DeserializeProgram(program_text, &snapshot->schema));

  // Certified-minimization gate: a program that claims to be minimized must
  // prove it. The certificate re-derives every dropped statement with the
  // implication engine and replays seeded rows through the interpreter
  // against the original it rebuilds — no proof, no publish.
  if (analysis::HasMinimizedMarker(program_text)) {
    if (certificate_text.empty()) {
      GUARDRAIL_COUNTER_INC("serve.registry.rejected_uncertified");
      return Status::InvalidArgument(
          "program for dataset '" + dataset +
          "' carries the minimized marker but no equivalence certificate; "
          "refusing to publish an unproven minimization");
    }
    Status certified = analysis::VerifyCertificate(
        certificate_text, snapshot->program, snapshot->schema);
    if (!certified.ok()) {
      GUARDRAIL_COUNTER_INC("serve.registry.rejected_uncertified");
      return Status::InvalidArgument(
          "minimization certificate for dataset '" + dataset +
          "' failed verification: " + certified.ToString());
    }
  }

  // Gate on the analyzer's schema-level passes. Error diagnostics mean the
  // program would mis-vet rows; refuse to publish it.
  analysis::Analyzer analyzer;
  analysis::DiagnosticReport report =
      analyzer.Analyze(snapshot->program, snapshot->schema);
  if (report.HasErrors()) {
    GUARDRAIL_COUNTER_INC("serve.registry.rejected_programs");
    return Status::InvalidArgument(
        "program for dataset '" + dataset + "' rejected by the analyzer (" +
        std::to_string(report.CountAtSeverity(analysis::Severity::kError)) +
        " error(s)):\n" + report.ToText());
  }

  // Compile the batch evaluator once, after the analyzer gate: every
  // request served from this snapshot shares it. The program it points into
  // lives inside the same heap-allocated snapshot, so the pointer stays
  // valid exactly as long as any request holds the snapshot.
  snapshot->compiled = std::make_unique<const core::CompiledProgram>(
      core::CompiledProgram::Compile(snapshot->program));

  snapshot->load_unix_micros = NowUnixMicros();
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(dataset);
    version = it == live_.end() ? 1 : it->second->version + 1;
    snapshot->version = version;
    // RCU publish: readers holding the old shared_ptr keep their version;
    // new Get calls see this one. The displaced version moves to the
    // superseded roster until its last reader drains (GcSuperseded).
    if (it != live_.end()) superseded_.push_back(std::move(it->second));
    live_[dataset] = std::move(snapshot);
    ++versions_published_;
  }
  GcSuperseded();
  GUARDRAIL_COUNTER_INC("serve.registry.versions_published");
  span.AddArg("version", static_cast<int64_t>(version));
  GUARDRAIL_LOG(INFO) << "published program version"
                      << telemetry::Kv("dataset", dataset)
                      << telemetry::Kv("version",
                                       static_cast<int64_t>(version));
  return version;
}

std::shared_ptr<const ProgramSnapshot> ProgramRegistry::Get(
    const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(dataset);
  return it == live_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const ProgramSnapshot>> ProgramRegistry::List()
    const {
  std::vector<std::shared_ptr<const ProgramSnapshot>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(live_.size());
    for (const auto& [dataset, snapshot] : live_) out.push_back(snapshot);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->dataset < b->dataset; });
  return out;
}

Result<int> ProgramRegistry::PollDirectory(const std::string& dir) {
  namespace fs = std::filesystem;
  telemetry::Span span("serve.reload_poll");
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot scan program directory " + dir + ": " +
                           ec.message());
  }

  // Deterministic load order (directory iteration order is unspecified).
  std::vector<fs::path> program_files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".grl") {
      program_files.push_back(entry.path());
    }
  }
  std::sort(program_files.begin(), program_files.end());

  int published = 0;
  for (const fs::path& path : program_files) {
    std::string dataset = path.stem().string();
    auto program_text = ReadFileBytes(path.string());
    if (!program_text.ok()) {
      GUARDRAIL_LOG(WARN) << "skipping unreadable program file"
                          << telemetry::Kv("path", path.string());
      continue;
    }

    // Companion schema CSV: header names the attributes (wire row layout);
    // any data rows pre-populate domains, mirroring the offline flow where
    // the relation is loaded before the program.
    fs::path csv_path = path;
    csv_path.replace_extension(".csv");
    std::string csv_text;
    bool has_csv = fs::is_regular_file(csv_path, ec);
    if (has_csv) {
      auto csv = ReadFileBytes(csv_path.string());
      if (!csv.ok()) {
        GUARDRAIL_LOG(WARN) << "skipping program with unreadable schema CSV"
                            << telemetry::Kv("path", csv_path.string());
        continue;
      }
      csv_text = std::move(csv).value();
    }

    // Companion minimization certificate (required by LoadFromText when the
    // program text carries the minimized marker).
    fs::path cert_path = path;
    cert_path.replace_extension(".cert.json");
    std::string cert_text;
    if (fs::is_regular_file(cert_path, ec)) {
      auto cert = ReadFileBytes(cert_path.string());
      if (!cert.ok()) {
        GUARDRAIL_LOG(WARN)
            << "skipping program with unreadable certificate"
            << telemetry::Kv("path", cert_path.string());
        continue;
      }
      cert_text = std::move(cert).value();
    }

    uint64_t combined =
        Fnv1a(cert_text, Fnv1a(csv_text, Fnv1a(*program_text)));
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto seen = attempted_hash_.find(dataset);
      if (seen != attempted_hash_.end() && seen->second == combined) continue;
      attempted_hash_[dataset] = combined;
    }

    Schema schema;
    if (has_csv) {
      auto doc = ParseCsv(csv_text);
      if (!doc.ok()) {
        GUARDRAIL_COUNTER_INC("serve.registry.load_errors");
        GUARDRAIL_LOG(WARN) << "bad schema CSV"
                            << telemetry::Kv("path", csv_path.string())
                            << telemetry::Kv("error",
                                             doc.status().ToString());
        continue;
      }
      auto table = Table::FromCsv(*doc);
      if (!table.ok()) {
        GUARDRAIL_COUNTER_INC("serve.registry.load_errors");
        GUARDRAIL_LOG(WARN) << "bad schema CSV"
                            << telemetry::Kv("path", csv_path.string())
                            << telemetry::Kv("error",
                                             table.status().ToString());
        continue;
      }
      schema = table->schema();
    }

    auto version = LoadFromText(dataset, *program_text, schema, path.string(),
                                cert_text);
    if (!version.ok()) {
      GUARDRAIL_COUNTER_INC("serve.registry.load_errors");
      GUARDRAIL_LOG(WARN) << "program load failed; previous version stays live"
                          << telemetry::Kv("dataset", dataset)
                          << telemetry::Kv("error",
                                           version.status().ToString());
      continue;
    }
    ++published;
  }
  if (published > 0) {
    span.AddArg("published", static_cast<int64_t>(published));
  }
  GcSuperseded();
  return published;
}

int64_t ProgramRegistry::versions_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_published_;
}

int ProgramRegistry::GcSuperseded() {
  int evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto keep = superseded_.begin();
    for (auto it = superseded_.begin(); it != superseded_.end(); ++it) {
      // use_count == 1 means the roster holds the only reference: every
      // in-flight request that pinned this version has finished.
      if (it->use_count() == 1) {
        ++evicted;
      } else {
        *keep++ = std::move(*it);
      }
    }
    superseded_.erase(keep, superseded_.end());
  }
  if (evicted > 0) {
    GUARDRAIL_COUNTER_ADD("serve.registry.snapshots_evicted", evicted);
  }
  return evicted;
}

int ProgramRegistry::superseded_live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(superseded_.size());
}

int ProgramRegistry::live_datasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(live_.size());
}

}  // namespace serve
}  // namespace guardrail
