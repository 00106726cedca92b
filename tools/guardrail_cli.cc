// guardrail — command-line front end for the library.
//
//   guardrail synthesize <data.csv> <out.grl> [epsilon] [--time-budget-ms=N]
//       Synthesize an integrity-constraint program from a CSV relation and
//       save it as a reviewable text artifact. With a time budget the
//       synthesizer degrades gracefully (see docs/ROBUSTNESS.md) and reports
//       which ladder rung produced the program.
//   guardrail check <program.grl> <data.csv>
//       Report rows violating the constraints (row numbers are 1-based data
//       rows, header excluded). Exit code 3 when violations exist.
//   guardrail analyze <program.grl> <data.csv> [--json] [--epsilon=E]
//       [--scheme=raise|ignore|coerce|rectify] [--minimize]
//       [--certificate=out.json] [--minimized-out=out.grl]
//       Statically analyze the program against the relation: type/domain
//       checking, dead branches, contradictions, non-triviality audit,
//       coverage holes, and whole-program implication (docs/ANALYSIS.md).
//       --json emits machine-readable diagnostics. --minimize additionally
//       runs the certified minimizer: implied statements are dropped with a
//       machine-checkable equivalence certificate (--certificate) and the
//       minimized program — carrying the `# guardrail-minimized` marker the
//       serving registry's publish gate keys on — is written to
//       --minimized-out. Exit codes: 0 clean or warnings only, 4 when
//       error-severity diagnostics exist, 2 on I/O or parse failure.
//   guardrail repair <program.grl> <in.csv> <out.csv>
//       Rectify violations (MAP repair) and write the cleaned CSV.
//   guardrail profile <data.csv>
//       Print per-column cardinality / entropy / mode statistics.
//   guardrail query <data.csv> "<SELECT ...>"
//       Run a SQL query against the CSV (table name: t).
//   guardrail explain "<SELECT ...>"
//       Show the physical plan, including the predicate-pushdown split.
//   guardrail serve --programs=DIR [--port=N] [--queue-depth=N]
//       [--reload-ms=N] [--ingest] [--resynth-policy=interval|drift|manual]
//       [--resynth-interval=N] [--drift-alpha=A] [--drift-global-fraction=F]
//       [--drift-min-rows=N]
//       Run the guard-serving daemon (docs/SERVING.md): load every
//       <dataset>.grl (+ companion <dataset>.csv schema) program in DIR,
//       listen on 127.0.0.1, hot-reload DIR on changes, and answer framed
//       Validate requests. SIGTERM/SIGINT drains gracefully: accepting
//       stops, in-flight requests finish, then "drained" is printed.
//       --ingest additionally answers protocol-v3 IngestBatch frames: each
//       batch feeds a per-dataset streaming synthesizer, and refreshed
//       programs hot-publish through the same versioned registry path as
//       the watch directory (docs/STREAMING.md).
//   guardrail stream <data.csv> [--batch-rows=N] [--out=FILE]
//       [--resynth-policy=...] [--drift-*=...] [--force-refresh]
//   guardrail stream <data.csv> --endpoint=host:port --dataset=NAME
//       [--batch-rows=N] [--force-refresh]
//       Replay a CSV as a stream of ingest batches. Without --endpoint the
//       replay runs the daemon's ingest step in-process (bootstrap, drift
//       scoring, incremental or full refreshes are reported per batch and
//       the final program is printed or written to --out); a stream shorter
//       than the bootstrap floor bootstraps on its final batch. With
//       --endpoint each batch is sent as an IngestBatch frame to a daemon
//       running with --ingest. --force-refresh forces a full resynthesis on
//       the final batch.
//   guardrail validate <host:port> <dataset> <data.csv>
//       [--scheme=raise|ignore|coerce|rectify] [--format=csv|json]
//       [--time-budget-ms=N]
//       Send the CSV's rows to a running daemon and report per-row
//       verdicts. --format=json re-encodes the rows as JSON client-side to
//       exercise the JSON wire path. Exit code 3 when violations exist.
//   guardrail validate --endpoints=h:p,h:p,... <dataset> <data.csv>
//       [--retries=N] [--hedge-ms=N]
//       Fleet mode: load-balance the request across several daemons with
//       retries, circuit breakers, and optional request hedging (see
//       docs/SERVING.md, "Resilience").
//
// Global flags (any command):
//   --threads=N         Worker parallelism for synthesis (default: hardware
//                       concurrency, or the GUARDRAIL_THREADS env var). The
//                       synthesized program is byte-identical for any N;
//                       see docs/PARALLELISM.md.
//   --trace-out=FILE    Write a Chrome trace_event JSON timeline of the run
//                       (load in chrome://tracing or https://ui.perfetto.dev).
//   --trace-stream-out=FILE
//                       Stream trace events to FILE incrementally with a
//                       bounded in-memory buffer — for long-lived commands
//                       (serve, stream) whose timeline would overflow the
//                       in-memory trace cap.
//   --metrics-out=FILE  Write all telemetry counters/histograms as JSON.
//   --log-level=LEVEL   debug|info|warn|error|off (default warn; the
//                       GUARDRAIL_LOG_LEVEL env var is the fallback).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/checker.h"
#include "analysis/semantic.h"
#include "common/csv.h"
#include "common/deadline.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/telemetry/telemetry.h"
#include "core/guard.h"
#include "core/normalize.h"
#include "core/printer.h"
#include "core/serialization.h"
#include "core/synthesizer.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/pool.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "stream/incremental.h"
#include "stream/policy.h"
#include "stream/service.h"
#include "table/profile.h"
#include "table/table.h"

namespace guardrail {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

Result<Table> LoadCsvTable(const std::string& path) {
  GUARDRAIL_ASSIGN_OR_RETURN(CsvDocument doc, ReadCsvFile(path));
  return Table::FromCsv(doc);
}

int CmdSynthesize(const std::string& data_path, const std::string& out_path,
                  double epsilon, int64_t time_budget_ms, int num_threads) {
  auto table = LoadCsvTable(data_path);
  if (!table.ok()) return Fail(table.status());

  core::SynthesisOptions options;
  options.fill.epsilon = epsilon;
  options.num_threads = num_threads;
  core::Synthesizer synthesizer(options);
  Rng rng(0x6A1DULL);
  // Negative budget = flag absent = unlimited; 0 is a real (instantly
  // expired) budget exercising the trivial rung.
  CancellationToken cancel = time_budget_ms >= 0
                                 ? CancellationToken::WithBudgetMillis(
                                       time_budget_ms)
                                 : CancellationToken::Never();
  core::SynthesisReport report = synthesizer.Synthesize(*table, &rng, cancel);
  core::NormalizeProgram(&report.program);

  std::string comment = "synthesized from " + data_path + " (epsilon " +
                        FormatDouble(epsilon) + ", coverage " +
                        FormatDouble(report.coverage, 3) + ")";
  Status saved = core::SaveProgramToFile(out_path, report.program,
                                         table->schema(), comment);
  if (!saved.ok()) return Fail(saved);
  std::printf("%s\n",
              core::ProgramSummary(report.program, table->schema()).c_str());
  std::printf("coverage %.3f | %lld DAGs in MEC | %.3fs total\n",
              report.coverage,
              static_cast<long long>(report.num_dags_enumerated),
              report.total_seconds);
  if (report.rung != core::SynthesisRung::kFullMec) {
    std::printf("degraded to rung '%s': %s\n",
                core::SynthesisRungName(report.rung),
                report.degradation_reason.c_str());
    if (report.rung == core::SynthesisRung::kTrivial) {
      std::printf("%zu per-attribute domain constraint(s) retained\n",
                  report.domain_constraints.size());
    }
  }
  std::printf("written to %s\n", out_path.c_str());
  return 0;
}

int CmdCheck(const std::string& program_path, const std::string& data_path) {
  auto table = LoadCsvTable(data_path);
  if (!table.ok()) return Fail(table.status());
  Schema schema = table->schema();
  auto program = core::LoadProgramFromFile(program_path, &schema);
  if (!program.ok()) return Fail(program.status());

  core::Guard guard(&*program);
  core::Interpreter interpreter(&*program);
  int64_t violations = 0;
  for (RowIndex r = 0; r < table->num_rows(); ++r) {
    Row row = table->GetRow(r);
    for (const auto& v : interpreter.Check(row)) {
      ++violations;
      std::printf("row %lld: %s = '%s' but constraints expect '%s'\n",
                  static_cast<long long>(r + 1),
                  schema.attribute(v.attribute).name().c_str(),
                  v.actual == kNullValue
                      ? "<null>"
                      : schema.attribute(v.attribute).label(v.actual).c_str(),
                  schema.attribute(v.attribute).label(v.expected).c_str());
    }
  }
  std::printf("%lld violation(s) across %lld row(s)\n",
              static_cast<long long>(violations),
              static_cast<long long>(table->num_rows()));
  return violations > 0 ? 3 : 0;
}

int CmdAnalyze(const std::string& program_path, const std::string& data_path,
               bool json, double epsilon, core::ErrorPolicy scheme,
               bool minimize, const std::string& certificate_path,
               const std::string& minimized_out_path) {
  auto table = LoadCsvTable(data_path);
  if (!table.ok()) return Fail(table.status());
  Schema schema = table->schema();
  auto program = core::LoadProgramFromFile(program_path, &schema);
  if (!program.ok()) return Fail(program.status());

  analysis::AnalysisOptions options;
  options.epsilon = epsilon;
  options.scheme = scheme;
  analysis::Analyzer analyzer(options);
  analysis::DiagnosticReport report =
      analyzer.Analyze(*program, schema, *table);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::fputs(report.ToText().c_str(), stdout);
  }

  if (minimize) {
    auto minimized = analysis::MinimizeProgram(*program, schema);
    if (!minimized.ok()) return Fail(minimized.status());
    std::printf(
        "minimized: %lld -> %lld statement(s), %lld -> %lld branch(es), "
        "%zu dropped\n",
        static_cast<long long>(minimized->statements_before),
        static_cast<long long>(minimized->statements_after),
        static_cast<long long>(minimized->branches_before),
        static_cast<long long>(minimized->branches_after),
        minimized->dropped.size());
    if (!certificate_path.empty()) {
      std::ofstream cert_out(certificate_path, std::ios::binary);
      if (!cert_out ||
          !(cert_out << minimized->certificate)) {
        return Fail(Status::IoError("cannot write " + certificate_path));
      }
      std::printf("certificate written to %s\n", certificate_path.c_str());
    }
    if (!minimized_out_path.empty()) {
      // The marker comment makes the registry's publish gate demand the
      // certificate before this program can be served.
      std::string comment = std::string(analysis::kMinimizedMarker + 2) +
                            "\nminimized from " + program_path;
      Status saved = core::SaveProgramToFile(minimized_out_path,
                                             minimized->program, schema,
                                             comment);
      if (!saved.ok()) return Fail(saved);
      std::printf("minimized program written to %s\n",
                  minimized_out_path.c_str());
    }
  }
  return report.HasErrors() ? 4 : 0;
}

int CmdRepair(const std::string& program_path, const std::string& in_path,
              const std::string& out_path) {
  auto table = LoadCsvTable(in_path);
  if (!table.ok()) return Fail(table.status());
  Schema schema = table->schema();
  auto program = core::LoadProgramFromFile(program_path, &schema);
  if (!program.ok()) return Fail(program.status());
  // Domains may have grown while parsing the program (literals unseen in
  // this CSV); rebuild the table under the extended schema.
  Table working(schema);
  for (RowIndex r = 0; r < table->num_rows(); ++r) {
    std::vector<std::string> labels;
    for (AttrIndex c = 0; c < table->num_columns(); ++c) {
      labels.push_back(table->GetLabel(r, c));
    }
    working.AppendRowLabels(labels);
  }

  core::Guard guard(&*program);
  core::GuardOutcome outcome =
      guard.ProcessTable(&working, core::ErrorPolicy::kRectify);
  Status written = WriteCsvFile(out_path, working.ToCsv());
  if (!written.ok()) return Fail(written);
  std::printf("%lld row(s) flagged, %lld cell(s) repaired -> %s\n",
              static_cast<long long>(outcome.rows_flagged),
              static_cast<long long>(outcome.cells_repaired),
              out_path.c_str());
  if (outcome.rows_failed > 0) {
    std::fprintf(stderr,
                 "warning: %lld row(s) could not be evaluated and were left "
                 "untouched (first error: %s)\n",
                 static_cast<long long>(outcome.rows_failed),
                 outcome.first_error.ToString().c_str());
  }
  return 0;
}

int CmdProfile(const std::string& data_path) {
  auto table = LoadCsvTable(data_path);
  if (!table.ok()) return Fail(table.status());
  std::fputs(ToString(ProfileTable(*table)).c_str(), stdout);
  return 0;
}

int CmdQuery(const std::string& data_path, const std::string& sql,
             int64_t time_budget_ms) {
  auto table = LoadCsvTable(data_path);
  if (!table.ok()) return Fail(table.status());
  sql::Executor executor;
  executor.RegisterTable("t", &*table);
  if (time_budget_ms >= 0) {
    executor.SetCancellation(
        CancellationToken::WithBudgetMillis(time_budget_ms));
  }
  auto result = executor.Execute(sql);
  if (!result.ok()) return Fail(result.status());
  std::fputs(result->ToString().c_str(), stdout);
  return 0;
}

int CmdExplain(const std::string& sql) {
  auto stmt = sql::ParseSelect(sql);
  if (!stmt.ok()) return Fail(stmt.status());
  std::fputs(sql::ExplainPlan(*stmt, /*enable_pushdown=*/true).c_str(),
             stdout);
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) { g_serve_stop.store(true); }

int CmdServe(const std::string& programs_dir, int port, int queue_depth,
             int reload_ms, bool ingest,
             const stream::StreamServiceOptions& stream_options) {
  serve::ProgramRegistry registry;
  serve::EngineOptions engine_options;
  if (queue_depth > 0) engine_options.max_inflight = queue_depth;
  serve::ValidationEngine engine(&registry, engine_options);

  serve::ServerOptions options;
  options.port = port;
  options.watch_dir = programs_dir;
  if (reload_ms > 0) options.reload_interval_ms = reload_ms;

  // With --ingest the daemon also learns: IngestBatch frames feed the
  // streaming synthesizer, which hot-publishes refreshed programs through
  // the same registry the Validate path reads.
  std::unique_ptr<stream::StreamService> stream_service;
  if (ingest) {
    stream_service =
        std::make_unique<stream::StreamService>(&registry, stream_options);
    options.ingest_handler =
        [service = stream_service.get()](const serve::IngestRequest& request) {
          return service->HandleIngest(request);
        };
  }

  serve::Server server(&registry, &engine, options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::printf("%zu dataset(s) loaded\n", registry.List().size());
  if (ingest) {
    std::printf("ingest enabled (resynthesis policy: %s)\n",
                stream::ResynthesisModeName(stream_options.policy.mode));
  }
  std::fflush(stdout);

  g_serve_stop.store(false);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Drain();
  std::printf("drained\n");
  std::fflush(stdout);
  return 0;
}

const char* IngestActionName(serve::IngestAction action) {
  switch (action) {
    case serve::IngestAction::kNone: return "none";
    case serve::IngestAction::kNoop: return "noop";
    case serve::IngestAction::kIncremental: return "incremental";
    case serve::IngestAction::kFull: return "full";
  }
  return "?";
}

// Sends one batch to a daemon running --ingest. A feeder must outlive flaky
// transport: reconnect and resend on any transport error (a batch that died
// before its response may or may not have been ingested — resending is the
// at-least-once contract the stream-side statistics are robust to at these
// batch sizes).
Result<serve::IngestResponse> SendIngest(const std::string& host, int port,
                                         const serve::IngestRequest& request) {
  Result<serve::IngestResponse> response = Status::OK();
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto client = serve::Client::Connect(host, port);
    if (!client.ok()) {
      response = client.status();
      continue;
    }
    response = client->Ingest(request);
    if (response.ok()) break;
  }
  return response;
}

// Slices the CSV into batches and feeds each to the daemon's ingest step:
// in-process (local replay), or as a protocol-v3 IngestBatch frame to the
// daemon at `endpoint`.
int CmdStream(const std::string& data_path, int64_t batch_rows,
              const stream::StreamServiceOptions& stream_options,
              bool force_refresh, const std::string& endpoint,
              const std::string& dataset, const std::string& out_path) {
  auto doc = ReadCsvFile(data_path);
  if (!doc.ok()) return Fail(doc.status());
  const int64_t total = static_cast<int64_t>(doc->rows.size());
  if (total == 0) {
    return Fail(Status::InvalidArgument("no data rows in " + data_path));
  }
  if (batch_rows <= 0) batch_rows = 256;
  const bool remote = !endpoint.empty();
  const size_t colon = endpoint.rfind(':');
  double port = 0;
  if (remote && (colon == std::string::npos || colon == 0 ||
                 !ParseDouble(endpoint.substr(colon + 1), &port) ||
                 port < 1 || port > 65535)) {
    return Fail(Status::InvalidArgument("endpoint must be host:port, got '" +
                                        endpoint + "'"));
  }

  stream::DatasetStream step(stream_options);
  int64_t batch_id = 0;
  for (int64_t begin = 0; begin < total; begin += batch_rows, ++batch_id) {
    const int64_t count = std::min(batch_rows, total - begin);
    const bool last = begin + count >= total;
    CsvDocument slice;
    slice.header = doc->header;
    slice.rows.assign(doc->rows.begin() + begin,
                      doc->rows.begin() + begin + count);
    serve::IngestRequest request;
    request.dataset = dataset;
    request.payload = WriteCsv(slice);
    if (remote) {
      request.force_refresh = force_refresh && last;
      auto response = SendIngest(endpoint.substr(0, colon),
                                 static_cast<int>(port), request);
      if (!response.ok()) return Fail(response.status());
      if (response->code != StatusCode::kOk) {
        std::fprintf(stderr, "server error on batch %lld: %s\n",
                     static_cast<long long>(batch_id),
                     response->error.c_str());
        return 2;
      }
      std::printf("batch %lld: %llu row(s) -> %s | drift G2 %.2f | version "
                  "%llu%s\n",
                  static_cast<long long>(batch_id),
                  static_cast<unsigned long long>(response->rows_ingested),
                  IngestActionName(response->action), response->drift_score,
                  static_cast<unsigned long long>(response->program_version),
                  response->published ? " [published]" : "");
      continue;
    }
    // A stream still short of the bootstrap floor bootstraps on its last
    // batch.
    request.force_refresh =
        last && (force_refresh || !step.synth().bootstrapped());
    auto outcome = step.Ingest(request);
    if (!outcome.ok()) return Fail(outcome.status());
    if (!outcome->refresh) continue;
    const stream::RefreshResult& result = *outcome->refresh;
    std::printf(
        "batch %lld (%lld rows in): %s | drifted pairs %zu | max G2 %.2f "
        "| refilled %lld reused %lld | %.3fs%s\n",
        static_cast<long long>(batch_id),
        static_cast<long long>(step.synth().rows_ingested()),
        stream::RefreshActionName(result.action),
        result.drift.drifted.size(), result.drift.max_statistic,
        static_cast<long long>(result.statements_refilled),
        static_cast<long long>(result.statements_reused), result.seconds,
        result.published_changed ? " [published]" : "");
    if (!result.reason.empty() &&
        result.action != stream::RefreshAction::kNoop) {
      std::printf("  reason: %s\n", result.reason.c_str());
    }
  }
  if (remote) return 0;

  const std::string& program = step.synth().program_text();
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out || !(out << program)) {
      return Fail(Status::IoError("cannot write " + out_path));
    }
    std::printf("final program written to %s\n", out_path.c_str());
  } else {
    std::printf("final program after %lld row(s):\n%s",
                static_cast<long long>(step.synth().rows_ingested()),
                program.c_str());
  }
  return 0;
}

// Re-encodes CSV rows as the JSON wire format (array of flat objects).
// Empty CSV fields become empty-string JSON values — the same ordinary
// empty-string label the CSV path produces — so verdicts stay identical
// across formats.
Result<std::string> CsvTextToJson(const std::string& csv_text) {
  GUARDRAIL_ASSIGN_OR_RETURN(CsvDocument doc, ParseCsv(csv_text));
  std::string out = "[";
  for (size_t r = 0; r < doc.rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '{';
    for (size_t c = 0; c < doc.header.size(); ++c) {
      if (c > 0) out += ',';
      out += '"';
      telemetry::AppendJsonEscaped(doc.header[c], &out);
      out += "\":\"";
      telemetry::AppendJsonEscaped(doc.rows[r][c], &out);
      out += '"';
    }
    out += '}';
  }
  out += ']';
  return out;
}

Result<serve::ValidateRequest> BuildValidateRequest(
    const std::string& dataset, const std::string& data_path,
    core::ErrorPolicy scheme, const std::string& format,
    int64_t time_budget_ms) {
  std::ifstream in(data_path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + data_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string csv_text = ss.str();

  serve::ValidateRequest request;
  request.dataset = dataset;
  request.scheme = scheme;
  if (time_budget_ms > 0) {
    request.deadline_ms = static_cast<uint32_t>(time_budget_ms);
  }
  if (format == "json") {
    request.format = serve::RowFormat::kJson;
    auto json = CsvTextToJson(csv_text);
    GUARDRAIL_RETURN_NOT_OK(json.status());
    request.payload = std::move(json).value();
  } else {
    request.format = serve::RowFormat::kCsv;
    request.payload = std::move(csv_text);
  }
  return request;
}

int ReportValidateResponse(const serve::ValidateResponse& response,
                           core::ErrorPolicy scheme) {
  int64_t violations = 0;
  int64_t failed = 0;
  for (size_t r = 0; r < response.rows.size(); ++r) {
    const serve::RowResult& row = response.rows[r];
    if (row.verdict == serve::RowVerdict::kViolation) {
      ++violations;
      if (row.detail.empty()) {
        std::printf("row %zu: %u violation(s)\n", r + 1, row.violations);
      } else {
        std::printf("row %zu: %u violation(s), repaired to: %s\n", r + 1,
                    row.violations, row.detail.c_str());
      }
    } else if (row.verdict == serve::RowVerdict::kFailed) {
      ++failed;
      std::fprintf(stderr, "row %zu: evaluation failed: %s\n", r + 1,
                   row.detail.c_str());
    }
  }
  std::printf(
      "%lld of %zu row(s) flagged under scheme '%s' (program version "
      "%llu)\n",
      static_cast<long long>(violations), response.rows.size(),
      core::ErrorPolicyName(scheme),
      static_cast<unsigned long long>(response.program_version));
  if (failed > 0) {
    std::fprintf(stderr, "%lld row(s) could not be evaluated\n",
                 static_cast<long long>(failed));
    return 2;
  }
  return violations > 0 ? 3 : 0;
}

int CmdValidate(const std::string& endpoint, const std::string& dataset,
                const std::string& data_path, core::ErrorPolicy scheme,
                const std::string& format, int64_t time_budget_ms) {
  size_t colon = endpoint.rfind(':');
  double port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseDouble(endpoint.substr(colon + 1), &port) || port < 1 ||
      port > 65535) {
    return Fail(Status::InvalidArgument("endpoint must be host:port, got '" +
                                        endpoint + "'"));
  }
  std::string host = endpoint.substr(0, colon);

  auto request = BuildValidateRequest(dataset, data_path, scheme, format,
                                      time_budget_ms);
  if (!request.ok()) return Fail(request.status());
  auto client = serve::Client::Connect(host, static_cast<int>(port));
  if (!client.ok()) return Fail(client.status());
  auto response = client->Validate(*request);
  if (!response.ok()) return Fail(response.status());
  if (response->code != StatusCode::kOk) {
    std::fprintf(stderr, "server error: %s\n", response->error.c_str());
    return 2;
  }
  return ReportValidateResponse(*response, scheme);
}

// Fleet-mode validate: load-balance across --endpoints with retries,
// circuit breakers, and optional hedging (docs/SERVING.md, "Resilience").
int CmdValidateFleet(const std::string& endpoints_spec,
                     const std::string& dataset, const std::string& data_path,
                     core::ErrorPolicy scheme, const std::string& format,
                     int64_t time_budget_ms, int retries, int hedge_ms) {
  auto endpoints = serve::ParseEndpoints(endpoints_spec);
  if (!endpoints.ok()) return Fail(endpoints.status());
  auto request = BuildValidateRequest(dataset, data_path, scheme, format,
                                      time_budget_ms);
  if (!request.ok()) return Fail(request.status());

  serve::PoolOptions options;
  if (retries >= 0) options.retry.max_attempts = retries + 1;
  if (hedge_ms > 0) options.hedge_ms = hedge_ms;
  if (time_budget_ms > 0) options.total_deadline_ms = time_budget_ms;
  serve::ReplicaPool pool(*endpoints, options);
  auto response = pool.Validate(*request);
  if (!response.ok()) return Fail(response.status());
  if (response->code != StatusCode::kOk) {
    std::fprintf(stderr, "server error: %s\n", response->error.c_str());
    return 2;
  }
  return ReportValidateResponse(*response, scheme);
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  guardrail synthesize <data.csv> <out.grl> [epsilon]"
               " [--time-budget-ms=N] [--threads=N]\n"
               "  guardrail check <program.grl> <data.csv>\n"
               "  guardrail analyze <program.grl> <data.csv> [--json]"
               " [--epsilon=E] [--scheme=raise|ignore|coerce|rectify]\n"
               "                    [--minimize] [--certificate=out.json]"
               " [--minimized-out=out.grl]\n"
               "  guardrail repair <program.grl> <in.csv> <out.csv>\n"
               "  guardrail profile <data.csv>\n"
               "  guardrail query <data.csv> \"<SELECT ...>\""
               " [--time-budget-ms=N]\n"
               "  guardrail explain \"<SELECT ...>\"\n"
               "  guardrail serve --programs=DIR [--port=N]"
               " [--queue-depth=N] [--reload-ms=N] [--ingest]\n"
               "                  [--resynth-policy=interval|drift|manual]"
               " [--resynth-interval=N]\n"
               "                  [--drift-alpha=A] [--drift-global-fraction=F]"
               " [--drift-min-rows=N]\n"
               "  guardrail stream <data.csv> [--batch-rows=N] [--out=FILE]"
               " [--force-refresh]\n"
               "                  [--resynth-policy=...] [--drift-*=...]\n"
               "  guardrail stream <data.csv> --endpoint=host:port"
               " --dataset=NAME [--batch-rows=N]\n"
               "  guardrail validate <host:port> <dataset> <data.csv>"
               " [--scheme=...] [--format=csv|json] [--time-budget-ms=N]\n"
               "  guardrail validate --endpoints=h:p,h:p,... <dataset>"
               " <data.csv> [--retries=N] [--hedge-ms=N] [--scheme=...]\n"
               "global flags:\n"
               "  --threads=N         worker parallelism for synthesize"
               " (default: hardware concurrency)\n"
               "  --trace-out=FILE    write a Chrome trace_event JSON timeline"
               " (chrome://tracing, Perfetto)\n"
               "  --trace-stream-out=FILE\n"
               "                      stream trace events to FILE incrementally"
               " (bounded memory; for serve/stream)\n"
               "  --metrics-out=FILE  write telemetry counters/histograms as"
               " JSON\n"
               "  --log-level=LEVEL   debug|info|warn|error|off (default"
               " warn)\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  telemetry::InitLogLevelFromEnv();
  // Extract long options so flag order is free and the positional grammar
  // below stays unchanged.
  int64_t time_budget_ms = -1;
  int num_threads = 0;  // 0 = ThreadPool::DefaultThreads().
  std::string trace_out;
  std::string metrics_out;
  bool json = false;
  bool minimize = false;
  std::string certificate_path;
  std::string minimized_out_path;
  double analyze_epsilon = 0.02;
  core::ErrorPolicy scheme = core::ErrorPolicy::kRaise;
  std::string programs_dir;
  int serve_port = 0;
  int queue_depth = 0;
  int reload_ms = 0;
  std::string row_format = "csv";
  std::string endpoints_spec;
  int retries = -1;   // -1 = pool default.
  int hedge_ms = 0;
  bool ingest = false;
  bool force_refresh = false;
  stream::StreamServiceOptions stream_options;
  stream::PolicyOptions& policy_options = stream_options.policy;
  stream::DriftOptions& drift_options = stream_options.incremental.drift;
  int64_t batch_rows = 0;  // 0 = CmdStream default.
  std::string stream_endpoint;
  std::string stream_dataset;
  std::string out_path;
  std::string trace_stream_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    constexpr std::string_view kBudget = "--time-budget-ms=";
    constexpr std::string_view kThreads = "--threads=";
    constexpr std::string_view kTraceOut = "--trace-out=";
    constexpr std::string_view kMetricsOut = "--metrics-out=";
    constexpr std::string_view kLogLevel = "--log-level=";
    constexpr std::string_view kEpsilon = "--epsilon=";
    constexpr std::string_view kScheme = "--scheme=";
    constexpr std::string_view kPrograms = "--programs=";
    constexpr std::string_view kPort = "--port=";
    constexpr std::string_view kQueueDepth = "--queue-depth=";
    constexpr std::string_view kReloadMs = "--reload-ms=";
    constexpr std::string_view kFormat = "--format=";
    constexpr std::string_view kEndpoints = "--endpoints=";
    constexpr std::string_view kRetries = "--retries=";
    constexpr std::string_view kHedgeMs = "--hedge-ms=";
    constexpr std::string_view kCertificate = "--certificate=";
    constexpr std::string_view kMinimizedOut = "--minimized-out=";
    constexpr std::string_view kResynthPolicy = "--resynth-policy=";
    constexpr std::string_view kResynthInterval = "--resynth-interval=";
    constexpr std::string_view kDriftAlpha = "--drift-alpha=";
    constexpr std::string_view kDriftGlobalFraction =
        "--drift-global-fraction=";
    constexpr std::string_view kDriftMinRows = "--drift-min-rows=";
    constexpr std::string_view kBatchRows = "--batch-rows=";
    constexpr std::string_view kEndpoint = "--endpoint=";
    constexpr std::string_view kDataset = "--dataset=";
    constexpr std::string_view kOut = "--out=";
    constexpr std::string_view kTraceStreamOut = "--trace-stream-out=";
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--ingest") {
      ingest = true;
      continue;
    }
    if (arg == "--force-refresh") {
      force_refresh = true;
      continue;
    }
    if (arg.rfind(kResynthPolicy, 0) == 0) {
      auto mode = stream::ParseResynthesisMode(
          std::string(arg.substr(kResynthPolicy.size())));
      if (!mode.has_value()) return Usage();
      policy_options.mode = *mode;
      continue;
    }
    if (arg.rfind(kResynthInterval, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kResynthInterval.size()), &parsed) ||
          parsed < 1) {
        return Usage();
      }
      policy_options.interval_batches = static_cast<int64_t>(parsed);
      policy_options.mode = stream::ResynthesisMode::kInterval;
      continue;
    }
    if (arg.rfind(kDriftAlpha, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kDriftAlpha.size()), &parsed) ||
          parsed <= 0 || parsed >= 1) {
        return Usage();
      }
      drift_options.alpha = parsed;
      continue;
    }
    if (arg.rfind(kDriftGlobalFraction, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kDriftGlobalFraction.size()), &parsed) ||
          parsed <= 0 || parsed > 1) {
        return Usage();
      }
      drift_options.global_fraction = parsed;
      continue;
    }
    if (arg.rfind(kDriftMinRows, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kDriftMinRows.size()), &parsed) ||
          parsed < 1) {
        return Usage();
      }
      drift_options.min_window_rows = static_cast<int64_t>(parsed);
      // Small demo streams need the per-pair power floor lowered too.
      drift_options.min_pair_rows = std::min(drift_options.min_pair_rows,
                                             drift_options.min_window_rows);
      continue;
    }
    if (arg.rfind(kBatchRows, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kBatchRows.size()), &parsed) || parsed < 1) {
        return Usage();
      }
      batch_rows = static_cast<int64_t>(parsed);
      continue;
    }
    if (arg.rfind(kEndpoint, 0) == 0) {
      stream_endpoint = std::string(arg.substr(kEndpoint.size()));
      if (stream_endpoint.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kDataset, 0) == 0) {
      stream_dataset = std::string(arg.substr(kDataset.size()));
      if (stream_dataset.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kOut, 0) == 0) {
      out_path = std::string(arg.substr(kOut.size()));
      if (out_path.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kTraceStreamOut, 0) == 0) {
      trace_stream_out = std::string(arg.substr(kTraceStreamOut.size()));
      if (trace_stream_out.empty()) return Usage();
      continue;
    }
    if (arg == "--minimize") {
      minimize = true;
      continue;
    }
    if (arg.rfind(kCertificate, 0) == 0) {
      certificate_path = std::string(arg.substr(kCertificate.size()));
      if (certificate_path.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kMinimizedOut, 0) == 0) {
      minimized_out_path = std::string(arg.substr(kMinimizedOut.size()));
      if (minimized_out_path.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kEpsilon, 0) == 0) {
      if (!ParseDouble(arg.substr(kEpsilon.size()), &analyze_epsilon) ||
          analyze_epsilon < 0 || analyze_epsilon >= 1) {
        return Usage();
      }
      continue;
    }
    if (arg.rfind(kScheme, 0) == 0) {
      std::string_view name = arg.substr(kScheme.size());
      if (name == "raise") {
        scheme = core::ErrorPolicy::kRaise;
      } else if (name == "ignore") {
        scheme = core::ErrorPolicy::kIgnore;
      } else if (name == "coerce") {
        scheme = core::ErrorPolicy::kCoerce;
      } else if (name == "rectify") {
        scheme = core::ErrorPolicy::kRectify;
      } else {
        return Usage();
      }
      continue;
    }
    if (arg.rfind(kPrograms, 0) == 0) {
      programs_dir = std::string(arg.substr(kPrograms.size()));
      if (programs_dir.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kPort, 0) == 0) {
      double parsed = -1;
      if (!ParseDouble(arg.substr(kPort.size()), &parsed) || parsed < 0 ||
          parsed > 65535) {
        return Usage();
      }
      serve_port = static_cast<int>(parsed);
      continue;
    }
    if (arg.rfind(kQueueDepth, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kQueueDepth.size()), &parsed) ||
          parsed < 1) {
        return Usage();
      }
      queue_depth = static_cast<int>(parsed);
      continue;
    }
    if (arg.rfind(kReloadMs, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kReloadMs.size()), &parsed) || parsed < 1) {
        return Usage();
      }
      reload_ms = static_cast<int>(parsed);
      continue;
    }
    if (arg.rfind(kFormat, 0) == 0) {
      row_format = std::string(arg.substr(kFormat.size()));
      if (row_format != "csv" && row_format != "json") return Usage();
      continue;
    }
    if (arg.rfind(kEndpoints, 0) == 0) {
      endpoints_spec = std::string(arg.substr(kEndpoints.size()));
      if (endpoints_spec.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kRetries, 0) == 0) {
      double parsed = -1;
      if (!ParseDouble(arg.substr(kRetries.size()), &parsed) || parsed < 0 ||
          parsed > 100) {
        return Usage();
      }
      retries = static_cast<int>(parsed);
      continue;
    }
    if (arg.rfind(kHedgeMs, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kHedgeMs.size()), &parsed) || parsed < 1) {
        return Usage();
      }
      hedge_ms = static_cast<int>(parsed);
      continue;
    }
    if (arg.rfind(kThreads, 0) == 0) {
      double parsed = 0;
      if (!ParseDouble(arg.substr(kThreads.size()), &parsed) || parsed < 1) {
        return Usage();
      }
      num_threads = static_cast<int>(parsed);
      // The caller participates in every parallel loop, so N-way
      // parallelism needs N - 1 pool workers.
      ThreadPool::SetSharedWorkers(num_threads - 1);
      continue;
    }
    if (arg.rfind(kBudget, 0) == 0) {
      double ms = 0;
      if (!ParseDouble(arg.substr(kBudget.size()), &ms) || ms < 0) {
        return Usage();
      }
      time_budget_ms = static_cast<int64_t>(ms);
      continue;
    }
    if (arg.rfind(kTraceOut, 0) == 0) {
      trace_out = std::string(arg.substr(kTraceOut.size()));
      if (trace_out.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kMetricsOut, 0) == 0) {
      metrics_out = std::string(arg.substr(kMetricsOut.size()));
      if (metrics_out.empty()) return Usage();
      continue;
    }
    if (arg.rfind(kLogLevel, 0) == 0) {
      telemetry::LogLevel level;
      if (!telemetry::ParseLogLevel(arg.substr(kLogLevel.size()), &level)) {
        return Usage();
      }
      telemetry::SetLogLevel(level);
      continue;
    }
    if (arg.rfind("--", 0) == 0) return Usage();
    args.emplace_back(arg);
  }
  if (num_threads > 0) {
    stream_options.incremental.synthesis.num_threads = num_threads;
  }
  if (!trace_out.empty()) telemetry::EnableTracing(true);
  if (!metrics_out.empty()) telemetry::EnableMetrics(true);
  if (!trace_stream_out.empty()) {
    Status st = telemetry::StartTraceStream(trace_stream_out);
    if (!st.ok()) return Fail(st);
  }

  size_t n = args.size();
  std::string command = n > 0 ? args[0] : "";
  int rc;
  if (command == "synthesize" && (n == 3 || n == 4)) {
    double epsilon = 0.02;
    if (n == 4 && !ParseDouble(args[3], &epsilon)) return Usage();
    rc = CmdSynthesize(args[1], args[2], epsilon, time_budget_ms,
                       num_threads);
  } else if (command == "check" && n == 3) {
    rc = CmdCheck(args[1], args[2]);
  } else if (command == "analyze" && n == 3) {
    rc = CmdAnalyze(args[1], args[2], json, analyze_epsilon, scheme, minimize,
                    certificate_path, minimized_out_path);
  } else if (command == "repair" && n == 4) {
    rc = CmdRepair(args[1], args[2], args[3]);
  } else if (command == "profile" && n == 2) {
    rc = CmdProfile(args[1]);
  } else if (command == "query" && n == 3) {
    rc = CmdQuery(args[1], args[2], time_budget_ms);
  } else if (command == "explain" && n == 2) {
    rc = CmdExplain(args[1]);
  } else if (command == "serve" && n == 1 && !programs_dir.empty()) {
    rc = CmdServe(programs_dir, serve_port, queue_depth, reload_ms, ingest,
                  stream_options);
  } else if (command == "stream" && n == 2 &&
             (stream_endpoint.empty() == stream_dataset.empty())) {
    rc = CmdStream(args[1], batch_rows, stream_options, force_refresh,
                   stream_endpoint, stream_dataset, out_path);
  } else if (command == "validate" && n == 3 && !endpoints_spec.empty()) {
    rc = CmdValidateFleet(endpoints_spec, args[1], args[2], scheme,
                          row_format, time_budget_ms, retries, hedge_ms);
  } else if (command == "validate" && n == 4) {
    rc = CmdValidate(args[1], args[2], args[3], scheme, row_format,
                     time_budget_ms);
  } else {
    return Usage();
  }

  // Telemetry files are written even when the command failed — a failing run
  // is exactly when the trace is most interesting.
  if (!trace_stream_out.empty()) {
    Status st = telemetry::StopTraceStream();
    if (!st.ok()) return Fail(st);
  }
  if (!trace_out.empty()) {
    Status st = telemetry::WriteTrace(trace_out);
    if (!st.ok()) return Fail(st);
  }
  if (!metrics_out.empty()) {
    Status st = telemetry::WriteMetrics(metrics_out);
    if (!st.ok()) return Fail(st);
  }
  return rc;
}

}  // namespace
}  // namespace guardrail

int main(int argc, char** argv) { return guardrail::Main(argc, argv); }
