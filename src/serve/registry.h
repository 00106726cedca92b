#ifndef GUARDRAIL_SERVE_REGISTRY_H_
#define GUARDRAIL_SERVE_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/ast.h"
#include "core/batch_eval.h"
#include "table/schema.h"

namespace guardrail {
namespace serve {

/// One immutable published program version. Snapshots are handed out as
/// shared_ptr<const>; once published nothing ever mutates them, so any
/// number of request threads can validate against one while a reload swaps
/// in its successor.
struct ProgramSnapshot {
  std::string dataset;
  /// Monotonically increasing per dataset, starting at 1.
  uint64_t version = 0;
  /// FNV-1a over the program text (and the companion schema CSV when one was
  /// used); the registry skips reloads whose sources hash identically.
  uint64_t source_hash = 0;
  /// Wall-clock load time (microseconds since the Unix epoch), for operator
  /// visibility — ordering guarantees come from `version`, never from this.
  int64_t load_unix_micros = 0;
  std::string source_path;
  core::Program program;
  /// The schema the program was resolved against (attribute order defines
  /// the wire row layout for this dataset).
  Schema schema;
  /// Batch evaluator compiled once at publication, pointing into `program`
  /// (which is heap-stable for the snapshot's lifetime). Every request on
  /// this snapshot shares it (core::GuardExecutor picks the interpreter
  /// instead while the "interpreter.check" chaos failpoint is armed).
  std::unique_ptr<const core::CompiledProgram> compiled;

  int32_t statement_count() const {
    return static_cast<int32_t>(program.statements.size());
  }
};

/// Versioned, hot-reloadable store of analyzer-clean constraint programs,
/// keyed by dataset id.
///
/// Publication is RCU-style: the registry holds one shared_ptr per dataset
/// behind a mutex; Get copies the pointer (a refcount bump) and a reload
/// swaps it. In-flight requests keep the snapshot they started with — and
/// report its version — for as long as they hold the pointer; the old
/// version is freed when the last request drops it.
///
/// Every load runs the static analyzer's schema-level passes (type/domain,
/// satisfiability, contradiction; see docs/ANALYSIS.md) and rejects programs
/// with error-severity diagnostics: a broken program must never become
/// servable, and a broken *reload* must never displace a good live version.
class ProgramRegistry {
 public:
  ProgramRegistry() = default;
  ProgramRegistry(const ProgramRegistry&) = delete;
  ProgramRegistry& operator=(const ProgramRegistry&) = delete;

  /// Parses `program_text` (the `# guardrail-program v1` format) against a
  /// copy of `base_schema`, analyzes it, and — if clean — publishes it as
  /// the dataset's next version. Returns the new version number.
  ///
  /// Minimized programs (text carrying the `# guardrail-minimized` marker,
  /// see analysis/semantic.h) are additionally gated on their equivalence
  /// certificate: `certificate_text` must hold a certificate that
  /// analysis::VerifyCertificate accepts for this exact program, or the
  /// publish is refused. A minimizer (or an operator editing a minimized
  /// file by hand) must never ship a weaker guard than the original without
  /// a replayable proof that the verdicts are identical.
  Result<uint64_t> LoadFromText(const std::string& dataset,
                                const std::string& program_text,
                                const Schema& base_schema,
                                const std::string& source_path = "",
                                const std::string& certificate_text = "");

  /// The dataset's current snapshot, or nullptr when it has none.
  std::shared_ptr<const ProgramSnapshot> Get(const std::string& dataset) const;

  /// Every live snapshot, sorted by dataset id.
  std::vector<std::shared_ptr<const ProgramSnapshot>> List() const;

  /// Scans `dir` for `<dataset>.grl` program files, each with an optional
  /// companion `<dataset>.csv` whose header (and rows, when present) seeds
  /// the schema the program is resolved against, and an optional companion
  /// `<dataset>.cert.json` minimization certificate (required when the
  /// program text carries the minimized marker — see LoadFromText).
  /// (Re)loads every file whose combined content hash changed since the last
  /// poll. A file that fails to parse, analyze, or certify is skipped with a
  /// WARN log — the previous version (if any) stays live; a daemon must not
  /// die, or lose a good program, because one reload was bad.
  ///
  /// Returns the number of versions published by this poll.
  Result<int> PollDirectory(const std::string& dir);

  /// Total versions ever published (across all datasets).
  int64_t versions_published() const;

  /// Evicts superseded snapshots whose external refcount has drained (no
  /// in-flight request still pins them), returning how many were freed. A
  /// snapshot still held by a request survives — its verdicts are being
  /// computed against it — and is retried next GC. Runs automatically on
  /// every publish and every PollDirectory; callable directly for tests and
  /// health probes.
  int GcSuperseded();

  /// Superseded snapshots still retained (drained or pinned) — the health
  /// frame's gauge. Run GcSuperseded() first for the pinned-only number.
  int superseded_live() const;

  /// Datasets with a live snapshot.
  int live_datasets() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ProgramSnapshot>>
      live_;
  /// Superseded-but-retained snapshots: a hot reload moves the displaced
  /// version here so operators can see how many old versions in-flight
  /// requests still pin (RCU grace period made observable). GcSuperseded
  /// drops the drained ones.
  std::vector<std::shared_ptr<const ProgramSnapshot>> superseded_;
  /// dataset -> combined source hash of the last *attempted* load, so a
  /// persistently broken file is not re-parsed (and re-logged) every poll.
  std::unordered_map<std::string, uint64_t> attempted_hash_;
  int64_t versions_published_ = 0;
};

}  // namespace serve
}  // namespace guardrail

#endif  // GUARDRAIL_SERVE_REGISTRY_H_
