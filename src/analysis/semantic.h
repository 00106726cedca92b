#ifndef GUARDRAIL_ANALYSIS_SEMANTIC_H_
#define GUARDRAIL_ANALYSIS_SEMANTIC_H_

/// Whole-program semantic analysis and the certified minimizer.
///
/// The semantic pass (pass 6, GRL6xx/GRL7xx) runs the implication engine
/// (implication.h) over the full program: statements the rest of the program
/// provably implies (GRL601), statements synthesized twice (GRL602),
/// branches whose whole region the program has already condemned (GRL701),
/// and transitive cross-statement contradictions the pairwise GRL301 scan
/// cannot see (GRL702).
///
/// `MinimizeProgram` turns the GRL601/602 findings into a smaller,
/// verdict-identical program: implied statements are dropped one at a time
/// (each drop proven against the statements still standing, so soundness
/// composes), survivors are reordered hottest-first for the first-match
/// probe loops, and the whole transformation is recorded in a
/// machine-checkable JSON certificate. `VerifyCertificate` re-derives every
/// drop with the implication engine and replays seeded random rows through
/// `Interpreter::Check` on both programs — the serving registry refuses to
/// publish a minimized program without a certificate that passes it.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ast.h"
#include "table/schema.h"

namespace guardrail {
namespace analysis {

struct MinimizeOptions {
  /// Reorder surviving statements by total branch support (hottest
  /// first-match probes first) and, within disjoint statements, branches by
  /// support. Off keeps the input order for byte-stable comparisons.
  bool reorder = true;
  /// Sampled-replay budget baked into the certificate. Rows are drawn
  /// uniformly per attribute from [-1, domain_size]: every legitimate code,
  /// NULL, and one out-of-dictionary code.
  int64_t sample_rows = 512;
  uint64_t sample_seed = 0x6772646cULL;
};

/// A minimization and its proof artifacts. `program` is verdict-equivalent
/// to the input: for every row, the minimized program flags it iff the
/// original does (violation *lists* shrink with the dropped statements;
/// the flag bit — Interpreter::Satisfies — is preserved exactly).
struct MinimizationResult {
  core::Program program;
  /// Original statement indices dropped, in drop order (each proven implied
  /// by the statements still active at that point).
  std::vector<size_t> dropped;
  /// Per drop: the statements whose closure proved it, original indices.
  std::vector<std::vector<size_t>> impliers;
  /// Survivors' original indices in emitted (dominance) order.
  std::vector<size_t> order;
  /// Self-contained JSON equivalence certificate (docs/ANALYSIS.md).
  std::string certificate;
  int64_t statements_before = 0;
  int64_t statements_after = 0;
  int64_t branches_before = 0;
  int64_t branches_after = 0;
};

/// Minimizes `program` and emits its certificate. Never unsound: a statement
/// is dropped only when the implication engine proves the remaining
/// statements flag every row it would have flagged, and the sampled replay
/// is run at emit time too — an engine bug surfaces as an error here, not as
/// a bad certificate. Statement indices in the certificate refer to
/// `program` as passed; canonicalize first (core::NormalizeProgram) when the
/// certificate must be reproducible across synthesis runs.
Result<MinimizationResult> MinimizeProgram(const core::Program& program,
                                           const Schema& schema,
                                           const MinimizeOptions& options = {});

/// Replays a certificate against the minimized program it claims to certify:
/// checks both canonical-text hashes, re-parses the embedded original,
/// checks drops+survivors partition it, re-derives every drop claim with the
/// implication engine, and replays the seeded row sample through the
/// interpreter verifying per-row verdict equality plus the checksum. OK iff
/// everything holds.
Status VerifyCertificate(const std::string& certificate_json,
                         const core::Program& minimized,
                         const Schema& schema);

/// FNV-1a over the canonical DSL rendering (printer.h ToDsl) — the program
/// identity the certificate pins. Comments and advisory metadata do not
/// participate.
uint64_t CanonicalProgramHash(const core::Program& program,
                              const Schema& schema);

/// `core::SerializeProgram` with the minimized-program marker
/// (`# guardrail-minimized`) as the first comment line, then `comment`.
/// The registry's publish gate demands a certificate for any program text
/// carrying the marker.
std::string SerializeMinimizedProgram(const core::Program& program,
                                      const Schema& schema,
                                      const std::string& comment = "");

/// True when any line of `program_text` starts with the marker.
bool HasMinimizedMarker(const std::string& program_text);

}  // namespace analysis
}  // namespace guardrail

#endif  // GUARDRAIL_ANALYSIS_SEMANTIC_H_
