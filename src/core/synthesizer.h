#ifndef GUARDRAIL_CORE_SYNTHESIZER_H_
#define GUARDRAIL_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/semantic.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "core/ast.h"
#include "core/sketch.h"
#include "core/sketch_filler.h"
#include "pgm/auxiliary_sampler.h"
#include "pgm/mec_enumerator.h"
#include "pgm/hill_climbing.h"
#include "pgm/pc_algorithm.h"
#include "pgm/ci_test.h"
#include "table/table.h"

namespace guardrail {
namespace core {

/// Which structure learner produces the sketch-level graph.
enum class StructureMethod {
  /// Constraint-based PC (the paper's pipeline).
  kPc,
  /// Score-based greedy hill climbing under BIC; an ablation alternative.
  /// The learned DAG is converted to its CPDAG so the MEC machinery of
  /// Alg. 2 applies unchanged.
  kHillClimbing,
};

/// End-to-end synthesis configuration (paper Secs. 3-4, 7).
struct SynthesisOptions {
  FillOptions fill;
  StructureMethod structure_method = StructureMethod::kPc;
  /// Worker parallelism for the whole pipeline: PC's per-level CI tests, the
  /// concurrent MEC sketch fill, and the row-grouping scans. 0 resolves to
  /// ThreadPool::DefaultThreads() (hardware concurrency, or the
  /// GUARDRAIL_THREADS env var); 1 runs fully serial. Forwarded to
  /// pc.num_threads / fill.num_threads when those are left at their 0
  /// default. The synthesized program is byte-identical for every setting
  /// (see docs/PARALLELISM.md for the determinism argument).
  int num_threads = 0;
  /// Learn the PGM on the auxiliary (binary indicator) sample instead of the
  /// raw data (Sec. 4.6); the Table 8 ablation flips this off.
  bool use_auxiliary_sampler = true;
  pgm::AuxiliarySamplerOptions aux;
  pgm::PcAlgorithm::Options pc;
  pgm::HillClimbingLearner::Options hill_climbing;
  /// Maximal enumeration of DAGs within the MEC (Alg. 2's bound).
  int64_t max_dags = 500;
  /// Post-filter the winning sketch with the empirical GNT check
  /// (Def. 4.2). Theorem 4.1 guarantees MEC-derived sketches are GNT under
  /// faithfulness; with finite samples the guarantee can slip, and this
  /// drops statements whose correlation vanishes when conditioning on the
  /// others' determinants (Example 4.1's redundancy).
  bool enforce_gnt = false;
  /// CI-test configuration for the GNT check (raw-data tests).
  pgm::GSquareTest::Options gnt_ci;
  /// Post-synthesis minimization rung (analysis/semantic.h): build the
  /// ensemble program — the union of every completely filled member-DAG
  /// program, the strongest constraint set the MEC supports — and run the
  /// certified minimizer over it, recording the result in
  /// SynthesisReport::minimization. The chosen `program` is never replaced;
  /// callers opt into serving the minimized ensemble explicitly (it is a
  /// stronger guard than any single member program).
  bool minimize = true;
  /// Row-sample budget of the minimization certificate's replay.
  analysis::MinimizeOptions minimize_options;
  /// Post-synthesis invariant verification (src/analysis). The analyzer
  /// always runs after a non-degraded synthesis and WARN-logs findings plus
  /// `analysis.*` telemetry counters; with verify_programs set, any
  /// error-severity diagnostic additionally fails the run — the report's
  /// `verification` Status turns non-OK. Tests run with this on so a silent
  /// bug in sketch filling, normalization, or MEC selection cannot ship a
  /// program that violates the paper's invariants. Verification also enables
  /// the G-squared LNT/GNT audit, which release mode skips for latency.
  bool verify_programs = false;
};

/// The graceful-degradation ladder: which synthesis strategy ultimately
/// produced the program when running under a time budget. Rungs are ordered
/// from full fidelity to the trivial floor; an unlimited budget always stays
/// on the top rung.
enum class SynthesisRung {
  /// Full pipeline: PC (or configured learner) + complete MEC enumeration +
  /// coverage-maximal selection across all member DAGs.
  kFullMec = 0,
  /// Structure was learned but the budget cut the enumeration or fill short;
  /// the program comes from the best DAG subset that finished (possibly a
  /// single best-effort extension).
  kSingleDag = 1,
  /// PC exceeded its budget slice; structure fell back to anytime greedy
  /// hill climbing and a single-DAG fill.
  kHillClimb = 2,
  /// Budget exhausted before any statement could be synthesized; only the
  /// per-attribute domain constraints remain (program is empty).
  kTrivial = 3,
};

const char* SynthesisRungName(SynthesisRung rung);

/// The ladder's floor: one constraint per attribute restricting values to
/// the dictionary observed at synthesis time. Computable in one cheap pass,
/// so it is always available no matter how little budget remains.
struct DomainConstraint {
  AttrIndex attribute = 0;
  /// Codes in [0, domain_size) were observed at synthesis time.
  int32_t domain_size = 0;
  /// Most frequent observed value and how many rows carried it.
  ValueId mode = kNullValue;
  int64_t mode_support = 0;
};

/// One pass over `data` building the floor constraints.
std::vector<DomainConstraint> BuildDomainConstraints(const Table& data);

/// Attributes of `row` violating the domain constraints (NULL or a code
/// outside the synthesis-time dictionary).
std::vector<AttrIndex> DomainViolations(
    const std::vector<DomainConstraint>& constraints, const Row& row);

/// Everything the pipeline produced, for experiments and diagnostics.
struct SynthesisReport {
  Program program;
  ProgramSketch chosen_sketch;
  pgm::Pdag cpdag;
  int64_t num_dags_enumerated = 0;
  int64_t num_ci_tests = 0;
  /// ProgramCoverage(program, data), averaged from statement_coverages.
  double coverage = 0.0;
  /// cov(s, D) of each statement of `program`, in program order, as its
  /// fill counted it (bit-identical to StatementCoverage).
  std::vector<double> statement_coverages;

  // Wall-clock breakdown (seconds).
  double sampling_seconds = 0.0;
  double structure_seconds = 0.0;
  double enumeration_seconds = 0.0;
  double fill_seconds = 0.0;
  double total_seconds = 0.0;

  // Statement-level cache effectiveness (Sec. 7 "Synthesis Optimizations").
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  // Statements removed by the optional GNT post-filter.
  int64_t gnt_statements_dropped = 0;

  // ---- Graceful degradation (deadline-aware synthesis). ----
  /// Ladder rung that produced `program`; kFullMec on unlimited budgets.
  SynthesisRung rung = SynthesisRung::kFullMec;
  /// Human-readable explanation when rung != kFullMec (which stage ran out
  /// of budget and what the ladder fell back to). Empty otherwise.
  std::string degradation_reason;
  /// True when any stage hit the deadline (even if a lower rung recovered).
  bool budget_expired = false;
  /// Populated on the kTrivial rung (and harmless to use on any rung).
  std::vector<DomainConstraint> domain_constraints;

  // ---- Whole-program minimization (analysis/semantic.h). ----
  /// Raw union of every completely filled member-DAG program in canonical
  /// order (CanonicalizeProgramOrder) — byte-identical for any thread count
  /// or DAG enumeration order, but deliberately NOT deduplicated. Members
  /// mostly agree, so the union carries exact duplicates (shared sketch
  /// statements fill identically through the statement cache); where
  /// finite-sample PC gives a dependent different parent sets across
  /// members, it carries both variants. The minimization rung removes that
  /// redundancy with a replayable equivalence certificate — the certified
  /// path replaces an uncertified normalize/merge rewrite. Equals `program`
  /// (reordered) when a single DAG was filled.
  Program ensemble_program;
  /// Certified minimization of `ensemble_program` (when
  /// SynthesisOptions::minimize and the fill was not budget-degraded).
  /// `minimization.program` is the dominance-ordered minimized ensemble and
  /// `minimization.certificate` its machine-checkable equivalence proof.
  analysis::MinimizationResult minimization;
  /// True when `minimization` was computed and its certificate emitted.
  bool minimized = false;

  // ---- Post-synthesis invariant verification (src/analysis). ----
  /// Static-analysis findings on the synthesized program (empty when the
  /// check was skipped because the budget had already expired).
  analysis::DiagnosticReport analysis;
  /// OK unless SynthesisOptions::verify_programs is set and the analyzer
  /// reported error-severity diagnostics.
  Status verification = Status::OK();
};

/// The Guardrail synthesizer: auxiliary sampling -> PC -> MEC enumeration ->
/// sketch filling -> coverage-maximizing selection (Alg. 2).
class Synthesizer {
 public:
  explicit Synthesizer(SynthesisOptions options) : options_(options) {
    // Pipeline-wide parallelism flows into the stages that did not set
    // their own (0 = "inherit").
    if (options_.pc.num_threads == 0) {
      options_.pc.num_threads = options_.num_threads;
    }
    if (options_.fill.num_threads == 0) {
      options_.fill.num_threads = options_.num_threads;
    }
  }

  /// Synthesizes the integrity-constraint program from `data`. `rng` drives
  /// the auxiliary sampler's pairing shuffle only; with
  /// use_auxiliary_sampler == false the pipeline is fully deterministic.
  SynthesisReport Synthesize(const Table& data, Rng* rng) const;

  /// Deadline-aware synthesis. Never hangs, never crashes, never returns
  /// garbage: when `cancel` fires mid-pipeline the degradation ladder steps
  /// down — full MEC -> best-DAG-subset fill -> hill-climbing structure ->
  /// trivial domain constraints — and the report records the rung reached,
  /// why, and the per-stage wall-clock. With an infinite budget the result
  /// is identical to Synthesize(data, rng).
  SynthesisReport Synthesize(const Table& data, Rng* rng,
                             const CancellationToken& cancel) const;

  /// Alg. 2 in isolation: given a CPDAG, enumerate member DAGs, fill each
  /// induced sketch against `data` with a shared statement cache, and return
  /// the concrete program with maximum coverage.
  SynthesisReport SynthesizeFromMec(const pgm::Pdag& cpdag,
                                    const Table& data) const;

  /// Cancellable Alg. 2. Degrades internally to a partial-enumeration /
  /// best-effort-extension fill (rung kSingleDag); returns Status::Timeout
  /// only when not even one DAG could be filled within the budget.
  Result<SynthesisReport> SynthesizeFromMec(
      const pgm::Pdag& cpdag, const Table& data,
      const CancellationToken& cancel) const;

  /// The kHillClimb rung's fill: fills the sketch of one DAG (no MEC, no
  /// statement cache) and minimizes it as a one-member ensemble. Returns
  /// Status::Timeout when `cancel` fires before every statement is filled.
  Result<SynthesisReport> FillSingleDag(const pgm::Dag& dag, const Table& data,
                                        const CancellationToken& cancel) const;

 private:
  /// The ladder body; Synthesize wraps it in the root "synthesize" telemetry
  /// span and stamps total_seconds from that span's clock.
  SynthesisReport SynthesizeImpl(const Table& data, Rng* rng,
                                 const CancellationToken& cancel) const;

  /// Post-synthesis invariant check: statically analyzes report->program,
  /// WARN-logs findings, and under verify_programs fails `verification` on
  /// error-severity diagnostics.
  void VerifyProgram(const Table& data, SynthesisReport* report) const;

  /// The minimization rung: certified-minimizes report->ensemble_program
  /// into report->minimization when SynthesisOptions::minimize is set and
  /// the fill was not budget-degraded. Failure never fails synthesis — the
  /// rung WARN-logs and leaves `minimized` false.
  void MinimizeEnsemble(const Schema& schema, SynthesisReport* report) const;

  SynthesisOptions options_;
};

}  // namespace core
}  // namespace guardrail

#endif  // GUARDRAIL_CORE_SYNTHESIZER_H_
