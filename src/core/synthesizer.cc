#include "core/synthesizer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/nontriviality.h"
#include "core/normalize.h"
#include "pgm/encoded_data.h"

namespace guardrail {
namespace core {

namespace {

/// Statement-level cache (Sec. 7): DAGs in one MEC share most parent sets,
/// so FillStmtSketch results — each statement with the coverage its fill
/// counted — are memoized on (determinants, dependent).
///
/// Concurrency: lookups go through a mutex-striped shard table (the shard
/// mutex guards only the hash map, never a fill), and each entry carries its
/// own state machine so a statement shared by several concurrently-filling
/// DAGs is filled exactly once — later callers block on the entry until the
/// first fill lands, then read the memoized result.
class StatementCache {
 public:
  /// nullptr means the sketch filled to bottom. Timeouts are propagated and
  /// never cached (the entry may still be fillable by a later caller with a
  /// fresh budget): a failed fill resets the entry and wakes one waiter to
  /// retry.
  Result<const FilledStatement*> GetOrFill(const StatementSketch& sketch,
                                           const Table& data,
                                           const FillOptions& options,
                                           const CancellationToken& cancel) {
    Shard& shard =
        shards_[StatementSketchHash()(sketch) % shards_.size()];
    std::shared_ptr<Entry> entry;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      std::shared_ptr<Entry>& slot = shard.map[sketch];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      entry = slot;
    }

    std::unique_lock<std::mutex> lock(entry->mu);
    for (;;) {
      if (entry->state == Entry::State::kDone) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry->value.has_value() ? &*entry->value : nullptr;
      }
      if (entry->state == Entry::State::kUnfilled) break;
      entry->cv.wait(lock);
    }
    entry->state = Entry::State::kFilling;
    lock.unlock();

    Result<std::optional<FilledStatement>> filled =
        FillStatementSketch(sketch, data, options, cancel);

    lock.lock();
    if (!filled.ok()) {
      entry->state = Entry::State::kUnfilled;
      entry->cv.notify_all();
      return filled.status();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    entry->value = std::move(*filled);
    entry->state = Entry::State::kDone;
    entry->cv.notify_all();
    return entry->value.has_value() ? &*entry->value : nullptr;
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    enum class State { kUnfilled, kFilling, kDone };
    std::mutex mu;
    std::condition_variable cv;
    State state = State::kUnfilled;
    std::optional<FilledStatement> value;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<StatementSketch, std::shared_ptr<Entry>,
                       StatementSketchHash>
        map;
  };

  std::array<Shard, 16> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

/// ProgramCoverage from the statements' memoized coverages: the same sum in
/// the same order, so the double is bit-identical to rescanning the table.
double ProgramCoverageOf(const std::vector<double>& statement_coverages) {
  if (statement_coverages.empty()) return 0.0;
  double total = 0.0;
  for (double coverage : statement_coverages) total += coverage;
  return total / static_cast<double>(statement_coverages.size());
}

/// A token whose deadline spends at most `fraction` of what remains on
/// `cancel` — how the ladder reserves budget for its fallback rungs. With an
/// infinite budget this is `cancel` itself (no behavior change).
CancellationToken SubBudget(const CancellationToken& cancel, double fraction) {
  if (cancel.deadline().is_infinite()) return cancel;
  return cancel.WithDeadline(
      Deadline::AfterSeconds(fraction * cancel.deadline().RemainingSeconds()));
}

}  // namespace

const char* SynthesisRungName(SynthesisRung rung) {
  switch (rung) {
    case SynthesisRung::kFullMec:
      return "full-mec";
    case SynthesisRung::kSingleDag:
      return "single-dag";
    case SynthesisRung::kHillClimb:
      return "hill-climb";
    case SynthesisRung::kTrivial:
      return "trivial";
  }
  return "unknown";
}

std::vector<DomainConstraint> BuildDomainConstraints(const Table& data) {
  std::vector<DomainConstraint> out;
  out.reserve(static_cast<size_t>(data.num_columns()));
  for (AttrIndex a = 0; a < data.num_columns(); ++a) {
    DomainConstraint dc;
    dc.attribute = a;
    dc.domain_size = data.schema().attribute(a).domain_size();
    std::vector<int64_t> counts(
        static_cast<size_t>(std::max(1, dc.domain_size)), 0);
    for (ValueId v : data.column(a)) {
      if (v != kNullValue) ++counts[static_cast<size_t>(v)];
    }
    for (size_t v = 0; v < counts.size(); ++v) {
      if (counts[v] > dc.mode_support) {
        dc.mode_support = counts[v];
        dc.mode = static_cast<ValueId>(v);
      }
    }
    out.push_back(dc);
  }
  return out;
}

std::vector<AttrIndex> DomainViolations(
    const std::vector<DomainConstraint>& constraints, const Row& row) {
  std::vector<AttrIndex> out;
  for (const DomainConstraint& dc : constraints) {
    size_t i = static_cast<size_t>(dc.attribute);
    if (i >= row.size()) {
      out.push_back(dc.attribute);
      continue;
    }
    ValueId v = row[i];
    if (v == kNullValue || v < 0 || v >= dc.domain_size) {
      out.push_back(dc.attribute);
    }
  }
  return out;
}

SynthesisReport Synthesizer::SynthesizeFromMec(const pgm::Pdag& cpdag,
                                               const Table& data) const {
  Result<SynthesisReport> report =
      SynthesizeFromMec(cpdag, data, CancellationToken::Never());
  // Infallible with an infinite budget.
  return std::move(report).value();
}

Result<SynthesisReport> Synthesizer::SynthesizeFromMec(
    const pgm::Pdag& cpdag, const Table& data,
    const CancellationToken& cancel) const {
  SynthesisReport report;
  report.cpdag = cpdag;

  StopWatch total_watch;
  std::vector<pgm::Dag> dags;
  bool enumeration_cut_short = false;
  {
    // The stage span always times (it feeds enumeration_seconds even with
    // telemetry off); the enumerator emits its own nested "mec_enumerate"
    // span per call.
    telemetry::Span enum_span("enumerate", /*always_time=*/true);
    pgm::MecEnumerator::Options enum_options;
    enum_options.max_dags = options_.max_dags;
    // Finite-sample PC can orient conflicting colliders into a directed
    // cycle; repair before enumerating.
    pgm::Pdag working = cpdag;
    pgm::RepairCpdagCycles(&working);
    pgm::MecEnumerator enumerator(enum_options);
    Status enum_status = enumerator.Enumerate(working, cancel, &dags);
    if (!enum_status.ok()) {
      // Budget expired mid-enumeration; whatever members surfaced so far are
      // still valid candidates for Alg. 2's arbitration.
      enumeration_cut_short = true;
    } else if (dags.empty()) {
      // Finite-sample PC output occasionally admits no consistent extension
      // (conflicting colliders). Relax the v-structure validation so Alg. 2's
      // coverage selection can still arbitrate between acyclic orientations.
      enum_options.strict_v_structures = false;
      pgm::MecEnumerator relaxed(enum_options);
      if (!relaxed.Enumerate(working, cancel, &dags).ok()) {
        enumeration_cut_short = true;
      }
    }
    if (dags.empty()) {
      // Last resort: one greedy acyclic orientation (bounded, uncancelled).
      dags.push_back(pgm::BestEffortExtension(working));
    }
    enum_span.AddArg("dags", static_cast<int64_t>(dags.size()));
    enum_span.AddArg("cut_short", enumeration_cut_short);
    report.enumeration_seconds = enum_span.ElapsedSeconds();
  }
  report.num_dags_enumerated = static_cast<int64_t>(dags.size());

  // Alg. 2: fill the sketch of each member DAG; keep max coverage. The
  // per-DAG fills run concurrently — the statement cache guarantees each
  // shared statement is filled exactly once — and the winner is selected in
  // a serial DAG-ordered pass, so the chosen program is identical for any
  // thread count.
  telemetry::Span fill_span("sketch_fill", /*always_time=*/true);
  StatementCache cache;
  struct DagFill {
    bool attempted = false;
    bool complete = false;
    Program program;
    std::vector<double> statement_coverages;  // Aligned with program.
    ProgramSketch sketch;
    double coverage = -1.0;
  };
  std::vector<DagFill> fills(dags.size());
  {
    ParallelForOptions pf;
    pf.max_parallelism = ResolveThreads(options_.num_threads);
    pf.cancel = &cancel;
    // Bodies are whole-DAG fills (many row scans each); poll every body.
    pf.cancel_stride = 1;
    Status fill_status = ParallelFor(
        &ThreadPool::Shared(), static_cast<int64_t>(dags.size()),
        [&](int64_t i) {
          DagFill& out = fills[static_cast<size_t>(i)];
          out.attempted = true;
          out.sketch = SketchFromDag(dags[static_cast<size_t>(i)]);
          out.complete = true;
          for (const auto& stmt_sketch : out.sketch.statements) {
            Result<const FilledStatement*> stmt =
                cache.GetOrFill(stmt_sketch, data, options_.fill, cancel);
            if (!stmt.ok()) {
              out.complete = false;
              return;
            }
            if (*stmt != nullptr) {
              out.program.statements.push_back((*stmt)->statement);
              out.statement_coverages.push_back((*stmt)->coverage);
            }
          }
          out.coverage = ProgramCoverageOf(out.statement_coverages);
        },
        pf);
    // A cancelled loop is not an error here: cut-short DAGs surface as
    // !attempted in the selection pass below.
    (void)fill_status;
  }

  Program best_program;
  std::vector<double> best_statement_coverages;
  Program ensemble;
  ProgramSketch best_sketch;
  double best_coverage = -1.0;
  size_t dags_filled = 0;
  bool fill_cut_short = false;
  for (DagFill& fill : fills) {
    if (!fill.attempted || !fill.complete) {
      // A half-filled program would understate coverage; drop it and stop —
      // the budget is gone. (Later DAGs may have finished, but the serial
      // ladder stops at the first casualty and so does this merge.)
      fill_cut_short = true;
      break;
    }
    ++dags_filled;
    // Ensemble before the winner steals the statements: the raw union of
    // every complete member program, canonically ordered below so it is
    // byte-identical for any thread count or enumeration order. Members
    // mostly agree — shared sketch statements fill identically through the
    // statement cache, so the union carries exact duplicates — and where
    // finite-sample PC gives a dependent different parent sets the union
    // carries both variants. Deliberately NOT normalized: the minimization
    // rung removes the redundancy with a replayable certificate instead of
    // an uncertified merge rewrite.
    ensemble.statements.insert(ensemble.statements.end(),
                               fill.program.statements.begin(),
                               fill.program.statements.end());
    if (fill.coverage > best_coverage) {
      best_coverage = fill.coverage;
      best_program = std::move(fill.program);
      best_statement_coverages = std::move(fill.statement_coverages);
      best_sketch = std::move(fill.sketch);
    }
  }
  GUARDRAIL_COUNTER_ADD("sketch_filler.cache_hits", cache.hits());
  GUARDRAIL_COUNTER_ADD("sketch_filler.cache_misses", cache.misses());
  fill_span.AddArg("dags_filled", static_cast<int64_t>(dags_filled));
  fill_span.AddArg("cache_hits", cache.hits());
  fill_span.AddArg("cache_misses", cache.misses());
  if (dags_filled == 0) {
    return Status::Timeout(
        "sketch filling: budget exhausted before any DAG could be filled");
  }
  report.fill_seconds = fill_span.ElapsedSeconds();
  report.cache_hits = cache.hits();
  report.cache_misses = cache.misses();
  report.program = std::move(best_program);
  report.statement_coverages = std::move(best_statement_coverages);
  report.chosen_sketch = std::move(best_sketch);
  report.coverage = best_coverage < 0.0 ? 0.0 : best_coverage;
  CanonicalizeProgramOrder(&ensemble);
  report.ensemble_program = std::move(ensemble);

  if (enumeration_cut_short || fill_cut_short) {
    report.rung = SynthesisRung::kSingleDag;
    report.budget_expired = true;
    report.degradation_reason =
        "budget expired during " +
        std::string(enumeration_cut_short ? "MEC enumeration" : "sketch fill") +
        "; selected over " + std::to_string(dags_filled) + " of " +
        std::to_string(dags.size()) + " candidate DAG(s)";
  }
  // The rung runs only on non-degraded fills (budget gone = no closures).
  MinimizeEnsemble(data.schema(), &report);
  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

Result<SynthesisReport> Synthesizer::FillSingleDag(
    const pgm::Dag& dag, const Table& data,
    const CancellationToken& cancel) const {
  SynthesisReport report;
  report.cpdag = pgm::Pdag::FromDag(dag);
  report.num_dags_enumerated = 1;
  telemetry::Span fill_span("sketch_fill", /*always_time=*/true);
  ProgramSketch sketch = SketchFromDag(dag);
  // Fill the statements concurrently into per-index slots, then assemble the
  // program in sketch order — same bytes as the serial loop.
  struct StmtFill {
    bool attempted = false;
    Status status = Status::OK();
    std::optional<FilledStatement> stmt;
  };
  std::vector<StmtFill> slots(sketch.statements.size());
  ParallelForOptions pf;
  pf.max_parallelism = ResolveThreads(options_.num_threads);
  pf.cancel = &cancel;
  pf.cancel_stride = 1;
  Status pf_status = ParallelFor(
      &ThreadPool::Shared(), static_cast<int64_t>(sketch.statements.size()),
      [&](int64_t i) {
        StmtFill& slot = slots[static_cast<size_t>(i)];
        slot.attempted = true;
        Result<std::optional<FilledStatement>> filled = FillStatementSketch(
            sketch.statements[static_cast<size_t>(i)], data, options_.fill,
            cancel);
        if (filled.ok()) {
          slot.stmt = std::move(*filled);
        } else {
          slot.status = filled.status();
        }
      },
      pf);
  Program program;
  for (StmtFill& slot : slots) {
    if (!slot.attempted) return cancel.CheckTimeout("sketch fill");
    GUARDRAIL_RETURN_NOT_OK(slot.status);
    if (slot.stmt.has_value()) {
      program.statements.push_back(std::move(slot.stmt->statement));
      report.statement_coverages.push_back(slot.stmt->coverage);
    }
    ++report.cache_misses;
  }
  (void)pf_status;  // Skipped statements already reported per-slot above.
  GUARDRAIL_COUNTER_ADD("sketch_filler.cache_misses", report.cache_misses);
  report.fill_seconds = fill_span.ElapsedSeconds();
  report.coverage = ProgramCoverageOf(report.statement_coverages);
  report.program = std::move(program);
  report.chosen_sketch = std::move(sketch);
  // Single member: the raw union is the program itself, in canonical order.
  report.ensemble_program = report.program;
  CanonicalizeProgramOrder(&report.ensemble_program);
  MinimizeEnsemble(data.schema(), &report);
  return report;
}

SynthesisReport Synthesizer::Synthesize(const Table& data, Rng* rng) const {
  return Synthesize(data, rng, CancellationToken::Never());
}

SynthesisReport Synthesizer::Synthesize(const Table& data, Rng* rng,
                                        const CancellationToken& cancel) const {
  // Root span. `always_time` keeps the wall clock live with telemetry off so
  // report.total_seconds and the exported span come from the same
  // measurement.
  telemetry::Span span("synthesize", /*always_time=*/true);
  SynthesisReport report = SynthesizeImpl(data, rng, cancel);
  VerifyProgram(data, &report);
  report.total_seconds = span.ElapsedSeconds();
  span.AddArg("rung", SynthesisRungName(report.rung));
  span.AddArg("budget_expired", report.budget_expired);
  span.AddArg("ci_tests", report.num_ci_tests);
  span.AddArg("dags", report.num_dags_enumerated);
  GUARDRAIL_COUNTER_INC("synthesize.runs_total");
  if (report.budget_expired) {
    GUARDRAIL_COUNTER_INC("synthesize.degraded_total");
    GUARDRAIL_LOG(WARN) << "synthesis degraded"
                        << telemetry::Kv("rung",
                                         SynthesisRungName(report.rung))
                        << telemetry::Kv("reason", report.degradation_reason);
  }
  return report;
}

void Synthesizer::MinimizeEnsemble(const Schema& schema,
                                   SynthesisReport* report) const {
  if (!options_.minimize || report->ensemble_program.empty() ||
      report->budget_expired) {
    return;
  }
  telemetry::Span min_span("minimize_ensemble", /*always_time=*/true);
  Result<analysis::MinimizationResult> minimized = analysis::MinimizeProgram(
      report->ensemble_program, schema, options_.minimize_options);
  if (!minimized.ok()) {
    GUARDRAIL_COUNTER_INC("synthesize.minimize_failures_total");
    GUARDRAIL_LOG(WARN) << "ensemble minimization failed"
                        << telemetry::Kv("status",
                                         minimized.status().ToString());
    return;
  }
  report->minimization = std::move(*minimized);
  report->minimized = true;
  min_span.AddArg("statements_before",
                  report->minimization.statements_before);
  min_span.AddArg("statements_after", report->minimization.statements_after);
  GUARDRAIL_COUNTER_INC("synthesize.minimize_runs_total");
  GUARDRAIL_COUNTER_ADD(
      "synthesize.minimize_statements_dropped",
      static_cast<int64_t>(report->minimization.dropped.size()));
}

void Synthesizer::VerifyProgram(const Table& data,
                                SynthesisReport* report) const {
  // A degraded run already WARN-logged its rung; re-analyzing a program we
  // know was cut short only adds latency where the budget is gone. Tests
  // running with verify_programs still get the full audit.
  if (report->program.empty() ||
      (report->budget_expired && !options_.verify_programs)) {
    return;
  }
  telemetry::Span verify_span("analysis.post_synthesis");
  analysis::AnalysisOptions aopts;
  aopts.epsilon = options_.fill.epsilon;
  aopts.min_branch_support = options_.fill.min_branch_support;
  // Regions too thin to warrant a branch (below the support floor) are not
  // holes synthesis could have covered; aligning the thresholds keeps a
  // clean synthesis at exactly zero diagnostics.
  aopts.coverage_hole_min_support = options_.fill.min_branch_support;
  // The G-squared LNT/GNT audit costs CI tests; release-mode synthesis
  // skips it and keeps the cheap invariants (structure, satisfiability,
  // contradictions, epsilon-validity, coverage).
  aopts.check_lnt_gnt = options_.verify_programs;
  aopts.ci = options_.gnt_ci;
  analysis::Analyzer analyzer(aopts);
  report->analysis = analyzer.Analyze(report->program, data.schema(), data);

  const int64_t errors =
      report->analysis.CountAtSeverity(analysis::Severity::kError);
  const int64_t warnings =
      report->analysis.CountAtSeverity(analysis::Severity::kWarning);
  GUARDRAIL_COUNTER_INC("analysis.post_synthesis_runs_total");
  if (!report->analysis.empty()) {
    GUARDRAIL_COUNTER_ADD("analysis.post_synthesis_findings_total",
                          static_cast<int64_t>(
                              report->analysis.diagnostics.size()));
    GUARDRAIL_LOG(WARN) << "post-synthesis invariant check found issues"
                        << telemetry::Kv("errors", errors)
                        << telemetry::Kv("warnings", warnings)
                        << telemetry::Kv(
                               "first",
                               report->analysis.diagnostics.front().code + ": " +
                                   report->analysis.diagnostics.front().message);
  }
  if (options_.verify_programs && errors > 0) {
    GUARDRAIL_COUNTER_INC("analysis.post_synthesis_failures_total");
    const analysis::Diagnostic* first_error = nullptr;
    for (const analysis::Diagnostic& d : report->analysis.diagnostics) {
      if (d.severity == analysis::Severity::kError) {
        first_error = &d;
        break;
      }
    }
    report->verification = Status::Internal(
        "synthesized program failed static verification with " +
        std::to_string(errors) + " error(s); first: " + first_error->code +
        " " + first_error->message);
  }
}

SynthesisReport Synthesizer::SynthesizeImpl(
    const Table& data, Rng* rng, const CancellationToken& cancel) const {
  StopWatch total_watch;
  SynthesisReport report;

  // The ladder's floor never fails: one cheap pass, no deadline checks.
  auto degrade_to_trivial = [&](const std::string& reason) {
    SynthesisReport trivial;
    trivial.rung = SynthesisRung::kTrivial;
    trivial.budget_expired = true;
    trivial.degradation_reason = reason;
    trivial.domain_constraints = BuildDomainConstraints(data);
    trivial.sampling_seconds = report.sampling_seconds;
    trivial.structure_seconds = report.structure_seconds;
    trivial.num_ci_tests = report.num_ci_tests;
    trivial.total_seconds = total_watch.ElapsedSeconds();
    return trivial;
  };

  if (cancel.Cancelled()) {
    return degrade_to_trivial("budget exhausted before synthesis began");
  }

  pgm::EncodedData encoded;
  {
    telemetry::Span sample_span("aux_sample", /*always_time=*/true);
    if (options_.use_auxiliary_sampler) {
      encoded = pgm::SampleAuxiliaryDistribution(data, options_.aux, rng);
    } else {
      encoded = pgm::EncodeIdentity(data);
    }
    sample_span.AddArg("variables",
                       static_cast<int64_t>(encoded.num_variables()));
    GUARDRAIL_COUNTER_ADD("aux.variables_sampled", encoded.num_variables());
    report.sampling_seconds = sample_span.ElapsedSeconds();
  }
  if (cancel.Cancelled()) {
    return degrade_to_trivial("budget expired during auxiliary sampling");
  }

  pgm::Pdag cpdag;
  std::string structure_note;
  bool structure_expired = false;
  // When PC blows its budget slice the ladder drops to rung kHillClimb; the
  // learned fallback DAG is kept here so its single-DAG fill runs *after*
  // the structure span has closed (fill time is not structure time).
  std::optional<pgm::HillClimbingLearner::LearnResult> pc_fallback;
  {
    telemetry::Span structure_span("structure", /*always_time=*/true);
    if (options_.structure_method == StructureMethod::kHillClimbing) {
      pgm::HillClimbingLearner learner(options_.hill_climbing);
      pgm::HillClimbingLearner::LearnResult learned =
          learner.Learn(encoded, SubBudget(cancel, 0.5));
      cpdag = pgm::Pdag::FromDag(learned.dag);
      if (learned.timed_out) {
        structure_expired = true;
        structure_note = "hill climbing stopped early at iteration " +
                         std::to_string(learned.iterations);
      }
    } else {
      pgm::PcAlgorithm pc(options_.pc);
      // PC gets half the remaining budget so the fallback rungs keep the
      // rest.
      Result<pgm::PcResult> pc_result =
          pc.Run(encoded, SubBudget(cancel, 0.5));
      if (pc_result.ok()) {
        cpdag = std::move(pc_result->cpdag);
        report.num_ci_tests = pc_result->num_ci_tests;
      } else {
        // Rung kHillClimb: a half-finished PC skeleton is unusable, but the
        // anytime hill climber always has *some* DAG to offer.
        pgm::HillClimbingLearner learner(options_.hill_climbing);
        pc_fallback = learner.Learn(encoded, SubBudget(cancel, 0.5));
      }
    }
    structure_span.AddArg("fell_back", pc_fallback.has_value());
    report.structure_seconds = structure_span.ElapsedSeconds();
  }
  if (pc_fallback.has_value()) {
    Result<SynthesisReport> filled =
        FillSingleDag(pc_fallback->dag, data, cancel);
    if (!filled.ok()) {
      return degrade_to_trivial(
          "pc and the hill-climbing fallback both exceeded the budget (" +
          filled.status().message() + ")");
    }
    SynthesisReport out = std::move(*filled);
    out.rung = SynthesisRung::kHillClimb;
    out.budget_expired = true;
    out.degradation_reason =
        "pc structure learning exceeded its budget slice; fell back to "
        "anytime hill climbing (" +
        std::to_string(pc_fallback->iterations) + " iteration(s))";
    out.sampling_seconds = report.sampling_seconds;
    out.structure_seconds = report.structure_seconds;
    out.num_ci_tests = report.num_ci_tests;
    out.total_seconds = total_watch.ElapsedSeconds();
    return out;
  }

  Result<SynthesisReport> inner = SynthesizeFromMec(cpdag, data, cancel);
  if (!inner.ok()) {
    return degrade_to_trivial("budget expired during sketch filling (" +
                              inner.status().message() + ")");
  }
  double sampling_seconds = report.sampling_seconds;
  double structure_seconds = report.structure_seconds;
  int64_t num_ci_tests = report.num_ci_tests;
  report = std::move(*inner);
  report.sampling_seconds = sampling_seconds;
  report.structure_seconds = structure_seconds;
  report.num_ci_tests = num_ci_tests;
  if (structure_expired) {
    report.budget_expired = true;
    if (!report.degradation_reason.empty()) report.degradation_reason += "; ";
    report.degradation_reason += structure_note;
  }

  if (options_.enforce_gnt && !report.chosen_sketch.empty()) {
    if (cancel.Cancelled()) {
      // The GNT post-filter only ever *drops* statements; skipping it keeps
      // a valid (slightly more permissive) program.
      report.budget_expired = true;
      if (!report.degradation_reason.empty()) report.degradation_reason += "; ";
      report.degradation_reason += "gnt post-filter skipped (budget expired)";
    } else {
      NonTrivialityChecker checker(&data, options_.gnt_ci);
      ProgramSketch kept_sketch;
      Program kept_program;
      std::vector<double> kept_coverages;
      for (size_t i = 0; i < report.chosen_sketch.statements.size(); ++i) {
        const StatementSketch& sketch = report.chosen_sketch.statements[i];
        if (checker.IsGloballyNonTrivial(report.chosen_sketch, sketch)) {
          kept_sketch.statements.push_back(sketch);
          // The filled program may have dropped some sketch statements
          // (bottom); match by header.
          for (size_t j = 0; j < report.program.statements.size(); ++j) {
            const Statement& stmt = report.program.statements[j];
            if (stmt.determinants == sketch.determinants &&
                stmt.dependent == sketch.dependent) {
              kept_program.statements.push_back(stmt);
              kept_coverages.push_back(report.statement_coverages[j]);
              break;
            }
          }
        } else {
          ++report.gnt_statements_dropped;
        }
      }
      report.chosen_sketch = std::move(kept_sketch);
      report.program = std::move(kept_program);
      report.statement_coverages = std::move(kept_coverages);
      report.coverage = ProgramCoverageOf(report.statement_coverages);
    }
  }

  report.total_seconds = total_watch.ElapsedSeconds();
  return report;
}

}  // namespace core
}  // namespace guardrail
