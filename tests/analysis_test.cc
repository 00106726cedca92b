// Static-analyzer suite (src/analysis). The verifier earns its keep four
// ways, each locked down here:
//   1. silence on clean synthesized programs (a lint gate that cries wolf
//      gets disabled);
//   2. a mutation self-test — seeded corruptions across all five pass
//      categories must be caught at >= 95%;
//   3. byte-stable JSON output (downstream tooling greps it);
//   4. normalize -> print -> parse is a fixpoint for every corpus program.
// The grouped audit scan is checked against the per-branch scans it
// replaces, on every dataset and on the mutation corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checker.h"
#include "analysis/passes/passes.h"
#include "core/guard.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "core/synthesizer.h"
#include "sql/executor.h"
#include "sql/planner.h"
#include "table/dataset_repository.h"
#include "table/error_injector.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace analysis {
namespace {

// zip -> city -> state chain plus an independent note column. Zero noise, so
// every synthesized branch is epsilon-valid with margin and every seeded
// corruption below is detectable in principle.
Table MakeChainData(int64_t rows = 1200) {
  std::vector<SemNode> nodes(4);
  nodes[0] = {"zip", 6, {}, 0.0};
  nodes[1] = {"city", 5, {0}, 0.0};
  nodes[2] = {"state", 4, {1}, 0.0};
  nodes[3] = {"note", 3, {}, 0.0};
  SemModel sem(std::move(nodes), 77);
  Rng rng(5);
  return sem.Sample(rows, &rng);
}

// Mirror the synthesis configuration (FillOptions defaults), including the
// synthesizer post-check's rule that regions too thin to warrant a branch
// (support < min_branch_support) are not reportable coverage holes.
AnalysisOptions MatchingOptions() {
  AnalysisOptions options;
  options.epsilon = 0.02;
  options.min_branch_support = 5;
  options.coverage_hole_min_support = 5;
  return options;
}

struct CleanSetup {
  Table data;
  Schema schema;
  core::SynthesisReport report;
  core::Program program;  // Normalized copy of report.program.
};

const CleanSetup& ChainSetup() {
  static const CleanSetup* setup = [] {
    auto* s = new CleanSetup{MakeChainData(), Schema(), {}, {}};
    s->schema = s->data.schema();
    core::SynthesisOptions options;
    options.verify_programs = true;
    core::Synthesizer synth(options);
    Rng rng(11);
    s->report = synth.Synthesize(s->data, &rng);
    s->program = s->report.program;
    core::NormalizeProgram(&s->program);
    return s;
  }();
  return *setup;
}

// ------------------------------------------------- clean-program silence --

TEST(AnalysisCleanTest, SynthesizerVerificationPassesOnCleanData) {
  const CleanSetup& s = ChainSetup();
  ASSERT_FALSE(s.program.empty());
  EXPECT_TRUE(s.report.verification.ok())
      << s.report.verification.ToString();
  EXPECT_TRUE(s.report.analysis.diagnostics.empty())
      << s.report.analysis.ToText();
}

TEST(AnalysisCleanTest, FullAnalysisOfCleanProgramIsSilent) {
  const CleanSetup& s = ChainSetup();
  Analyzer analyzer(MatchingOptions());
  DiagnosticReport report = analyzer.Analyze(s.program, s.schema, s.data);
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  EXPECT_EQ(report.passes_run.size(), 6u);
}

TEST(AnalysisCleanTest, SchemaOnlyAnalysisOfCleanProgramIsSilent) {
  const CleanSetup& s = ChainSetup();
  Analyzer analyzer(MatchingOptions());
  DiagnosticReport report = analyzer.Analyze(s.program, s.schema);
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
  EXPECT_EQ(report.passes_run.size(), 4u);
}

// ----------------------------------------------------- mutation self-test --

enum class MutationCategory {
  kTypeDomain,
  kSatisfiability,
  kContradiction,
  kNonTriviality,
  kCoverage,
  kImplication,
};

const char* CategoryName(MutationCategory c) {
  switch (c) {
    case MutationCategory::kTypeDomain:
      return "type/domain";
    case MutationCategory::kSatisfiability:
      return "satisfiability";
    case MutationCategory::kContradiction:
      return "contradiction";
    case MutationCategory::kNonTriviality:
      return "non-triviality";
    case MutationCategory::kCoverage:
      return "coverage";
    case MutationCategory::kImplication:
      return "implication";
  }
  return "?";
}

struct Mutant {
  MutationCategory category;
  std::string name;
  core::Program program;
};

ValueId OtherValue(const Schema& schema, AttrIndex attr, ValueId v) {
  return (v + 1) % schema.attribute(attr).domain_size();
}

// Seeds one corruption per (site, class) over the clean program. Every
// mutant is designed to violate an invariant some pass checks; the catch
// rate below is the analyzer's mutation score.
std::vector<Mutant> SeedMutants(const core::Program& clean,
                                const Schema& schema) {
  std::vector<Mutant> mutants;
  auto add = [&](MutationCategory category, const std::string& name,
                 core::Program program) {
    mutants.push_back({category, name, std::move(program)});
  };
  const AttrIndex out_of_range = schema.num_attributes() + 2;

  for (size_t si = 0; si < clean.statements.size(); ++si) {
    const core::Statement& stmt = clean.statements[si];
    const std::string at = "stmt" + std::to_string(si);

    // -- type/domain (GRL1xx) --
    {
      core::Program p = clean;
      p.statements[si].dependent = out_of_range;
      add(MutationCategory::kTypeDomain, at + ":dependent-out-of-range",
          std::move(p));
    }
    {
      core::Program p = clean;
      p.statements[si].determinants[0] = out_of_range;
      add(MutationCategory::kTypeDomain, at + ":determinant-out-of-range",
          std::move(p));
    }

    // -- contradiction (GRL301): a clone of the statement forcing different
    // values over the same warranted regions --
    {
      core::Program p = clean;
      core::Statement clone = stmt;
      for (core::Branch& branch : clone.branches) {
        branch.assignment = OtherValue(schema, branch.target,
                                       branch.assignment);
      }
      p.statements.push_back(std::move(clone));
      add(MutationCategory::kContradiction, at + ":conflicting-clone",
          std::move(p));
    }

    for (size_t bi = 0; bi < stmt.branches.size(); ++bi) {
      const core::Branch& branch = stmt.branches[bi];
      const std::string site = at + ":br" + std::to_string(bi);

      // -- type/domain (GRL1xx) --
      {
        core::Program p = clean;
        core::Branch& b = p.statements[si].branches[bi];
        b.assignment = schema.attribute(b.target).domain_size() + 7;
        add(MutationCategory::kTypeDomain, site + ":assignment-out-of-domain",
            std::move(p));
      }
      {
        core::Program p = clean;
        p.statements[si].branches[bi].assignment = kNullValue;
        add(MutationCategory::kTypeDomain, site + ":assignment-null",
            std::move(p));
      }
      if (!branch.condition.equalities.empty()) {
        core::Program p = clean;
        core::Branch& b = p.statements[si].branches[bi];
        AttrIndex attr = b.condition.equalities[0].first;
        b.condition.equalities[0].second =
            schema.attribute(attr).domain_size() + 9;
        add(MutationCategory::kTypeDomain, site + ":condition-out-of-domain",
            std::move(p));
      }

      // -- satisfiability (GRL2xx) --
      if (!branch.condition.equalities.empty()) {
        const auto& [attr, value] = branch.condition.equalities[0];
        if (schema.attribute(attr).domain_size() > 1) {
          core::Program p = clean;
          core::Branch& b = p.statements[si].branches[bi];
          b.condition.equalities.emplace_back(attr,
                                              OtherValue(schema, attr, value));
          std::sort(b.condition.equalities.begin(),
                    b.condition.equalities.end());
          add(MutationCategory::kSatisfiability, site + ":self-conflict",
              std::move(p));
        }
      }
      {
        // A duplicate of this branch appended at the end is dead under
        // first-match-wins (GRL203), and its flipped assignment makes the
        // corpse visibly wrong too.
        core::Program p = clean;
        core::Branch dup = branch;
        dup.assignment = OtherValue(schema, dup.target, dup.assignment);
        p.statements[si].branches.push_back(std::move(dup));
        add(MutationCategory::kSatisfiability, site + ":duplicate-condition",
            std::move(p));
      }

      // -- non-triviality (GRL4xx) --
      {
        core::Program p = clean;
        core::Branch& b = p.statements[si].branches[bi];
        b.assignment = OtherValue(schema, b.target, b.assignment);
        add(MutationCategory::kNonTriviality, site + ":assignment-swap",
            std::move(p));
      }
      if (!branch.condition.equalities.empty()) {
        core::Program p = clean;
        core::Branch& b = p.statements[si].branches[bi];
        b.condition.equalities.pop_back();
        add(MutationCategory::kNonTriviality, site + ":widened-condition",
            std::move(p));
      }

      // -- coverage (GRL5xx) --
      if (stmt.branches.size() > 1) {
        core::Program p = clean;
        auto& branches = p.statements[si].branches;
        branches.erase(branches.begin() + static_cast<long>(bi));
        add(MutationCategory::kCoverage, site + ":dropped-branch",
            std::move(p));
      }
    }
  }
  return mutants;
}

TEST(AnalysisMutationTest, CatchesAtLeast95PercentOfSeededCorruptions) {
  const CleanSetup& s = ChainSetup();
  ASSERT_FALSE(s.program.empty());
  std::vector<Mutant> mutants = SeedMutants(s.program, s.schema);
  ASSERT_GE(mutants.size(), 25u);

  Analyzer analyzer(MatchingOptions());
  std::map<MutationCategory, std::pair<int, int>> by_category;  // caught/total
  int caught = 0;
  for (const Mutant& mutant : mutants) {
    DiagnosticReport report =
        analyzer.Analyze(mutant.program, s.schema, s.data);
    const bool detected = report.CountAtSeverity(Severity::kError) +
                              report.CountAtSeverity(Severity::kWarning) >
                          0;
    auto& [cat_caught, cat_total] = by_category[mutant.category];
    ++cat_total;
    if (detected) {
      ++caught;
      ++cat_caught;
    } else {
      ADD_FAILURE() << "undetected mutant " << mutant.name << " ("
                    << CategoryName(mutant.category) << ")";
    }
  }

  ASSERT_EQ(by_category.size(), 5u) << "mutants must span all five passes";
  for (const auto& [category, counts] : by_category) {
    EXPECT_GE(counts.first, 1)
        << "no catches in category " << CategoryName(category);
  }
  EXPECT_GE(static_cast<double>(caught),
            0.95 * static_cast<double>(mutants.size()))
      << caught << "/" << mutants.size() << " mutants caught";
}

// Redundancy/implication corruptions for the whole-program semantic pass
// (GRL6xx/GRL7xx). Each mutant injects a statement the implication lattice
// must flag: exact duplicates, semantically-equal rewrites, provably weaker
// clones, branches whose whole region the program condemns, and transitive
// contradictions invisible to the pairwise GRL301 scan.
std::vector<Mutant> SeedImplicationMutants(const core::Program& clean,
                                           const Schema& schema) {
  std::vector<Mutant> mutants;
  auto add = [&](const std::string& name, core::Program program) {
    mutants.push_back(
        {MutationCategory::kImplication, name, std::move(program)});
  };

  for (size_t si = 0; si < clean.statements.size(); ++si) {
    const core::Statement& stmt = clean.statements[si];
    const std::string at = "stmt" + std::to_string(si);

    {
      // Exact duplicate: GRL602.
      core::Program p = clean;
      p.statements.push_back(stmt);
      add(at + ":exact-duplicate", std::move(p));
    }
    {
      // Duplicate with skewed advisory metadata: still GRL602 (support does
      // not participate in statement identity).
      core::Program p = clean;
      core::Statement clone = stmt;
      for (core::Branch& b : clone.branches) b.support += 17;
      p.statements.push_back(std::move(clone));
      add(at + ":metadata-skewed-duplicate", std::move(p));
    }
    if (stmt.branches.size() > 1) {
      // Reversed branch order: not structurally equal (first-match order
      // differs), but the branches are mutually exclusive so the closure
      // proves verdict-equality — GRL601.
      core::Program p = clean;
      core::Statement clone = stmt;
      std::reverse(clone.branches.begin(), clone.branches.end());
      p.statements.push_back(std::move(clone));
      add(at + ":reversed-branch-duplicate", std::move(p));
    }
    if (stmt.branches.size() > 1) {
      // Clone keeping only half the branches: each surviving branch is
      // implied by the original statement — GRL601.
      core::Program p = clean;
      core::Statement clone = stmt;
      clone.branches.resize(clone.branches.size() / 2);
      p.statements.push_back(std::move(clone));
      add(at + ":partial-clone", std::move(p));
    }
    {
      // Determinant-superset clone agreeing with the original on every
      // narrowed region: strictly weaker — GRL601.
      const AttrIndex note = schema.FindAttribute("note");
      core::Program p = clean;
      core::Statement clone = stmt;
      clone.determinants.push_back(note);
      std::sort(clone.determinants.begin(), clone.determinants.end());
      for (core::Branch& b : clone.branches) {
        b.condition.equalities.emplace_back(note, 0);
        std::sort(b.condition.equalities.begin(), b.condition.equalities.end());
      }
      p.statements.push_back(std::move(clone));
      add(at + ":determinant-superset-clone", std::move(p));
    }
    {
      // A statement conditioning on a region the original already condemns
      // (determinant value paired with the *wrong* dependent value): every
      // matching row is flagged before this branch matters — GRL701.
      const AttrIndex note = schema.FindAttribute("note");
      const core::Branch& witness = stmt.branches[0];
      core::Statement dead;
      dead.determinants = stmt.determinants;
      dead.determinants.push_back(stmt.dependent);
      std::sort(dead.determinants.begin(), dead.determinants.end());
      dead.dependent = note;
      core::Branch b;
      b.condition.equalities = witness.condition.equalities;
      b.condition.equalities.emplace_back(
          stmt.dependent,
          OtherValue(schema, stmt.dependent, witness.assignment));
      std::sort(b.condition.equalities.begin(), b.condition.equalities.end());
      b.target = note;
      b.assignment = 0;
      b.support = 10;
      dead.branches.push_back(std::move(b));
      core::Program p = clean;
      p.statements.push_back(std::move(dead));
      add(at + ":unreachable-region", std::move(p));
    }
  }

  // Transitive contradictions (GRL702). The zip -> city -> state chain
  // composes zip=z into a forced state value s(z); a fallback branch writing
  // `note` under zip=z is contradicted by a state-conditioned note-writer —
  // but only at closure depth 2, and the pairwise GRL301 scan is blinded by
  // a first-match-preempting agreeing branch.
  const AttrIndex zip = schema.FindAttribute("zip");
  const AttrIndex city = schema.FindAttribute("city");
  const AttrIndex state = schema.FindAttribute("state");
  const AttrIndex note = schema.FindAttribute("note");
  const core::Statement* zip_to_city = nullptr;
  const core::Statement* city_to_state = nullptr;
  for (const core::Statement& stmt : clean.statements) {
    if (stmt.dependent == city && stmt.determinants == std::vector{zip}) {
      zip_to_city = &stmt;
    }
    if (stmt.dependent == state && stmt.determinants == std::vector{city}) {
      city_to_state = &stmt;
    }
  }
  if (zip_to_city != nullptr && city_to_state != nullptr) {
    auto composed_state = [&](ValueId z) -> ValueId {
      for (const core::Branch& b1 : zip_to_city->branches) {
        if (b1.condition.equalities[0] != std::pair{zip, z}) continue;
        for (const core::Branch& b2 : city_to_state->branches) {
          if (b2.condition.equalities[0] ==
              std::pair{city, b1.assignment}) {
            return b2.assignment;
          }
        }
      }
      return kNullValue;
    };
    int built = 0;
    for (const core::Branch& zb : zip_to_city->branches) {
      if (built >= 3) break;
      const ValueId z = zb.condition.equalities[0].second;
      const ValueId s = composed_state(z);
      if (s == kNullValue) continue;
      core::Statement writer;  // state=s -> note=1
      writer.determinants = {state};
      writer.dependent = note;
      writer.branches.push_back(
          {core::Condition{{{state, s}}}, note, 1, 10, {}});
      core::Statement victim;  // agreeing guard branch, then zip=z -> note=0
      victim.determinants = {zip, state};
      victim.dependent = note;
      victim.branches.push_back(
          {core::Condition{{{zip, z}, {state, s}}}, note, 1, 10, {}});
      victim.branches.push_back({core::Condition{{{zip, z}}}, note, 0, 10, {}});
      core::Program p;
      // The writer goes first so the closure reaches it only after the
      // chain binds state — a genuine depth-2 fire.
      p.statements.push_back(std::move(writer));
      p.statements.insert(p.statements.end(), clean.statements.begin(),
                          clean.statements.end());
      p.statements.push_back(std::move(victim));
      add("zip" + std::to_string(z) + ":transitive-contradiction",
          std::move(p));
      ++built;
    }
  }
  return mutants;
}

TEST(AnalysisMutationTest, ImplicationMutantsCaughtAtFullRate) {
  const CleanSetup& s = ChainSetup();
  ASSERT_FALSE(s.program.empty());
  std::vector<Mutant> mutants = SeedImplicationMutants(s.program, s.schema);
  ASSERT_GE(mutants.size(), 15u);

  // Schema-only analysis: the semantic pass needs no data, and the
  // data-dependent passes must not be what catches these.
  Analyzer analyzer(MatchingOptions());
  for (const Mutant& mutant : mutants) {
    DiagnosticReport report = analyzer.Analyze(mutant.program, s.schema);
    bool detected = false;
    for (const auto& d : report.diagnostics) {
      if (d.code.rfind("GRL6", 0) == 0 || d.code.rfind("GRL7", 0) == 0) {
        detected = true;
        break;
      }
    }
    if (!detected) {
      ADD_FAILURE() << "implication mutant " << mutant.name
                    << " drew no GRL6xx/GRL7xx diagnostic:\n"
                    << report.ToText();
    }
  }
}

TEST(AnalysisMutationTest, SchemaOnlyAnalysisCatchesStructuralMutants) {
  const CleanSetup& s = ChainSetup();
  core::Program p = s.program;
  p.statements[0].dependent = s.schema.num_attributes() + 4;
  Analyzer analyzer(MatchingOptions());
  DiagnosticReport report = analyzer.Analyze(p, s.schema);
  EXPECT_TRUE(report.HasErrors()) << report.ToText();
}

// ------------------------------------------- grouped audit vs. oracle --
//
// The data passes (GRL204, GRL404/405, GRL501/502) read each statement's
// numbers from one grouped scan. The per-branch core::ComputeBranchStats
// scans they fall back to for other statements are the oracle: both must
// give the same diagnostics, code, message and order.

// Passes 2, 4 and 5 over `data`, with the grouped scan or per branch.
DiagnosticReport DataPassReport(const core::Program& program,
                                const Table& data,
                                const AnalysisOptions& options,
                                bool grouped_scan,
                                size_t* grouped_statements = nullptr) {
  PassContext ctx;
  ctx.program = &program;
  ctx.schema = &data.schema();
  ctx.data = &data;
  ctx.options = &options;
  std::vector<GroupedStatementStats> grouped;
  if (grouped_scan) {
    grouped = ComputeGroupedStats(program, data);
    ctx.grouped = &grouped;
  }
  if (grouped_statements != nullptr) {
    *grouped_statements = static_cast<size_t>(
        std::count_if(grouped.begin(), grouped.end(),
                      [](const GroupedStatementStats& g) { return g.grouped; }));
  }
  DiagnosticReport report;
  RunSatisfiabilityPass(ctx, &report);
  RunNonTrivialityPass(ctx, &report);
  RunCoveragePass(ctx, &report);
  report.Sort();
  return report;
}

// Compares both scans and adds the codes they reported to `codes`.
void ExpectGroupedMatchesOracle(const core::Program& program,
                                const Table& data,
                                const AnalysisOptions& options,
                                const std::string& what,
                                std::set<std::string>* codes) {
  const DiagnosticReport grouped =
      DataPassReport(program, data, options, /*grouped_scan=*/true);
  const DiagnosticReport oracle =
      DataPassReport(program, data, options, /*grouped_scan=*/false);
  EXPECT_EQ(grouped.diagnostics, oracle.diagnostics)
      << what << "\ngrouped:\n"
      << grouped.ToText() << "per branch:\n"
      << oracle.ToText();
  for (const Diagnostic& d : grouped.diagnostics) codes->insert(d.code);
}

// The first earlier branch whose condition is a subset of branch bi's, by
// the pairwise definition; bi when none.
size_t PairwiseShadowWitness(const core::Statement& stmt, size_t bi) {
  const auto& later = stmt.branches[bi].condition.equalities;
  for (size_t ei = 0; ei < bi; ++ei) {
    bool subset = true;
    for (const auto& eq : stmt.branches[ei].condition.equalities) {
      subset = subset && std::count(later.begin(), later.end(), eq) > 0;
    }
    if (subset) return ei;
  }
  return bi;
}

// GRL202/203 sit exactly on the branches with a pairwise witness, naming
// it; for uniform conditions the pass finds the witness by hash.
void ExpectShadowingMatchesPairwise(const core::Program& program,
                                    const Schema& schema,
                                    const std::string& what) {
  PassContext ctx;
  ctx.program = &program;
  ctx.schema = &schema;
  AnalysisOptions options;
  ctx.options = &options;
  DiagnosticReport report;
  RunSatisfiabilityPass(ctx, &report);
  std::map<std::pair<int32_t, int32_t>, std::string> shadowed;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == "GRL202" || d.code == "GRL203") {
      shadowed[{d.statement_index, d.branch_index}] = d.message;
    }
  }
  size_t expected = 0;
  for (size_t si = 0; si < program.statements.size(); ++si) {
    const core::Statement& stmt = program.statements[si];
    for (size_t bi = 0; bi < stmt.branches.size(); ++bi) {
      const auto& eqs = stmt.branches[bi].condition.equalities;
      bool self_conflict = false;
      for (size_t i = 1; i < eqs.size(); ++i) {
        self_conflict = self_conflict || eqs[i].first == eqs[i - 1].first;
      }
      const size_t ei = PairwiseShadowWitness(stmt, bi);
      if (self_conflict || ei == bi) continue;
      ++expected;
      auto it = shadowed.find(
          {static_cast<int32_t>(si), static_cast<int32_t>(bi)});
      ASSERT_NE(it, shadowed.end())
          << what << ": stmt " << si << " branch " << bi << " unreported";
      const std::string witness = ": branch " + std::to_string(ei);
      EXPECT_TRUE(it->second.find(witness + " has") != std::string::npos ||
                  it->second.find(witness + "'s") != std::string::npos)
          << what << ": " << it->second;
    }
  }
  EXPECT_EQ(shadowed.size(), expected) << what << "\n" << report.ToText();
}

TEST(GroupedAuditTest, MatchesPerBranchScansOnAllDatasets) {
  AnalysisOptions options;
  options.epsilon = 0.02;
  options.coverage_hole_min_support = 1;
  options.check_lnt_gnt = false;  // The G² audit reads no grouped numbers.
  std::set<std::string> codes;
  for (int id = 1; id <= 12; ++id) {
    SCOPED_TRACE(::testing::Message() << "dataset " << id);
    const Table clean = DatasetRepository::Build(id, 1500).clean;
    core::Synthesizer synth(core::SynthesisOptions{});
    Rng rng(static_cast<uint64_t>(id));
    const core::SynthesisReport report = synth.Synthesize(clean, &rng);
    ASSERT_FALSE(report.program.empty());
    ErrorInjectionOptions errors;
    errors.mode = CorruptionMode::kDomainSwap;
    errors.error_rate = 0.05;
    Rng error_rng(static_cast<uint64_t>(100 + id));
    const Table dirty = InjectErrors(clean, errors, &error_rng).dirty;

    for (const core::Program* program :
         {&report.program, &report.minimization.program}) {
      // Every synthesized statement takes the grouped scan.
      size_t grouped = 0;
      DataPassReport(*program, dirty, options, true, &grouped);
      EXPECT_EQ(grouped, program->statements.size());
      ExpectGroupedMatchesOracle(*program, clean, options, "clean", &codes);
      ExpectGroupedMatchesOracle(*program, dirty, options, "dirty", &codes);
      ExpectShadowingMatchesPairwise(*program, clean.schema(), "synthesized");
    }
  }
  // The comparison is not vacuous: the dirty data trips the audits.
  for (const char* code : {"GRL404", "GRL405", "GRL501", "GRL502"}) {
    EXPECT_EQ(codes.count(code), 1u) << code;
  }
}

TEST(GroupedAuditTest, MatchesPerBranchScansOnMutationCorpus) {
  const CleanSetup& s = ChainSetup();
  std::vector<Mutant> mutants = SeedMutants(s.program, s.schema);
  std::vector<Mutant> implication = SeedImplicationMutants(s.program, s.schema);
  mutants.insert(mutants.end(), implication.begin(), implication.end());
  ASSERT_GE(mutants.size(), 40u);
  std::set<std::string> codes;
  for (const Mutant& mutant : mutants) {
    ExpectGroupedMatchesOracle(mutant.program, s.data, MatchingOptions(),
                               mutant.name, &codes);
    ExpectShadowingMatchesPairwise(mutant.program, s.schema, mutant.name);
  }
  for (const char* code : {"GRL202", "GRL203", "GRL204", "GRL404", "GRL501"}) {
    EXPECT_EQ(codes.count(code), 1u) << code;
  }
}

TEST(GroupedAuditTest, PartialArityStatementKeepsPerBranchScans) {
  const CleanSetup& s = ChainSetup();
  const AttrIndex zip = s.schema.FindAttribute("zip");
  const AttrIndex city = s.schema.FindAttribute("city");
  const AttrIndex note = s.schema.FindAttribute("note");
  // GIVEN zip, note ON city with one full-arity branch, a partial one that
  // binds zip alone, and a later branch the partial one shadows.
  core::Statement partial;
  partial.determinants = {zip, note};
  partial.dependent = city;
  partial.branches.push_back(
      {core::Condition{{{zip, 0}, {note, 0}}}, city, 1, 10, {}});
  partial.branches.push_back({core::Condition{{{zip, 1}}}, city, 2, 10, {}});
  partial.branches.push_back(
      {core::Condition{{{zip, 1}, {note, 2}}}, city, 0, 10, {}});
  core::Program program = s.program;
  program.statements.insert(program.statements.begin(), partial);

  size_t grouped = 0;
  const DiagnosticReport report =
      DataPassReport(program, s.data, MatchingOptions(), true, &grouped);
  EXPECT_EQ(grouped, program.statements.size() - 1);
  std::set<std::string> codes;
  ExpectGroupedMatchesOracle(program, s.data, MatchingOptions(), "partial",
                             &codes);
  ExpectShadowingMatchesPairwise(program, s.schema, "partial");
  bool shadow_reported = false;
  for (const Diagnostic& d : report.diagnostics) {
    shadow_reported = shadow_reported ||
                      (d.code == "GRL202" && d.statement_index == 0 &&
                       d.branch_index == 2);
  }
  EXPECT_TRUE(shadow_reported) << report.ToText();
}

// ------------------------------------------------------------ golden JSON --

TEST(DiagnosticsTest, EmptyReportJsonIsStable) {
  DiagnosticReport report;
  EXPECT_EQ(report.ToJson(),
            "{\"diagnostics\": [], "
            "\"counts\": {\"error\": 0, \"warning\": 0, \"info\": 0}}");
}

TEST(DiagnosticsTest, SelfConflictReportJsonIsStable) {
  Schema schema({Attribute("a"), Attribute("b")});
  ValueId x = schema.attribute(0).GetOrInsert("x");
  ValueId y = schema.attribute(0).GetOrInsert("y");
  ValueId u = schema.attribute(1).GetOrInsert("u");

  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, x}, {0, y}};
  branch.target = 1;
  branch.assignment = u;
  stmt.branches.push_back(branch);
  program.statements.push_back(stmt);

  Analyzer analyzer;
  DiagnosticReport report = analyzer.Analyze(program, schema);
  EXPECT_EQ(
      report.ToJson(),
      "{\"diagnostics\": ["
      "{\"code\": \"GRL104\", \"severity\": \"error\", \"statement\": 0, "
      "\"branch\": 0, \"attribute\": \"a\", \"message\": \"attribute 'a' "
      "repeated within one conjunction\"}, "
      "{\"code\": \"GRL201\", \"severity\": \"error\", \"statement\": 0, "
      "\"branch\": 0, \"attribute\": \"b\", \"message\": \"condition "
      "constrains one attribute to two different values; no row can satisfy "
      "it\"}], "
      "\"counts\": {\"error\": 2, \"warning\": 0, \"info\": 0}}");
}

TEST(DiagnosticsTest, ReportSortsByLocationThenCode) {
  DiagnosticReport report;
  report.Add({"GRL301", Severity::kError, 1, 0, "b", "late"});
  report.Add({"GRL102", Severity::kError, 0, 2, "a", "early"});
  report.Add({"GRL101", Severity::kError, 0, 2, "a", "earlier"});
  report.Sort();
  EXPECT_EQ(report.diagnostics[0].code, "GRL101");
  EXPECT_EQ(report.diagnostics[1].code, "GRL102");
  EXPECT_EQ(report.diagnostics[2].code, "GRL301");
}

TEST(DiagnosticsTest, TextReportEndsWithSeverityTally) {
  DiagnosticReport report;
  report.Add({"GRL501", Severity::kWarning, 0, -1, "b", "hole"});
  std::string text = report.ToText();
  EXPECT_NE(text.find("warning GRL501 [stmt 0] (b): hole\n"),
            std::string::npos);
  EXPECT_NE(text.find("0 error(s), 1 warning(s), 0 info\n"),
            std::string::npos);
}

// --------------------------------------------- round-trip fixpoint property --

void ExpectRoundTripFixpoint(const core::Program& program,
                             const Schema& schema) {
  core::Program canon = program;
  core::NormalizeProgram(&canon);
  std::string text = core::ToDsl(canon, schema);
  Schema parse_schema = schema;
  auto parsed = core::ParseProgram(text, &parse_schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(*parsed, canon) << text;
  // The parse output is already canonical: normalize is idempotent on it.
  core::Program again = *parsed;
  core::NormalizeProgram(&again);
  EXPECT_EQ(again, *parsed) << text;
}

TEST(RoundTripTest, SynthesizedProgramIsAFixpoint) {
  const CleanSetup& s = ChainSetup();
  ASSERT_FALSE(s.program.empty());
  ExpectRoundTripFixpoint(s.program, s.schema);
}

TEST(RoundTripTest, UnsortedHeadersAndConditionsAreAFixpoint) {
  Schema schema({Attribute("a"), Attribute("b"), Attribute("c")});
  ValueId a1 = schema.attribute(0).GetOrInsert("a1");
  ValueId b1 = schema.attribute(1).GetOrInsert("b1");
  ValueId c1 = schema.attribute(2).GetOrInsert("c1");

  core::Program program;
  core::Statement stmt;
  stmt.determinants = {2, 0};  // Deliberately unsorted.
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{2, c1}, {0, a1}};  // Unsorted too.
  branch.target = 1;
  branch.assignment = b1;
  stmt.branches.push_back(branch);
  program.statements.push_back(stmt);

  ExpectRoundTripFixpoint(program, schema);
}

TEST(RoundTripTest, EmptyConditionPrintsAsIfTrueAndReparses) {
  Schema schema({Attribute("a"), Attribute("b")});
  ValueId b1 = schema.attribute(1).GetOrInsert("b1");

  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;  // Empty condition: always matches.
  branch.target = 1;
  branch.assignment = b1;
  stmt.branches.push_back(branch);
  program.statements.push_back(stmt);

  std::string text = core::ToDsl(program, schema);
  EXPECT_NE(text.find("IF TRUE THEN"), std::string::npos) << text;
  ExpectRoundTripFixpoint(program, schema);
}

TEST(RoundTripTest, AttributeNamedTrueStillParsesInEqualities) {
  // The empty-condition spelling must not shadow a real attribute named
  // TRUE: lookahead only fires when TRUE is immediately followed by THEN.
  Schema schema({Attribute("TRUE"), Attribute("b")});
  ValueId t1 = schema.attribute(0).GetOrInsert("t1");
  ValueId b1 = schema.attribute(1).GetOrInsert("b1");

  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  core::Branch branch;
  branch.condition.equalities = {{0, t1}};
  branch.target = 1;
  branch.assignment = b1;
  stmt.branches.push_back(branch);
  program.statements.push_back(stmt);

  ExpectRoundTripFixpoint(program, schema);
}

// ----------------------------------------------------- planner guard gate --

TEST(PlannerGuardTest, CleanProgramPassesValidation) {
  const CleanSetup& s = ChainSetup();
  EXPECT_TRUE(sql::ValidateGuardProgram(s.program, s.schema).ok());
}

TEST(PlannerGuardTest, BrokenProgramIsRejectedWithDiagnosticCode) {
  const CleanSetup& s = ChainSetup();
  core::Program broken = s.program;
  core::Branch& b = broken.statements[0].branches[0];
  b.assignment = s.schema.attribute(b.target).domain_size() + 3;
  Status status = sql::ValidateGuardProgram(broken, s.schema);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("GRL"), std::string::npos)
      << status.ToString();
}

TEST(PlannerGuardTest, ExecutorAttachGuardEnforcesValidation) {
  const CleanSetup& s = ChainSetup();
  core::Program broken = s.program;
  broken.statements[0].dependent = s.schema.num_attributes() + 1;

  sql::Executor executor;
  executor.RegisterTable("t", &s.data);

  core::Guard bad_guard(&broken);
  EXPECT_FALSE(executor
                   .AttachGuard(&bad_guard, core::ErrorPolicy::kRaise,
                                s.schema)
                   .ok());

  core::Guard good_guard(&s.program);
  EXPECT_TRUE(executor
                  .AttachGuard(&good_guard, core::ErrorPolicy::kRaise,
                               s.schema)
                  .ok());
  // Detaching never needs validation.
  EXPECT_TRUE(executor
                  .AttachGuard(nullptr, core::ErrorPolicy::kIgnore, s.schema)
                  .ok());
}

}  // namespace
}  // namespace analysis
}  // namespace guardrail
