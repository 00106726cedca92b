// Whole-program semantic analyzer suite (src/analysis/semantic.h,
// src/analysis/implication.h): the implication lattice's GRL6xx/GRL7xx
// diagnostics, the certified minimizer's soundness (verdict equality proven
// row by row), certificate verification and tamper rejection, the serving
// registry's certified publish gate, and the synthesis minimization rung
// across all twelve SEM datasets under all four error-handling schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/checker.h"
#include "analysis/implication.h"
#include "analysis/semantic.h"
#include "core/guard.h"
#include "core/interpreter.h"
#include "core/normalize.h"
#include "core/serialization.h"
#include "core/synthesizer.h"
#include "exp/pipeline.h"
#include "serve/registry.h"
#include "table/schema.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace analysis {
namespace {

// Three-attribute schema with small domains so verdict equality can be
// checked exhaustively over every possible row (plus NULL and one
// out-of-dictionary code per attribute).
Schema SmallSchema() {
  Schema schema({Attribute("a"), Attribute("b"), Attribute("c")});
  for (AttrIndex attr = 0; attr < 3; ++attr) {
    for (int v = 0; v < 3; ++v) {
      schema.attribute(attr).GetOrInsert("v" + std::to_string(v));
    }
  }
  return schema;
}

core::Branch MakeBranch(std::vector<std::pair<AttrIndex, ValueId>> equalities,
                        AttrIndex target, ValueId assignment,
                        int64_t support = 10) {
  core::Branch branch;
  std::sort(equalities.begin(), equalities.end());
  branch.condition.equalities = std::move(equalities);
  branch.target = target;
  branch.assignment = assignment;
  branch.support = support;
  return branch;
}

core::Statement MakeStatement(std::vector<AttrIndex> determinants,
                              AttrIndex dependent,
                              std::vector<core::Branch> branches) {
  core::Statement stmt;
  std::sort(determinants.begin(), determinants.end());
  stmt.determinants = std::move(determinants);
  stmt.dependent = dependent;
  stmt.branches = std::move(branches);
  return stmt;
}

// GIVEN a ON b: a full functional mapping over a's dictionary.
core::Statement FullMap(AttrIndex det, AttrIndex dep,
                        std::vector<ValueId> assignments) {
  std::vector<core::Branch> branches;
  for (size_t v = 0; v < assignments.size(); ++v) {
    branches.push_back(MakeBranch({{det, static_cast<ValueId>(v)}}, dep,
                                  assignments[v]));
  }
  return MakeStatement({det}, dep, std::move(branches));
}

DiagnosticReport AnalyzeSchemaOnly(const core::Program& program,
                                   const Schema& schema) {
  Analyzer analyzer;
  return analyzer.Analyze(program, schema);
}

bool HasCode(const DiagnosticReport& report, const std::string& code) {
  for (const auto& d : report.diagnostics) {
    if (d.code == code) return true;
  }
  return false;
}

// Every row over the schema's domains, plus NULL and one out-of-dictionary
// code per attribute — the full space the DSL semantics distinguish.
std::vector<Row> AllRows(const Schema& schema) {
  std::vector<Row> rows;
  rows.emplace_back();
  for (AttrIndex attr = 0; attr < schema.num_attributes(); ++attr) {
    std::vector<Row> next;
    const ValueId domain = schema.attribute(attr).domain_size();
    for (const Row& prefix : rows) {
      for (ValueId v = kNullValue; v <= domain; ++v) {
        Row row = prefix;
        row.push_back(v);
        next.push_back(std::move(row));
      }
    }
    rows = std::move(next);
  }
  return rows;
}

void ExpectVerdictIdentical(const core::Program& original,
                            const core::Program& minimized,
                            const Schema& schema) {
  core::Interpreter before(&original);
  core::Interpreter after(&minimized);
  for (const Row& row : AllRows(schema)) {
    EXPECT_EQ(before.Satisfies(row), after.Satisfies(row));
  }
}

// ------------------------------------------------- implication lattice --

TEST(ImplicationLatticeTest, ExactDuplicateDraws602And601) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(HasCode(report, "GRL602")) << report.ToText();
  EXPECT_TRUE(HasCode(report, "GRL601")) << report.ToText();
  EXPECT_FALSE(report.HasErrors()) << report.ToText();
}

TEST(ImplicationLatticeTest, DeterminantSupersetDraws601) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  // GIVEN a, c ON b agreeing with the a -> b map: strictly weaker.
  program.statements.push_back(MakeStatement(
      {0, 2}, 1,
      {MakeBranch({{0, 0}, {2, 0}}, 1, 0), MakeBranch({{0, 1}, {2, 1}}, 1, 1),
       MakeBranch({{0, 2}, {2, 2}}, 1, 2)}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(HasCode(report, "GRL601")) << report.ToText();
  EXPECT_FALSE(HasCode(report, "GRL602")) << report.ToText();
  EXPECT_FALSE(report.HasErrors()) << report.ToText();
}

TEST(ImplicationLatticeTest, ChainCompositionDraws601) {
  Schema schema = SmallSchema();
  core::Program program;
  // a=0 -> b=0, b=0 -> c=1; a=0 -> c=1 follows by composition — no single
  // statement subsumes it, only the two-step closure proves it.
  program.statements.push_back(
      MakeStatement({0}, 1, {MakeBranch({{0, 0}}, 1, 0)}));
  program.statements.push_back(
      MakeStatement({1}, 2, {MakeBranch({{1, 0}}, 2, 1)}));
  program.statements.push_back(
      MakeStatement({0}, 2, {MakeBranch({{0, 0}}, 2, 1)}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(HasCode(report, "GRL601")) << report.ToText();
  EXPECT_FALSE(report.HasErrors()) << report.ToText();

  ImplicationLattice lattice = BuildImplicationLattice(program);
  ASSERT_EQ(lattice.implied.size(), 3u);
  EXPECT_TRUE(lattice.implied[2]);
  ASSERT_FALSE(lattice.proofs[2].impliers.empty());
  EXPECT_FALSE(lattice.implied[0]);
  EXPECT_FALSE(lattice.implied[1]);
}

TEST(ImplicationLatticeTest, TransitiveContradictionDraws702) {
  Schema schema = SmallSchema();
  core::Program program;
  // stmt1's fallback branch (a=0 -> b=0) is transitively contradicted:
  // a=0 forces c=1 (stmt2), and c=1 forces b=1 (stmt0). The pairwise GRL301
  // scan stays silent — merging (a=0) with (c=1) lands in stmt1's *first*
  // branch (first-match preemption), which agrees on b=1 — so only the
  // depth-2 closure sees the conflict.
  program.statements.push_back(
      MakeStatement({2}, 1, {MakeBranch({{2, 1}}, 1, 1)}));
  program.statements.push_back(MakeStatement(
      {0, 2}, 1,
      {MakeBranch({{0, 0}, {2, 1}}, 1, 1), MakeBranch({{0, 0}}, 1, 0)}));
  program.statements.push_back(
      MakeStatement({0}, 2, {MakeBranch({{0, 0}}, 2, 1)}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(HasCode(report, "GRL702")) << report.ToText();
  EXPECT_TRUE(report.HasErrors()) << report.ToText();
  EXPECT_FALSE(HasCode(report, "GRL301")) << report.ToText();
}

TEST(ImplicationLatticeTest, UnreachableBranchDraws701) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(
      MakeStatement({0}, 1, {MakeBranch({{0, 0}}, 1, 0)}));
  // The a=0, b=1 region is condemned by the statement above: every row in
  // it is already flagged, so this branch can never be a sole flagger.
  program.statements.push_back(MakeStatement(
      {0, 1}, 2, {MakeBranch({{0, 0}, {1, 1}}, 2, 0)}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(HasCode(report, "GRL701")) << report.ToText();
}

TEST(ImplicationLatticeTest, ReversedEdgePairIsNotImplied) {
  // a -> b and its inverse b -> a genuinely differ: a row with b bound and
  // a NULL is flagged by b -> a alone. A sound lattice must keep both.
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(1, 0, {0, 1, 2}));

  ImplicationLattice lattice = BuildImplicationLattice(program);
  EXPECT_FALSE(lattice.implied[0]);
  EXPECT_FALSE(lattice.implied[1]);
  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
}

TEST(ImplicationLatticeTest, IndependentStatementsStaySilent) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(1, 2, {2, 0, 1}));

  DiagnosticReport report = AnalyzeSchemaOnly(program, schema);
  EXPECT_TRUE(report.diagnostics.empty()) << report.ToText();
}

// ------------------------------------------------- certified minimizer --

TEST(MinimizeTest, DropsDuplicateAndSupersetWithVerifiedCertificate) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));  // duplicate
  program.statements.push_back(MakeStatement(                // superset
      {0, 2}, 1,
      {MakeBranch({{0, 0}, {2, 0}}, 1, 0),
       MakeBranch({{0, 1}, {2, 1}}, 1, 1)}));

  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  EXPECT_EQ(minimized->statements_before, 3);
  EXPECT_EQ(minimized->statements_after, 1);
  EXPECT_EQ(minimized->dropped.size(), 2u);
  for (const auto& impliers : minimized->impliers) {
    EXPECT_FALSE(impliers.empty());
  }
  EXPECT_TRUE(
      VerifyCertificate(minimized->certificate, minimized->program, schema)
          .ok());
  ExpectVerdictIdentical(program, minimized->program, schema);
}

TEST(MinimizeTest, IrredundantProgramIsUntouchedAndStillCertified) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(1, 0, {0, 1, 2}));  // inverse: kept

  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  EXPECT_TRUE(minimized->dropped.empty());
  EXPECT_EQ(minimized->statements_after, 2);
  EXPECT_TRUE(
      VerifyCertificate(minimized->certificate, minimized->program, schema)
          .ok());
  ExpectVerdictIdentical(program, minimized->program, schema);
}

TEST(MinimizeTest, SurvivorsAreDominanceOrdered) {
  Schema schema = SmallSchema();
  core::Program program;
  // Cold statement first, hot statement second; the minimizer must emit the
  // hot one first so the serving first-match loops probe it first.
  core::Statement cold = FullMap(0, 1, {0, 1, 2});
  for (auto& b : cold.branches) b.support = 2;
  core::Statement hot = FullMap(1, 2, {2, 0, 1});
  for (auto& b : hot.branches) b.support = 500;
  program.statements.push_back(std::move(cold));
  program.statements.push_back(std::move(hot));

  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  ASSERT_EQ(minimized->program.statements.size(), 2u);
  EXPECT_EQ(minimized->program.statements[0].dependent, 2);  // hot first
  ASSERT_EQ(minimized->order.size(), 2u);
  EXPECT_EQ(minimized->order[0], 1u);
  EXPECT_EQ(minimized->order[1], 0u);
  EXPECT_TRUE(
      VerifyCertificate(minimized->certificate, minimized->program, schema)
          .ok());
}

TEST(MinimizeTest, CertificateRejectsTampering) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));

  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  ASSERT_FALSE(minimized->dropped.empty());

  // Wrong program: the certificate is bound to the exact minimized text.
  core::Program other;
  other.statements.push_back(FullMap(0, 1, {1, 1, 2}));
  EXPECT_FALSE(VerifyCertificate(minimized->certificate, other, schema).ok());

  // A minimized program claiming an extra (never-proven) drop.
  core::Program empty_program;
  EXPECT_FALSE(
      VerifyCertificate(minimized->certificate, empty_program, schema).ok());

  // Corrupted certificate text: flip the dropped-statement list.
  std::string tampered = minimized->certificate;
  size_t pos = tampered.find("\"dropped\": [1]");
  ASSERT_NE(pos, std::string::npos) << tampered;
  tampered.replace(pos, 14, "\"dropped\": [0]");
  EXPECT_FALSE(
      VerifyCertificate(tampered, minimized->program, schema).ok());

  // Truncated certificate.
  std::string truncated =
      minimized->certificate.substr(0, minimized->certificate.size() / 2);
  EXPECT_FALSE(
      VerifyCertificate(truncated, minimized->program, schema).ok());

  // The untampered certificate still verifies.
  EXPECT_TRUE(
      VerifyCertificate(minimized->certificate, minimized->program, schema)
          .ok());
}

// Two independent statements, each synthesized twice: original indices 2
// and 3 are copies of 0 and 1.
core::Program TwiceSynthesizedProgram() {
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(1, 2, {2, 0, 1}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(1, 2, {2, 0, 1}));
  return program;
}

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from << " not in\n" << text;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(MinimizeTest, CopiesAreDropsIndexedInTheOriginal) {
  Schema schema = SmallSchema();
  const core::Program program = TwiceSynthesizedProgram();
  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  EXPECT_EQ(minimized->statements_before, 4);
  EXPECT_EQ(minimized->statements_after, 2);
  // Each copy's proof names its first occurrence.
  ASSERT_EQ(minimized->dropped, (std::vector<size_t>{2, 3}));
  EXPECT_EQ(minimized->impliers[0], (std::vector<size_t>{0}));
  EXPECT_EQ(minimized->impliers[1], (std::vector<size_t>{1}));
  std::vector<size_t> order = minimized->order;
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1}));
  // The certificate embeds each distinct statement once.
  const std::string& cert = minimized->certificate;
  EXPECT_NE(cert.find("\"duplicate_of\": [-1, -1, 0, 1]"), std::string::npos)
      << cert;
  EXPECT_NE(cert.find("\"distinct_statements\": 2"), std::string::npos)
      << cert;
  EXPECT_TRUE(VerifyCertificate(cert, minimized->program, schema).ok());
  ExpectVerdictIdentical(program, minimized->program, schema);
}

TEST(MinimizeTest, CopiesDifferingInMetadataStayDistinct) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements[1].branches[0].support = 99;
  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  // Not identical, so no duplicate_of link: the implication engine's
  // duplicate path drops the lower-support one instead.
  EXPECT_NE(minimized->certificate.find("\"duplicate_of\": [-1, -1]"),
            std::string::npos)
      << minimized->certificate;
  EXPECT_EQ(minimized->dropped, (std::vector<size_t>{0}));
  EXPECT_EQ(minimized->order, (std::vector<size_t>{1}));
  EXPECT_EQ(minimized->program.statements[0].branches[0].support, 99);
  EXPECT_TRUE(
      VerifyCertificate(minimized->certificate, minimized->program, schema)
          .ok());
}

TEST(MinimizeTest, CertificateRejectsTamperedDuplicateLinks) {
  Schema schema = SmallSchema();
  auto minimized = MinimizeProgram(TwiceSynthesizedProgram(), schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  const std::string& cert = minimized->certificate;
  ASSERT_TRUE(VerifyCertificate(cert, minimized->program, schema).ok());
  const std::string links = "\"duplicate_of\": [-1, -1, 0, 1]";

  struct Tamper {
    const char* what;
    std::string links;
    std::string expected_error;
  };
  const Tamper tampers[] = {
      {"points at a non-identical statement",
       "\"duplicate_of\": [-1, -1, 1, 1]", "original program hash mismatch"},
      {"points at itself", "\"duplicate_of\": [-1, -1, 2, 1]",
       "duplicate_of[2] = 2 points at itself"},
      {"points at a later index", "\"duplicate_of\": [-1, -1, 3, 1]",
       "duplicate_of[2] = 3 points at a later statement"},
      {"points out of range", "\"duplicate_of\": [-1, -1, 9, 1]",
       "duplicate_of[2] = 9 is out of range"},
      {"points at a copy", "\"duplicate_of\": [-1, -1, 0, 2]",
       "duplicate_of[3] = 2 is not a first occurrence"},
      {"drops a first occurrence", "\"duplicate_of\": [-1, -1, 0, -1]",
       "first occurrences do not match"},
  };
  for (const Tamper& tamper : tampers) {
    SCOPED_TRACE(tamper.what);
    const Status status = VerifyCertificate(
        ReplaceOnce(cert, links, tamper.links), minimized->program, schema);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(tamper.expected_error), std::string::npos)
        << status.ToString();
  }

  // A copy listed as the survivor in place of its first occurrence.
  const std::string copy_survives = ReplaceOnce(
      ReplaceOnce(cert, "\"dropped\": [2, 3]", "\"dropped\": [0, 3]"),
      "\"order\": [0, 1]", "\"order\": [2, 1]");
  const Status status =
      VerifyCertificate(copy_survives, minimized->program, schema);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad survivor index"), std::string::npos)
      << status.ToString();
}

TEST(MinimizeTest, VersionOneCertificatesAreRefusedWithAHint) {
  Schema schema = SmallSchema();
  auto minimized = MinimizeProgram(TwiceSynthesizedProgram(), schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();
  const std::string v1 =
      ReplaceOnce(minimized->certificate, "certificate-v2", "certificate-v1");
  const Status status = VerifyCertificate(v1, minimized->program, schema);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("guardrail-minimization-certificate-v1"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("analyze --minimize"), std::string::npos)
      << status.ToString();
}

// --------------------------------------------- registry publish gate --

TEST(RegistryGateTest, MinimizedMarkerWithoutCertificateIsRefused) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  std::string text = SerializeMinimizedProgram(program, schema);
  ASSERT_TRUE(HasMinimizedMarker(text));

  serve::ProgramRegistry registry;
  auto version = registry.LoadFromText("ds", text, schema);
  ASSERT_FALSE(version.ok());
  EXPECT_NE(version.status().ToString().find("unproven minimization"),
            std::string::npos)
      << version.status().ToString();
  EXPECT_EQ(registry.live_datasets(), 0);
}

TEST(RegistryGateTest, CertifiedMinimizedProgramPublishes) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();

  std::string text = SerializeMinimizedProgram(minimized->program, schema);
  serve::ProgramRegistry registry;
  auto version = registry.LoadFromText("ds", text, schema, "",
                                       minimized->certificate);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 1u);
  auto snapshot = registry.Get("ds");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->statement_count(), 1);
}

TEST(RegistryGateTest, TamperedCertificateIsRefused) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  auto minimized = MinimizeProgram(program, schema);
  ASSERT_TRUE(minimized.ok()) << minimized.status().ToString();

  // Certificate for a *different* program than the one being published: the
  // classic swap attack the hash binding exists for.
  core::Program other;
  other.statements.push_back(FullMap(0, 1, {1, 0, 2}));
  std::string text = SerializeMinimizedProgram(other, schema);
  serve::ProgramRegistry registry;
  auto version = registry.LoadFromText("ds", text, schema, "",
                                       minimized->certificate);
  ASSERT_FALSE(version.ok());
  EXPECT_EQ(registry.live_datasets(), 0);
}

TEST(RegistryGateTest, UnmarkedProgramStillLoadsWithoutCertificate) {
  Schema schema = SmallSchema();
  core::Program program;
  program.statements.push_back(FullMap(0, 1, {0, 1, 2}));
  std::string text = core::SerializeProgram(program, schema, "plain");
  ASSERT_FALSE(HasMinimizedMarker(text));

  serve::ProgramRegistry registry;
  auto version = registry.LoadFromText("ds", text, schema);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
}

// --------------------------------------------- synthesis minimization rung --

TEST(SynthesisMinimizationTest, ReportCarriesCertifiedEnsemble) {
  std::vector<SemNode> nodes(4);
  nodes[0] = {"zip", 6, {}, 0.0};
  nodes[1] = {"city", 5, {0}, 0.0};
  nodes[2] = {"state", 4, {1}, 0.0};
  nodes[3] = {"note", 3, {}, 0.0};
  SemModel sem(std::move(nodes), 77);
  Rng data_rng(5);
  Table data = sem.Sample(1200, &data_rng);

  core::Synthesizer synth(core::SynthesisOptions{});
  Rng rng(11);
  core::SynthesisReport report = synth.Synthesize(data, &rng);
  ASSERT_FALSE(report.program.empty());
  ASSERT_TRUE(report.minimized);
  // The raw member-DAG union keeps every member's statements; the certified
  // minimizer — not an uncertified merge — collapses them back down.
  EXPECT_GT(report.ensemble_program.statements.size(),
            report.minimization.program.statements.size());
  EXPECT_FALSE(report.minimization.dropped.empty());
  EXPECT_TRUE(VerifyCertificate(report.minimization.certificate,
                                report.minimization.program, data.schema())
                  .ok());

  // The minimized ensemble agrees with the raw union on every data row.
  core::Interpreter raw(&report.ensemble_program);
  core::Interpreter mini(&report.minimization.program);
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    Row row = data.GetRow(r);
    ASSERT_EQ(raw.Satisfies(row), mini.Satisfies(row)) << "row " << r;
  }
}

TEST(SynthesisMinimizationTest, EnsembleIsThreadCountInvariant) {
  std::vector<SemNode> nodes(3);
  nodes[0] = {"x", 4, {}, 0.0};
  nodes[1] = {"y", 4, {0}, 0.0};
  nodes[2] = {"z", 3, {1}, 0.0};
  SemModel sem(std::move(nodes), 33);
  Rng data_rng(7);
  Table data = sem.Sample(900, &data_rng);

  core::SynthesisOptions serial;
  serial.num_threads = 1;
  core::SynthesisOptions parallel;
  parallel.num_threads = 4;
  Rng rng1(3), rng2(3);
  core::SynthesisReport a = core::Synthesizer(serial).Synthesize(data, &rng1);
  core::SynthesisReport b =
      core::Synthesizer(parallel).Synthesize(data, &rng2);
  EXPECT_EQ(a.ensemble_program, b.ensemble_program);
  EXPECT_EQ(a.minimization.program, b.minimization.program);
  EXPECT_EQ(a.minimization.certificate, b.minimization.certificate);
}

// ------------------------------- fuzz round-trip: 12 datasets x 4 schemes --

TEST(SemanticFuzzTest, MinimizedVerdictsMatchAcrossDatasetsAndSchemes) {
  const core::ErrorPolicy kSchemes[] = {
      core::ErrorPolicy::kRaise, core::ErrorPolicy::kIgnore,
      core::ErrorPolicy::kCoerce, core::ErrorPolicy::kRectify};

  int datasets_with_drops = 0;
  for (int id = 1; id <= 12; ++id) {
    exp::ExperimentConfig config;
    config.row_limit = 900;
    config.train_model = false;
    auto prepared = exp::PrepareDataset(id, config);
    ASSERT_TRUE(prepared.ok())
        << "dataset " << id << ": " << prepared.status().ToString();
    const core::SynthesisReport& report = (*prepared)->synthesis;
    ASSERT_TRUE(report.minimized) << "dataset " << id;
    ASSERT_TRUE(VerifyCertificate(report.minimization.certificate,
                                  report.minimization.program,
                                  (*prepared)->train.schema())
                    .ok())
        << "dataset " << id;
    if (!report.minimization.dropped.empty()) ++datasets_with_drops;

    // Row-by-row verdict equality on the error-injected split: the rows the
    // minimizer's certificate replay never saw.
    core::Interpreter raw(&report.ensemble_program);
    core::Interpreter mini(&report.minimization.program);
    const Table& dirty = (*prepared)->test_dirty;
    for (RowIndex r = 0; r < dirty.num_rows(); ++r) {
      Row row = dirty.GetRow(r);
      ASSERT_EQ(raw.Satisfies(row), mini.Satisfies(row))
          << "dataset " << id << " row " << r;
    }

    // Guard-level equality under every error-handling scheme. Repaired cell
    // contents may differ (dropped statements no longer vote on repair
    // values); the per-row flag verdict may not.
    for (core::ErrorPolicy scheme : kSchemes) {
      Table raw_table = dirty;
      Table mini_table = dirty;
      core::Guard raw_guard(&report.ensemble_program);
      core::Guard mini_guard(&report.minimization.program);
      core::GuardOutcome raw_out = raw_guard.ProcessTable(&raw_table, scheme);
      core::GuardOutcome mini_out =
          mini_guard.ProcessTable(&mini_table, scheme);
      EXPECT_EQ(raw_out.rows_flagged, mini_out.rows_flagged)
          << "dataset " << id << " scheme "
          << core::ErrorPolicyName(scheme);
      EXPECT_EQ(raw_out.flagged, mini_out.flagged)
          << "dataset " << id << " scheme "
          << core::ErrorPolicyName(scheme);
    }
  }

  // The paper-scale acceptance bar: the member-DAG union is genuinely
  // redundant on at least half of the SEM corpus.
  EXPECT_GE(datasets_with_drops, 6)
      << datasets_with_drops << "/12 datasets dropped statements";
}

}  // namespace
}  // namespace analysis
}  // namespace guardrail
