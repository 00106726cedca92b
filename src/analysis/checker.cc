#include "analysis/checker.h"

#include <vector>

#include "analysis/passes/passes.h"
#include "common/telemetry/telemetry.h"

namespace guardrail {
namespace analysis {

DiagnosticReport Analyzer::Analyze(const core::Program& program,
                                   const Schema& schema) const {
  return Run(program, schema, /*data=*/nullptr);
}

DiagnosticReport Analyzer::Analyze(const core::Program& program,
                                   const Schema& schema,
                                   const Table& data) const {
  return Run(program, schema, &data);
}

DiagnosticReport Analyzer::Run(const core::Program& program,
                               const Schema& schema, const Table* data) const {
  telemetry::Span span("analysis");
  DiagnosticReport report;
  PassContext ctx;
  ctx.program = &program;
  ctx.schema = &schema;
  ctx.data = data;
  ctx.options = &options_;

  // One grouped scan per statement serves every data pass.
  std::vector<GroupedStatementStats> grouped;
  if (data != nullptr &&
      (options_.check_satisfiability || options_.check_nontriviality ||
       options_.check_coverage)) {
    telemetry::Span scan_span("analysis.grouped_scan");
    grouped = ComputeGroupedStats(program, *data);
    ctx.grouped = &grouped;
  }

  if (options_.check_types) {
    telemetry::Span pass_span("analysis.type_domain");
    RunTypeDomainPass(ctx, &report);
    report.passes_run.emplace_back("type_domain");
  }
  if (options_.check_satisfiability) {
    telemetry::Span pass_span("analysis.satisfiability");
    RunSatisfiabilityPass(ctx, &report);
    report.passes_run.emplace_back("satisfiability");
  }
  if (options_.check_contradictions) {
    telemetry::Span pass_span("analysis.contradiction");
    RunContradictionPass(ctx, &report);
    report.passes_run.emplace_back("contradiction");
  }
  if (options_.check_semantic) {
    telemetry::Span pass_span("analysis.semantic");
    RunSemanticPass(ctx, &report);
    report.passes_run.emplace_back("semantic");
  }
  if (options_.check_nontriviality && data != nullptr) {
    telemetry::Span pass_span("analysis.nontriviality");
    RunNonTrivialityPass(ctx, &report);
    report.passes_run.emplace_back("nontriviality");
  }
  if (options_.check_coverage && data != nullptr) {
    telemetry::Span pass_span("analysis.coverage");
    RunCoveragePass(ctx, &report);
    report.passes_run.emplace_back("coverage");
  }

  report.Sort();
  span.AddArg("diagnostics", static_cast<int64_t>(report.diagnostics.size()));
  span.AddArg("errors", report.CountAtSeverity(Severity::kError));
  GUARDRAIL_COUNTER_INC("analysis.runs_total");
  GUARDRAIL_COUNTER_ADD("analysis.diagnostics_total",
                        static_cast<int64_t>(report.diagnostics.size()));
  GUARDRAIL_COUNTER_ADD("analysis.errors_total",
                        report.CountAtSeverity(Severity::kError));
  GUARDRAIL_COUNTER_ADD("analysis.warnings_total",
                        report.CountAtSeverity(Severity::kWarning));
  return report;
}

}  // namespace analysis
}  // namespace guardrail
