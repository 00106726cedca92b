#include "analysis/semantic.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "analysis/implication.h"
#include "analysis/passes/passes.h"
#include "core/interpreter.h"
#include "core/parser.h"
#include "core/printer.h"
#include "core/serialization.h"

namespace guardrail {
namespace analysis {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers: hashing, the certificate's deterministic row sampler, and
// canonical statement forms.
// ---------------------------------------------------------------------------

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string HashHex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

/// SplitMix64 — pinned here so certificates replay identically forever,
/// independent of any library RNG changing its stream.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One sampled row: per attribute a value in [-1, domain], covering NULL,
/// every dictionary code, and one out-of-dictionary code.
Row SampleRow(uint64_t* state, const std::vector<int64_t>& domains) {
  Row row(domains.size(), kNullValue);
  for (size_t a = 0; a < domains.size(); ++a) {
    const int64_t span = domains[a] + 2;  // [-1, domain] inclusive.
    row[a] = static_cast<ValueId>(
        static_cast<int64_t>(NextRand(state) % static_cast<uint64_t>(span)) -
        1);
  }
  return row;
}

int64_t TotalSupport(const core::Statement& stmt) {
  int64_t s = 0;
  for (const auto& branch : stmt.branches) s += branch.support;
  return s;
}

/// Full-arity unique conditions: branches are mutually exclusive and their
/// order is semantically free.
bool BranchOrderFree(const core::Statement& stmt) {
  std::vector<const core::Condition*> conds;
  for (const auto& branch : stmt.branches) {
    if (branch.condition.equalities.size() != stmt.determinants.size()) {
      return false;
    }
    conds.push_back(&branch.condition);
  }
  std::sort(conds.begin(), conds.end(),
            [](const core::Condition* a, const core::Condition* b) {
              return a->equalities < b->equalities;
            });
  for (size_t i = 1; i < conds.size(); ++i) {
    if (conds[i]->equalities == conds[i - 1]->equalities) return false;
  }
  return true;
}

core::Statement WithSortedBranches(const core::Statement& stmt) {
  core::Statement out = stmt;
  std::sort(out.branches.begin(), out.branches.end(),
            [](const core::Branch& a, const core::Branch& b) {
              if (a.condition.equalities != b.condition.equalities) {
                return a.condition.equalities < b.condition.equalities;
              }
              return a.assignment < b.assignment;
            });
  return out;
}

const std::pair<AttrIndex, ValueId>* RegionBinding(const Region& region,
                                                   AttrIndex attr) {
  for (const auto& binding : region) {
    if (binding.first == attr) return &binding;
    if (binding.first > attr) break;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Certificate JSON: emitted and parsed by this file only, so the grammar is
// deliberately small — flat object, string/integer/int-array fields, strings
// escaped with \" \\ \n \r \t and \u00XX for other control bytes.
// ---------------------------------------------------------------------------

void AppendEscaped(const std::string& s, std::string* out) {
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
}

bool FindField(const std::string& json, const std::string& key,
               size_t* value_pos) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  *value_pos = at + needle.size();
  return true;
}

bool ParseStringField(const std::string& json, const std::string& key,
                      std::string* out) {
  size_t pos = 0;
  if (!FindField(json, key, &pos) || pos >= json.size() || json[pos] != '"') {
    return false;
  }
  ++pos;
  out->clear();
  while (pos < json.size()) {
    const char c = json[pos];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      ++pos;
      continue;
    }
    if (pos + 1 >= json.size()) return false;
    const char esc = json[pos + 1];
    pos += 2;
    switch (esc) {
      case '"':
        out->push_back('"');
        break;
      case '\\':
        out->push_back('\\');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case 't':
        out->push_back('\t');
        break;
      case 'u': {
        if (pos + 4 > json.size()) return false;
        unsigned code = 0;
        if (std::sscanf(json.c_str() + pos, "%4x", &code) != 1) return false;
        out->push_back(static_cast<char>(code));
        pos += 4;
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

bool ParseUintField(const std::string& json, const std::string& key,
                    uint64_t* out) {
  size_t pos = 0;
  if (!FindField(json, key, &pos)) return false;
  uint64_t value = 0;
  bool any = false;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(json[pos] - '0');
    ++pos;
    any = true;
  }
  if (!any) return false;
  *out = value;
  return true;
}

bool ParseIndexArrayField(const std::string& json, const std::string& key,
                          std::vector<size_t>* out) {
  size_t pos = 0;
  if (!FindField(json, key, &pos) || pos >= json.size() || json[pos] != '[') {
    return false;
  }
  ++pos;
  out->clear();
  while (pos < json.size() && json[pos] != ']') {
    if (json[pos] == ',' || json[pos] == ' ') {
      ++pos;
      continue;
    }
    size_t value = 0;
    bool any = false;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
      value = value * 10 + static_cast<size_t>(json[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any) return false;
    out->push_back(value);
  }
  return pos < json.size();
}

std::string JoinIndices(const std::vector<size_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

constexpr const char* kCertificateFormat =
    "guardrail-minimization-certificate-v1";

// The marker comment (serialized as `# guardrail-minimized`).
constexpr const char* kMinimizedComment = "guardrail-minimized";

}  // namespace

uint64_t CanonicalProgramHash(const core::Program& program,
                              const Schema& schema) {
  return Fnv1a(core::ToDsl(program, schema));
}

std::string SerializeMinimizedProgram(const core::Program& program,
                                      const Schema& schema,
                                      const std::string& comment) {
  return core::SerializeProgram(
      program, schema,
      comment.empty() ? kMinimizedComment
                      : std::string(kMinimizedComment) + "\n" + comment);
}

bool HasMinimizedMarker(const std::string& program_text) {
  const std::string marker = std::string("# ") + kMinimizedComment;
  size_t pos = 0;
  while (pos <= program_text.size()) {
    if (program_text.compare(pos, marker.size(), marker) == 0) return true;
    const size_t nl = program_text.find('\n', pos);
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  return false;
}

Result<MinimizationResult> MinimizeProgram(const core::Program& program,
                                           const Schema& schema,
                                           const MinimizeOptions& options) {
  const size_t n = program.statements.size();
  MinimizationResult res;
  res.statements_before = static_cast<int64_t>(n);
  res.branches_before = program.NumBranches();

  // Weakest candidates first: a statement with a larger determinant set (a
  // more specific restatement) or lower observed support should fall before
  // the general, hot statement that implies it — keeping the survivors the
  // ones worth probing. Index descending as the final tiebreak keeps the
  // first member of an equivalence class (e.g. exact duplicates) alive.
  std::vector<size_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
    const auto& sa = program.statements[a];
    const auto& sb = program.statements[b];
    if (sa.determinants.size() != sb.determinants.size()) {
      return sa.determinants.size() > sb.determinants.size();
    }
    const int64_t wa = TotalSupport(sa);
    const int64_t wb = TotalSupport(sb);
    if (wa != wb) return wa < wb;
    return a > b;
  });

  std::vector<char> active(n, 1);
  for (size_t j : candidates) {
    ImplicationProof proof = StatementImpliedBy(program, j, active);
    if (!proof.implied) continue;
    active[j] = 0;
    res.dropped.push_back(j);
    res.impliers.push_back(std::move(proof.impliers));
  }

  std::vector<size_t> survivors;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) survivors.push_back(i);
  }
  if (options.reorder) {
    // Dominance order: the statements that matched the most training rows
    // go first, so the compiled engine's first-match probes and the
    // interpreter's statement loop hit the hot constraint earliest.
    std::stable_sort(survivors.begin(), survivors.end(),
                     [&](size_t a, size_t b) {
                       const int64_t wa = TotalSupport(program.statements[a]);
                       const int64_t wb = TotalSupport(program.statements[b]);
                       if (wa != wb) return wa > wb;
                       return a < b;
                     });
  }
  for (size_t i : survivors) {
    core::Statement stmt = program.statements[i];
    if (options.reorder && BranchOrderFree(stmt)) {
      // Mutually exclusive branches: hot conditions first is free.
      std::stable_sort(stmt.branches.begin(), stmt.branches.end(),
                       [](const core::Branch& a, const core::Branch& b) {
                         if (a.support != b.support) {
                           return a.support > b.support;
                         }
                         return a.condition.equalities <
                                b.condition.equalities;
                       });
    }
    res.program.statements.push_back(std::move(stmt));
  }
  res.order = survivors;
  res.statements_after = static_cast<int64_t>(res.program.statements.size());
  res.branches_after = res.program.NumBranches();

  // ---- Sampled replay (emit-side check + checksum for the certificate).
  std::vector<int64_t> domains;
  {
    const core::Interpreter orig_interp(&program);
    size_t width = std::max(static_cast<size_t>(schema.num_attributes()),
                            orig_interp.MinRowWidth());
    for (size_t a = 0; a < width; ++a) {
      domains.push_back(a < static_cast<size_t>(schema.num_attributes())
                            ? schema.attribute(static_cast<AttrIndex>(a))
                                  .domain_size()
                            : 2);
    }
  }
  uint64_t rng = options.sample_seed;
  uint64_t checksum = 0xcbf29ce484222325ULL;
  {
    const core::Interpreter orig_interp(&program);
    const core::Interpreter min_interp(&res.program);
    for (int64_t r = 0; r < options.sample_rows; ++r) {
      const Row row = SampleRow(&rng, domains);
      const bool orig_ok = orig_interp.Satisfies(row);
      const bool min_ok = min_interp.Satisfies(row);
      if (orig_ok != min_ok) {
        return Status::Internal(
            "minimization produced a verdict divergence on sampled row " +
            std::to_string(r) +
            " (implication engine bug); refusing to emit a certificate");
      }
      const char bit = orig_ok ? 1 : 0;
      checksum = Fnv1a(std::string_view(&bit, 1), checksum);
    }
  }

  // ---- Certificate assembly.
  const std::string original_dsl = core::ToDsl(program, schema);
  const std::string minimized_dsl = core::ToDsl(res.program, schema);
  std::string impliers_flat;
  for (size_t k = 0; k < res.impliers.size(); ++k) {
    if (k > 0) impliers_flat += ";";
    for (size_t i = 0; i < res.impliers[k].size(); ++i) {
      if (i > 0) impliers_flat += " ";
      impliers_flat += std::to_string(res.impliers[k][i]);
    }
  }
  std::string cert = "{\n";
  cert += "  \"format\": \"" + std::string(kCertificateFormat) + "\",\n";
  cert += "  \"original_hash\": \"" + HashHex(Fnv1a(original_dsl)) + "\",\n";
  cert += "  \"minimized_hash\": \"" + HashHex(Fnv1a(minimized_dsl)) + "\",\n";
  cert += "  \"original_statements\": " + std::to_string(n) + ",\n";
  cert += "  \"minimized_statements\": " +
          std::to_string(res.statements_after) + ",\n";
  cert += "  \"dropped\": " + JoinIndices(res.dropped) + ",\n";
  cert += "  \"impliers\": \"";
  AppendEscaped(impliers_flat, &cert);
  cert += "\",\n";
  cert += "  \"order\": " + JoinIndices(res.order) + ",\n";
  cert += "  \"sample_seed\": " + std::to_string(options.sample_seed) + ",\n";
  cert += "  \"sample_rows\": " + std::to_string(options.sample_rows) + ",\n";
  cert += "  \"sample_domains\": ";
  {
    std::string doms = "[";
    for (size_t a = 0; a < domains.size(); ++a) {
      if (a > 0) doms += ", ";
      doms += std::to_string(domains[a]);
    }
    doms += "]";
    cert += doms + ",\n";
  }
  cert += "  \"verdict_checksum\": \"" + HashHex(checksum) + "\",\n";
  cert += "  \"original_dsl\": \"";
  AppendEscaped(original_dsl, &cert);
  cert += "\"\n}\n";
  res.certificate = std::move(cert);
  return res;
}

Status VerifyCertificate(const std::string& certificate_json,
                         const core::Program& minimized,
                         const Schema& schema) {
  std::string format;
  if (!ParseStringField(certificate_json, "format", &format) ||
      format != kCertificateFormat) {
    return Status::InvalidArgument("certificate: missing or unknown format");
  }
  std::string original_hash;
  std::string minimized_hash;
  std::string impliers_flat;
  std::string verdict_checksum;
  std::string original_dsl;
  uint64_t sample_seed = 0;
  uint64_t sample_rows = 0;
  std::vector<size_t> dropped;
  std::vector<size_t> order;
  std::vector<size_t> sample_domains;
  if (!ParseStringField(certificate_json, "original_hash", &original_hash) ||
      !ParseStringField(certificate_json, "minimized_hash", &minimized_hash) ||
      !ParseStringField(certificate_json, "impliers", &impliers_flat) ||
      !ParseStringField(certificate_json, "verdict_checksum",
                        &verdict_checksum) ||
      !ParseStringField(certificate_json, "original_dsl", &original_dsl) ||
      !ParseUintField(certificate_json, "sample_seed", &sample_seed) ||
      !ParseUintField(certificate_json, "sample_rows", &sample_rows) ||
      !ParseIndexArrayField(certificate_json, "dropped", &dropped) ||
      !ParseIndexArrayField(certificate_json, "order", &order) ||
      !ParseIndexArrayField(certificate_json, "sample_domains",
                            &sample_domains)) {
    return Status::InvalidArgument("certificate: malformed field(s)");
  }

  // The embedded original is the certificate's ground truth; parse it
  // against a scratch copy of the schema (the parser may extend domains for
  // literals this schema instance has not seen).
  Schema scratch = schema;
  Result<core::Program> parsed = core::ParseProgram(original_dsl, &scratch);
  if (!parsed.ok()) {
    return Status::InvalidArgument("certificate: embedded original does not parse: " +
                                   parsed.status().ToString());
  }
  const core::Program original = std::move(*parsed);
  if (HashHex(Fnv1a(core::ToDsl(original, scratch))) != original_hash) {
    return Status::InvalidArgument(
        "certificate: original program hash mismatch");
  }
  if (HashHex(Fnv1a(core::ToDsl(minimized, scratch))) != minimized_hash) {
    return Status::InvalidArgument(
        "certificate: minimized program hash mismatch (program is not the "
        "one this certificate covers)");
  }

  // dropped + order must partition the original's statement indices.
  const size_t n = original.statements.size();
  std::vector<char> seen(n, 0);
  for (size_t j : dropped) {
    if (j >= n || seen[j]) {
      return Status::InvalidArgument("certificate: bad dropped index");
    }
    seen[j] = 1;
  }
  for (size_t j : order) {
    if (j >= n || seen[j]) {
      return Status::InvalidArgument("certificate: bad survivor index");
    }
    seen[j] = 1;
  }
  if (dropped.size() + order.size() != n ||
      order.size() != minimized.statements.size()) {
    return Status::InvalidArgument(
        "certificate: dropped+order do not partition the original");
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const core::Statement& orig_stmt = original.statements[order[i]];
    const core::Statement& min_stmt = minimized.statements[i];
    if (orig_stmt == min_stmt) continue;
    // A reordered branch list is only acceptable where order is provably
    // free (full-arity, mutually exclusive conditions).
    if (!BranchOrderFree(orig_stmt) ||
        !(WithSortedBranches(orig_stmt) == WithSortedBranches(min_stmt))) {
      return Status::InvalidArgument(
          "certificate: survivor " + std::to_string(i) +
          " does not match original statement " + std::to_string(order[i]));
    }
  }

  // Re-derive every drop claim with the implication engine, in drop order —
  // the certificate's listed impliers are informative; the proof is redone
  // from scratch against the statements still standing.
  std::vector<char> active(n, 1);
  for (size_t j : dropped) {
    ImplicationProof proof = StatementImpliedBy(original, j, active);
    if (!proof.implied) {
      return Status::InvalidArgument(
          "certificate: drop of statement " + std::to_string(j) +
          " is not derivable; refusing");
    }
    active[j] = 0;
  }

  // Sampled interpreter replay: the end-to-end behavioral check.
  std::vector<int64_t> domains(sample_domains.begin(), sample_domains.end());
  {
    const core::Interpreter orig_interp(&original);
    const core::Interpreter min_interp(&minimized);
    const size_t need = std::max(orig_interp.MinRowWidth(),
                                 min_interp.MinRowWidth());
    if (domains.size() < need) {
      return Status::InvalidArgument(
          "certificate: sample_domains narrower than the programs");
    }
    uint64_t rng = sample_seed;
    uint64_t checksum = 0xcbf29ce484222325ULL;
    for (uint64_t r = 0; r < sample_rows; ++r) {
      const Row row = SampleRow(&rng, domains);
      const bool orig_ok = orig_interp.Satisfies(row);
      const bool min_ok = min_interp.Satisfies(row);
      if (orig_ok != min_ok) {
        return Status::InvalidArgument(
            "certificate: verdict divergence on sampled row " +
            std::to_string(r));
      }
      const char bit = orig_ok ? 1 : 0;
      checksum = Fnv1a(std::string_view(&bit, 1), checksum);
    }
    if (HashHex(checksum) != verdict_checksum) {
      return Status::InvalidArgument("certificate: verdict checksum mismatch");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pass 6 (GRL6xx/GRL7xx): whole-program implication findings.
// ---------------------------------------------------------------------------

void RunSemanticPass(const PassContext& ctx, DiagnosticReport* report) {
  const core::Program& program = *ctx.program;
  const Schema& schema = *ctx.schema;
  const size_t n = program.statements.size();
  auto attr_name = [&](AttrIndex a) {
    return a >= 0 && a < schema.num_attributes()
               ? schema.attribute(a).name()
               : std::string();
  };
  auto name_list = [](const std::vector<size_t>& v) {
    std::string out;
    const size_t limit = std::min<size_t>(v.size(), 4);
    for (size_t i = 0; i < limit; ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(v[i]);
    }
    if (v.size() > limit) {
      out += ", +" + std::to_string(v.size() - limit) + " more";
    }
    return out;
  };

  const ImplicationLattice lattice = BuildImplicationLattice(program);
  for (size_t j = 0; j < n; ++j) {
    const std::string dep = attr_name(program.statements[j].dependent);
    if (lattice.duplicate_of[j] != ImplicationLattice::kNoDuplicate) {
      report->Add({"GRL602", Severity::kWarning, static_cast<int32_t>(j), -1,
                   dep,
                   "exact duplicate of statement " +
                       std::to_string(lattice.duplicate_of[j]) +
                       " (advisory metadata aside); first-match evaluation "
                       "pays its probes twice for identical verdicts"});
      continue;
    }
    if (lattice.implied[j] && !lattice.proofs[j].impliers.empty()) {
      report->Add(
          {"GRL601", Severity::kWarning, static_cast<int32_t>(j), -1, dep,
           "implied by statement(s) " + name_list(lattice.proofs[j].impliers) +
               ": every row it flags is already flagged by them; "
               "minimization (analyze --minimize) can drop it with a "
               "certificate"});
    }
  }

  const std::vector<char> all_active(n, 1);
  for (size_t j = 0; j < n; ++j) {
    const core::Statement& stmt = program.statements[j];
    for (size_t b = 0; b < stmt.branches.size(); ++b) {
      const core::Branch& branch = stmt.branches[b];
      Region seed(branch.condition.equalities);
      // Intra-statement shadowing is GRL2xx territory.
      if (PreemptedInRegion(stmt, b, seed)) continue;
      const ClosureResult closure =
          ComputeClosure(std::move(seed), program, all_active, j);
      if (closure.contradiction) {
        report->Add(
            {"GRL701", Severity::kWarning, static_cast<int32_t>(j),
             static_cast<int32_t>(b),
             attr_name(closure.conflict_attribute),
             "unreachable under the program: statement(s) " +
                 name_list(closure.fired) +
                 " force conflicting values on '" +
                 attr_name(closure.conflict_attribute) +
                 "' across this branch's whole region, so every matching "
                 "row is flagged before this branch matters"});
        continue;
      }
      const auto* bound = RegionBinding(closure.region, branch.target);
      if (bound == nullptr || bound->second == branch.assignment) continue;
      // Which closure fire pinned the branch's own target? Depth 1 means a
      // single statement whose condition the branch region directly implies
      // — the pairwise GRL301 scan already reports that exact conflict.
      int depth = 0;
      for (size_t f = 0; f < closure.fired.size(); ++f) {
        if (program.statements[closure.fired[f]].dependent == branch.target) {
          depth = closure.fire_depth[f];
          break;
        }
      }
      if (depth <= 1) continue;
      report->Add(
          {"GRL702", Severity::kError, static_cast<int32_t>(j),
           static_cast<int32_t>(b), attr_name(branch.target),
           "transitive contradiction: statement(s) " +
               name_list(closure.fired) + " force '" +
               attr_name(branch.target) +
               "' to a different value on every row matching this "
               "condition; every such row violates one statement or the "
               "other no matter its data"});
    }
  }
}

}  // namespace analysis
}  // namespace guardrail
