#include "analysis/semantic.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <unordered_map>
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

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
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

/// Replays `rows` seeded sample rows through both programs and folds the
/// verdict bits into `checksum`. Returns the first row whose verdicts
/// differ, or -1 when they all agree.
int64_t ReplaySample(const core::Program& original,
                     const core::Program& minimized,
                     const std::vector<int64_t>& domains, uint64_t seed,
                     uint64_t rows, uint64_t* checksum) {
  const core::Interpreter orig_interp(&original);
  const core::Interpreter min_interp(&minimized);
  uint64_t rng = seed;
  *checksum = kFnvOffset;
  for (uint64_t r = 0; r < rows; ++r) {
    const Row row = SampleRow(&rng, domains);
    const bool orig_ok = orig_interp.Satisfies(row);
    if (orig_ok != min_interp.Satisfies(row)) return static_cast<int64_t>(r);
    const char bit = orig_ok ? 1 : 0;
    *checksum = Fnv1a(std::string_view(&bit, 1), *checksum);
  }
  return -1;
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
// Hash-consing. The synthesis ensemble is the union of every member DAG's
// program, and the statement cache hands each member the same filled
// statement, so a raw union holds a few distinct statements many times over.
// The minimizer and the verifier work on the distinct statements only; a
// later copy of a statement is a drop proven by identity.
// ---------------------------------------------------------------------------

/// `duplicate_of` entry of a statement's first occurrence.
constexpr int64_t kFirstOccurrence = -1;

/// Identity including the advisory metadata (support, tolerated values) that
/// `Statement::operator==` ignores, so the copy the minimizer keeps carries
/// exactly the metadata of every copy it stands for. Statements equal only
/// modulo metadata stay distinct and meet in the lattice's duplicate path.
bool IdenticalStatements(const core::Statement& a, const core::Statement& b) {
  if (!(a == b)) return false;
  for (size_t i = 0; i < a.branches.size(); ++i) {
    if (a.branches[i].support != b.branches[i].support ||
        a.branches[i].tolerated_values != b.branches[i].tolerated_values) {
      return false;
    }
  }
  return true;
}

uint64_t StatementIdentityHash(const core::Statement& stmt) {
  uint64_t h = kFnvOffset;
  auto mix = [&h](int64_t v) {
    h = (h ^ static_cast<uint64_t>(v)) * kFnvPrime;
  };
  mix(stmt.dependent);
  mix(static_cast<int64_t>(stmt.determinants.size()));
  for (AttrIndex a : stmt.determinants) mix(a);
  for (const core::Branch& branch : stmt.branches) {
    mix(static_cast<int64_t>(branch.condition.equalities.size()));
    for (const auto& [attr, value] : branch.condition.equalities) {
      mix(attr);
      mix(value);
    }
    mix(branch.target);
    mix(branch.assignment);
    mix(branch.support);
    mix(static_cast<int64_t>(branch.tolerated_values.size()));
    for (ValueId v : branch.tolerated_values) mix(v);
  }
  return h;
}

/// A program as its distinct statements plus, per original index, where
/// that statement's first occurrence is.
struct HashConsedProgram {
  /// First occurrences, in original order.
  core::Program distinct;
  /// Per original index: kFirstOccurrence, or the original index of the
  /// first identical statement.
  std::vector<int64_t> duplicate_of;
  /// Per original index: the statement's index in `distinct`.
  std::vector<size_t> distinct_index;
  /// Per distinct index: its original index.
  std::vector<size_t> original_index;
};

HashConsedProgram HashCons(const core::Program& program) {
  const size_t n = program.statements.size();
  HashConsedProgram out;
  out.duplicate_of.assign(n, kFirstOccurrence);
  out.distinct_index.resize(n);
  std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
  for (size_t i = 0; i < n; ++i) {
    const core::Statement& stmt = program.statements[i];
    std::vector<size_t>& bucket = by_hash[StatementIdentityHash(stmt)];
    bool found = false;
    for (size_t d : bucket) {
      if (IdenticalStatements(out.distinct.statements[d], stmt)) {
        out.duplicate_of[i] = static_cast<int64_t>(out.original_index[d]);
        out.distinct_index[i] = d;
        found = true;
        break;
      }
    }
    if (found) continue;
    const size_t d = out.distinct.statements.size();
    bucket.push_back(d);
    out.distinct.statements.push_back(stmt);
    out.distinct_index[i] = d;
    out.original_index.push_back(i);
  }
  return out;
}

/// The certificate's identity of the original program: FNV-1a over the
/// distinct statements' canonical DSL followed by the `duplicate_of` array
/// as the certificate prints it — exactly what the original is rebuilt
/// from, so a `duplicate_of` entry naming another statement changes it.
uint64_t OriginalProgramHash(const std::string& distinct_dsl,
                             const std::string& duplicate_of_json) {
  return Fnv1a(duplicate_of_json, Fnv1a(distinct_dsl));
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

bool ParseIntArrayField(const std::string& json, const std::string& key,
                        std::vector<int64_t>* out) {
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
    const bool negative = json[pos] == '-';
    if (negative) ++pos;
    int64_t value = 0;
    bool any = false;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
      if (value > (INT64_MAX - 9) / 10) return false;
      value = value * 10 + (json[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any) return false;
    out->push_back(negative ? -value : value);
  }
  return pos < json.size();
}

bool ParseIndexArrayField(const std::string& json, const std::string& key,
                          std::vector<size_t>* out) {
  std::vector<int64_t> values;
  if (!ParseIntArrayField(json, key, &values)) return false;
  out->clear();
  for (int64_t v : values) {
    if (v < 0) return false;
    out->push_back(static_cast<size_t>(v));
  }
  return true;
}

template <typename T>
std::string JoinIndices(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

constexpr const char* kCertificateFormat =
    "guardrail-minimization-certificate-v2";
// The superseded format, which embedded every original statement's text.
constexpr const char* kCertificateFormatV1 =
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

  // Every later copy of a statement goes first: its proof is identity with
  // the first occurrence, which stays active until the lattice below runs.
  const HashConsedProgram consed = HashCons(program);
  const core::Program& distinct = consed.distinct;
  const size_t m = distinct.statements.size();
  for (size_t i = 0; i < n; ++i) {
    if (consed.duplicate_of[i] == kFirstOccurrence) continue;
    res.dropped.push_back(i);
    res.impliers.push_back({static_cast<size_t>(consed.duplicate_of[i])});
  }

  // Weakest candidates first: a statement with a larger determinant set (a
  // more specific restatement) or lower observed support should fall before
  // the general, hot statement that implies it — keeping the survivors the
  // ones worth probing. Index descending as the final tiebreak keeps the
  // first member of an equivalence class (e.g. duplicates modulo metadata)
  // alive. Distinct indices follow original order, so this is the order the
  // candidates would have over the whole program.
  std::vector<size_t> candidates(m);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  std::sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
    const auto& sa = distinct.statements[a];
    const auto& sb = distinct.statements[b];
    if (sa.determinants.size() != sb.determinants.size()) {
      return sa.determinants.size() > sb.determinants.size();
    }
    const int64_t wa = TotalSupport(sa);
    const int64_t wb = TotalSupport(sb);
    if (wa != wb) return wa < wb;
    return a > b;
  });

  std::vector<char> active(m, 1);
  for (size_t j : candidates) {
    ImplicationProof proof = StatementImpliedBy(distinct, j, active);
    if (!proof.implied) continue;
    active[j] = 0;
    res.dropped.push_back(consed.original_index[j]);
    // original_index is increasing, so the mapped impliers stay sorted.
    for (size_t& k : proof.impliers) k = consed.original_index[k];
    res.impliers.push_back(std::move(proof.impliers));
  }

  std::vector<size_t> survivors;
  for (size_t d = 0; d < m; ++d) {
    if (active[d]) survivors.push_back(d);
  }
  if (options.reorder) {
    // Dominance order: the statements that matched the most training rows
    // go first, so the compiled engine's first-match probes and the
    // interpreter's statement loop hit the hot constraint earliest.
    std::stable_sort(survivors.begin(), survivors.end(),
                     [&](size_t a, size_t b) {
                       const int64_t wa = TotalSupport(distinct.statements[a]);
                       const int64_t wb = TotalSupport(distinct.statements[b]);
                       if (wa != wb) return wa > wb;
                       return a < b;
                     });
  }
  for (size_t d : survivors) {
    core::Statement stmt = distinct.statements[d];
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
    res.order.push_back(consed.original_index[d]);
  }
  res.statements_after = static_cast<int64_t>(res.program.statements.size());
  res.branches_after = res.program.NumBranches();

  // ---- Sampled replay (emit-side check + checksum for the certificate).
  // Copies never change a verdict, so the distinct statements stand in for
  // the original.
  std::vector<int64_t> domains;
  {
    const size_t width =
        std::max(static_cast<size_t>(schema.num_attributes()),
                 core::Interpreter(&distinct).MinRowWidth());
    for (size_t a = 0; a < width; ++a) {
      domains.push_back(a < static_cast<size_t>(schema.num_attributes())
                            ? schema.attribute(static_cast<AttrIndex>(a))
                                  .domain_size()
                            : 2);
    }
  }
  const uint64_t sample_rows =
      static_cast<uint64_t>(std::max<int64_t>(0, options.sample_rows));
  uint64_t checksum = 0;
  const int64_t diverged = ReplaySample(distinct, res.program, domains,
                                        options.sample_seed, sample_rows,
                                        &checksum);
  if (diverged >= 0) {
    return Status::Internal(
        "minimization produced a verdict divergence on sampled row " +
        std::to_string(diverged) +
        " (implication engine bug); refusing to emit a certificate");
  }

  // ---- Certificate assembly.
  const std::string distinct_dsl = core::ToDsl(distinct, schema);
  const std::string duplicate_of = JoinIndices(consed.duplicate_of);
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
  cert += "  \"original_hash\": \"" +
          HashHex(OriginalProgramHash(distinct_dsl, duplicate_of)) +
          "\",\n";
  cert += "  \"minimized_hash\": \"" + HashHex(Fnv1a(minimized_dsl)) + "\",\n";
  cert += "  \"original_statements\": " + std::to_string(n) + ",\n";
  cert += "  \"distinct_statements\": " + std::to_string(m) + ",\n";
  cert += "  \"minimized_statements\": " +
          std::to_string(res.statements_after) + ",\n";
  cert += "  \"duplicate_of\": " + duplicate_of + ",\n";
  cert += "  \"dropped\": " + JoinIndices(res.dropped) + ",\n";
  cert += "  \"impliers\": \"";
  AppendEscaped(impliers_flat, &cert);
  cert += "\",\n";
  cert += "  \"order\": " + JoinIndices(res.order) + ",\n";
  cert += "  \"sample_seed\": " + std::to_string(options.sample_seed) + ",\n";
  cert += "  \"sample_rows\": " + std::to_string(options.sample_rows) + ",\n";
  cert += "  \"sample_domains\": " + JoinIndices(domains) + ",\n";
  cert += "  \"verdict_checksum\": \"" + HashHex(checksum) + "\",\n";
  cert += "  \"distinct_dsl\": \"";
  AppendEscaped(distinct_dsl, &cert);
  cert += "\"\n}\n";
  res.certificate = std::move(cert);
  return res;
}

Status VerifyCertificate(const std::string& certificate_json,
                         const core::Program& minimized,
                         const Schema& schema) {
  std::string format;
  if (!ParseStringField(certificate_json, "format", &format)) {
    return Status::InvalidArgument("certificate: missing or unknown format");
  }
  if (format == kCertificateFormatV1) {
    return Status::InvalidArgument(
        std::string("certificate: format ") + kCertificateFormatV1 +
        " is no longer accepted; re-run `guardrail analyze --minimize` to "
        "issue a " + kCertificateFormat + " certificate");
  }
  if (format != kCertificateFormat) {
    return Status::InvalidArgument("certificate: missing or unknown format");
  }
  std::string original_hash;
  std::string minimized_hash;
  std::string impliers_flat;
  std::string verdict_checksum;
  std::string distinct_dsl;
  uint64_t original_statements = 0;
  uint64_t sample_seed = 0;
  uint64_t sample_rows = 0;
  std::vector<int64_t> duplicate_of;
  std::vector<size_t> dropped;
  std::vector<size_t> order;
  std::vector<size_t> sample_domains;
  if (!ParseStringField(certificate_json, "original_hash", &original_hash) ||
      !ParseStringField(certificate_json, "minimized_hash", &minimized_hash) ||
      !ParseStringField(certificate_json, "impliers", &impliers_flat) ||
      !ParseStringField(certificate_json, "verdict_checksum",
                        &verdict_checksum) ||
      !ParseStringField(certificate_json, "distinct_dsl", &distinct_dsl) ||
      !ParseUintField(certificate_json, "original_statements",
                      &original_statements) ||
      !ParseUintField(certificate_json, "sample_seed", &sample_seed) ||
      !ParseUintField(certificate_json, "sample_rows", &sample_rows) ||
      !ParseIntArrayField(certificate_json, "duplicate_of", &duplicate_of) ||
      !ParseIndexArrayField(certificate_json, "dropped", &dropped) ||
      !ParseIndexArrayField(certificate_json, "order", &order) ||
      !ParseIndexArrayField(certificate_json, "sample_domains",
                            &sample_domains)) {
    return Status::InvalidArgument("certificate: malformed field(s)");
  }

  // The embedded distinct statements are the certificate's ground truth;
  // parse them against a scratch copy of the schema (the parser may extend
  // domains for literals this schema instance has not seen).
  Schema scratch = schema;
  Result<core::Program> parsed = core::ParseProgram(distinct_dsl, &scratch);
  if (!parsed.ok()) {
    return Status::InvalidArgument(
        "certificate: embedded distinct statements do not parse: " +
        parsed.status().ToString());
  }
  const core::Program distinct = std::move(*parsed);
  const size_t m = distinct.statements.size();

  // duplicate_of rebuilds the original: every entry is a first occurrence
  // or names an earlier first occurrence.
  const size_t n = duplicate_of.size();
  if (n != original_statements) {
    return Status::InvalidArgument(
        "certificate: duplicate_of does not cover the original statements");
  }
  if (std::count(duplicate_of.begin(), duplicate_of.end(), kFirstOccurrence) !=
      static_cast<std::ptrdiff_t>(m)) {
    return Status::InvalidArgument(
        "certificate: duplicate_of first occurrences do not match the "
        "embedded distinct statements");
  }
  std::vector<size_t> distinct_index(n);
  size_t firsts = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t d = duplicate_of[i];
    if (d == kFirstOccurrence) {
      distinct_index[i] = firsts++;
      continue;
    }
    const std::string at = "certificate: duplicate_of[" + std::to_string(i) +
                           "] = " + std::to_string(d);
    if (d < 0 || static_cast<uint64_t>(d) >= n) {
      return Status::InvalidArgument(at + " is out of range");
    }
    if (static_cast<size_t>(d) == i) {
      return Status::InvalidArgument(at + " points at itself");
    }
    if (static_cast<size_t>(d) > i) {
      return Status::InvalidArgument(at + " points at a later statement");
    }
    if (duplicate_of[static_cast<size_t>(d)] != kFirstOccurrence) {
      return Status::InvalidArgument(at + " is not a first occurrence");
    }
    distinct_index[i] = distinct_index[static_cast<size_t>(d)];
  }

  // The rebuilt original must be the program the certificate was issued
  // for: a duplicate_of entry naming a different statement changes it.
  if (HashHex(OriginalProgramHash(core::ToDsl(distinct, scratch),
                                  JoinIndices(duplicate_of))) !=
      original_hash) {
    return Status::InvalidArgument(
        "certificate: original program hash mismatch");
  }
  if (HashHex(Fnv1a(core::ToDsl(minimized, scratch))) != minimized_hash) {
    return Status::InvalidArgument(
        "certificate: minimized program hash mismatch (program is not the "
        "one this certificate covers)");
  }

  // dropped + order must partition the original's statement indices.
  std::vector<char> seen(n, 0);
  for (size_t j : dropped) {
    if (j >= n || seen[j]) {
      return Status::InvalidArgument("certificate: bad dropped index");
    }
    seen[j] = 1;
  }
  for (size_t j : order) {
    if (j >= n || seen[j] || duplicate_of[j] != kFirstOccurrence) {
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
    const core::Statement& orig_stmt =
        distinct.statements[distinct_index[order[i]]];
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

  // Re-derive every drop claim in drop order — the certificate's listed
  // impliers are informative; the proof is redone from scratch against the
  // statements still standing. A copy's proof is its first occurrence,
  // which must still stand; a first occurrence's proof is the implication
  // engine over the other distinct statements still standing.
  std::vector<char> active(m, 1);
  for (size_t j : dropped) {
    const size_t d = distinct_index[j];
    if (duplicate_of[j] != kFirstOccurrence) {
      if (!active[d]) {
        return Status::InvalidArgument(
            "certificate: drop of duplicate statement " + std::to_string(j) +
            " follows the drop of its first occurrence; refusing");
      }
      continue;
    }
    ImplicationProof proof = StatementImpliedBy(distinct, d, active);
    if (!proof.implied) {
      return Status::InvalidArgument(
          "certificate: drop of statement " + std::to_string(j) +
          " is not derivable; refusing");
    }
    active[d] = 0;
  }

  // Sampled interpreter replay: the end-to-end behavioral check.
  std::vector<int64_t> domains(sample_domains.begin(), sample_domains.end());
  const size_t need = std::max(core::Interpreter(&distinct).MinRowWidth(),
                               core::Interpreter(&minimized).MinRowWidth());
  if (domains.size() < need) {
    return Status::InvalidArgument(
        "certificate: sample_domains narrower than the programs");
  }
  uint64_t checksum = 0;
  const int64_t diverged = ReplaySample(distinct, minimized, domains,
                                        sample_seed, sample_rows, &checksum);
  if (diverged >= 0) {
    return Status::InvalidArgument(
        "certificate: verdict divergence on sampled row " +
        std::to_string(diverged));
  }
  if (HashHex(checksum) != verdict_checksum) {
    return Status::InvalidArgument("certificate: verdict checksum mismatch");
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
