#ifndef GUARDRAIL_CORE_SKETCH_H_
#define GUARDRAIL_CORE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "pgm/dag.h"
#include "table/schema.h"
#include "table/value.h"

namespace guardrail {
namespace core {

/// The sketch language of paper Fig. 3: a statement with the HAVING clause
/// left as a hole.
struct StatementSketch {
  std::vector<AttrIndex> determinants;  // GIVEN
  AttrIndex dependent = 0;              // ON

  bool operator==(const StatementSketch& other) const {
    return determinants == other.determinants &&
           dependent == other.dependent;
  }
  bool operator<(const StatementSketch& other) const {
    if (dependent != other.dependent) return dependent < other.dependent;
    return determinants < other.determinants;
  }
};

/// FNV-1a over (dependent, determinants) — the statement cache's key hash.
/// Usable as the Hash template argument of unordered containers.
struct StatementSketchHash {
  size_t operator()(const StatementSketch& sketch) const {
    const auto dependent = static_cast<uint32_t>(sketch.dependent);
    uint64_t h = FnvMix(kFnvShortOffset, dependent);
    for (AttrIndex a : sketch.determinants) {
      h = FnvMix(h, uint64_t{static_cast<uint32_t>(a)} + 1);
    }
    return static_cast<size_t>(h);
  }
};

struct ProgramSketch {
  std::vector<StatementSketch> statements;

  bool empty() const { return statements.empty(); }
};

/// Derives the program sketch induced by a DAG (Alg. 2 lines 4-9): one
/// statement sketch GIVEN Parents(a) ON a per node with a non-empty parent
/// set. Determinants are sorted.
ProgramSketch SketchFromDag(const pgm::Dag& dag);

/// "GIVEN a, b ON c HAVING []" rendering for diagnostics.
std::string ToString(const StatementSketch& sketch, const Schema& schema);
std::string ToString(const ProgramSketch& sketch, const Schema& schema);

}  // namespace core
}  // namespace guardrail

#endif  // GUARDRAIL_CORE_SKETCH_H_
