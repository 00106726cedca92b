#ifndef GUARDRAIL_PGM_CI_TEST_H_
#define GUARDRAIL_PGM_CI_TEST_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "pgm/encoded_data.h"

namespace guardrail {
namespace pgm {

/// Outcome of one conditional-independence test.
struct CiResult {
  /// True when the test could not reject independence (or lacked the power
  /// to test at all — see `reliable`).
  bool independent = true;
  double p_value = 1.0;
  double statistic = 0.0;
  double dof = 0.0;
  /// False when the heuristic sample-size requirement failed; the caller
  /// (PC) then treats the pair as independent, which on sparse
  /// high-cardinality raw data collapses the learned structure — exactly the
  /// failure mode the auxiliary sampler exists to fix (paper Table 8).
  bool reliable = true;
};

/// Margin scratch for G2FromCounts, reused across calls.
struct G2Scratch {
  std::vector<int64_t> row_margin;
  std::vector<int64_t> col_margin;
};

/// The one G² kernel. Adds the likelihood-ratio statistic and degrees of
/// freedom of one dense row-major `rows` x `cols` contingency table, whose
/// counts sum to `total`, to *g2 and *dof: sum 2 * obs * ln(obs / expected)
/// over non-zero cells, dof (non-empty rows - 1) * (non-empty columns - 1).
/// A table with fewer than two non-empty rows or columns adds nothing.
/// GSquareTest sums it over the strata of a conditioning set; the drift
/// detector runs it on cell-major K x 2 {baseline, window} tables.
void G2FromCounts(const int64_t* counts, int64_t total, int32_t rows,
                  int32_t cols, G2Scratch* scratch, double* g2, double* dof);

/// G-squared (likelihood-ratio) conditional-independence test on categorical
/// data, the standard test driving the PC algorithm.
///
/// When every column of the data is binary and NULL-free (every auxiliary
/// sample, Def. 4.5), the constructor packs each column once into 64-row
/// bit planes and Test() counts each stratum of a conditioning set of at
/// most kMaxBitSlicedConditions variables with popcounts; other data and
/// larger conditioning sets take the scalar dense and hash paths. All paths
/// build the same per-stratum tables and sum them in ascending key order, so
/// statistic, dof and verdict are bit-identical whichever ran. The data is
/// read at construction and must not change while the test is in use.
///
/// Test() is safe to call concurrently from multiple threads on the same
/// instance: the contingency scratch lives in thread-local storage (reused
/// across calls, so the steady state allocates nothing), the bit planes are
/// read-only, and the test counter is a relaxed atomic.
class GSquareTest {
 public:
  struct Options {
    /// Significance level; p < alpha rejects independence.
    double alpha = 0.01;
    /// Power heuristic: require at least this many samples per degree of
    /// freedom (bnlearn-style); otherwise the test is unreliable.
    double min_samples_per_dof = 5.0;
    /// When the conditioning-set cardinality product times kx*ky stays at or
    /// under this many cells, strata live in one dense array indexed by the
    /// radix key (the common case: one row pass, no hashing); larger
    /// products fall back to a hash map keyed by the same radix encoding.
    /// Both paths visit strata in ascending key order, so the G² floating
    /// sum — and hence the verdict — does not depend on which path ran.
    int64_t max_dense_cells = int64_t{1} << 20;
  };

  /// Conditioning sets up to this size (16 strata) are counted on the bit
  /// planes; PC's default max_condition_size of 3 stays within it.
  static constexpr size_t kMaxBitSlicedConditions = 4;

  GSquareTest(const EncodedData* data, Options options);

  /// Tests x independent-of y given the conditioning set z. Thread-safe.
  CiResult Test(int32_t x, int32_t y, const std::vector<int32_t>& z) const;

  /// True when the data packed into bit planes (every column binary and
  /// NULL-free), so tests with small conditioning sets count by popcount.
  bool bit_sliced() const { return bit_sliced_; }

  int64_t num_tests_run() const {
    return num_tests_.load(std::memory_order_relaxed);
  }

  /// Test(x, y, {}) answered from counts instead of rows: `counts` is the
  /// dense row-major `rows` x `cols` table of (x, y) values over the rows
  /// where both are non-NULL, `total` of them. The power heuristic reads
  /// `num_rows` (every row, NULLs included) and the attributes' full
  /// cardinalities `card_x` / `card_y`, as Test does. The result is
  /// bit-identical to Test over the rows behind the counts.
  static CiResult MarginalFromCounts(const int64_t* counts, int64_t total,
                                     int32_t rows, int32_t cols,
                                     int64_t num_rows, int32_t card_x,
                                     int32_t card_y, const Options& options);

 private:
  /// Packs every column into `planes_` when all are binary and NULL-free.
  void PackBitPlanes();
  /// Test() for |z| <= kMaxBitSlicedConditions, counted on the bit planes
  /// (after the power heuristic passed).
  CiResult BitSlicedTest(int32_t x, int32_t y,
                         const std::vector<int32_t>& z) const;

  const EncodedData* data_;
  Options options_;
  /// Column c's rows, 64 per word (row r at bit r % 64 of word r / 64), at
  /// planes_[c * words_, (c + 1) * words_); bits past the last row are 0.
  std::vector<uint64_t> planes_;
  int64_t words_ = 0;
  bool bit_sliced_ = false;
  mutable std::atomic<int64_t> num_tests_{0};
};

}  // namespace pgm
}  // namespace guardrail

#endif  // GUARDRAIL_PGM_CI_TEST_H_
