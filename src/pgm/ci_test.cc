#include "pgm/ci_test.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"

namespace guardrail {
namespace pgm {

namespace {

/// One stratum of the hash fallback: a dense kx-by-ky contingency table for
/// rows sharing one conditioning-set key.
struct Stratum {
  std::vector<int64_t> counts;  // kx * ky
  int64_t total = 0;
};

/// Per-thread contingency scratch, reused across Test() calls so the steady
/// state performs no allocations (vectors and hash buckets keep their
/// capacity). Thread-local because PC runs many tests concurrently on the
/// same GSquareTest instance.
struct CiScratch {
  std::vector<int64_t> dense_counts;   // strata * kx * ky
  std::vector<int64_t> dense_totals;   // strata
  G2Scratch margins;
  std::unordered_map<uint64_t, Stratum> strata;
  std::vector<uint64_t> ordered_keys;
};

CiScratch& GetCiScratch() {
  static thread_local CiScratch scratch;
  return scratch;
}

/// The power heuristic on the *full* degrees of freedom: with too few
/// samples per cell the test has no power to reject, so the pair reads
/// "independent, not reliable" (the PC convention for untestable pairs).
bool Underpowered(int64_t n, double full_dof,
                  const GSquareTest::Options& options) {
  return full_dof <= 0.0 ||
         static_cast<double>(n) < options.min_samples_per_dof * full_dof;
}

CiResult Verdict(double g2, double dof, const GSquareTest::Options& options) {
  CiResult result;
  result.statistic = g2;
  result.dof = dof;
  if (dof <= 0.0) {
    result.reliable = false;
    return result;
  }
  result.p_value = ChiSquareSurvival(g2, dof);
  result.independent = result.p_value >= options.alpha;
  return result;
}

}  // namespace

void G2FromCounts(const int64_t* counts, int64_t total, int32_t rows,
                  int32_t cols, G2Scratch* scratch, double* g2, double* dof) {
  if (total < 2) return;
  std::vector<int64_t>& row_margin = scratch->row_margin;
  std::vector<int64_t>& col_margin = scratch->col_margin;
  row_margin.assign(static_cast<size_t>(rows), 0);
  col_margin.assign(static_cast<size_t>(cols), 0);
  for (int32_t i = 0; i < rows; ++i) {
    for (int32_t j = 0; j < cols; ++j) {
      int64_t c = counts[static_cast<size_t>(i) * cols + j];
      row_margin[static_cast<size_t>(i)] += c;
      col_margin[static_cast<size_t>(j)] += c;
    }
  }
  int32_t nonzero_rows = 0, nonzero_cols = 0;
  for (int64_t m : row_margin) nonzero_rows += m > 0 ? 1 : 0;
  for (int64_t m : col_margin) nonzero_cols += m > 0 ? 1 : 0;
  if (nonzero_rows < 2 || nonzero_cols < 2) return;

  for (int32_t i = 0; i < rows; ++i) {
    if (row_margin[static_cast<size_t>(i)] == 0) continue;
    for (int32_t j = 0; j < cols; ++j) {
      int64_t obs = counts[static_cast<size_t>(i) * cols + j];
      if (obs == 0) continue;
      double expected =
          static_cast<double>(row_margin[static_cast<size_t>(i)]) *
          static_cast<double>(col_margin[static_cast<size_t>(j)]) /
          static_cast<double>(total);
      *g2 += 2.0 * static_cast<double>(obs) *
             std::log(static_cast<double>(obs) / expected);
    }
  }
  *dof += static_cast<double>(nonzero_rows - 1) *
          static_cast<double>(nonzero_cols - 1);
}

CiResult GSquareTest::MarginalFromCounts(const int64_t* counts, int64_t total,
                                         int32_t rows, int32_t cols,
                                         int64_t num_rows, int32_t card_x,
                                         int32_t card_y,
                                         const Options& options) {
  const double full_dof =
      static_cast<double>(card_x - 1) * static_cast<double>(card_y - 1);
  if (Underpowered(num_rows, full_dof, options)) {
    CiResult result;
    result.reliable = false;
    return result;
  }
  G2Scratch scratch;
  double g2 = 0.0;
  double dof = 0.0;
  G2FromCounts(counts, total, rows, cols, &scratch, &g2, &dof);
  return Verdict(g2, dof, options);
}

GSquareTest::GSquareTest(const EncodedData* data, Options options)
    : data_(data), options_(options) {
  GUARDRAIL_CHECK(data != nullptr);
  PackBitPlanes();
}

void GSquareTest::PackBitPlanes() {
  for (int32_t card : data_->cardinalities) {
    if (card != 2) return;
  }
  const int64_t n = data_->num_rows;
  const int64_t words = (n + 63) / 64;
  std::vector<uint64_t> planes(
      static_cast<size_t>(words) * data_->columns.size(), 0);
  for (size_t c = 0; c < data_->columns.size(); ++c) {
    const std::vector<ValueId>& column = data_->columns[c];
    uint64_t* plane = planes.data() + c * static_cast<size_t>(words);
    for (int64_t r = 0; r < n; ++r) {
      const ValueId v = column[static_cast<size_t>(r)];
      if (v != 0 && v != 1) return;  // NULL or past 1: scalar paths only.
      plane[r / 64] |= static_cast<uint64_t>(v) << (r % 64);
    }
  }
  planes_ = std::move(planes);
  words_ = words;
  bit_sliced_ = true;
}

namespace {

/// The word loop behind both CountBitSlices builds, inlined into each so the
/// POPCNT build's popcounts become single instructions (a default x86-64
/// build turns each into a library call).
[[gnu::always_inline]] inline void CountBitSlicesBody(
    const uint64_t* px, const uint64_t* py, const uint64_t* const* pz,
    size_t num_z, int64_t words, int64_t tail_bits, BitSliceCounts* counts) {
  const size_t num_strata = size_t{1} << num_z;
  BitSliceCounts c;  // Local, so the adds cannot alias the planes.
  std::array<uint64_t, BitSliceCounts::kMaxStrata> masks{};
  for (int64_t w = 0; w < words; ++w) {
    masks[0] = (w + 1 < words || tail_bits == 0)
                   ? ~uint64_t{0}
                   : (uint64_t{1} << tail_bits) - 1;
    // Split every stratum on z[i]: stratum j becomes 2j (z[i] = 0) and
    // 2j + 1 (z[i] = 1), so the final index is the scalar paths' radix key
    // (z[0] most significant). Descending j reads each mask before its
    // slot is overwritten.
    for (size_t i = 0; i < num_z; ++i) {
      const uint64_t zw = pz[i][w];
      for (size_t j = size_t{1} << i; j-- > 0;) {
        const uint64_t m = masks[j];
        masks[2 * j + 1] = m & zw;
        masks[2 * j] = m & ~zw;
      }
    }
    const uint64_t xw = px[w];
    const uint64_t yw = py[w];
    const uint64_t xyw = xw & yw;
    for (size_t s = 0; s < num_strata; ++s) {
      const uint64_t m = masks[s];
      c.n_all[s] += __builtin_popcountll(m);
      c.n_x[s] += __builtin_popcountll(m & xw);
      c.n_y[s] += __builtin_popcountll(m & yw);
      c.n_xy[s] += __builtin_popcountll(m & xyw);
    }
  }
  *counts = c;
}

}  // namespace

void CountBitSlicesPortable(const uint64_t* px, const uint64_t* py,
                            const uint64_t* const* pz, size_t num_z,
                            int64_t words, int64_t tail_bits,
                            BitSliceCounts* counts) {
  CountBitSlicesBody(px, py, pz, num_z, words, tail_bits, counts);
}

// A plain target attribute, chosen through a function pointer: an ifunc
// (target_clones) resolver runs before the sanitizer runtimes are up and
// crashes TSan binaries at load.
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("popcnt"))) void CountBitSlicesPopcnt(
    const uint64_t* px, const uint64_t* py, const uint64_t* const* pz,
    size_t num_z, int64_t words, int64_t tail_bits, BitSliceCounts* counts) {
  CountBitSlicesBody(px, py, pz, num_z, words, tail_bits, counts);
}

bool CpuHasPopcnt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt");
}
#else
void CountBitSlicesPopcnt(const uint64_t* px, const uint64_t* py,
                          const uint64_t* const* pz, size_t num_z,
                          int64_t words, int64_t tail_bits,
                          BitSliceCounts* counts) {
  CountBitSlicesBody(px, py, pz, num_z, words, tail_bits, counts);
}

bool CpuHasPopcnt() { return false; }
#endif

CiResult GSquareTest::BitSlicedTest(int32_t x, int32_t y,
                                    const std::vector<int32_t>& z) const {
  using CountFn = void (*)(const uint64_t*, const uint64_t*,
                           const uint64_t* const*, size_t, int64_t, int64_t,
                           BitSliceCounts*);
  static const CountFn count_bit_slices =
      CpuHasPopcnt() ? CountBitSlicesPopcnt : CountBitSlicesPortable;
  static_assert(BitSliceCounts::kMaxStrata ==
                size_t{1} << kMaxBitSlicedConditions);
  const size_t num_z = z.size();
  auto plane = [&](int32_t c) {
    return planes_.data() + static_cast<size_t>(c) * static_cast<size_t>(words_);
  };
  std::array<const uint64_t*, kMaxBitSlicedConditions> pz{};
  for (size_t i = 0; i < num_z; ++i) pz[i] = plane(z[i]);
  BitSliceCounts c;
  count_bit_slices(plane(x), plane(y), pz.data(), num_z, words_,
                   data_->num_rows % 64, &c);

  G2Scratch& margins = GetCiScratch().margins;
  double g2 = 0.0;
  double dof = 0.0;
  for (size_t s = 0; s < (size_t{1} << num_z); ++s) {
    // The dense path's row-major 2 x 2 table, cell vx * 2 + vy.
    const std::array<int64_t, 4> counts = {
        c.n_all[s] - c.n_x[s] - c.n_y[s] + c.n_xy[s], c.n_y[s] - c.n_xy[s],
        c.n_x[s] - c.n_xy[s], c.n_xy[s]};
    G2FromCounts(counts.data(), c.n_all[s], 2, 2, &margins, &g2, &dof);
  }
  return Verdict(g2, dof, options_);
}

CiResult GSquareTest::Test(int32_t x, int32_t y,
                           const std::vector<int32_t>& z) const {
  num_tests_.fetch_add(1, std::memory_order_relaxed);
  const int64_t n = data_->num_rows;
  const int32_t kx = data_->cardinalities[static_cast<size_t>(x)];
  const int32_t ky = data_->cardinalities[static_cast<size_t>(y)];

  double full_dof = static_cast<double>(kx - 1) * static_cast<double>(ky - 1);
  for (int32_t zi : z) {
    full_dof *= static_cast<double>(
        data_->cardinalities[static_cast<size_t>(zi)]);
    if (full_dof > 1e15) break;  // Saturate; certainly unreliable.
  }
  if (Underpowered(n, full_dof, options_)) {
    CiResult result;
    result.reliable = false;
    return result;
  }

  if (bit_sliced_ && z.size() <= kMaxBitSlicedConditions) {
    return BitSlicedTest(x, y, z);
  }

  const auto& cx = data_->columns[static_cast<size_t>(x)];
  const auto& cy = data_->columns[static_cast<size_t>(y)];
  const int64_t table_cells = static_cast<int64_t>(kx) * ky;

  // Number of distinct conditioning-set keys under the radix encoding
  // (saturating so the dense-path gate cannot overflow).
  int64_t num_strata = 1;
  for (int32_t zi : z) {
    int64_t card = data_->cardinalities[static_cast<size_t>(zi)];
    if (num_strata > (int64_t{1} << 62) / std::max<int64_t>(1, card)) {
      num_strata = int64_t{1} << 62;
      break;
    }
    num_strata *= card;
  }

  // Dense path when the whole strata * kx * ky cube is small — the common
  // case on auxiliary (binary) data, where it is a few dozen cells. The
  // 4n guard skips the dense path when the cube is much larger than the
  // data (zeroing mostly-empty cells would dominate). Both conditions
  // depend only on the data, never on the calling thread, so the chosen
  // path — and the bit-exact result — is identical for any thread count.
  const bool dense =
      num_strata <= options_.max_dense_cells / std::max<int64_t>(1, table_cells) &&
      num_strata * table_cells <= 4 * n + 1024;

  CiScratch& scratch = GetCiScratch();

  double g2 = 0.0;
  double dof = 0.0;

  if (dense) {
    scratch.dense_counts.assign(
        static_cast<size_t>(num_strata * table_cells), 0);
    scratch.dense_totals.assign(static_cast<size_t>(num_strata), 0);
    for (int64_t r = 0; r < n; ++r) {
      ValueId vx = cx[static_cast<size_t>(r)];
      ValueId vy = cy[static_cast<size_t>(r)];
      if (vx == kNullValue || vy == kNullValue) continue;
      uint64_t key = 0;
      bool null_in_z = false;
      for (int32_t zi : z) {
        ValueId vz =
            data_->columns[static_cast<size_t>(zi)][static_cast<size_t>(r)];
        if (vz == kNullValue) {
          null_in_z = true;
          break;
        }
        key = key * static_cast<uint64_t>(
                        data_->cardinalities[static_cast<size_t>(zi)]) +
              static_cast<uint64_t>(vz);
      }
      if (null_in_z) continue;
      ++scratch.dense_counts[key * static_cast<uint64_t>(table_cells) +
                             static_cast<uint64_t>(vx) *
                                 static_cast<uint64_t>(ky) +
                             static_cast<uint64_t>(vy)];
      ++scratch.dense_totals[key];
    }
    for (int64_t s = 0; s < num_strata; ++s) {
      G2FromCounts(scratch.dense_counts.data() + s * table_cells,
                   scratch.dense_totals[static_cast<size_t>(s)], kx, ky,
                   &scratch.margins, &g2, &dof);
    }
  } else {
    // Hash fallback: stratify rows by the conditioning-set key; each stratum
    // keeps a dense kx-by-ky contingency table. The map is reused across
    // calls, so its bucket layout depends on this thread's history — strata
    // are therefore summed in sorted-key order, keeping the floating-point
    // accumulation identical no matter which thread runs the test.
    auto& strata = scratch.strata;
    strata.clear();
    for (int64_t r = 0; r < n; ++r) {
      ValueId vx = cx[static_cast<size_t>(r)];
      ValueId vy = cy[static_cast<size_t>(r)];
      if (vx == kNullValue || vy == kNullValue) continue;
      uint64_t key = 0;
      bool null_in_z = false;
      for (int32_t zi : z) {
        ValueId vz =
            data_->columns[static_cast<size_t>(zi)][static_cast<size_t>(r)];
        if (vz == kNullValue) {
          null_in_z = true;
          break;
        }
        key = key * static_cast<uint64_t>(
                        data_->cardinalities[static_cast<size_t>(zi)]) +
              static_cast<uint64_t>(vz);
      }
      if (null_in_z) continue;
      Stratum& s = strata[key];
      if (s.counts.empty()) {
        s.counts.assign(static_cast<size_t>(table_cells), 0);
      }
      ++s.counts[static_cast<size_t>(vx) * static_cast<size_t>(ky) +
                 static_cast<size_t>(vy)];
      ++s.total;
    }
    scratch.ordered_keys.clear();
    scratch.ordered_keys.reserve(strata.size());
    for (const auto& [key, s] : strata) scratch.ordered_keys.push_back(key);
    std::sort(scratch.ordered_keys.begin(), scratch.ordered_keys.end());
    for (uint64_t key : scratch.ordered_keys) {
      const Stratum& s = strata[key];
      G2FromCounts(s.counts.data(), s.total, kx, ky, &scratch.margins, &g2,
                   &dof);
    }
  }

  return Verdict(g2, dof, options_);
}

}  // namespace pgm
}  // namespace guardrail
