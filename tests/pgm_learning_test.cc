#include <gtest/gtest.h>

#include "common/rng.h"
#include "pgm/auxiliary_sampler.h"
#include "pgm/ci_test.h"
#include "pgm/encoded_data.h"
#include "pgm/pc_algorithm.h"
#include "table/sem_generator.h"

namespace guardrail {
namespace pgm {
namespace {

// Builds encoded data for dependent / independent pairs directly.
EncodedData MakePairData(bool dependent, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  EncodedData data;
  data.cardinalities = {3, 3};
  data.columns.assign(2, {});
  data.num_rows = rows;
  for (int64_t i = 0; i < rows; ++i) {
    ValueId x = static_cast<ValueId>(rng.NextUint64(3));
    ValueId y = dependent ? (x + 1) % 3 : static_cast<ValueId>(rng.NextUint64(3));
    data.columns[0].push_back(x);
    data.columns[1].push_back(y);
  }
  return data;
}

TEST(GSquareTest, DetectsDependence) {
  EncodedData data = MakePairData(/*dependent=*/true, 500, 1);
  GSquareTest test(&data, {});
  CiResult r = test.Test(0, 1, {});
  EXPECT_FALSE(r.independent);
  EXPECT_TRUE(r.reliable);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(GSquareTest, AcceptsIndependence) {
  EncodedData data = MakePairData(/*dependent=*/false, 500, 2);
  GSquareTest test(&data, {});
  CiResult r = test.Test(0, 1, {});
  EXPECT_TRUE(r.independent);
  EXPECT_TRUE(r.reliable);
}

TEST(GSquareTest, FalsePositiveRateNearAlpha) {
  // Property sweep: among many independent samples, the rejection rate
  // should hover around alpha.
  int rejections = 0;
  const int trials = 200;
  GSquareTest::Options options;
  options.alpha = 0.05;
  for (int t = 0; t < trials; ++t) {
    EncodedData data = MakePairData(false, 400, 1000 + t);
    GSquareTest test(&data, options);
    rejections += test.Test(0, 1, {}).independent ? 0 : 1;
  }
  EXPECT_LT(rejections, trials * 0.15);
}

TEST(GSquareTest, ConditioningRemovesIndirectDependence) {
  // Chain X -> Z -> Y: X,Y marginally dependent, independent given Z.
  Rng rng(3);
  EncodedData data;
  data.cardinalities = {3, 3, 3};
  data.columns.assign(3, {});
  data.num_rows = 3000;
  for (int64_t i = 0; i < data.num_rows; ++i) {
    ValueId x = static_cast<ValueId>(rng.NextUint64(3));
    // Noisy channel X -> Z.
    ValueId z = rng.NextBernoulli(0.85) ? x : static_cast<ValueId>(rng.NextUint64(3));
    ValueId y = rng.NextBernoulli(0.85) ? (z + 1) % 3
                                        : static_cast<ValueId>(rng.NextUint64(3));
    data.columns[0].push_back(x);
    data.columns[1].push_back(y);
    data.columns[2].push_back(z);
  }
  GSquareTest test(&data, {});
  EXPECT_FALSE(test.Test(0, 1, {}).independent);
  EXPECT_TRUE(test.Test(0, 1, {2}).independent);
  EXPECT_EQ(test.num_tests_run(), 2);
}

TEST(GSquareTest, UnreliableWhenDataTooSparse) {
  // 50 rows, cardinality 10x10 => far below min samples per dof.
  Rng rng(4);
  EncodedData data;
  data.cardinalities = {10, 10};
  data.columns.assign(2, {});
  data.num_rows = 50;
  for (int64_t i = 0; i < 50; ++i) {
    data.columns[0].push_back(static_cast<ValueId>(rng.NextUint64(10)));
    data.columns[1].push_back(static_cast<ValueId>(rng.NextUint64(10)));
  }
  GSquareTest test(&data, {});
  CiResult r = test.Test(0, 1, {});
  EXPECT_TRUE(r.independent);
  EXPECT_FALSE(r.reliable);
}

TEST(GSquareTest, SkipsNullRows) {
  EncodedData data = MakePairData(true, 300, 5);
  // Corrupt some entries to NULL; the test should still reject independence.
  for (int64_t i = 0; i < 30; ++i) data.columns[0][static_cast<size_t>(i)] = kNullValue;
  GSquareTest test(&data, {});
  EXPECT_FALSE(test.Test(0, 1, {}).independent);
}

// Random binary columns where each variable past the first copies an
// earlier one with probability 0.7 (so most tests see real dependence).
EncodedData MakeBinaryData(int64_t rows, int32_t vars, uint64_t seed) {
  Rng rng(seed);
  EncodedData data;
  data.cardinalities.assign(static_cast<size_t>(vars), 2);
  data.columns.assign(static_cast<size_t>(vars), {});
  data.num_rows = rows;
  for (int64_t r = 0; r < rows; ++r) {
    for (int32_t v = 0; v < vars; ++v) {
      ValueId value = static_cast<ValueId>(rng.NextUint64(2));
      if (v > 0 && rng.NextBernoulli(0.7)) {
        value = data.columns[rng.NextUint64(static_cast<uint64_t>(v))].back();
      }
      data.columns[static_cast<size_t>(v)].push_back(value);
    }
  }
  return data;
}

void ExpectSameResult(const CiResult& a, const CiResult& b) {
  EXPECT_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.dof, b.dof);
  EXPECT_EQ(a.p_value, b.p_value);
  EXPECT_EQ(a.independent, b.independent);
  EXPECT_EQ(a.reliable, b.reliable);
}

TEST(GSquareTest, BitSlicedMatchesScalarDense) {
  // The same binary sample with one 3-valued column appended (never tested)
  // runs the scalar dense path; every field must match bit for bit. The
  // permissive options skip the power heuristic so tiny samples still reach
  // the kernel; |z| = 5 is past the bit-sliced gate on both sides.
  constexpr int32_t kVars = 8;
  GSquareTest::Options permissive;
  permissive.min_samples_per_dof = 0.0;
  for (int64_t n : {2, 63, 64, 65, 4097}) {
    EncodedData binary = MakeBinaryData(n, kVars, 500 + static_cast<uint64_t>(n));
    EncodedData mixed = binary;
    mixed.cardinalities.push_back(3);
    mixed.columns.emplace_back();
    for (int64_t r = 0; r < n; ++r) {
      mixed.columns.back().push_back(static_cast<ValueId>(r % 3));
    }
    for (const GSquareTest::Options& options :
         {GSquareTest::Options{}, permissive}) {
      GSquareTest sliced(&binary, options);
      GSquareTest scalar(&mixed, options);
      ASSERT_TRUE(sliced.bit_sliced());
      ASSERT_FALSE(scalar.bit_sliced());
      Rng rng(static_cast<uint64_t>(n));
      for (int32_t x = 0; x < kVars; ++x) {
        for (int32_t y = 0; y < kVars; ++y) {
          if (x == y) continue;
          std::vector<int32_t> rest;
          for (int32_t v = 0; v < kVars; ++v) {
            if (v != x && v != y) rest.push_back(v);
          }
          rng.Shuffle(&rest);
          for (size_t k = 0; k <= 5; ++k) {
            std::vector<int32_t> z(rest.begin(), rest.begin() + k);
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " x=" << x << " y=" << y
                         << " |z|=" << k);
            ExpectSameResult(sliced.Test(x, y, z), scalar.Test(x, y, z));
          }
        }
      }
    }
  }
}

TEST(GSquareTest, PopcntAndPortableWordLoopsCountAlike) {
  if (!CpuHasPopcnt()) GTEST_SKIP() << "CPU reports no POPCNT";
  // Random planes, every conditioning-set size the bit-sliced path takes,
  // and every tail shape: a full last word, one valid bit, 40 valid bits.
  Rng rng(17);
  for (int64_t rows : {64, 65, 1000}) {
    const int64_t words = (rows + 63) / 64;
    std::vector<std::vector<uint64_t>> planes(6);
    for (auto& plane : planes) {
      for (int64_t w = 0; w < words; ++w) plane.push_back(rng.NextUint64());
    }
    const uint64_t* pz[] = {planes[2].data(), planes[3].data(),
                            planes[4].data(), planes[5].data()};
    for (size_t num_z = 0; num_z <= GSquareTest::kMaxBitSlicedConditions;
         ++num_z) {
      BitSliceCounts portable;
      BitSliceCounts popcnt;
      CountBitSlicesPortable(planes[0].data(), planes[1].data(), pz, num_z,
                             words, rows % 64, &portable);
      CountBitSlicesPopcnt(planes[0].data(), planes[1].data(), pz, num_z,
                           words, rows % 64, &popcnt);
      SCOPED_TRACE(::testing::Message() << "rows=" << rows << " |z|=" << num_z);
      EXPECT_EQ(portable.n_all, popcnt.n_all);
      EXPECT_EQ(portable.n_x, popcnt.n_x);
      EXPECT_EQ(portable.n_y, popcnt.n_y);
      EXPECT_EQ(portable.n_xy, popcnt.n_xy);
      int64_t total = 0;
      for (int64_t n : portable.n_all) total += n;
      EXPECT_EQ(total, rows);
    }
  }
}

TEST(GSquareTest, NullOrOutOfRangeCodesKeepTheScalarPath) {
  EncodedData binary = MakeBinaryData(300, 4, 77);
  GSquareTest sliced(&binary, {});
  ASSERT_TRUE(sliced.bit_sliced());

  EncodedData with_null = binary;
  with_null.columns[3][10] = kNullValue;
  GSquareTest null_test(&with_null, {});
  EXPECT_FALSE(null_test.bit_sliced());
  // Column 3 is untested, so its NULL drops no row of these tests.
  ExpectSameResult(null_test.Test(0, 1, {2}), sliced.Test(0, 1, {2}));

  EncodedData with_code_two = binary;
  with_code_two.columns[2][0] = 2;
  GSquareTest code_two_test(&with_code_two, {});
  EXPECT_FALSE(code_two_test.bit_sliced());
}

// ------------------------------------------------------------------- PC --

// A forked SEM: 0 -> 1, 0 -> 2, 3 -> 4 (two components).
SemModel MakeForkSem() {
  std::vector<SemNode> nodes(5);
  nodes[0] = {"a0", 4, {}, 0.0};
  nodes[1] = {"a1", 4, {0}, 0.02};
  nodes[2] = {"a2", 4, {0}, 0.02};
  nodes[3] = {"a3", 4, {}, 0.0};
  nodes[4] = {"a4", 4, {3}, 0.02};
  return SemModel(std::move(nodes), 42);
}

TEST(PcAlgorithmTest, RecoversForkSkeleton) {
  SemModel sem = MakeForkSem();
  Rng rng(6);
  Table data = sem.Sample(4000, &rng);
  PcAlgorithm pc({});
  PcResult result = pc.Run(EncodeIdentity(data));
  const Pdag& g = result.cpdag;
  EXPECT_TRUE(g.IsAdjacent(0, 1));
  EXPECT_TRUE(g.IsAdjacent(0, 2));
  EXPECT_TRUE(g.IsAdjacent(3, 4));
  EXPECT_FALSE(g.IsAdjacent(0, 3));
  EXPECT_FALSE(g.IsAdjacent(1, 2));
  EXPECT_FALSE(g.IsAdjacent(2, 4));
  EXPECT_GT(result.num_ci_tests, 0);
}

TEST(PcAlgorithmTest, OrientsCollider) {
  // 0 -> 2 <- 1 with independent roots: PC must orient the v-structure.
  std::vector<SemNode> nodes(3);
  nodes[0] = {"x", 3, {}, 0.0};
  nodes[1] = {"y", 3, {}, 0.0};
  nodes[2] = {"z", 5, {0, 1}, 0.02};
  SemModel sem(std::move(nodes), 7);
  Rng rng(8);
  Table data = sem.Sample(6000, &rng);
  PcAlgorithm pc({});
  PcResult result = pc.Run(EncodeIdentity(data));
  EXPECT_TRUE(result.cpdag.HasDirectedEdge(0, 2));
  EXPECT_TRUE(result.cpdag.HasDirectedEdge(1, 2));
  EXPECT_FALSE(result.cpdag.IsAdjacent(0, 1));
}

TEST(PcAlgorithmTest, ChainStaysUndirected) {
  // Markov-equivalent chain: CPDAG keeps edges undirected.
  std::vector<SemNode> nodes(3);
  nodes[0] = {"x", 4, {}, 0.0};
  nodes[1] = {"y", 4, {0}, 0.02};
  nodes[2] = {"z", 4, {1}, 0.02};
  SemModel sem(std::move(nodes), 9);
  Rng rng(10);
  Table data = sem.Sample(5000, &rng);
  PcAlgorithm pc({});
  PcResult result = pc.Run(EncodeIdentity(data));
  EXPECT_TRUE(result.cpdag.HasUndirectedEdge(0, 1));
  EXPECT_TRUE(result.cpdag.HasUndirectedEdge(1, 2));
  EXPECT_FALSE(result.cpdag.IsAdjacent(0, 2));
}

TEST(PcAlgorithmTest, SepsetsRecordedForRemovedEdges) {
  SemModel sem = MakeForkSem();
  Rng rng(11);
  Table data = sem.Sample(3000, &rng);
  PcAlgorithm pc({});
  PcResult result = pc.Run(EncodeIdentity(data));
  // 1 and 2 are separated by {0}.
  auto it = result.sepsets.find({1, 2});
  ASSERT_NE(it, result.sepsets.end());
  EXPECT_EQ(it->second, std::vector<int32_t>{0});
}

TEST(PcAlgorithmTest, StructureRecoveryAcrossRandomSems) {
  // Property: across random SEMs, PC on the auxiliary (binary indicator)
  // encoding recovers the bulk of true skeleton edges. Fully deterministic
  // relations are a known pathology for PC on raw data (conditioning on a
  // deterministic ancestor separates everything); the indicator transform
  // softens determinism, which is why the production pipeline learns there.
  Rng master(12);
  int64_t correct = 0, total = 0;
  for (int trial = 0; trial < 5; ++trial) {
    RandomSemOptions opt;
    opt.num_nodes = 8;
    opt.min_cardinality = 3;
    opt.max_cardinality = 5;
    opt.functional_fraction = 1.0;
    SemModel sem = BuildRandomSem(opt, &master);
    Rng rng(100 + trial);
    Table data = sem.Sample(4000, &rng);
    AuxiliarySamplerOptions aux_opt;
    aux_opt.num_shifts = 5;
    EncodedData aux = SampleAuxiliaryDistribution(data, aux_opt, &rng);
    PcAlgorithm pc({});
    PcResult result = pc.Run(aux);
    auto parents = sem.ParentSets();
    for (AttrIndex j = 0; j < sem.num_nodes(); ++j) {
      for (AttrIndex p : parents[static_cast<size_t>(j)]) {
        ++total;
        correct += result.cpdag.IsAdjacent(p, j) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.6);
}

// ---------------------------------------------------- auxiliary sampler --

TEST(AuxiliarySamplerTest, ProducesBinaryColumns) {
  SemModel sem = MakeForkSem();
  Rng rng(13);
  Table data = sem.Sample(500, &rng);
  AuxiliarySamplerOptions opt;
  opt.num_shifts = 3;
  EncodedData aux = SampleAuxiliaryDistribution(data, opt, &rng);
  EXPECT_EQ(aux.num_variables(), data.num_columns());
  EXPECT_EQ(aux.num_rows, 1500);
  for (const auto& col : aux.columns) {
    for (ValueId v : col) EXPECT_TRUE(v == 0 || v == 1);
  }
  for (int32_t card : aux.cardinalities) EXPECT_EQ(card, 2);
}

TEST(AuxiliarySamplerTest, RespectsMaxPairs) {
  SemModel sem = MakeForkSem();
  Rng rng(14);
  Table data = sem.Sample(500, &rng);
  AuxiliarySamplerOptions opt;
  opt.num_shifts = 10;
  opt.max_pairs = 777;
  EncodedData aux = SampleAuxiliaryDistribution(data, opt, &rng);
  EXPECT_EQ(aux.num_rows, 777);
}

TEST(AuxiliarySamplerTest, TinyTableYieldsEmptySample) {
  Schema schema({Attribute("a")});
  Table t(std::move(schema));
  t.AppendRowLabels({"x"});
  Rng rng(15);
  EncodedData aux = SampleAuxiliaryDistribution(t, {}, &rng);
  EXPECT_EQ(aux.num_rows, 0);
}

TEST(AuxiliarySamplerTest, IndicatorSemanticsMatchDefinition) {
  // With shuffle disabled, pairs are (i, i+shift): verify I_k agrees with
  // raw equality (Def. 4.5).
  Schema schema({Attribute("a"), Attribute("b")});
  Table t(std::move(schema));
  t.AppendRowLabels({"x", "p"});
  t.AppendRowLabels({"x", "q"});
  t.AppendRowLabels({"y", "p"});
  AuxiliarySamplerOptions opt;
  opt.num_shifts = 1;
  opt.shuffle = false;
  Rng rng(16);
  EncodedData aux = SampleAuxiliaryDistribution(t, opt, &rng);
  ASSERT_EQ(aux.num_rows, 3);
  // Pairs: (0,1): a equal, b differ; (1,2): both differ; (2,0): a differ, b equal.
  EXPECT_EQ(aux.columns[0][0], 1);
  EXPECT_EQ(aux.columns[1][0], 0);
  EXPECT_EQ(aux.columns[0][1], 0);
  EXPECT_EQ(aux.columns[1][1], 0);
  EXPECT_EQ(aux.columns[0][2], 0);
  EXPECT_EQ(aux.columns[1][2], 1);
}

TEST(AuxiliarySamplerTest, PreservesDependenceStructure) {
  // Prop. 5: indicators of dependent attributes are dependent; of
  // independent attributes, independent.
  SemModel sem = MakeForkSem();
  Rng rng(17);
  Table data = sem.Sample(3000, &rng);
  AuxiliarySamplerOptions opt;
  opt.num_shifts = 5;
  EncodedData aux = SampleAuxiliaryDistribution(data, opt, &rng);
  GSquareTest test(&aux, {});
  EXPECT_FALSE(test.Test(0, 1, {}).independent);   // 0 -> 1 in the SEM.
  EXPECT_FALSE(test.Test(3, 4, {}).independent);   // 3 -> 4 in the SEM.
  EXPECT_TRUE(test.Test(0, 3, {}).independent);    // Separate components.
  EXPECT_TRUE(test.Test(1, 4, {}).independent);
}

TEST(AuxiliarySamplerTest, EnablesStructureLearningOnHighCardinalityData) {
  // High-cardinality attributes with few rows: identity encoding lacks test
  // power (edges vanish), the binary auxiliary view keeps them.
  std::vector<SemNode> nodes(2);
  nodes[0] = {"hi_card_a", 14, {}, 0.0};
  nodes[1] = {"hi_card_b", 14, {0}, 0.02};
  SemModel sem(std::move(nodes), 21);
  Rng rng(22);
  Table data = sem.Sample(300, &rng);

  PcAlgorithm pc({});
  PcResult raw = pc.Run(EncodeIdentity(data));
  EXPECT_FALSE(raw.cpdag.IsAdjacent(0, 1));  // 14x14 cells, 300 rows: no power.

  AuxiliarySamplerOptions opt;
  opt.num_shifts = 8;
  EncodedData aux = SampleAuxiliaryDistribution(data, opt, &rng);
  PcResult boosted = pc.Run(aux);
  EXPECT_TRUE(boosted.cpdag.IsAdjacent(0, 1));
}

}  // namespace
}  // namespace pgm
}  // namespace guardrail
