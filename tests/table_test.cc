#include <gtest/gtest.h>

#include <set>

#include "table/dataset_repository.h"
#include "table/error_injector.h"
#include "table/schema.h"
#include "table/sem_generator.h"
#include "table/table.h"
#include "table/value.h"

namespace guardrail {
namespace {

// --------------------------------------------------------------- Literal --

TEST(LiteralTest, StringForms) {
  EXPECT_EQ(Literal(std::string("abc")).ToString(), "abc");
  EXPECT_EQ(Literal(true).ToString(), "true");
  EXPECT_EQ(Literal(false).ToString(), "false");
  EXPECT_EQ(Literal(3.0).ToString(), "3");
  EXPECT_EQ(Literal(2.5).ToString(), "2.5");
}

TEST(LiteralTest, CrossTypeEqualityViaCanonicalForm) {
  EXPECT_TRUE(Literal(3.0) == Literal(std::string("3")));
  EXPECT_FALSE(Literal(3.0) == Literal(std::string("3.0")));
}

// ------------------------------------------------------------- Attribute --

TEST(AttributeTest, GetOrInsertAssignsDenseCodes) {
  Attribute attr("city");
  EXPECT_EQ(attr.GetOrInsert("Berkeley"), 0);
  EXPECT_EQ(attr.GetOrInsert("Oakland"), 1);
  EXPECT_EQ(attr.GetOrInsert("Berkeley"), 0);
  EXPECT_EQ(attr.domain_size(), 2);
  EXPECT_EQ(attr.label(1), "Oakland");
}

TEST(AttributeTest, LookupMissingReturnsNull) {
  Attribute attr("a");
  EXPECT_EQ(attr.Lookup("zzz"), kNullValue);
}

// Many labels of every length (each hash tail path), the empty label, and
// probes that are views into a larger buffer: codes stay dense across the
// index's growth and every label, and only those, is found again.
TEST(AttributeTest, LookupAcrossGrowthAndLabelLengths) {
  Attribute attr("a");
  std::vector<std::string> labels = {""};
  for (int i = 0; i < 5000; ++i) {
    labels.push_back(std::string(static_cast<size_t>(i % 23), 'x') +
                     std::to_string(i));
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    ASSERT_EQ(attr.GetOrInsert(labels[i]), static_cast<ValueId>(i));
  }
  const Attribute copy = attr;
  for (size_t i = 0; i < labels.size(); ++i) {
    const std::string padded = "<" + labels[i] + ">";
    const std::string_view view(padded.data() + 1, labels[i].size());
    ASSERT_EQ(copy.Lookup(view), static_cast<ValueId>(i)) << labels[i];
    ASSERT_EQ(attr.GetOrInsert(view), static_cast<ValueId>(i));
  }
  EXPECT_EQ(attr.domain_size(), static_cast<int32_t>(labels.size()));
  EXPECT_EQ(copy.Lookup("x"), kNullValue);
  EXPECT_EQ(copy.Lookup("<0>"), kNullValue);
  EXPECT_EQ(copy.Lookup(std::string_view("0\0", 2)), kNullValue);
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AddAndFind) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute(Attribute("a")).ok());
  ASSERT_TRUE(schema.AddAttribute(Attribute("b")).ok());
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.FindAttribute("b"), 1);
  EXPECT_EQ(schema.FindAttribute("zzz"), -1);
}

TEST(SchemaTest, RejectsDuplicateName) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute(Attribute("a")).ok());
  EXPECT_EQ(schema.AddAttribute(Attribute("a")).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, AttributeNamesInOrder) {
  Schema schema({Attribute("x"), Attribute("y")});
  EXPECT_EQ(schema.AttributeNames(), (std::vector<std::string>{"x", "y"}));
}

// ----------------------------------------------------------------- Table --

Table MakeCityTable() {
  Schema schema({Attribute("zip"), Attribute("city")});
  Table t(std::move(schema));
  t.AppendRowLabels({"94704", "Berkeley"});
  t.AppendRowLabels({"94704", "Berkeley"});
  t.AppendRowLabels({"94607", "Oakland"});
  t.AppendRowLabels({"10001", "NewYork"});
  return t;
}

TEST(TableTest, AppendAndAccess) {
  Table t = MakeCityTable();
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.GetLabel(0, 1), "Berkeley");
  EXPECT_EQ(t.Get(0, 0), t.Get(1, 0));
  EXPECT_NE(t.Get(0, 0), t.Get(2, 0));
}

TEST(TableTest, GetRowMatchesCells) {
  Table t = MakeCityTable();
  Row row = t.GetRow(2);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], t.Get(2, 0));
  EXPECT_EQ(row[1], t.Get(2, 1));
}

TEST(TableTest, AppendRowValidatesWidthAndDomain) {
  Table t = MakeCityTable();
  EXPECT_FALSE(t.AppendRow({0}).ok());
  EXPECT_FALSE(t.AppendRow({0, 99}).ok());
  EXPECT_TRUE(t.AppendRow({0, kNullValue}).ok());
  EXPECT_EQ(t.GetLabel(4, 1), "<null>");
}

TEST(TableTest, SelectSubset) {
  Table t = MakeCityTable();
  Table s = t.Select({3, 0});
  EXPECT_EQ(s.num_rows(), 2);
  EXPECT_EQ(s.GetLabel(0, 1), "NewYork");
  EXPECT_EQ(s.GetLabel(1, 1), "Berkeley");
}

TEST(TableTest, HeadClampsToSize) {
  Table t = MakeCityTable();
  EXPECT_EQ(t.Head(2).num_rows(), 2);
  EXPECT_EQ(t.Head(100).num_rows(), 4);
}

TEST(TableTest, SplitPartitionsAllRows) {
  Table t = MakeCityTable();
  Rng rng(1);
  auto [train, test] = t.Split(0.5, &rng);
  EXPECT_EQ(train.num_rows() + test.num_rows(), t.num_rows());
  EXPECT_EQ(train.num_rows(), 2);
}

TEST(TableTest, SplitExtremes) {
  Table t = MakeCityTable();
  Rng rng(2);
  auto [all, none] = t.Split(1.0, &rng);
  EXPECT_EQ(all.num_rows(), 4);
  EXPECT_EQ(none.num_rows(), 0);
}

TEST(TableTest, CsvRoundTrip) {
  Table t = MakeCityTable();
  auto back = Table::FromCsv(t.ToCsv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), t.num_rows());
  for (RowIndex r = 0; r < t.num_rows(); ++r) {
    for (AttrIndex c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back->GetLabel(r, c), t.GetLabel(r, c));
    }
  }
}

// -------------------------------------------------------- error injector --

Table MakeWideTable(int64_t rows) {
  Schema schema({Attribute("a"), Attribute("b"), Attribute("c")});
  Table t(std::move(schema));
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRowLabels({"a" + std::to_string(i % 5), "b" + std::to_string(i % 3),
                       "c" + std::to_string(i % 7)});
  }
  return t;
}

TEST(ErrorInjectorTest, InjectsExpectedCount) {
  Table t = MakeWideTable(10000);
  Rng rng(1);
  ErrorInjectionOptions opt;
  opt.error_rate = 0.01;
  auto result = InjectErrors(t, opt, &rng);
  // 10000 rows * 3 cols * 1% = 300 cells.
  EXPECT_EQ(result.errors.size(), 300u);
}

TEST(ErrorInjectorTest, SmallDatasetGetsFloorCappedAt30) {
  Table t = MakeWideTable(100);  // 300 cells; 1% = 3 < 30 floor.
  Rng rng(2);
  ErrorInjectionOptions opt;
  auto result = InjectErrors(t, opt, &rng);
  EXPECT_EQ(result.errors.size(), 30u);
}

TEST(ErrorInjectorTest, CorruptedValuesDiffer) {
  Table t = MakeWideTable(1000);
  Rng rng(3);
  ErrorInjectionOptions opt;
  auto result = InjectErrors(t, opt, &rng);
  for (const auto& e : result.errors) {
    EXPECT_NE(e.original_value, e.corrupted_value);
    EXPECT_EQ(result.dirty.Get(e.row, e.column), e.corrupted_value);
    EXPECT_EQ(t.Get(e.row, e.column), e.original_value);
    EXPECT_TRUE(result.row_has_error[static_cast<size_t>(e.row)]);
  }
}

TEST(ErrorInjectorTest, CellsAreDistinct) {
  Table t = MakeWideTable(1000);
  Rng rng(4);
  ErrorInjectionOptions opt;
  auto result = InjectErrors(t, opt, &rng);
  std::set<std::pair<RowIndex, AttrIndex>> cells;
  for (const auto& e : result.errors) {
    EXPECT_TRUE(cells.insert({e.row, e.column}).second);
  }
}

TEST(ErrorInjectorTest, RespectsProtectedColumns) {
  Table t = MakeWideTable(1000);
  Rng rng(5);
  ErrorInjectionOptions opt;
  opt.protected_columns = {1};
  auto result = InjectErrors(t, opt, &rng);
  for (const auto& e : result.errors) EXPECT_NE(e.column, 1);
}

TEST(ErrorInjectorTest, UncorruptedCellsUntouched) {
  Table t = MakeWideTable(500);
  Rng rng(6);
  ErrorInjectionOptions opt;
  auto result = InjectErrors(t, opt, &rng);
  std::set<std::pair<RowIndex, AttrIndex>> corrupted;
  for (const auto& e : result.errors) corrupted.insert({e.row, e.column});
  for (RowIndex r = 0; r < t.num_rows(); ++r) {
    for (AttrIndex c = 0; c < t.num_columns(); ++c) {
      if (corrupted.count({r, c}) == 0) {
        EXPECT_EQ(result.dirty.Get(r, c), t.Get(r, c));
      }
    }
  }
}

// ----------------------------------------------------------- SemModel ----

SemModel MakeChainSem() {
  // a -> b -> c, all deterministic.
  std::vector<SemNode> nodes(3);
  nodes[0] = {"a", 4, {}, 0.0};
  nodes[1] = {"b", 3, {0}, 0.0};
  nodes[2] = {"c", 3, {1}, 0.0};
  return SemModel(std::move(nodes), /*function_seed=*/99);
}

TEST(SemModelTest, TopologicalOrderRespectsParents) {
  SemModel sem = MakeChainSem();
  auto topo = sem.topological_order();
  ASSERT_EQ(topo.size(), 3u);
  std::vector<int> pos(3);
  for (int i = 0; i < 3; ++i) pos[static_cast<size_t>(topo[i])] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[2]);
}

TEST(SemModelTest, StructuralFunctionDeterministic) {
  SemModel sem = MakeChainSem();
  for (ValueId v = 0; v < 4; ++v) {
    ValueId out1 = sem.StructuralFunction(1, {v});
    ValueId out2 = sem.StructuralFunction(1, {v});
    EXPECT_EQ(out1, out2);
    EXPECT_GE(out1, 0);
    EXPECT_LT(out1, 3);
  }
}

TEST(SemModelTest, SampledDataSatisfiesDeterministicFunctions) {
  SemModel sem = MakeChainSem();
  Rng rng(7);
  Table data = sem.Sample(500, &rng);
  ASSERT_EQ(data.num_rows(), 500);
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(data.Get(r, 1), sem.StructuralFunction(1, {data.Get(r, 0)}));
    EXPECT_EQ(data.Get(r, 2), sem.StructuralFunction(2, {data.Get(r, 1)}));
  }
}

TEST(SemModelTest, NoisyNodeDeviatesSometimes) {
  std::vector<SemNode> nodes(2);
  nodes[0] = {"a", 4, {}, 0.0};
  nodes[1] = {"b", 4, {0}, 0.5};
  SemModel sem(std::move(nodes), 3);
  Rng rng(8);
  Table data = sem.Sample(2000, &rng);
  int64_t deviations = 0;
  for (RowIndex r = 0; r < data.num_rows(); ++r) {
    deviations += data.Get(r, 1) != sem.StructuralFunction(1, {data.Get(r, 0)});
  }
  // Half the rows resample uniformly; ~3/4 of those deviate.
  EXPECT_GT(deviations, 500);
  EXPECT_LT(deviations, 1100);
}

TEST(SemModelTest, ParentSetsAndFunctionalPredicate) {
  SemModel sem = MakeChainSem();
  auto parents = sem.ParentSets();
  EXPECT_TRUE(parents[0].empty());
  EXPECT_EQ(parents[1], std::vector<AttrIndex>{0});
  EXPECT_TRUE(sem.IsFunctionalNode(1, 0.01));
  EXPECT_FALSE(sem.IsFunctionalNode(0, 0.01));
}

TEST(SemModelTest, RootMarginalIsSkewed) {
  SemModel sem = MakeChainSem();
  Rng rng(9);
  Table data = sem.Sample(4000, &rng);
  std::vector<int64_t> counts(4, 0);
  for (ValueId v : data.column(0)) ++counts[static_cast<size_t>(v)];
  auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*mx, *mn);  // Zipf skew, not uniform.
}

TEST(BuildRandomSemTest, StructureObeysOptions) {
  RandomSemOptions opt;
  opt.num_nodes = 20;
  opt.min_cardinality = 3;
  opt.max_cardinality = 5;
  Rng rng(10);
  SemModel sem = BuildRandomSem(opt, &rng);
  EXPECT_EQ(sem.num_nodes(), 20);
  for (const auto& node : sem.nodes()) {
    EXPECT_GE(node.cardinality, 3);
    EXPECT_LE(node.cardinality, 5);
    EXPECT_LE(node.parents.size(), 2u);
    for (AttrIndex p : node.parents) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 20);
    }
  }
  EXPECT_EQ(sem.topological_order().size(), 20u);
}

// --------------------------------------------------- DatasetRepository ---

TEST(DatasetRepositoryTest, TwelveSpecsMatchPaperTable2) {
  const auto& specs = DatasetRepository::Specs();
  ASSERT_EQ(specs.size(), 12u);
  EXPECT_EQ(specs[0].name, "Adult");
  EXPECT_EQ(specs[0].num_attributes, 15);
  EXPECT_EQ(specs[0].num_rows, 48842);
  EXPECT_EQ(specs[2].num_attributes, 40);
  EXPECT_EQ(specs[2].num_rows, 540);
  EXPECT_EQ(specs[11].name, "Hotel Reservations");
}

TEST(DatasetRepositoryTest, BuildIsDeterministic) {
  DatasetBundle a = DatasetRepository::Build(4);
  DatasetBundle b = DatasetRepository::Build(4);
  ASSERT_EQ(a.clean.num_rows(), b.clean.num_rows());
  for (RowIndex r = 0; r < std::min<int64_t>(50, a.clean.num_rows()); ++r) {
    for (AttrIndex c = 0; c < a.clean.num_columns(); ++c) {
      EXPECT_EQ(a.clean.Get(r, c), b.clean.Get(r, c));
    }
  }
}

TEST(DatasetRepositoryTest, RowLimitCapsSample) {
  DatasetBundle bundle = DatasetRepository::Build(1, 1000);
  EXPECT_EQ(bundle.clean.num_rows(), 1000);
  EXPECT_EQ(bundle.clean.num_columns(), 15);
}

TEST(DatasetRepositoryTest, LabelColumnIsLastAndSmallDomain) {
  for (int id = 1; id <= 12; ++id) {
    DatasetBundle bundle = DatasetRepository::Build(id, 200);
    EXPECT_EQ(bundle.label_column, bundle.clean.num_columns() - 1);
    const auto& label = bundle.clean.schema().attribute(bundle.label_column);
    EXPECT_EQ(label.name(), "label");
    EXPECT_GE(label.domain_size(), 2);
    EXPECT_LE(label.domain_size(), 3);
    EXPECT_FALSE(bundle.sem->nodes().back().parents.empty());
  }
}

}  // namespace
}  // namespace guardrail
