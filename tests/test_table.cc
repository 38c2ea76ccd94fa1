#include "src/catalog/table.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>

#include "src/catalog/catalog.h"
#include "src/graph/graph_store.h"

namespace relgraph {
namespace {

Schema EdgeSchema() {
  return Schema(
      {{"fid", TypeId::kInt}, {"tid", TypeId::kInt}, {"cost", TypeId::kInt}});
}

Tuple Row(int64_t a, int64_t b, int64_t c) {
  return Tuple({Value(a), Value(b), Value(c)});
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : pool_(512, &dm_) {}
  DiskManager dm_;
  BufferPool pool_;
};

TEST_F(TableTest, HeapInsertAndScan) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->Insert(Row(1, 2, 3)).ok());
  ASSERT_TRUE(table->Insert(Row(4, 5, 6)).ok());
  EXPECT_EQ(table->num_rows(), 2);

  auto it = table->Scan();
  Tuple t;
  RowRef ref;
  std::vector<int64_t> fids;
  while (it.Next(&t, &ref)) fids.push_back(t.value(0).AsInt());
  EXPECT_EQ(fids, (std::vector<int64_t>{1, 4}));
}

TEST_F(TableTest, ClusteredScanIsKeyOrdered) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  ASSERT_TRUE(table->Insert(Row(30, 1, 1)).ok());
  ASSERT_TRUE(table->Insert(Row(10, 2, 2)).ok());
  ASSERT_TRUE(table->Insert(Row(20, 3, 3)).ok());
  ASSERT_TRUE(table->Insert(Row(10, 4, 4)).ok());  // duplicate key

  auto it = table->Scan();
  Tuple t;
  std::vector<int64_t> fids;
  while (it.Next(&t, nullptr)) fids.push_back(t.value(0).AsInt());
  EXPECT_EQ(fids, (std::vector<int64_t>{10, 10, 20, 30}));
}

TEST_F(TableTest, ClusteredUniqueRejectsDuplicates) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  opts.cluster_unique = true;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  ASSERT_TRUE(table->Insert(Row(1, 1, 1)).ok());
  EXPECT_TRUE(table->Insert(Row(1, 2, 2)).IsAlreadyExists());
}

TEST_F(TableTest, SecondaryIndexRangeScan) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table->Insert(Row(i % 10, i, i * 2)).ok());
  }
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", /*unique=*/false).ok());
  EXPECT_TRUE(table->HasIndexOn("fid"));
  EXPECT_FALSE(table->HasIndexOn("tid"));

  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("fid", 3, 3, &it).ok());
  Tuple t;
  int count = 0;
  while (it.Next(&t, nullptr)) {
    EXPECT_EQ(t.value(0).AsInt(), 3);
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(TableTest, SecondaryIndexBackfillsExistingRows) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->Insert(Row(7, 1, 1)).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", false).ok());
  Table::Iterator it;
  ASSERT_TRUE(table->ScanRange("fid", 7, 7, &it).ok());
  Tuple t;
  EXPECT_TRUE(it.Next(&t, nullptr));
}

TEST_F(TableTest, UniqueIndexLookupAndViolation) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", /*unique=*/true).ok());
  ASSERT_TRUE(table->Insert(Row(5, 50, 500)).ok());
  EXPECT_TRUE(table->Insert(Row(5, 51, 501)).IsAlreadyExists());
  EXPECT_EQ(table->num_rows(), 1);  // failed insert left no orphan row

  Tuple t;
  RowRef ref;
  ASSERT_TRUE(table->LookupUnique("fid", 5, &t, &ref).ok());
  EXPECT_EQ(t.value(1).AsInt(), 50);
  EXPECT_TRUE(table->LookupUnique("fid", 6, &t, &ref).IsNotFound());
}

TEST_F(TableTest, UpdateRowMaintainsIndexes) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 10, 100), &ref).ok());
  // Change the indexed key 1 -> 2: old entry must vanish, new must appear.
  ASSERT_TRUE(table->UpdateRow(ref, Row(2, 10, 100)).ok());
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  ASSERT_TRUE(table->LookupUnique("fid", 2, &t, nullptr).ok());
  EXPECT_EQ(t.value(2).AsInt(), 100);
}

TEST_F(TableTest, ClusteredUpdateKeepsKeyImmutable) {
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "fid";
  opts.cluster_unique = true;
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Create(&pool_, "t", EdgeSchema(), opts, &table).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 10, 100), &ref).ok());
  ASSERT_TRUE(table->UpdateRow(ref, Row(1, 20, 200)).ok());
  Tuple t;
  ASSERT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).ok());
  EXPECT_EQ(t.value(1).AsInt(), 20);
  EXPECT_TRUE(table->UpdateRow(ref, Row(9, 20, 200)).IsNotSupported());
}

TEST_F(TableTest, DeleteRowRemovesFromScanAndIndex) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  RowRef ref;
  ASSERT_TRUE(table->Insert(Row(1, 1, 1), &ref).ok());
  ASSERT_TRUE(table->Insert(Row(2, 2, 2)).ok());
  ASSERT_TRUE(table->DeleteRow(ref).ok());
  EXPECT_EQ(table->num_rows(), 1);
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  auto it = table->Scan();
  int count = 0;
  while (it.Next(&t, nullptr)) count++;
  EXPECT_EQ(count, 1);
}

TEST_F(TableTest, TruncateKeepsSchemaAndIndexes) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  ASSERT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  ASSERT_TRUE(table->Insert(Row(1, 1, 1)).ok());
  ASSERT_TRUE(table->Truncate().ok());
  EXPECT_EQ(table->num_rows(), 0);
  Tuple t;
  EXPECT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).IsNotFound());
  // Insert after truncate works and the index is live.
  ASSERT_TRUE(table->Insert(Row(1, 9, 9)).ok());
  ASSERT_TRUE(table->LookupUnique("fid", 1, &t, nullptr).ok());
  EXPECT_EQ(t.value(1).AsInt(), 9);
}

TEST_F(TableTest, ClusteredRequiresFixedWidthIntKey) {
  Schema with_str({{"k", TypeId::kInt}, {"v", TypeId::kVarchar}});
  TableOptions opts;
  opts.storage = TableStorage::kClustered;
  opts.cluster_key = "k";
  std::unique_ptr<Table> table;
  EXPECT_TRUE(
      Table::Create(&pool_, "t", with_str, opts, &table).IsNotSupported());

  TableOptions bad_key;
  bad_key.storage = TableStorage::kClustered;
  bad_key.cluster_key = "missing";
  EXPECT_TRUE(Table::Create(&pool_, "t2", EdgeSchema(), bad_key, &table)
                  .IsInvalidArgument());
}

TEST_F(TableTest, ArityMismatchRejected) {
  std::unique_ptr<Table> table;
  ASSERT_TRUE(
      Table::Create(&pool_, "t", EdgeSchema(), TableOptions{}, &table).ok());
  EXPECT_TRUE(
      table->Insert(Tuple({Value(int64_t{1})})).IsInvalidArgument());
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateGetDrop) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  Catalog catalog(&pool);
  Table* t = nullptr;
  ASSERT_TRUE(
      catalog.CreateTable("edges", EdgeSchema(), TableOptions{}, &t).ok());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(catalog.GetTable("edges"), t);
  EXPECT_EQ(catalog.GetTable("nope"), nullptr);
  EXPECT_TRUE(catalog.CreateTable("edges", EdgeSchema(), TableOptions{}, &t)
                  .IsAlreadyExists());
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"edges"});
  ASSERT_TRUE(catalog.DropTable("edges").ok());
  EXPECT_EQ(catalog.GetTable("edges"), nullptr);
  EXPECT_TRUE(catalog.DropTable("edges").IsNotFound());
}

// ------------------------------------------------------ Page reclamation

/// The table layouts behind the three index strategies: a bare heap, a
/// heap with secondary B+-trees, and a clustered tree with a secondary.
std::unique_ptr<Table> MakeStrategyTable(BufferPool* pool,
                                         IndexStrategy strategy) {
  TableOptions opts;
  if (strategy == IndexStrategy::kCluIndex) {
    opts.storage = TableStorage::kClustered;
    opts.cluster_key = "fid";
    opts.cluster_unique = true;
  }
  std::unique_ptr<Table> table;
  EXPECT_TRUE(Table::Create(pool, "t", EdgeSchema(), opts, &table).ok());
  if (strategy == IndexStrategy::kIndex) {
    EXPECT_TRUE(table->CreateSecondaryIndex("fid", true).ok());
  }
  if (strategy != IndexStrategy::kNoIndex) {
    EXPECT_TRUE(table->CreateSecondaryIndex("tid", false).ok());
  }
  return table;
}

// Enough rows for a two-level clustered tree and two-level secondaries.
constexpr int kCycleRows = 400;

void FillRows(Table* table) {
  for (int i = 0; i < kCycleRows; i++) {
    ASSERT_TRUE(table->Insert(Row(i, (i * 7) % 97, i)).ok());
  }
}

class TableReclaimTest
    : public ::testing::TestWithParam<std::tuple<IndexStrategy, bool>> {};

// The per-query TVisited reset: refill and truncate, 500 times. The store
// must stop growing after the first cycle, in memory and on file.
TEST_P(TableReclaimTest, TruncateCyclesKeepThePageCountFlat) {
  const auto& [strategy, file_backed] = GetParam();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("relgraph_reclaim_" + std::to_string(static_cast<int>(strategy)) +
        ".rgpf"))
          .string();
  std::unique_ptr<DiskManager> dm = file_backed
                                        ? std::make_unique<DiskManager>(path)
                                        : std::make_unique<DiskManager>();
  ASSERT_EQ(dm->in_memory(), !file_backed);
  BufferPool pool(64, dm.get());  // smaller than one cycle's pages
  std::unique_ptr<Table> table = MakeStrategyTable(&pool, strategy);

  int32_t pages_after_first = 0;
  for (int cycle = 0; cycle < 500; cycle++) {
    FillRows(table.get());
    ASSERT_TRUE(table->Truncate().ok()) << "cycle " << cycle;
    if (cycle == 0) {
      pages_after_first = dm->num_pages();
      ASSERT_GT(dm->num_free_pages(), 0u);
    } else {
      ASSERT_EQ(dm->num_pages(), pages_after_first) << "cycle " << cycle;
    }
  }
  EXPECT_GT(dm->stats().recycled, 0);
  EXPECT_EQ(pool.PinnedFrames(), 0u);

  // Truncate-and-refill leaves valid structures behind.
  FillRows(table.get());
  Status st = table->CheckConsistency();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(table->num_rows(), kCycleRows);
  if (strategy != IndexStrategy::kNoIndex) {
    Tuple t;
    ASSERT_TRUE(table->LookupUnique("fid", 123, &t, nullptr).ok());
    EXPECT_EQ(t.value(2).AsInt(), 123);
  }
  EXPECT_EQ(dm->num_pages(), pages_after_first);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, TableReclaimTest,
    ::testing::Combine(::testing::Values(IndexStrategy::kNoIndex,
                                         IndexStrategy::kIndex,
                                         IndexStrategy::kCluIndex),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(IndexStrategyName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_file" : "_memory");
    });

TEST_F(TableTest, DropSecondaryIndexReturnsItsPages) {
  std::unique_ptr<Table> table =
      MakeStrategyTable(&pool_, IndexStrategy::kIndex);
  FillRows(table.get());
  const int32_t pages = dm_.num_pages();
  ASSERT_TRUE(table->DropSecondaryIndex("tid").ok());
  EXPECT_GT(dm_.num_free_pages(), 1u);  // a multi-level tree's worth
  // Rebuilding the same index consumes the freed pages first.
  ASSERT_TRUE(table->CreateSecondaryIndex("tid", false).ok());
  EXPECT_EQ(dm_.num_pages(), pages);
  Status st = table->CheckConsistency();
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(CatalogTest, DropTableReturnsItsPages) {
  DiskManager dm;
  BufferPool pool(64, &dm);
  Catalog catalog(&pool);
  int32_t pages = 0;
  for (int round = 0; round < 20; round++) {
    Table* t = nullptr;
    ASSERT_TRUE(
        catalog.CreateTable("work", EdgeSchema(), TableOptions{}, &t).ok());
    ASSERT_TRUE(catalog.CreateSecondaryIndex(t, "fid", true).ok());
    FillRows(t);
    ASSERT_TRUE(catalog.DropTable("work").ok());
    if (round == 0) pages = dm.num_pages();
    ASSERT_EQ(dm.num_pages(), pages) << "round " << round;
    // Every page the table ever held is free again.
    ASSERT_EQ(dm.num_free_pages(), static_cast<size_t>(pages));
  }
}

}  // namespace
}  // namespace relgraph
