// End-to-end page reclamation: the per-query TVisited reset (a Truncate)
// and every dropped work table must hand their pages back, so a long-lived
// session's store stops growing once it has seen its largest query — and
// a file whose tables were truncated or dropped stays verifiable.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/segtable.h"
#include "src/core/sql_path_finder.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/shard_snapshot.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"
#include "src/graph/memgraph.h"

namespace relgraph {
namespace {

namespace fs = std::filesystem;

/// Twenty fixed query pairs; each test runs them `kPasses` times.
std::vector<std::pair<node_id_t, node_id_t>> QueryPairs(int64_t num_nodes,
                                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<node_id_t, node_id_t>> pairs;
  for (int i = 0; i < 20; i++) {
    pairs.emplace_back(rng.NextInt(0, num_nodes - 1),
                       rng.NextInt(0, num_nodes - 1));
  }
  return pairs;
}

constexpr int kPasses = 10;  // 200 queries per test

// 200 DistPathFinder::Find calls on one session. The first pass reaches
// every query's footprint; from then on the coordinator's session database
// must not grow at all, and every answer must match the oracle.
TEST(PageReclaimRegression, DistSessionStoreStopsGrowing) {
  EdgeList list = GenerateBarabasiAlbert(400, 3, WeightRange{1, 100}, 14);
  MemGraph mem(list);
  ShardedGraphOptions opts;
  opts.num_shards = 2;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  std::unique_ptr<DistPathFinder> finder;
  ASSERT_TRUE(DistPathFinder::Create(store.get(), &finder).ok());
  DiskManager* disk = finder->coordinator_db()->disk();

  const auto pairs = QueryPairs(list.num_nodes, 1401);
  int32_t warm_pages = 0;
  for (int pass = 0; pass < kPasses; pass++) {
    for (const auto& [s, t] : pairs) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      DistPathResult r;
      ASSERT_TRUE(finder->Find(s, t, &r).ok());
      ASSERT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
      if (!oracle.found) continue;
      ASSERT_EQ(r.distance, oracle.distance) << "s=" << s << " t=" << t;
      ASSERT_EQ(r.path.front(), s);
      ASSERT_EQ(r.path.back(), t);
    }
    if (pass == 0) {
      warm_pages = disk->num_pages();
    } else {
      ASSERT_EQ(disk->num_pages(), warm_pages) << "pass " << pass;
    }
  }
  EXPECT_GT(disk->stats().recycled, 0);
}

// The SQL-text client: its `truncate` statement is the same reset.
TEST(PageReclaimRegression, SqlPathFinderStoreStopsGrowing) {
  EdgeList list = GenerateBarabasiAlbert(300, 2, WeightRange{1, 100}, 15);
  MemGraph mem(list);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<SqlPathFinder> finder;
  ASSERT_TRUE(SqlPathFinder::Create(graph.get(), {}, &finder).ok());

  const auto pairs = QueryPairs(list.num_nodes, 1501);
  int32_t warm_pages = 0;
  for (int pass = 0; pass < kPasses; pass++) {
    for (const auto& [s, t] : pairs) {
      MemPathResult oracle = mem.Dijkstra(s, t);
      PathQueryResult r;
      ASSERT_TRUE(finder->Find(s, t, &r).ok());
      ASSERT_EQ(r.found, oracle.found) << "s=" << s << " t=" << t;
      if (oracle.found) {
        ASSERT_EQ(r.distance, oracle.distance) << "s=" << s << " t=" << t;
      }
    }
    if (pass == 0) {
      warm_pages = db.disk()->num_pages();
    } else {
      ASSERT_EQ(db.disk()->num_pages(), warm_pages) << "pass " << pass;
    }
  }
}

// SegTable construction drops a work table per direction; its pages must
// come back for the rest of the build (and for whatever follows it).
TEST(PageReclaimRegression, SegTableBuildReturnsWorkTablePages) {
  EdgeList list = GenerateBarabasiAlbert(300, 2, WeightRange{1, 10}, 16);
  Database db{DatabaseOptions{}};
  std::unique_ptr<GraphStore> graph;
  ASSERT_TRUE(GraphStore::Create(&db, list, GraphStoreOptions{}, &graph).ok());
  std::unique_ptr<SegTable> seg;
  ASSERT_TRUE(SegTable::Build(&db, graph.get(), SegTableOptions{}, &seg).ok());
  EXPECT_GT(db.disk()->stats().recycled, 0);
}

// ----- durability -----------------------------------------------------------

class ReclaimDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("relgraph_reclaim_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

Schema PairSchema() {
  return Schema({{"k", TypeId::kInt}, {"v", TypeId::kInt}});
}

void Fill(Table* table, int from, int to) {
  for (int i = from; i < to; i++) {
    ASSERT_TRUE(table->Insert(Tuple({Value(int64_t{i}), Value(int64_t{-i})}))
                    .ok());
  }
}

// A durable database whose tables were truncated and dropped, synced and
// reopened: every page (freed ones included) passes its checksum, the
// surviving table re-attaches consistent, and the free list starts empty
// because it is not persisted.
TEST_F(ReclaimDurabilityTest, TruncatedAndDroppedFileReopensClean) {
  const std::string path = Path("db.rgpf");
  TablePersistentState keep_state;
  int32_t pages = 0;
  {
    std::unique_ptr<DiskManager> disk;
    ASSERT_TRUE(DiskManager::Open(path, OpenMode::kCreate, &disk).ok());
    DatabaseOptions opts;
    opts.buffer_pool_pages = 32;  // evictions write pages mid-run
    Database db(opts, std::move(disk));
    TableOptions clustered;
    clustered.storage = TableStorage::kClustered;
    clustered.cluster_key = "k";
    clustered.cluster_unique = true;
    Table* keep = nullptr;
    Table* scratch = nullptr;
    ASSERT_TRUE(db.catalog()->CreateTable("keep", PairSchema(), clustered,
                                          &keep).ok());
    ASSERT_TRUE(db.catalog()->CreateSecondaryIndex(keep, "v", true).ok());
    ASSERT_TRUE(db.catalog()->CreateTable("scratch", PairSchema(),
                                          TableOptions{}, &scratch).ok());
    ASSERT_TRUE(db.catalog()->CreateSecondaryIndex(scratch, "k", true).ok());
    Fill(keep, 0, 3000);
    Fill(scratch, 0, 3000);
    ASSERT_TRUE(keep->Truncate().ok());
    ASSERT_TRUE(db.catalog()->DropTable("scratch").ok());
    Fill(keep, 0, 1000);
    ASSERT_GT(db.disk()->num_free_pages(), 0u);  // some stay unreachable
    keep_state = keep->ExportState();
    ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());
    ASSERT_TRUE(db.disk()->Sync().ok());
    pages = db.disk()->num_pages();
  }

  // The relgraph_fsck page scrub: header plus every page's CRC.
  int64_t verified = 0;
  Status st = VerifySnapshotPages(path, &verified);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(verified, pages);

  std::unique_ptr<DiskManager> disk;
  ASSERT_TRUE(DiskManager::Open(path, OpenMode::kOpenExisting, &disk).ok());
  EXPECT_EQ(disk->num_pages(), pages);
  EXPECT_EQ(disk->num_free_pages(), 0u);
  Database db(DatabaseOptions{}, std::move(disk));
  std::unique_ptr<Table> keep;
  ASSERT_TRUE(Table::Attach(db.buffer_pool(), keep_state, &keep).ok());
  st = keep->CheckConsistency();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(keep->num_rows(), 1000);
  Tuple row;
  ASSERT_TRUE(keep->LookupUnique("v", -999, &row, nullptr).ok());
  EXPECT_EQ(row.value(0).AsInt(), 999);
  // New allocations after the reopen append; the lost free list only
  // costs space, never correctness.
  EXPECT_EQ(db.disk()->AllocatePage(), pages);
}

// A shard snapshot taken after tables in the shard database were truncated
// and dropped loads with full verification — the same page scrub and
// structural pass relgraph_fsck runs on a snapshot.
TEST_F(ReclaimDurabilityTest, ShardSnapshotAfterTruncateAndDropVerifies) {
  EdgeList list = GenerateBarabasiAlbert(300, 3, WeightRange{1, 50}, 17);
  ShardedGraphOptions opts;
  opts.num_shards = 2;
  std::unique_ptr<ShardedGraphStore> store;
  ASSERT_TRUE(ShardedGraphStore::Create(list, opts, &store).ok());
  Database* shard_db = store->shard_db(0);
  Table* work = nullptr;
  ASSERT_TRUE(shard_db->catalog()->CreateTable("work", PairSchema(),
                                               TableOptions{}, &work).ok());
  ASSERT_TRUE(shard_db->catalog()->CreateSecondaryIndex(work, "k", true).ok());
  Fill(work, 0, 2000);
  ASSERT_TRUE(work->Truncate().ok());
  Fill(work, 0, 500);
  ASSERT_TRUE(shard_db->catalog()->DropTable("work").ok());
  ASSERT_GT(shard_db->disk()->num_free_pages(), 0u);

  const std::string path = Path("shard0.snap");
  ASSERT_TRUE(WriteShardSnapshot(*store, 0, path).ok());
  Status st = VerifySnapshotPages(path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::unique_ptr<ShardedGraphStore> loaded;
  ShardSnapshotInfo info;
  st = LoadShardSnapshot(path, DatabaseOptions{}, /*verify_structure=*/true,
                         &loaded, &info);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(info.num_edges, store->num_edges());
}

}  // namespace
}  // namespace relgraph
