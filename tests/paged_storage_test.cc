// Tests for the paged storage layer (slotted pages, page stores, buffer
// pool), the B+ tree secondary-index structure, and the binary paged
// database format — including round trips at beyond-buffer-pool scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/index/bplus_tree.h"
#include "src/storage/page.h"
#include "src/storage/persist.h"

namespace maybms {
namespace {

// --------------------------------------------------------------------------
// Slotted pages
// --------------------------------------------------------------------------

TEST(PagedStorageTest, SlottedPageInsertAndRead) {
  Page page;
  page.Init();
  EXPECT_EQ(page.NumSlots(), 0);
  ASSERT_TRUE(page.AppendRecord("alpha"));
  ASSERT_TRUE(page.AppendRecord("gamma"));
  // Insert in the middle: only slot entries shift, records stay put.
  ASSERT_TRUE(page.InsertRecordAt(1, "beta"));
  ASSERT_EQ(page.NumSlots(), 3);
  EXPECT_EQ(page.Record(0), "alpha");
  EXPECT_EQ(page.Record(1), "beta");
  EXPECT_EQ(page.Record(2), "gamma");
}

TEST(PagedStorageTest, SlottedPageRejectsOverflow) {
  Page page;
  page.Init();
  const std::string big(Page::kMaxRecord + 1, 'x');
  EXPECT_FALSE(page.Fits(big.size()));
  EXPECT_FALSE(page.AppendRecord(big));
  EXPECT_EQ(page.NumSlots(), 0);
  // The largest record that is promised to fit does fit.
  const std::string max(Page::kMaxRecord, 'y');
  EXPECT_TRUE(page.AppendRecord(max));
  EXPECT_EQ(page.Record(0).size(), Page::kMaxRecord);
}

TEST(PagedStorageTest, SlottedPageFillsUntilFull) {
  Page page;
  page.Init();
  size_t n = 0;
  while (page.AppendRecord(std::string(100, static_cast<char>('a' + n % 26)))) {
    ++n;
  }
  // 100 record bytes + 4 slot bytes per record within kCapacity.
  EXPECT_EQ(n, Page::kCapacity / 104);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(page.Record(static_cast<uint16_t>(i))[0],
              static_cast<char>('a' + i % 26));
  }
}

// --------------------------------------------------------------------------
// Page stores and the buffer pool
// --------------------------------------------------------------------------

TEST(PagedStorageTest, FilePageStoreRoundTrips) {
  const std::string path = ::testing::TempDir() + "/maybms_pages_test.db";
  {
    auto store = FilePageStore::Open(path, /*truncate=*/true);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 3; ++i) {
      auto id = (*store)->Allocate();
      ASSERT_TRUE(id.ok());
      Page page;
      page.Init();
      ASSERT_TRUE(page.AppendRecord("page " + std::to_string(i)));
      ASSERT_TRUE((*store)->Write(*id, page).ok());
    }
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto store = FilePageStore::Open(path, /*truncate=*/false);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->num_pages(), 3u);
  for (PageId id = 0; id < 3; ++id) {
    Page page;
    ASSERT_TRUE((*store)->Read(id, &page).ok());
    EXPECT_EQ(page.Record(0), "page " + std::to_string(id));
  }
}

TEST(PagedStorageTest, BufferPoolEvictsAndWritesBack) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/4);
  // Create 12 pages, each tagged, through a pool that holds only 4: the
  // excess must be evicted and written back to the store.
  for (int i = 0; i < 12; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    ref->page()->Init();
    ASSERT_TRUE(ref->page()->AppendRecord("tag " + std::to_string(i)));
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  const BufferPoolStats stats = pool.stats();
  EXPECT_GE(stats.evictions, 8u);
  EXPECT_GE(stats.writebacks, 12u);
  // Every page survives eviction with its content.
  for (PageId id = 0; id < 12; ++id) {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->page()->Record(0), "tag " + std::to_string(id));
  }
}

TEST(PagedStorageTest, BufferPoolCountsHitsAndMisses) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/2);
  {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
  }
  ASSERT_TRUE(pool.Fetch(0).ok());  // resident: hit
  {
    // Push page 0 out with two more pages.
    ASSERT_TRUE(pool.New().ok());
    ASSERT_TRUE(pool.New().ok());
  }
  ASSERT_TRUE(pool.Fetch(0).ok());  // evicted: miss
  const BufferPoolStats stats = pool.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(PagedStorageTest, BufferPoolRefusesWhenAllPinned) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/2);
  auto a = pool.New();
  auto b = pool.New();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both frames pinned: a third page cannot be admitted.
  EXPECT_FALSE(pool.New().ok());
  a->Release();
  EXPECT_TRUE(pool.New().ok());
}

// --------------------------------------------------------------------------
// B+ tree
// --------------------------------------------------------------------------

TEST(PagedStorageTest, BPlusTreeSplitsAndFindsEveryKey) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/64);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  constexpr int kKeys = 5000;
  // Scrambled insertion order so splits hit leaves all over the key space.
  std::vector<int> keys(kKeys);
  for (int i = 0; i < kKeys; ++i) keys[i] = i;
  std::mt19937 rng(42);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int key : keys) {
    ASSERT_TRUE(tree->Insert(Value::Int(key), static_cast<uint64_t>(key)).ok());
  }
  EXPECT_EQ(tree->num_entries(), static_cast<size_t>(kKeys));
  EXPECT_GT(tree->height(), 1u) << "5000 keys must not fit one leaf";
  for (int key : {0, 1, 17, 2499, 4998, 4999}) {
    std::vector<uint64_t> ids;
    ASSERT_TRUE(
        tree->Scan(Value::Int(key), true, Value::Int(key), true, &ids).ok());
    ASSERT_EQ(ids.size(), 1u) << "key " << key;
    EXPECT_EQ(ids[0], static_cast<uint64_t>(key));
  }
}

TEST(PagedStorageTest, BPlusTreeDuplicateKeysKeepAllIds) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/16);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  for (uint64_t id = 0; id < 400; ++id) {
    ASSERT_TRUE(tree->Insert(Value::Int(static_cast<int64_t>(id % 4)), id).ok());
  }
  std::vector<uint64_t> ids;
  ASSERT_TRUE(tree->Scan(Value::Int(2), true, Value::Int(2), true, &ids).ok());
  ASSERT_EQ(ids.size(), 100u);
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], 4 * i + 2);
}

TEST(PagedStorageTest, BPlusTreeRangeScan) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/16);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree->Insert(Value::Int(i), static_cast<uint64_t>(i)).ok());
  }
  std::vector<uint64_t> ids;
  ASSERT_TRUE(
      tree->Scan(Value::Int(250), true, Value::Int(259), true, &ids).ok());
  ASSERT_EQ(ids.size(), 10u);
  std::sort(ids.begin(), ids.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ids[i], static_cast<uint64_t>(250 + i));
  // Unbounded below.
  ids.clear();
  ASSERT_TRUE(tree->Scan(std::nullopt, true, Value::Int(4), true, &ids).ok());
  EXPECT_EQ(ids.size(), 5u);
  // Unbounded above.
  ids.clear();
  ASSERT_TRUE(tree->Scan(Value::Int(995), true, std::nullopt, true, &ids).ok());
  EXPECT_EQ(ids.size(), 5u);
}

TEST(PagedStorageTest, BPlusTreeTruncatedStringsReturnSuperset) {
  MemPageStore store;
  BufferPool pool(&store, /*capacity=*/16);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  // Two keys that agree beyond the truncation horizon and one that
  // differs early. Truncated, a and b encode identically.
  const std::string prefix(300, 'k');
  ASSERT_TRUE(tree->Insert(Value::String(prefix + "a"), 1).ok());
  ASSERT_TRUE(tree->Insert(Value::String(prefix + "b"), 2).ok());
  ASSERT_TRUE(tree->Insert(Value::String("zzz"), 3).ok());
  std::vector<uint64_t> ids;
  ASSERT_TRUE(tree->Scan(Value::String(prefix + "a"), true,
                         Value::String(prefix + "a"), true, &ids)
                  .ok());
  // The true match must be present (superset contract); the unrelated
  // short key must not.
  EXPECT_NE(std::find(ids.begin(), ids.end(), 1u), ids.end());
  EXPECT_EQ(std::find(ids.begin(), ids.end(), 3u), ids.end());
}

TEST(PagedStorageTest, BPlusTreeReopensFromFile) {
  const std::string path = ::testing::TempDir() + "/maybms_btree_test.db";
  PageId root = kInvalidPageId;
  {
    auto store = FilePageStore::Open(path, /*truncate=*/true);
    ASSERT_TRUE(store.ok());
    BufferPool pool(store->get(), /*capacity=*/8);
    auto tree = BPlusTree::Create(&pool);
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(tree->Insert(Value::Int(i), static_cast<uint64_t>(i)).ok());
    }
    root = tree->root();
    ASSERT_TRUE(pool.FlushAll().ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }
  auto store = FilePageStore::Open(path, /*truncate=*/false);
  ASSERT_TRUE(store.ok());
  BufferPool pool(store->get(), /*capacity=*/8);
  auto tree = BPlusTree::Open(&pool, root);
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->height(), 1u);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(
      tree->Scan(Value::Int(1234), true, Value::Int(1234), true, &ids).ok());
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 1234u);
}

// --------------------------------------------------------------------------
// Binary paged database format
// --------------------------------------------------------------------------

TEST(PagedStorageTest, BinaryRoundTripBeyondBufferPoolScale) {
  // Enough data that save AND load stream through more pages than the
  // persistence BufferPool holds (64 frames = 512 KiB): eviction and
  // write-back are on the critical path, not just FlushAll.
  Database db;
  ASSERT_TRUE(db.Execute("create table big (k int, tag text, w double)").ok());
  for (int chunk = 0; chunk < 9; ++chunk) {
    std::string insert = "insert into big values ";
    for (int i = 0; i < 1000; ++i) {
      const int k = chunk * 1000 + i;
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(k) + ", 'row-" + std::to_string(k) +
                "-" + std::string(40, 'x') + "', " + std::to_string(k) + ".5)";
    }
    ASSERT_TRUE(db.Execute(insert).ok());
  }
  ASSERT_TRUE(db.Execute("create index big_k on big (k)").ok());

  const std::string path = ::testing::TempDir() + "/maybms_big_binary.db";
  ASSERT_TRUE(SaveDatabaseToFile(db.catalog(), path).ok());

  Database db2;
  ASSERT_TRUE(LoadDatabaseFromFile(path, &db2.catalog()).ok());
  auto t1 = db.catalog().GetTable("big");
  auto t2 = db2.catalog().GetTable("big");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  ASSERT_EQ((*t2)->NumRows(), 9000u);
  ASSERT_GT(9000u * 60 / kPageSize, 64u) << "test must exceed the pool";
  for (size_t r = 0; r < 9000; r += 997) {
    EXPECT_TRUE(ValuesEqual((*t1)->rows()[r].values, (*t2)->rows()[r].values))
        << "row " << r;
  }
  // The index definition survived and the restored index answers.
  auto shown = db2.Query("show indexes");
  ASSERT_TRUE(shown.ok());
  ASSERT_EQ(shown->NumRows(), 1u);
  EXPECT_EQ(shown->At(0, 0).AsString(), "big_k");
  auto hit = db2.Query("select tag from big where k = 8642");
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->NumRows(), 1u);
  EXPECT_EQ(hit->At(0, 0).AsString(),
            "row-8642-" + std::string(40, 'x'));
}

TEST(PagedStorageTest, BinaryRoundTripOversizeRowsUseOverflowChains) {
  Database db;
  ASSERT_TRUE(db.Execute("create table blobs (k int, body text)").ok());
  // ~20 KiB string: larger than a page, must spill to an overflow chain.
  const std::string big(20000, 'B');
  ASSERT_TRUE(
      db.Execute("insert into blobs values (1, 'small'), (2, '" + big + "')")
          .ok());
  const std::string path = ::testing::TempDir() + "/maybms_overflow.db";
  ASSERT_TRUE(SaveDatabaseToFile(db.catalog(), path).ok());
  Database db2;
  ASSERT_TRUE(LoadDatabaseFromFile(path, &db2.catalog()).ok());
  auto r = db2.Query("select k from blobs where body = '" + big + "'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 0).AsInt(), 2);
}

TEST(PagedStorageTest, BinaryRoundTripPreservesUncertainty) {
  Database db;
  ASSERT_TRUE(db.Execute("create table src (k int, name text, w double)").ok());
  ASSERT_TRUE(db.Execute("insert into src values (1, 'a', 0.75), (1, 'b', "
                         "0.25), (2, 'c', 1.0), (2, 'd', 3.0)")
                  .ok());
  ASSERT_TRUE(db.Execute("create table u as select * from "
                         "(repair key k in src weight by w) r")
                  .ok());
  auto before = db.Query("select k, name, conf() as p from u group by k, name");
  ASSERT_TRUE(before.ok());

  const std::string path = ::testing::TempDir() + "/maybms_uncertain.db";
  ASSERT_TRUE(SaveDatabaseToFile(db.catalog(), path).ok());
  Database db2;
  ASSERT_TRUE(LoadDatabaseFromFile(path, &db2.catalog()).ok());
  EXPECT_EQ(db2.world_table().NumVariables(),
            db.world_table().NumVariables());
  auto after = db2.Query("select k, name, conf() as p from u group by k, name");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->ToString(), after->ToString());
}

TEST(PagedStorageTest, TextDumpsStillImport) {
  // Pre-paged-storage databases were saved as text dumps; the loader must
  // keep sniffing and importing them.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v text)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1, 'one'), (2, 'two')").ok());
  const std::string path = ::testing::TempDir() + "/maybms_text_dump.db";
  {
    std::ofstream out(path);
    out << DumpDatabase(db.catalog());
    ASSERT_TRUE(out.good());
  }
  Database db2;
  ASSERT_TRUE(LoadDatabaseFromFile(path, &db2.catalog()).ok());
  auto r = db2.Query("select v from t where k = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 0).AsString(), "two");
}

TEST(PagedStorageTest, BinaryLoaderRejectsCorruptFiles) {
  const std::string path = ::testing::TempDir() + "/maybms_corrupt.db";
  // A page-0-sized file with the right magic but garbage beyond it.
  {
    std::string junk(kPageSize, '\x5A');
    junk.replace(0, 8, "MAYBMSP1");
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fwrite(junk.data(), 1, junk.size(), f), junk.size());
    fclose(f);
  }
  Catalog fresh;
  EXPECT_FALSE(LoadDatabaseFromFile(path, &fresh).ok());
  // Loading into a used catalog is rejected up front.
  Database used;
  ASSERT_TRUE(used.Execute("create table t (k int)").ok());
  Status st = LoadDatabaseBinary(path, &used.catalog());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace maybms
