// Delta-incremental lineage maintenance and chunked columnar snapshots
// under streaming ingest:
//
//   - unit coverage of the chunk-granular snapshot bookkeeping
//     (src/storage/table.h): appends rebuild only the tail chunk, UPDATE
//     dirties only its chunk, DELETE dirties from the erase point, and
//     DeltaSince describes a mutation window precisely;
//   - the no-op DML regression: UPDATE/DELETE matching zero rows leave
//     the table version (and with it every snapshot and lineage-cache
//     entry) untouched;
//   - unit coverage of the kind-1 (per-component d-tree) and kind-2
//     (seeded aconf estimate) cache entries (src/lineage/dtree_cache.h):
//     forged hash collisions never hit (full-key verification), and the
//     estimate key covers exactly the axes the seeded estimate is a
//     function of;
//   - engine-level component reuse: a dashboard statement after an append
//     that grows the lineage by a fresh component recompiles only the
//     delta, answering untouched components from the cache — and a
//     tightened node budget is never answered from component entries;
//   - the STREAMING-INGEST PROPERTY SUITE: random INSERT / UPDATE /
//     DELETE / ASSERT / CLEAR EVIDENCE interleavings with conf(), aconf()
//     and tconf() probes after every step, bit-identical with the
//     incremental machinery on and off, at threads {1, 4}.
//
// Suite names contain "StreamingIngest" so the TSan CI lane picks them up.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/conf/montecarlo.h"
#include "src/engine/database.h"
#include "src/lineage/compiled_dnf.h"
#include "src/lineage/dtree.h"
#include "src/lineage/dtree_cache.h"
#include "src/storage/columnar.h"
#include "src/storage/table.h"

namespace maybms {
namespace {

// ---------------------------------------------------------------------------
// Unit: chunk-granular snapshot bookkeeping
// ---------------------------------------------------------------------------

Schema OneIntSchema() {
  return Schema(std::vector<Column>{{"id", TypeId::kInt}});
}

Row IntRow(int64_t v) { return Row({Value::Int(v)}); }

TEST(StreamingIngestSnapshotTest, AppendRebuildsOnlyTailChunk) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  auto s1 = t.Columnar();
  ASSERT_EQ(s1->chunks.size(), 3u);  // 4 + 4 + 2
  Table::SnapshotStats stats = t.snapshot_stats();
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.chunks_rebuilt, 3u);
  EXPECT_EQ(stats.chunks_reused, 0u);

  // An append lands in the partial tail chunk: only it rebuilds.
  ASSERT_TRUE(t.Append(IntRow(10)).ok());
  EXPECT_EQ(t.snapshot_stats().dirty_chunks, 1u);
  auto s2 = t.Columnar();
  ASSERT_EQ(s2->chunks.size(), 3u);
  EXPECT_EQ(s2->chunks[0], s1->chunks[0]);  // adopted, not re-columnarized
  EXPECT_EQ(s2->chunks[1], s1->chunks[1]);
  EXPECT_NE(s2->chunks[2], s1->chunks[2]);
  EXPECT_EQ(s2->chunks[2]->num_rows, 3u);
  stats = t.snapshot_stats();
  EXPECT_EQ(stats.chunks_reused, 2u);
  EXPECT_EQ(stats.chunks_rebuilt, 4u);

  // Fill the tail and spill into a fresh chunk: prior chunks all reused.
  ASSERT_TRUE(t.Append(IntRow(11)).ok());
  (void)t.Columnar();
  ASSERT_TRUE(t.Append(IntRow(12)).ok());
  auto s3 = t.Columnar();
  ASSERT_EQ(s3->chunks.size(), 4u);
  EXPECT_EQ(s3->chunks[0], s2->chunks[0]);
  EXPECT_EQ(s3->chunks[1], s2->chunks[1]);
  EXPECT_EQ(s3->chunks[3]->num_rows, 1u);
  EXPECT_EQ(s3->chunks[3]->columns[0]->GetValue(0).AsInt(), 12);
}

TEST(StreamingIngestSnapshotTest, UpdateDirtiesOnlyItsChunk) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  auto s1 = t.Columnar();
  t.MutableRow(5).values[0] = Value::Int(500);  // chunk 1
  Table::SnapshotStats stats = t.snapshot_stats();
  EXPECT_EQ(stats.dirty_chunks, 1u);
  auto s2 = t.Columnar();
  EXPECT_EQ(s2->chunks[0], s1->chunks[0]);
  EXPECT_NE(s2->chunks[1], s1->chunks[1]);
  EXPECT_EQ(s2->chunks[2], s1->chunks[2]);
  EXPECT_EQ(s2->chunks[1]->columns[0]->GetValue(1).AsInt(), 500);
}

TEST(StreamingIngestSnapshotTest, DeleteDirtiesFromErasePointOnward) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  auto s1 = t.Columnar();
  // Erase row 5: rows 6.. shift left through chunks 1 and 2; chunk 0 is
  // untouched (its rows and extent are identical).
  std::vector<uint8_t> remove(12, 0);
  remove[5] = 1;
  EXPECT_EQ(t.EraseMarked(remove), 1u);
  EXPECT_EQ(t.NumRows(), 11u);
  auto s2 = t.Columnar();
  ASSERT_EQ(s2->chunks.size(), 3u);
  EXPECT_EQ(s2->chunks[0], s1->chunks[0]);
  EXPECT_NE(s2->chunks[1], s1->chunks[1]);
  EXPECT_NE(s2->chunks[2], s1->chunks[2]);
  EXPECT_EQ(s2->chunks[1]->columns[0]->GetValue(1).AsInt(), 6);
  EXPECT_EQ(s2->chunks[2]->num_rows, 3u);
}

TEST(StreamingIngestSnapshotTest, NoOpDmlKeepsVersionAndSnapshot) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  auto snap = t.Columnar();
  uint64_t v = t.version();
  // A delete matching nothing must not bump the version or invalidate the
  // snapshot (the lineage caches key on content, but a version bump would
  // still force a pointless snapshot rebuild).
  std::vector<uint8_t> remove(6, 0);
  EXPECT_EQ(t.EraseMarked(remove), 0u);
  EXPECT_EQ(t.version(), v);
  EXPECT_EQ(t.Columnar().get(), snap.get());
  EXPECT_EQ(t.EraseMarked({}), 0u);  // short mask: same contract
  EXPECT_EQ(t.version(), v);
}

TEST(StreamingIngestSnapshotTest, NoOpDmlThroughEngineKeepsVersion) {
  Database db;
  ASSERT_TRUE(db.Execute("create table base (id int, k int, v int, w double)").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Execute(StringFormat(
                               "insert into base values (%d, %d, %d, 0.5)", i,
                               i / 2, i % 3))
                    .ok());
  }
  ASSERT_TRUE(db.Execute("create table u as repair key k in base weight by w").ok());
  TablePtr u = *db.catalog().GetTable("u");
  auto snap = u->Columnar();
  uint64_t v = u->version();
  // Neither statement matches a row: version and cached snapshot survive.
  ASSERT_TRUE(db.Execute("update u set v = 9 where id = 100").ok());
  ASSERT_TRUE(db.Execute("delete from u where id = 100").ok());
  EXPECT_EQ(u->version(), v);
  EXPECT_EQ(u->Columnar().get(), snap.get());
  // A matching UPDATE does bump it (sanity check of the same seam).
  ASSERT_TRUE(db.Execute("update u set v = 9 where id = 0").ok());
  EXPECT_GT(u->version(), v);
}

TEST(StreamingIngestSnapshotTest, DeltaSinceDescribesAppendsPrecisely) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  uint64_t v0 = t.version();
  TableDelta none = t.DeltaSince(v0);
  EXPECT_TRUE(none.precise);
  EXPECT_EQ(none.appended_begin, none.appended_end);
  EXPECT_TRUE(none.dirty_chunks.empty());

  for (int i = 6; i < 9; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  TableDelta d = t.DeltaSince(v0);
  EXPECT_TRUE(d.precise);
  EXPECT_EQ(d.appended_begin, 6u);
  EXPECT_EQ(d.appended_end, 9u);
  // Rows 6, 7 extend chunk 1; row 8 opens chunk 2.
  ASSERT_EQ(d.dirty_chunks.size(), 2u);
  EXPECT_EQ(d.dirty_chunks[0], 1u);
  EXPECT_EQ(d.dirty_chunks[1], 2u);

  // An in-place update shows up as a dirty chunk with no appended rows.
  uint64_t v1 = t.version();
  t.MutableRow(0).values[0] = Value::Int(100);
  TableDelta upd = t.DeltaSince(v1);
  EXPECT_TRUE(upd.precise);
  EXPECT_EQ(upd.appended_begin, upd.appended_end);
  ASSERT_EQ(upd.dirty_chunks.size(), 1u);
  EXPECT_EQ(upd.dirty_chunks[0], 0u);
}

TEST(StreamingIngestSnapshotTest, DeltaSinceDegradesWhenWindowAgesOut) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  ASSERT_TRUE(t.Append(IntRow(0)).ok());
  uint64_t v0 = t.version();
  // Push far more size-changing mutations than the bounded log holds.
  for (int i = 1; i < 200; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  TableDelta d = t.DeltaSince(v0);
  EXPECT_FALSE(d.precise);
  EXPECT_EQ(d.dirty_chunks.size(), t.NumChunks());  // everything may differ
}

TEST(StreamingIngestSnapshotTest, SetChunkRowsRelayoutsWithoutVersionBump) {
  Table t("t", OneIntSchema());
  t.SetChunkRows(4);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(t.Append(IntRow(i)).ok());
  auto s1 = t.Columnar();
  ASSERT_EQ(s1->chunks.size(), 2u);
  uint64_t v = t.version();
  t.SetChunkRows(3);
  EXPECT_EQ(t.version(), v);  // contents unchanged
  EXPECT_EQ(t.NumChunks(), 3u);
  auto s2 = t.Columnar();
  ASSERT_EQ(s2->chunks.size(), 3u);
  EXPECT_EQ(s2->num_rows, 8u);
  EXPECT_EQ(s2->chunks[2]->columns[0]->GetValue(1).AsInt(), 7);
  // Same layout re-applied: nothing rebuilds.
  uint64_t rebuilt = t.snapshot_stats().chunks_rebuilt;
  t.SetChunkRows(3);
  EXPECT_EQ(t.Columnar().get(), s2.get());
  EXPECT_EQ(t.snapshot_stats().chunks_rebuilt, rebuilt);
}

// ---------------------------------------------------------------------------
// Unit: kind-1 (component) and kind-2 (estimate) cache entries
// ---------------------------------------------------------------------------

struct Fixture {
  WorldTable wt;
  Dnf dnf;
};

Fixture MakeFixture(int vars, int clauses, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  std::vector<VarId> ids;
  for (int i = 0; i < vars; ++i) {
    ids.push_back(*f.wt.NewBooleanVariable(0.2 + 0.6 * rng.NextDouble()));
  }
  for (int c = 0; c < clauses; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < 3; ++a) atoms.push_back({ids[rng.NextBounded(ids.size())], 1});
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond) f.dnf.AddClause(std::move(*cond));
  }
  return f;
}

TEST(StreamingIngestCacheTest, ComponentKeyForgedCollisionRejected) {
  Fixture f = MakeFixture(12, 8, 5);
  CompiledDnf compiled(f.dnf, f.wt);
  const std::vector<ClauseId>& clauses = compiled.original_clauses();
  ExactOptions options;
  LineageKey key = BuildComponentKey(compiled, clauses.data(), clauses.size(),
                                     0, options);

  DTreeCache cache;
  double v = -1;
  EXPECT_FALSE(cache.LookupComponent(key, &v));
  cache.InsertComponent(key, 0.625, nullptr);
  std::shared_ptr<const DTree> tree;
  EXPECT_TRUE(cache.LookupComponent(key, &v, &tree));
  EXPECT_EQ(v, 0.625);
  EXPECT_EQ(tree, nullptr);

  // A forged hash collision must NOT hit: full key words are compared.
  ExactOptions tighter = options;
  tighter.max_steps = 7;
  LineageKey forged = BuildComponentKey(compiled, clauses.data(),
                                        clauses.size(), 0, tighter);
  ASSERT_FALSE(forged == key);
  forged.hash = key.hash;
  EXPECT_FALSE(cache.LookupComponent(forged, &v));

  // Same content as a kind-0 key: a DIFFERENT key (the kind word), so a
  // whole-statement probe can never be answered by a component entry.
  LineageKey whole = BuildLineageKey(compiled, 0, options);
  EXPECT_FALSE(whole == key);
  EXPECT_FALSE(cache.Lookup(whole, &v));

  // Component probes count on their own stat axis.
  DTreeCache::Stats s = cache.stats();
  EXPECT_EQ(s.component_hits, 1u);
  EXPECT_EQ(s.component_misses, 2u);
  EXPECT_EQ(s.component_insertions, 1u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(StreamingIngestCacheTest, EstimateKeyCoversSeedEpsilonDeltaAndKnobs) {
  Fixture f = MakeFixture(12, 8, 6);
  CompiledDnf compiled(f.dnf, f.wt);
  MonteCarloOptions mopts;
  LineageKey base =
      BuildEstimateKey(compiled, 0, 42, 0.1, 0.1, ~0ull, mopts);

  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 43, 0.1, 0.1, ~0ull, mopts));
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 42, 0.2, 0.1, ~0ull, mopts));
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 42, 0.1, 0.2, ~0ull, mopts));
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 1, 42, 0.1, 0.1, ~0ull, mopts));
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 42, 0.1, 0.1, 3, mopts));
  MonteCarloOptions fewer = mopts;
  fewer.max_samples = 1000;
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 42, 0.1, 0.1, ~0ull, fewer));
  MonteCarloOptions batched = mopts;
  batched.sample_batch_size = 64;
  EXPECT_FALSE(base == BuildEstimateKey(compiled, 0, 42, 0.1, 0.1, ~0ull, batched));
  // batches_per_wave is a pure scheduling knob (montecarlo.h pins that it
  // never changes the estimate): deliberately NOT part of the key.
  MonteCarloOptions waves = mopts;
  waves.batches_per_wave = 1;
  EXPECT_TRUE(base == BuildEstimateKey(compiled, 0, 42, 0.1, 0.1, ~0ull, waves));

  DTreeCache cache;
  double est = -1;
  uint64_t samples = 0;
  EXPECT_FALSE(cache.LookupEstimate(base, &est, &samples));
  cache.InsertEstimate(base, 0.375, 12345);
  EXPECT_TRUE(cache.LookupEstimate(base, &est, &samples));
  EXPECT_EQ(est, 0.375);
  EXPECT_EQ(samples, 12345u);
  LineageKey forged = BuildEstimateKey(compiled, 0, 43, 0.1, 0.1, ~0ull, mopts);
  forged.hash = base.hash;
  EXPECT_FALSE(cache.LookupEstimate(forged, &est, &samples));
  DTreeCache::Stats s = cache.stats();
  EXPECT_EQ(s.estimate_hits, 1u);
  EXPECT_EQ(s.estimate_misses, 2u);
  EXPECT_EQ(s.estimate_insertions, 1u);
}

// ---------------------------------------------------------------------------
// Engine level: component reuse under streaming appends
// ---------------------------------------------------------------------------

constexpr int kBlockVars = 10;
constexpr int kBlockClauses = 12;

/// Appends one independent lineage block to `dash`: kBlockClauses width-3
/// clauses over a FRESH pool of kBlockVars variables, all in group g=0.
/// Each block is one connected component of the group's lineage with
/// enough clauses to clear DTreeCache::kMinCachedClauses.
void AppendBlock(Database* db, Table* table, Rng* rng, int* next_id) {
  std::vector<VarId> pool;
  for (int v = 0; v < kBlockVars; ++v) {
    pool.push_back(
        *db->world_table().NewBooleanVariable(0.1 + 0.3 * rng->NextDouble()));
  }
  for (int c = 0; c < kBlockClauses; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < 3; ++a) {
      atoms.push_back({pool[rng->NextBounded(pool.size())], 1});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (!cond) continue;  // duplicate-var draw collapsed the clause
    table->AppendUnchecked(
        Row({Value::Int(0), Value::Int((*next_id)++)}, std::move(*cond)));
  }
}

std::unique_ptr<Database> MakeBlocksDb(int blocks, bool cache_on,
                                       unsigned threads = 1) {
  DatabaseOptions options;
  options.exec.dtree_cache = cache_on;
  options.exec.num_threads = threads;
  auto db = std::make_unique<Database>(options);
  Schema schema(std::vector<Column>{{"g", TypeId::kInt}, {"id", TypeId::kInt}});
  auto table = db->catalog().CreateTable("dash", schema, /*uncertain=*/true);
  EXPECT_TRUE(table.ok());
  Rng rng(2024);
  int next_id = 0;
  for (int b = 0; b < blocks; ++b) {
    AppendBlock(db.get(), table->get(), &rng, &next_id);
  }
  return db;
}

const char* kBlockConf = "select g, conf() as p from dash group by g order by g";

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(StreamingIngestEngineTest, AppendRecompilesOnlyTheNewComponent) {
  auto db = MakeBlocksDb(4, /*cache_on=*/true);
  auto off = MakeBlocksDb(4, /*cache_on=*/false);
  const DTreeCache& cache = db->catalog().dtree_cache();

  // Cold: whole-statement key misses, the component path compiles and
  // caches every block, and the fold is bit-identical to the cache-off
  // whole compilation.
  Result<QueryResult> cold = db->Query(kBlockConf);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  Result<QueryResult> truth = off->Query(kBlockConf);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(DoubleBits(cold->At(0, 1).AsDouble()),
            DoubleBits(truth->At(0, 1).AsDouble()));
  DTreeCache::Stats after_cold = cache.stats();
  EXPECT_GE(after_cold.component_insertions, 4u);

  // Warm repeat: answered from the whole-statement entry, not components.
  ASSERT_TRUE(db->Query(kBlockConf).ok());
  DTreeCache::Stats warm = cache.stats();
  EXPECT_GT(warm.hits, 0u);
  EXPECT_EQ(warm.component_misses, after_cold.component_misses);

  // Streaming append: one fresh block = one new component. The statement
  // misses its whole key but reuses every untouched component.
  Rng rng(777);
  int next_id = 10'000;
  TablePtr dash_on = *db->catalog().GetTable("dash");
  TablePtr dash_off = *off->catalog().GetTable("dash");
  {
    // Mirror the block into both databases: same variables, same clauses
    // (their world tables evolved identically, so ids line up).
    Rng rng_off(777);
    int next_id_off = 10'000;
    AppendBlock(db.get(), dash_on.get(), &rng, &next_id);
    AppendBlock(off.get(), dash_off.get(), &rng_off, &next_id_off);
  }
  Result<QueryResult> incr = db->Query(kBlockConf);
  ASSERT_TRUE(incr.ok());
  Result<QueryResult> full = off->Query(kBlockConf);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(DoubleBits(incr->At(0, 1).AsDouble()),
            DoubleBits(full->At(0, 1).AsDouble()))
      << "incremental fold drifted from the cold whole compilation";
  DTreeCache::Stats after_append = cache.stats();
  EXPECT_GE(after_append.component_hits, 4u);  // old blocks reused
  EXPECT_GT(after_append.component_insertions, after_cold.component_insertions)
      << "the fresh block should have been compiled and cached";
}

TEST(StreamingIngestEngineTest, ComponentCacheKnobDisablesReuse) {
  auto db = MakeBlocksDb(3, /*cache_on=*/true);
  ASSERT_TRUE(db->Execute("set dtree_component_cache = off").ok());
  ASSERT_TRUE(db->Query(kBlockConf).ok());
  DTreeCache::Stats s = db->catalog().dtree_cache().stats();
  EXPECT_EQ(s.component_hits + s.component_misses + s.component_insertions, 0u);
  ASSERT_TRUE(db->Execute("set dtree_component_cache = on").ok());
  db->catalog().dtree_cache().Clear();
  ASSERT_TRUE(db->Query(kBlockConf).ok());
  EXPECT_GT(db->catalog().dtree_cache().stats().component_insertions, 0u);
}

TEST(StreamingIngestEngineTest, TightenedBudgetNotAnsweredFromComponents) {
  auto db = MakeBlocksDb(4, /*cache_on=*/true);
  ASSERT_TRUE(db->Query(kBlockConf).ok());
  ASSERT_GT(db->catalog().dtree_cache().stats().component_insertions, 0u);
  // One node cannot fit any block: the query must FAIL even though every
  // component's loose-budget tree is resident — the options fingerprint
  // keys them apart.
  ASSERT_TRUE(db->Execute("set dtree_node_budget = 1").ok());
  Result<QueryResult> r = db->Query(kBlockConf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(StreamingIngestEngineTest, RepeatedAconfReusesEstimates) {
  // threads >= 2 engages the seeded (content-derived, cacheable) path.
  auto db = MakeBlocksDb(3, /*cache_on=*/true, /*threads=*/4);
  const char* sql =
      "select g, aconf(0.1, 0.1) as p from dash group by g order by g";
  Result<QueryResult> first = db->Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  DTreeCache::Stats cold = db->catalog().dtree_cache().stats();
  EXPECT_GT(cold.estimate_insertions, 0u);
  EXPECT_EQ(cold.estimate_hits, 0u);

  Result<QueryResult> second = db->Query(sql);
  ASSERT_TRUE(second.ok());
  DTreeCache::Stats warm = db->catalog().dtree_cache().stats();
  EXPECT_GT(warm.estimate_hits, 0u);
  EXPECT_EQ(warm.estimate_insertions, cold.estimate_insertions);
  // The cached estimate IS the value a rerun would sample — and both match
  // a cache-disabled database bit for bit (content-derived seeds).
  EXPECT_EQ(DoubleBits(first->At(0, 1).AsDouble()),
            DoubleBits(second->At(0, 1).AsDouble()));
  auto off = MakeBlocksDb(3, /*cache_on=*/false, /*threads=*/4);
  Result<QueryResult> uncached = off->Query(sql);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(DoubleBits(first->At(0, 1).AsDouble()),
            DoubleBits(uncached->At(0, 1).AsDouble()));
}

TEST(StreamingIngestEngineTest, SnapshotChunkRowsKnobAppliesToTables) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (id int)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute(StringFormat("insert into t values (%d)", i)).ok());
  }
  ASSERT_TRUE(db.Execute("set snapshot_chunk_rows = 4").ok());
  ASSERT_TRUE(db.Query("select id from t").ok());  // applies the layout
  TablePtr t = *db.catalog().GetTable("t");
  EXPECT_EQ(t->chunk_rows(), 4u);
  EXPECT_EQ(t->NumChunks(), 3u);
  // New tables pick the layout up at creation.
  ASSERT_TRUE(db.Execute("create table t2 (id int)").ok());
  EXPECT_EQ((*db.catalog().GetTable("t2"))->chunk_rows(), 4u);
  // Zero rows per chunk is rejected.
  EXPECT_FALSE(db.Execute("set snapshot_chunk_rows = 0").ok());
  EXPECT_FALSE(db.Execute("set snapshot_chunk_rows = oops").ok());
}

// ---------------------------------------------------------------------------
// Streaming-ingest property suite: random DML/evidence interleavings with
// conf/aconf/tconf probes, bit-identical with the incremental machinery
// (chunked snapshots feed both sides; d-tree + component + estimate caches
// on vs off) across thread counts.
// ---------------------------------------------------------------------------

struct EngineConfig {
  unsigned num_threads;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {1, "batch/1"},
    {4, "batch/4"},
};

DatabaseOptions ConfigOptions(const EngineConfig& config, bool cache_on) {
  DatabaseOptions options;
  options.exec.num_threads = config.num_threads;
  if (config.num_threads > 1) options.exec.morsel_size = 3;
  options.exec.dtree_cache = cache_on;
  // Small chunks so every few appends cross a chunk boundary.
  options.exec.snapshot_chunk_rows = 4;
  return options;
}

void ExpectBitIdentical(const QueryResult& a, const QueryResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.NumRows(), b.NumRows()) << what;
  ASSERT_EQ(a.NumColumns(), b.NumColumns()) << what;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      const Value& va = a.At(r, c);
      const Value& vb = b.At(r, c);
      ASSERT_EQ(va.type(), vb.type()) << what;
      if (va.type() == TypeId::kDouble) {
        EXPECT_EQ(DoubleBits(va.AsDouble()), DoubleBits(vb.AsDouble()))
            << what << " row " << r << " col " << c << ": " << va.ToString()
            << " vs " << vb.ToString();
      } else if (!va.is_null()) {
        EXPECT_TRUE(va.Equals(vb)) << what;
      }
    }
  }
}

void StepBoth(Database* on, Database* off, const std::string& sql,
              const std::string& what) {
  Result<QueryResult> a = on->Query(sql);
  Result<QueryResult> b = off->Query(sql);
  ASSERT_EQ(a.ok(), b.ok()) << what << ": " << sql << " — "
                            << (a.ok() ? b.status() : a.status()).ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << what;
    return;
  }
  ExpectBitIdentical(*a, *b, what + ": " + sql);
}

TEST(StreamingIngestPropertyTest, RandomInterleavingsBitIdenticalOnVsOff) {
  const char* kConf = "select v, conf() as p from u group by v order by v";
  const char* kAconf =
      "select v, aconf(0.2, 0.2) as p from u group by v order by v";
  const char* kTconf = "select id, tconf() as p from u order by id";

  for (const EngineConfig& config : kConfigs) {
    Rng rng(4401 + config.num_threads);
    for (int iter = 0; iter < 3; ++iter) {
      SCOPED_TRACE(StringFormat("%s iteration %d", config.name, iter));
      Database on(ConfigOptions(config, /*cache_on=*/true));
      Database off(ConfigOptions(config, /*cache_on=*/false));
      // Seed: a repair-key U-relation (5+ alternatives per key group so
      // per-answer lineage clears kMinCachedClauses).
      std::vector<std::string> script;
      script.push_back("create table base (id int, k int, v int, w double)");
      int id = 0;
      int groups = 3 + static_cast<int>(rng.NextBounded(3));
      for (int k = 0; k < groups; ++k) {
        int alts = 5 + static_cast<int>(rng.NextBounded(3));
        for (int a = 0; a < alts; ++a) {
          script.push_back(StringFormat(
              "insert into base values (%d, %d, %d, %g)", id++, k,
              static_cast<int>(rng.NextBounded(3)),
              0.25 + 0.75 * rng.NextDouble()));
        }
      }
      script.push_back("create table u as repair key k in base weight by w");
      for (const std::string& stmt : script) {
        ASSERT_TRUE(on.Execute(stmt).ok()) << stmt;
        ASSERT_TRUE(off.Execute(stmt).ok()) << stmt;
      }

      auto probes = [&](const char* phase) {
        StepBoth(&on, &off, kConf, phase);
        StepBoth(&on, &off, kConf, phase);  // repeat: the cached path
        StepBoth(&on, &off, kAconf, phase);
        StepBoth(&on, &off, kAconf, phase);  // repeat: the estimate cache
        StepBoth(&on, &off, kTconf, phase);
      };
      probes("fresh");

      bool evidence = false;
      int next_id = 1000;
      for (int step = 0; step < 8; ++step) {
        std::string stmt;
        std::string phase;
        switch (rng.NextBounded(evidence ? 6 : 5)) {
          case 0:  // streaming INSERT of a certain row
            stmt = StringFormat("insert into u values (%d, %d, %d, 1.0)",
                                next_id, 90 + step,
                                static_cast<int>(rng.NextBounded(3)));
            ++next_id;
            phase = "insert";
            break;
          case 1:  // UPDATE that rewrites group membership
            stmt = StringFormat("update u set v = %d where id = %d",
                                static_cast<int>(rng.NextBounded(3)),
                                static_cast<int>(rng.NextBounded(10)));
            phase = "update";
            break;
          case 2:  // DELETE (sometimes matching nothing: the no-op seam)
            stmt = StringFormat("delete from u where id = %d",
                                rng.NextBounded(2) == 0
                                    ? static_cast<int>(rng.NextBounded(10))
                                    : 99'999);
            phase = "delete";
            break;
          case 3:  // no-op UPDATE
            stmt = "update u set v = 2 where id = 99999";
            phase = "noop-update";
            break;
          case 4:
            stmt = StringFormat("assert select * from u where v = %d",
                                static_cast<int>(rng.NextBounded(3)));
            phase = "assert";
            evidence = true;
            break;
          default:
            stmt = "clear evidence";
            phase = "clear";
            evidence = false;
            break;
        }
        StepBoth(&on, &off, stmt, phase);
        probes(phase.c_str());
      }
    }
  }
}

}  // namespace
}  // namespace maybms
