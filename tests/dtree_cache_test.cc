// The version-keyed d-tree compilation cache (src/lineage/dtree_cache.h):
//
//   - unit coverage of the key/LRU mechanics (full-key verification, byte
//     budget + eviction, stale purge on world-version advance);
//   - hit/miss-count assertions through the engine (the Stats API the
//     shell's \d and the bench report read);
//   - the INVALIDATION PROPERTY SUITE: on random databases, every
//     conf()/tconf()/posterior answer is BIT-IDENTICAL with the cache on
//     and off across INSERT / DELETE / UPDATE / ASSERT / world pruning /
//     CLEAR EVIDENCE / node-budget changes, at threads {1, 4};
//   - a tightened dtree_node_budget is never answered by a value compiled
//     under a looser budget, and `dtree_cache = off` never touches the
//     cache;
//   - conf_fallback estimates are identical with the cache on and off
//     (the lineage-content seed is derived from the same canonical
//     compiled form either way).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/lineage/compiled_dnf.h"
#include "src/lineage/dtree_cache.h"

namespace maybms {
namespace {

// ---------------------------------------------------------------------------
// Unit: key + LRU mechanics
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

TEST(DTreeCacheUnitTest, LookupInsertAndFullKeyVerification) {
  Fixture f = MakeFixture(12, 8, 1);
  CompiledDnf compiled(f.dnf, f.wt);
  ExactOptions options;
  LineageKey key = BuildLineageKey(compiled, f.wt.version(), options);

  DTreeCache cache;
  double v = -1;
  EXPECT_FALSE(cache.Lookup(key, &v));
  cache.Insert(key, 0.25);
  EXPECT_TRUE(cache.Lookup(key, &v));
  EXPECT_EQ(v, 0.25);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Same content under a different options fingerprint: a different key.
  ExactOptions tighter = options;
  tighter.max_steps = 7;
  LineageKey key2 = BuildLineageKey(compiled, f.wt.version(), tighter);
  EXPECT_FALSE(key == key2);
  EXPECT_FALSE(cache.Lookup(key2, &v));

  // A forged hash collision must NOT hit: full key words are compared.
  LineageKey forged = key2;
  forged.hash = key.hash;
  EXPECT_FALSE(cache.Lookup(forged, &v));

  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup(key, &v));
}

TEST(DTreeCacheUnitTest, KeyCoversContentWorldVersionAndBudget) {
  Fixture f = MakeFixture(12, 8, 2);
  CompiledDnf compiled(f.dnf, f.wt);
  ExactOptions options;
  LineageKey base = BuildLineageKey(compiled, f.wt.version(), options);

  // World-version axis.
  LineageKey later = BuildLineageKey(compiled, f.wt.version() + 1, options);
  EXPECT_FALSE(base == later);

  // Content axis: one more clause changes the key.
  Dnf grown = f.dnf;
  grown.AddClause(f.dnf.clauses().front());
  LineageKey grown_key =
      BuildLineageKey(CompiledDnf(grown, f.wt), f.wt.version(), options);
  EXPECT_FALSE(base == grown_key);

  // Budget axis (the "tightened budget" satellite).
  ExactOptions small_budget = options;
  small_budget.max_steps = 3;
  EXPECT_FALSE(base ==
               BuildLineageKey(compiled, f.wt.version(), small_budget));
}

TEST(DTreeCacheUnitTest, ByteBudgetEvictsLruFirst) {
  Fixture f = MakeFixture(16, 10, 3);
  ExactOptions options;
  DTreeCache cache(/*budget_bytes=*/0);  // unlimited while filling
  std::vector<LineageKey> keys;
  for (int i = 0; i < 16; ++i) {
    // Distinct content per entry via the world-version... no — that would
    // purge; vary the options budget instead (distinct fingerprints).
    ExactOptions o = options;
    o.max_steps = 1000 + i;
    keys.push_back(BuildLineageKey(CompiledDnf(f.dnf, f.wt), 0, o));
    cache.Insert(keys.back(), 0.5);
  }
  ASSERT_EQ(cache.stats().entries, 16u);
  const size_t per_entry = keys[0].ResidentBytes();
  double v;
  ASSERT_TRUE(cache.Lookup(keys[0], &v));  // refresh key 0 to MRU
  cache.SetBudgetBytes(per_entry * 4);
  DTreeCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, 4u);
  EXPECT_GE(s.evictions, 12u);
  EXPECT_LE(s.bytes, per_entry * 4);
  // The refreshed entry survived; the oldest unrefreshed ones went first.
  EXPECT_TRUE(cache.Lookup(keys[0], &v));
  EXPECT_FALSE(cache.Lookup(keys[1], &v));
}

TEST(DTreeCacheUnitTest, StalePurgeOnWorldVersionAdvance) {
  Fixture f = MakeFixture(12, 8, 4);
  CompiledDnf compiled(f.dnf, f.wt);
  ExactOptions options;
  DTreeCache cache;
  cache.Insert(BuildLineageKey(compiled, 0, options), 0.5);
  ASSERT_EQ(cache.stats().entries, 1u);
  // First probe at a newer world version drops version-0 entries: the
  // counter is monotonic, so they can never match again.
  double v;
  EXPECT_FALSE(cache.Lookup(BuildLineageKey(compiled, 1, options), &v));
  DTreeCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.stale_purged, 1u);
}

TEST(DTreeCacheUnitTest, WorldTableVersionBumpsOnCollapseOnly) {
  WorldTable wt;
  EXPECT_EQ(wt.version(), 0u);
  VarId x = *wt.NewVariable({0.2, 0.3, 0.5});
  VarId y = *wt.NewBooleanVariable(0.4);
  (void)y;
  // Registering variables leaves the version alone: fresh ids cannot
  // appear in previously-cached lineage.
  EXPECT_EQ(wt.version(), 0u);
  ASSERT_TRUE(wt.CollapseVariable(x, 1).ok());
  EXPECT_EQ(wt.version(), 1u);
}

// ---------------------------------------------------------------------------
// Engine-level helpers
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
  return options;
}

/// Seeds a database: G repair-key groups with >= 5 alternatives each (so
/// per-answer conf() lineage clears DTreeCache::kMinCachedClauses), v
/// values spread over a few buckets so `group by v` mixes variables from
/// many groups (decomposable, non-trivial lineage).
std::vector<std::string> BuildScript(Rng* rng, int groups) {
  std::vector<std::string> script;
  script.push_back("create table base (id int, k int, v int, w double)");
  int id = 0;
  for (int k = 0; k < groups; ++k) {
    int alts = 5 + static_cast<int>(rng->NextBounded(3));
    for (int a = 0; a < alts; ++a) {
      script.push_back(StringFormat("insert into base values (%d, %d, %d, %g)",
                                    id++, k,
                                    static_cast<int>(rng->NextBounded(3)),
                                    0.25 + 0.75 * rng->NextDouble()));
    }
  }
  script.push_back("create table u as repair key k in base weight by w");
  return script;
}

void ApplyScript(Database* db, const std::vector<std::string>& script) {
  for (const std::string& stmt : script) {
    ASSERT_TRUE(db->Execute(stmt).ok()) << stmt;
  }
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
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
        // Bit-identical, not merely close: a cache hit must reproduce the
        // uncached floating-point result exactly.
        EXPECT_EQ(DoubleBits(va.AsDouble()), DoubleBits(vb.AsDouble()))
            << what << " row " << r << " col " << c << ": " << va.ToString()
            << " vs " << vb.ToString();
      } else if (!va.is_null()) {
        EXPECT_TRUE(va.Equals(vb)) << what;
      }
    }
  }
}

const char* kConfQuery = "select v, conf() as p from u group by v order by v";
const char* kTconfQuery = "select id, tconf() as p from u order by id";

/// Runs `sql` against both databases; statuses must agree, and on success
/// the results must be bit-identical.
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

// ---------------------------------------------------------------------------
// Invalidation property suite: cache on == cache off, bit for bit, across
// every mutation seam, at threads {1, 4}.
// ---------------------------------------------------------------------------

TEST(DTreeCachePropertyTest, BitIdentityAcrossMutationsEnginesAndThreads) {
  for (const EngineConfig& config : kConfigs) {
    Rng rng(990 + config.num_threads);
    for (int iter = 0; iter < 6; ++iter) {
      SCOPED_TRACE(StringFormat("%s iteration %d", config.name, iter));
      std::vector<std::string> script =
          BuildScript(&rng, 3 + static_cast<int>(rng.NextBounded(3)));
      Database on(ConfigOptions(config, /*cache_on=*/true));
      Database off(ConfigOptions(config, /*cache_on=*/false));
      ApplyScript(&on, script);
      ApplyScript(&off, script);

      auto queries = [&](const char* phase) {
        StepBoth(&on, &off, kConfQuery, phase);
        StepBoth(&on, &off, kConfQuery, phase);  // repeat: the cached path
        StepBoth(&on, &off, kTconfQuery, phase);
      };

      queries("fresh");

      // INSERT (a certain row joins group v=1's lineage as an empty
      // clause: conf becomes 1 — content-keyed invalidation).
      StepBoth(&on, &off, "insert into u values (900, 90, 1, 1.0)", "insert");
      queries("after insert");
      StepBoth(&on, &off, "delete from u where id = 900", "delete");
      queries("after delete");
      // UPDATE that rewrites lineage membership of two v-groups.
      StepBoth(&on, &off, "update u set v = 0 where id = 1", "update");
      queries("after update");

      // ASSERT: posterior answers; possibly prunes (determined vars
      // collapse, bumping the world version).
      StepBoth(&on, &off, "assert select * from u where v = 1", "assert");
      queries("under evidence");

      // Budget change: previously cached full compilations must not leak
      // past the tightened budget (both sides fail alike, or both answer
      // alike under the recompile).
      StepBoth(&on, &off, "set dtree_node_budget = 6", "tighten");
      queries("tight budget");
      StepBoth(&on, &off, "set dtree_node_budget = 0", "loosen");
      queries("loosened budget");

      StepBoth(&on, &off, "clear evidence", "clear");
      queries("after clear");
    }
  }
}

// ---------------------------------------------------------------------------
// Hit/miss accounting through the engine
// ---------------------------------------------------------------------------

TEST(DTreeCacheEngineTest, RepeatedStatementsHitAndMutationsMiss) {
  Rng rng(7);
  Database db;  // cache on by default
  std::vector<std::string> script = BuildScript(&rng, 4);
  ApplyScript(&db, script);
  const DTreeCache& cache = db.catalog().dtree_cache();
  db.catalog().dtree_cache().ResetCounters();

  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats cold = cache.stats();
  EXPECT_GT(cold.insertions, 0u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.misses, 0u);

  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats warm = cache.stats();
  EXPECT_GE(warm.hits, cold.insertions);  // every compiled group reused
  EXPECT_EQ(warm.misses, cold.misses);    // no new compilations
  EXPECT_EQ(warm.insertions, cold.insertions);

  // DML invalidates by content: the v=1 group gains a certain row (an
  // empty clause in its lineage), so it recompiles.
  ASSERT_TRUE(db.Execute("insert into u values (901, 91, 1, 1.0)").ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats after_dml = cache.stats();
  EXPECT_GT(after_dml.misses, warm.misses);
  EXPECT_GT(after_dml.insertions, warm.insertions);

  // An UPDATE that does not touch lineage or grouping keeps hitting: the
  // content key is precise, not table-version-coarse.
  ASSERT_TRUE(db.Execute("update u set w = 9.0 where id = 0").ok());
  DTreeCache::Stats before = cache.stats();
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats after_datacol = cache.stats();
  EXPECT_EQ(after_datacol.misses, before.misses);
  EXPECT_GT(after_datacol.hits, before.hits);
}

TEST(DTreeCacheEngineTest, WorldPruningPurgesStaleEntries) {
  // Group 0 has two alternatives with distinct v; asserting one of them
  // determines the repair-key variable, so pruning collapses it and the
  // world version advances — every cached entry is stale-purged.
  Database db;
  ASSERT_TRUE(db.Execute("create table base (id int, k int, v int, w double)").ok());
  for (int k = 0; k < 4; ++k) {
    for (int a = 0; a < 5; ++a) {
      ASSERT_TRUE(db.Execute(StringFormat(
                                 "insert into base values (%d, %d, %d, 0.2)",
                                 k * 8 + a, k, (k == 0 && a == 0) ? 7 : a % 3))
                      .ok());
    }
  }
  ASSERT_TRUE(db.Execute("create table u as repair key k in base weight by w").ok());
  db.catalog().dtree_cache().ResetCounters();
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  ASSERT_TRUE(db.catalog().dtree_cache().stats().entries > 0);

  // v=7 exists only as alternative 0 of group 0: determined evidence.
  ASSERT_TRUE(db.Execute("assert select * from u where v = 7").ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats s = db.catalog().dtree_cache().stats();
  EXPECT_GT(s.stale_purged, 0u);
}

TEST(DTreeCacheEngineTest, TightenedBudgetIsNeverAnsweredFromCache) {
  Rng rng(21);
  Database db;
  ApplyScript(&db, BuildScript(&rng, 4));
  // Compile and cache under an unlimited budget.
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  ASSERT_GT(db.catalog().dtree_cache().stats().entries, 0u);
  // A budget of 1 node cannot fit any multi-clause group: the query must
  // FAIL (fallback is off) even though the loose-budget values are still
  // resident — the options fingerprint keys them apart.
  ASSERT_TRUE(db.Execute("set dtree_node_budget = 1").ok());
  Result<QueryResult> r = db.Query(kConfQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(DTreeCacheEngineTest, DisabledCacheBypass) {
  Rng rng(22);
  Database db;
  ApplyScript(&db, BuildScript(&rng, 3));
  db.catalog().dtree_cache().ResetCounters();

  ASSERT_TRUE(db.Execute("set dtree_cache = off").ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  DTreeCache::Stats s = db.catalog().dtree_cache().stats();
  EXPECT_EQ(s.hits + s.misses + s.insertions, 0u);  // knob off: untouched

  ASSERT_TRUE(db.Execute("set dtree_cache = on").ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  EXPECT_GT(db.catalog().dtree_cache().stats().insertions, 0u);
}

// ---------------------------------------------------------------------------
// conf_fallback determinism: the lineage-content seed is computed from the
// same canonical compiled lineage whether the exact path hit the cache,
// compiled fresh, or ran with the cache disabled.
// ---------------------------------------------------------------------------

TEST(DTreeCacheEngineTest, FallbackEstimatesIdenticalWithCacheOnAndOff) {
  Rng rng(33);
  std::vector<std::string> script = BuildScript(&rng, 4);
  std::vector<double> reference;
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    for (bool cache_on : {true, false}) {
      DatabaseOptions options = ConfigOptions(config, cache_on);
      options.exec.conf_fallback = true;
      options.exec.exact.max_steps = 4;  // force the fallback
      Database db(options);
      ApplyScript(&db, script);
      // Warm the cache (cache_on side) so the second run would hit if the
      // exact attempt succeeded — the seeds must come out the same anyway.
      Result<QueryResult> first = db.Query(kConfQuery);
      ASSERT_TRUE(first.ok());
      Result<QueryResult> r = db.Query(kConfQuery);
      ASSERT_TRUE(r.ok());
      EXPECT_NE(r->message().find("warning"), std::string::npos)
          << "expected the budget-fallback warning";
      std::vector<double> got;
      for (size_t i = 0; i < r->NumRows(); ++i) got.push_back(r->At(i, 1).AsDouble());
      if (reference.empty()) {
        reference = got;
      } else {
        ASSERT_EQ(reference.size(), got.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(DoubleBits(reference[i]), DoubleBits(got[i]))
              << "fallback estimate drifted (threads/cache)";
        }
      }
      ExpectBitIdentical(*first, *r, "fallback stable across repeats");
    }
  }
}

}  // namespace
}  // namespace maybms
