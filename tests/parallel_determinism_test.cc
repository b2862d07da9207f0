// Determinism of the parallel confidence paths.
//
// THE SUBSTREAM SEEDING SCHEME (pinned by these tests): a seeded sampling
// run never consumes a shared RNG stream. Instead, trials are drawn in
// fixed-size batches (MonteCarloOptions::sample_batch_size); batch k of a
// phase draws from a private Rng seeded with
//
//     SubstreamSeed(phase_seed, k)
//       = splitmix64_finalizer(phase_seed + (k + 1) * 0x9e3779b97f4a7c15)
//
// i.e. counter-based seeding: the seed of a batch is a pure function of
// (base seed, phase, batch index). The DKLR stopping rule folds whole
// batches in index order, so the sampled trial sequence — and therefore
// the estimate — is bit-identical no matter how many threads compute the
// batches, or whether a pool is used at all. Inside the engine, every
// aconf() group that its bounded exact attempt cannot answer samples on
// this path, with the base seed derived from its lineage content
// (LineageSeed), so repeated statements over unchanged lineage reproduce
// their estimates at every thread count, 1 included.
//
// conf() (the exact solver) is deterministic by construction: root
// components solve independently and fold in component order, so parallel
// and serial runs agree bit for bit at every thread count, 1 included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"
#include "src/engine/database.h"
#include "src/lineage/dnf.h"
#include "src/prob/world_table.h"

namespace maybms {
namespace {

// Random monotone DNF over Boolean variables (same family as the
// exact-vs-approx bench workload).
struct Instance {
  WorldTable wt;
  Dnf dnf;
};

Instance RandomDnf(int vars, int clauses, int width, uint64_t seed) {
  Instance inst;
  Rng rng(seed);
  std::vector<VarId> ids;
  for (int i = 0; i < vars; ++i) {
    ids.push_back(*inst.wt.NewBooleanVariable(0.1 + 0.3 * rng.NextDouble()));
  }
  for (int c = 0; c < clauses; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < width; ++a) {
      atoms.push_back({ids[rng.NextBounded(ids.size())], 1});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond) inst.dnf.AddClause(std::move(*cond));
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Direct solver API
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, SubstreamSeedIsCounterBasedAndStable) {
  // Pure function of (base, counter)...
  EXPECT_EQ(SubstreamSeed(42, 0), SubstreamSeed(42, 0));
  // ...distinct across adjacent counters and bases.
  EXPECT_NE(SubstreamSeed(42, 0), SubstreamSeed(42, 1));
  EXPECT_NE(SubstreamSeed(42, 0), SubstreamSeed(43, 0));
  // Seeding an Rng from a substream gives reproducible draws.
  Rng a(SubstreamSeed(7, 12)), b(SubstreamSeed(7, 12));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(ParallelDeterminismTest, ExactConfidenceBitEqualAtAnyThreadCount) {
  ThreadPool pool2(2), pool8(8);
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    Instance inst = RandomDnf(40, 30, 3, seed);
    double serial = *ExactConfidence(inst.dnf, inst.wt);
    EXPECT_EQ(serial, *ExactConfidence(inst.dnf, inst.wt, {}, nullptr, &pool2))
        << "seed " << seed;
    EXPECT_EQ(serial, *ExactConfidence(inst.dnf, inst.wt, {}, nullptr, &pool8))
        << "seed " << seed;
  }
}

TEST(ParallelDeterminismTest, ExactStatsStillReportWorkWhenParallel) {
  ThreadPool pool(4);
  Instance inst = RandomDnf(60, 24, 2, 5);  // high ratio: decomposes well
  ExactStats stats;
  ASSERT_TRUE(ExactConfidence(inst.dnf, inst.wt, {}, &stats, &pool).ok());
  EXPECT_GT(stats.steps, 0u);
}

TEST(ParallelDeterminismTest, SeededAconfBitEqualAtAnyThreadCount) {
  ThreadPool pool2(2), pool3(3), pool8(8);
  Instance inst = RandomDnf(24, 40, 3, 99);
  auto run = [&](ThreadPool* pool) {
    auto r = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.1,
                                      0.1, /*base_seed=*/123456, {}, pool);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };
  MonteCarloResult serial = run(nullptr);
  for (ThreadPool* pool : {&pool2, &pool3, &pool8}) {
    MonteCarloResult mc = run(pool);
    EXPECT_EQ(serial.estimate, mc.estimate);
    EXPECT_EQ(serial.samples, mc.samples);
  }
  // Repeated runs at the same seed are identical; a different base seed
  // gives a different (still valid) sample.
  MonteCarloResult again = run(&pool2);
  EXPECT_EQ(serial.estimate, again.estimate);
  auto other = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.1,
                                        0.1, /*base_seed=*/654321, {}, &pool2);
  ASSERT_TRUE(other.ok());
  double truth = *ExactConfidence(inst.dnf, inst.wt);
  EXPECT_NEAR(serial.estimate, truth, 0.1 * truth + 1e-9);
  EXPECT_NEAR(other->estimate, truth, 0.1 * truth + 1e-9);
}

TEST(ParallelDeterminismTest, SeededAconfInvariantToBatchingKnobsOnlyViaSeed) {
  // The estimate may depend on the batching knobs (they define the
  // stream), but for FIXED knobs it must not depend on the pool.
  ThreadPool pool(8);
  Instance inst = RandomDnf(16, 24, 2, 7);
  MonteCarloOptions small_batches;
  small_batches.sample_batch_size = 64;
  small_batches.batches_per_wave = 3;
  auto serial = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.15,
                                         0.1, 42, small_batches, nullptr);
  auto parallel = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt),
                                           0.15, 0.1, 42, small_batches, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->estimate, parallel->estimate);
  EXPECT_EQ(serial->samples, parallel->samples);
}

// ---------------------------------------------------------------------------
// Engine level: conf()/aconf() through SQL at varying thread counts
// ---------------------------------------------------------------------------

Database MakeWorkloadDb(unsigned num_threads) {
  DatabaseOptions options;
  options.exec.num_threads = num_threads;
  if (num_threads > 1) options.exec.morsel_size = 4;
  Database db(options);
  EXPECT_TRUE(db.Execute("create table t (g int, x int, w double)").ok());
  Rng rng(4242);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(db.Execute(StringFormat(
        "insert into t values (%d, %d, %g)", i % 5,
        static_cast<int>(rng.NextBounded(4)), 0.2 + 0.6 * rng.NextDouble())).ok());
  }
  EXPECT_TRUE(db.Execute("create table u as select * from "
                         "(pick tuples from t independently with probability w) r")
                  .ok());
  return db;
}

TEST(ParallelDeterminismTest, EngineConfBitEqualAcrossThreadCounts) {
  const std::string sql = "select g, conf() as p from u group by g order by g";
  Database ref_db = MakeWorkloadDb(1);
  auto reference = ref_db.Query(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (unsigned threads : {2u, 8u}) {
    Database db = MakeWorkloadDb(threads);
    auto got = db.Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(reference->NumRows(), got->NumRows());
    for (size_t i = 0; i < reference->NumRows(); ++i) {
      EXPECT_TRUE(reference->At(i, 0).Equals(got->At(i, 0)));
      // conf() is exact: bit-equal at EVERY thread count, 1 included.
      EXPECT_EQ(reference->At(i, 1).AsDouble(), got->At(i, 1).AsDouble())
          << threads << " threads, row " << i;
    }
  }
}

TEST(ParallelDeterminismTest, EngineAconfBitEqualAcrossParallelThreadCounts) {
  const std::string sql =
      "select g, aconf(0.1, 0.1) as p from u group by g order by g";
  Database ref_db = MakeWorkloadDb(2);
  auto reference = ref_db.Query(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (unsigned threads : {3u, 8u}) {
    Database db = MakeWorkloadDb(threads);
    auto got = db.Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(reference->NumRows(), got->NumRows());
    for (size_t i = 0; i < reference->NumRows(); ++i) {
      EXPECT_EQ(reference->At(i, 1).AsDouble(), got->At(i, 1).AsDouble())
          << threads << " threads, row " << i;
    }
  }
  // Parallel aconf seeds are content-derived, so a fresh database (or a
  // rerun over unchanged lineage) reproduces the original estimates
  // exactly.
  Database again_db = MakeWorkloadDb(2);
  auto again = again_db.Query(sql);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < reference->NumRows(); ++i) {
    EXPECT_EQ(reference->At(i, 1).AsDouble(), again->At(i, 1).AsDouble());
  }
  // A serial run (num_threads=1) answers the same way; (ε,δ) bounds how
  // far either answer can sit from the truth.
  Database serial_db = MakeWorkloadDb(1);
  auto serial = serial_db.Query(sql);
  ASSERT_TRUE(serial.ok());
  auto exact = serial_db.Query("select g, conf() as p from u group by g order by g");
  ASSERT_TRUE(exact.ok());
  for (size_t i = 0; i < reference->NumRows(); ++i) {
    double truth = exact->At(i, 1).AsDouble();
    EXPECT_NEAR(reference->At(i, 1).AsDouble(), truth, 0.1 * truth + 1e-9);
    EXPECT_NEAR(serial->At(i, 1).AsDouble(), truth, 0.1 * truth + 1e-9);
  }
}

}  // namespace
}  // namespace maybms
