// Cost-based optimizer tests (src/opt/): KMV sketch accuracy, incremental
// statistics refresh, join-order enumeration (DP and greedy), EXPLAIN plan
// shapes under the optimizer knobs, and the central property — optimizer-on
// and optimizer-off produce the same answer multiset with BIT-IDENTICAL
// conf()/aconf()/tconf() values at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/opt/optimizer.h"
#include "src/opt/stats.h"

namespace maybms {
namespace {

// ---------------------------------------------------------------------------
// KMV distinct sketch
// ---------------------------------------------------------------------------

TEST(StatsTest, KmvExactBelowSaturation) {
  KmvSketch sketch;
  for (int i = 0; i < 200; ++i) sketch.Add(Value::Int(i));
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 200.0);  // < k distinct: exact
}

TEST(StatsTest, KmvDuplicatesDoNotInflate) {
  KmvSketch once, repeated;
  for (int i = 0; i < 150; ++i) {
    once.Add(Value::Int(i));
    for (int r = 0; r < 10; ++r) repeated.Add(Value::Int(i));
  }
  EXPECT_DOUBLE_EQ(once.Estimate(), repeated.Estimate());
}

TEST(StatsTest, KmvAccuracyAtScale) {
  // k = 256 gives a relative standard error of about 1/sqrt(k) ~ 6.3%;
  // assert a 3-sigma-ish 20% band on a 50k-distinct stream.
  KmvSketch sketch;
  const double n = 50000;
  for (int i = 0; i < static_cast<int>(n); ++i) sketch.Add(Value::Int(i));
  EXPECT_NEAR(sketch.Estimate(), n, 0.20 * n);
}

TEST(StatsTest, KmvMergeApproximatesUnion) {
  KmvSketch a, b, merged_ref;
  for (int i = 0; i < 20000; ++i) {
    a.Add(Value::Int(i));
    merged_ref.Add(Value::Int(i));
  }
  for (int i = 15000; i < 35000; ++i) {  // overlapping range
    b.Add(Value::Int(i));
    merged_ref.Add(Value::Int(i));
  }
  a.Merge(b);
  // Merge must equal feeding the union through one sketch: both keep the
  // k smallest distinct hashes of the union.
  EXPECT_DOUBLE_EQ(a.Estimate(), merged_ref.Estimate());
  EXPECT_NEAR(a.Estimate(), 35000.0, 0.20 * 35000.0);
}

// ---------------------------------------------------------------------------
// Statistics cache: version fast-path + chunk-incremental refresh
// ---------------------------------------------------------------------------

TEST(StatsTest, IncrementalRefreshRecomputesOnlyDirtyChunks) {
  Database db;
  ASSERT_TRUE(db.Execute("set snapshot_chunk_rows = 16").ok());
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute(StringFormat("insert into t values (%d, %d)",
                                        i % 10, i)).ok());
  }
  StatsCache& cache = db.session_manager().stats();
  auto table = *db.catalog().GetTable("t");

  auto stats = cache.Get(*table);
  EXPECT_EQ(stats->num_rows, 100u);
  EXPECT_NEAR(stats->columns[0].Ndv(), 10.0, 0.01);
  EXPECT_NEAR(stats->columns[1].Ndv(), 100.0, 0.01);
  EXPECT_TRUE(stats->columns[0].min_v.Equals(Value::Int(0)));
  EXPECT_TRUE(stats->columns[0].max_v.Equals(Value::Int(9)));
  const uint64_t full = cache.chunk_computations();
  EXPECT_GE(full, 100u / 16u);  // every chunk computed once

  // Version fast-path: an unchanged table costs zero chunk computations.
  auto again = cache.Get(*table);
  EXPECT_EQ(cache.chunk_computations(), full);
  EXPECT_EQ(again.get(), stats.get());

  // Appending dirties only the tail chunk: the refresh recomputes at most
  // the two tail chunks (the partial one and its successor), never all.
  ASSERT_TRUE(db.Execute("insert into t values (99, 999)").ok());
  auto after = cache.Get(*table);
  EXPECT_EQ(after->num_rows, 101u);
  EXPECT_LE(cache.chunk_computations(), full + 2);
  EXPECT_TRUE(after->columns[0].max_v.Equals(Value::Int(99)));
}

// ---------------------------------------------------------------------------
// Join-order enumeration
// ---------------------------------------------------------------------------

TEST(OptimizerTest, StarOrderRoutesThroughTheHub) {
  // Two big relations joined only through a small hub: the optimizer must
  // not start with the disconnected big-big pair.
  std::vector<JoinLeafInfo> leaves = {{1000, 0}, {1000, 0}, {10, 0}};
  std::vector<JoinEdgeInfo> edges = {{0, 2, 0.01}, {1, 2, 0.01}};
  std::vector<size_t> dp = ChooseJoinOrder(leaves, edges);
  std::vector<size_t> greedy =
      ChooseJoinOrder(leaves, edges, /*force_greedy=*/true);
  EXPECT_EQ(dp, (std::vector<size_t>{0, 2, 1}));
  EXPECT_EQ(dp, greedy);  // greedy agrees on this small shape
}

TEST(OptimizerTest, TiesBreakTowardSyntacticOrder) {
  // Fully symmetric input: the syntactic order must win outright.
  std::vector<JoinLeafInfo> leaves(4, JoinLeafInfo{100, 0});
  std::vector<JoinEdgeInfo> edges;
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = a + 1; b < 4; ++b) edges.push_back({a, b, 0.1});
  }
  EXPECT_EQ(ChooseJoinOrder(leaves, edges),
            (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(OptimizerTest, LargeInputsFallBackToGreedy) {
  // Beyond the DP cap the enumerator IS greedy: forcing greedy must not
  // change the answer, and the result is a valid permutation.
  Rng rng(7);
  std::vector<JoinLeafInfo> leaves;
  std::vector<JoinEdgeInfo> edges;
  for (size_t i = 0; i < 12; ++i) {
    leaves.push_back({10.0 + 1000.0 * rng.NextDouble(), rng.NextDouble()});
    if (i > 0) edges.push_back({i - 1, i, 0.05 + 0.2 * rng.NextDouble()});
  }
  uint64_t considered = 0;
  std::vector<size_t> order = ChooseJoinOrder(leaves, edges, false, &considered);
  EXPECT_EQ(order, ChooseJoinOrder(leaves, edges, /*force_greedy=*/true));
  EXPECT_GT(considered, 0u);
  std::set<size_t> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), leaves.size());
}

TEST(OptimizerTest, DpBeatsWorstSyntacticChainOrder) {
  // Chain touching the big relation first: DP must reorder to follow the
  // chain edges instead of crossing.
  std::vector<JoinLeafInfo> leaves = {{5000, 0}, {50, 0}, {5, 0}};
  std::vector<JoinEdgeInfo> edges = {{0, 1, 0.001}, {1, 2, 0.02}};
  std::vector<size_t> order = ChooseJoinOrder(leaves, edges);
  // Any order that keeps every step connected avoids the cross penalty;
  // starting {1,2} (the two small ends of the chain) is cheapest.
  EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
}

// ---------------------------------------------------------------------------
// Plan shapes under the knobs (EXPLAIN)
// ---------------------------------------------------------------------------

void BuildJoinFixture(Database* db) {
  ASSERT_TRUE(db->Execute("create table big1 (k int, a int)").ok());
  ASSERT_TRUE(db->Execute("create table big2 (k int, b int)").ok());
  ASSERT_TRUE(db->Execute("create table small (k int, s int)").ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(db->Execute(StringFormat("insert into big1 values (%d, %d)",
                                         i % 29, i)).ok());
    ASSERT_TRUE(db->Execute(StringFormat("insert into big2 values (%d, %d)",
                                         i % 23, i)).ok());
  }
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db->Execute(StringFormat("insert into small values (%d, %d)",
                                         i, i)).ok());
  }
}

constexpr const char* kStarQuery =
    "select big1.a, big2.b from big1, big2, small "
    "where big1.k = small.k and big2.k = small.k and small.s < 5";

TEST(OptimizerTest, ReorderEliminatesCrossJoinAndAnnotatesEstimates) {
  Database db;
  BuildJoinFixture(&db);
  auto plan = db.Explain(kStarQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The syntactic order would cross-join big1 x big2; the optimizer must
  // route both through small, push the filter down, and annotate
  // cardinality estimates.
  EXPECT_EQ(plan->find("CrossJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("est="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("SemiJoinReduce"), std::string::npos) << *plan;
}

TEST(OptimizerTest, OffRestoresTranslatedPlanExactly) {
  Database db;
  BuildJoinFixture(&db);
  ASSERT_TRUE(db.Execute("set optimizer = off").ok());
  auto off_plan = db.Explain(kStarQuery);
  ASSERT_TRUE(off_plan.ok()) << off_plan.status().ToString();
  // The binder's syntactic plan: cross join first, predicate up top, no
  // optimizer annotations of any kind.
  EXPECT_NE(off_plan->find("CrossJoin"), std::string::npos) << *off_plan;
  EXPECT_EQ(off_plan->find("SemiJoinReduce"), std::string::npos) << *off_plan;
  EXPECT_EQ(off_plan->find("est="), std::string::npos) << *off_plan;
}

TEST(OptimizerTest, SemijoinKnobControlsReducers) {
  Database db;
  BuildJoinFixture(&db);
  ASSERT_TRUE(db.Execute("set optimizer_semijoin = off").ok());
  auto plan = db.Explain(kStarQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->find("SemiJoinReduce"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("CrossJoin"), std::string::npos) << *plan;  // reorder stays
}

TEST(OptimizerTest, CountersAdvanceAndAnswersMatch) {
  Database db;
  BuildJoinFixture(&db);
  MetricsRegistry& reg = db.session_manager().metrics();
  auto on = db.Query(std::string(kStarQuery) + " order by big1.a, big2.b");
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(reg.Get(Counter::kOptPlansConsidered), 0u);
  EXPECT_GT(reg.Get(Counter::kOptReorders), 0u);
  EXPECT_GT(reg.Get(Counter::kOptSemijoinsInserted), 0u);

  ASSERT_TRUE(db.Execute("set optimizer = off").ok());
  auto off = db.Query(std::string(kStarQuery) + " order by big1.a, big2.b");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_EQ(on->NumRows(), off->NumRows());
  for (size_t i = 0; i < on->NumRows(); ++i) {
    for (size_t c = 0; c < on->NumColumns(); ++c) {
      EXPECT_TRUE(on->At(i, c).Equals(off->At(i, c))) << "row " << i;
    }
  }
}

TEST(OptimizerTest, ExplainAnalyzePairsEstimatedWithActualRows) {
  Database db;
  BuildJoinFixture(&db);
  auto r = db.Query(std::string("explain analyze ") + kStarQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The trace render shows actual rows and, for optimizer-annotated
  // nodes, the estimate next to them.
  EXPECT_NE(r->message().find("rows="), std::string::npos) << r->message();
  EXPECT_NE(r->message().find("est="), std::string::npos) << r->message();
}

TEST(OptimizerTest, PlainExplainRendersTheOptimizedPlanViaSession) {
  // The satellite bugfix: EXPLAIN through the statement path (not the
  // Database::Explain helper) must also show the optimized plan.
  Database db;
  BuildJoinFixture(&db);
  auto r = db.Query(std::string("explain ") + kStarQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->message().find("CrossJoin"), std::string::npos) << r->message();
  EXPECT_NE(r->message().find("est="), std::string::npos) << r->message();
}

// The estimate on an EXPLAIN line ("[est=N rows]"); -1 when absent.
double EstOf(const std::string& line) {
  size_t at = line.find("[est=");
  return at == std::string::npos ? -1 : std::stod(line.substr(at + 5));
}

TEST(OptimizerTest, FiltersOverIndexScanKeepEstimatesAtMostTheirInput) {
  // A range on an indexed column arrives as a chain of one-conjunct
  // filters over the scan. Each filter was estimated against the whole
  // table; once the access-path pass narrows the scan to an IndexScan, no
  // filter above it may claim more rows than its own input.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (player int, team int)").ok());
  ASSERT_TRUE(db.Execute("create table s (player int, skill text)").ok());
  for (int begin = 0; begin < 6000; begin += 500) {
    std::string t = "insert into t values ";
    std::string s = "insert into s values ";
    for (int i = begin; i < begin + 500; ++i) {
      const char* sep = i == begin ? "" : ", ";
      t += StringFormat("%s(%d, %d)", sep, i, i / 60);
      s += StringFormat("%s(%d, 'sk%d')", sep, i, i % 7);
    }
    ASSERT_TRUE(db.Execute(t).ok());
    ASSERT_TRUE(db.Execute(s).ok());
  }
  ASSERT_TRUE(db.Execute("create index t_team on t (team)").ok());
  auto plan = db.Explain(
      "select s.skill from t, s where t.team >= 25 and t.team <= 27 and "
      "t.player <> 1501 and t.player = s.player");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->find("IndexScan t using t_team"), std::string::npos) << *plan;
  std::vector<std::string> lines = Split(*plan, '\n');
  size_t filters_checked = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    if (lines[i].find("Filter (") == std::string::npos) continue;
    // A filter's only child is the next line.
    const double est = EstOf(lines[i]);
    const double child_est = EstOf(lines[i + 1]);
    ASSERT_GE(est, 0) << lines[i];
    ASSERT_GE(child_est, 0) << lines[i + 1];
    EXPECT_LE(est, child_est) << lines[i] << "\nover\n" << lines[i + 1];
    ++filters_checked;
  }
  EXPECT_GE(filters_checked, 3u) << *plan;
  // Plans change only in cost: the answers stay those of a sequential scan.
  auto with_index = db.Query("select count(*) from t, s where t.team >= 25 and "
                             "t.team <= 27 and t.player = s.player");
  ASSERT_TRUE(db.Execute("set use_indexes = off").ok());
  auto without = db.Query("select count(*) from t, s where t.team >= 25 and "
                          "t.team <= 27 and t.player = s.player");
  ASSERT_TRUE(with_index.ok() && without.ok());
  EXPECT_TRUE(with_index->At(0, 0).Equals(without->At(0, 0)));
  EXPECT_TRUE(with_index->At(0, 0).Equals(Value::Int(180)));
}

// ---------------------------------------------------------------------------
// Property: optimizer on/off identity (multiset + bit-identical confidence)
// ---------------------------------------------------------------------------

struct EngineConfig {
  unsigned num_threads;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {1, "batch/1"},
    {4, "batch/4"},
};

// Renders a result as a sorted multiset of rows. Doubles print at full
// precision: conf/aconf/tconf values must agree BIT FOR BIT, not merely
// within epsilon.
std::vector<std::string> Multiset(const QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.NumRows());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    std::string line;
    for (size_t c = 0; c < r.NumColumns(); ++c) {
      const Value& v = r.At(i, c);
      if (v.type() == TypeId::kDouble) {
        line += StringFormat("%.17g", v.AsDouble());
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    line += r.rows()[i].condition.ToString();
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// One random uncertain database: two sizable certain fact tables, a small
// certain dimension, and an uncertain relation minted by repair-key.
std::string RandomDbScript(Rng* rng) {
  std::string s;
  s += "create table fact1 (k int, v int);";
  s += "create table fact2 (k int, v int);";
  s += "create table dim (k int, d int);";
  s += "create table opts (k int, v int, w double);";
  const int keys = 12 + static_cast<int>(rng->NextDouble() * 8);
  for (int i = 0; i < 140; ++i) {
    s += StringFormat("insert into fact1 values (%d, %d);",
                      static_cast<int>(rng->NextDouble() * keys),
                      static_cast<int>(rng->NextDouble() * 40));
    s += StringFormat("insert into fact2 values (%d, %d);",
                      static_cast<int>(rng->NextDouble() * keys),
                      static_cast<int>(rng->NextDouble() * 40));
  }
  for (int k = 0; k < keys; ++k) {
    s += StringFormat("insert into dim values (%d, %d);", k, k % 5);
    for (int o = 0; o < 3; ++o) {
      s += StringFormat("insert into opts values (%d, %d, %g);", k, o,
                        0.25 + rng->NextDouble());
    }
  }
  s += "create table u as select k, v from "
       "(repair key k in opts weight by w) r;";
  return s;
}

// Random multi-join query templates; constants vary per seed.
std::vector<std::string> RandomQueries(Rng* rng) {
  const int c1 = 5 + static_cast<int>(rng->NextDouble() * 20);
  const int c2 = 1 + static_cast<int>(rng->NextDouble() * 4);
  return {
      // Uncertain multiset result (values + condition columns).
      StringFormat("select fact1.v, u.v from fact1, dim, u "
                   "where fact1.k = dim.k and dim.k = u.k and fact1.v < %d",
                   c1),
      // Exact confidence over a 3-way join.
      StringFormat("select u.v, conf() as p from fact1, u, dim "
                   "where fact1.k = u.k and u.k = dim.k and dim.d < %d "
                   "group by u.v",
                   c2),
      // Approximate confidence: seeded sampling must be order-invariant.
      "select dim.d, aconf(0.1, 0.1) as p from dim, u, fact2 "
      "where dim.k = u.k and dim.k = fact2.k group by dim.d",
      // tconf() over a reordered join.
      StringFormat("select fact2.v, tconf() as p from fact2, u, dim "
                   "where fact2.k = u.k and u.k = dim.k and fact2.v < %d",
                   c1),
      // Certain 3-way join with standard aggregates (integer sums: the
      // accumulation is exact, so reordering cannot shift a ulp).
      "select dim.d, count(*) as n, sum(fact1.v) as s "
      "from fact1, fact2, dim "
      "where fact1.k = dim.k and fact2.k = dim.k "
      "group by dim.d",
  };
}

TEST(OptimizerPropertyTest, OnOffIdentityAcrossEnginesAndThreads) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng script_rng(seed * 7919);
    const std::string script = RandomDbScript(&script_rng);
    const std::vector<std::string> queries = RandomQueries(&script_rng);
    for (const EngineConfig& config : kConfigs) {
      DatabaseOptions on_opts, off_opts;
      on_opts.exec.num_threads = off_opts.exec.num_threads =
          config.num_threads;
      off_opts.exec.optimizer = false;
      Database on_db(on_opts), off_db(off_opts);
      // Identically seeded databases: repair-key variable minting must
      // line up so conditions are comparable atom for atom.
      ASSERT_TRUE(on_db.ExecuteScript(script).ok()) << config.name;
      ASSERT_TRUE(off_db.ExecuteScript(script).ok()) << config.name;
      for (const std::string& sql : queries) {
        auto on = on_db.Query(sql);
        auto off = off_db.Query(sql);
        ASSERT_TRUE(on.ok()) << config.name << ": " << on.status().ToString()
                             << "\n  " << sql;
        ASSERT_TRUE(off.ok()) << config.name << ": "
                              << off.status().ToString() << "\n  " << sql;
        EXPECT_EQ(Multiset(*on), Multiset(*off))
            << config.name << " seed " << seed << "\n  " << sql;
      }
    }
  }
}

}  // namespace
}  // namespace maybms
