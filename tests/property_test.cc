// Property-based tests: whole-pipeline invariants checked on randomized
// instances. The engine's conf() is validated against brute-force
// possible-world enumeration of the same query, and structural invariants
// of the representation system are checked under random workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/conf/naive.h"
#include "src/engine/database.h"
#include "src/lineage/dnf.h"
#include "src/prob/world_enum.h"

namespace maybms {
namespace {

constexpr double kTol = 1e-9;

// Builds a random weighted-options table: `groups` keys, 1..4 options per
// key, random positive weights.
void BuildOptionsTable(Database* db, const std::string& name, int groups,
                       Rng* rng) {
  ASSERT_TRUE(db->Execute(StringFormat(
      "create table %s (k int, v int, w double)", name.c_str())).ok());
  for (int g = 0; g < groups; ++g) {
    int options = 1 + static_cast<int>(rng->NextBounded(4));
    for (int o = 0; o < options; ++o) {
      double w = 0.25 + rng->NextDouble();
      ASSERT_TRUE(db->Execute(StringFormat("insert into %s values (%d, %d, %g)",
                                           name.c_str(), g, o, w)).ok());
    }
  }
}

// Invariant: for any repair-key result, the per-group marginals of the
// alternatives form a probability distribution (sum to 1), and ecount per
// group is exactly 1.
TEST(RepairKeyProperties, GroupMarginalsFormDistribution) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db;
    Rng rng(seed * 37);
    BuildOptionsTable(&db, "opts", 5, &rng);
    auto r = db.Query(
        "select k, v, conf() as p from (repair key k in opts weight by w) r "
        "group by k, v");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::map<int64_t, double> per_group;
    for (const Row& row : r->rows()) {
      per_group[row.values[0].AsInt()] += row.values[2].AsDouble();
    }
    EXPECT_EQ(per_group.size(), 5u);
    for (const auto& [k, total] : per_group) {
      EXPECT_NEAR(total, 1.0, kTol) << "seed " << seed << " group " << k;
    }
  }
}

// Invariant: conf() of a join of two independent repairs equals the
// product of marginals, verified against brute-force enumeration over the
// world table.
TEST(JoinProperties, JoinConfMatchesWorldEnumeration) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Database db;
    Rng rng(seed * 101);
    BuildOptionsTable(&db, "a", 3, &rng);
    BuildOptionsTable(&db, "b", 3, &rng);
    ASSERT_TRUE(db.Execute("create table ua as select * from "
                           "(repair key k in a weight by w) r").ok());
    ASSERT_TRUE(db.Execute("create table ub as select * from "
                           "(repair key k in b weight by w) r").ok());

    auto r = db.Query(
        "select ua.k, ua.v, ub.v, conf() as p from ua, ub "
        "where ua.k = ub.k group by ua.k, ua.v, ub.v");
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    // Oracle: group manually from the stored tables and enumerate worlds.
    auto ta = *db.catalog().GetTable("ua");
    auto tb = *db.catalog().GetTable("ub");
    const WorldTable& wt = db.world_table();
    for (const Row& out : r->rows()) {
      Dnf lineage;
      for (const Row& ra : ta->rows()) {
        if (!ra.values[0].Equals(out.values[0]) || !ra.values[1].Equals(out.values[1])) {
          continue;
        }
        for (const Row& rb : tb->rows()) {
          if (!rb.values[0].Equals(out.values[0]) ||
              !rb.values[1].Equals(out.values[2])) {
            continue;
          }
          auto merged = Condition::Merge(ra.condition, rb.condition);
          if (merged) lineage.AddClause(std::move(*merged));
        }
      }
      double truth = *NaiveConfidence(lineage, wt);
      EXPECT_NEAR(out.values[3].AsDouble(), truth, kTol) << "seed " << seed;
    }
  }
}

// Invariant: possible() returns exactly the support of conf() (> 0 rows),
// i.e. the tuples possible in some world.
TEST(PossibleProperties, PossibleEqualsPositiveConfSupport) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db;
    Rng rng(seed * 53);
    BuildOptionsTable(&db, "opts", 4, &rng);
    ASSERT_TRUE(db.Execute("create table u as select * from "
                           "(repair key k in opts weight by w) r").ok());
    auto possible = db.Query("select possible v from u");
    auto conf = db.Query("select v, conf() as p from u group by v");
    ASSERT_TRUE(possible.ok());
    ASSERT_TRUE(conf.ok());
    std::map<int64_t, double> conf_map;
    for (const Row& row : conf->rows()) {
      conf_map[row.values[0].AsInt()] = row.values[1].AsDouble();
    }
    EXPECT_EQ(possible->NumRows(), conf_map.size());
    for (const Row& row : possible->rows()) {
      EXPECT_GT(conf_map[row.values[0].AsInt()], 0.0);
    }
  }
}

// Invariant: ecount() == esum(1) and esum is linear: esum(a*x) = a*esum(x).
TEST(ExpectationProperties, LinearityOfExpectation) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db;
    Rng rng(seed * 71);
    BuildOptionsTable(&db, "opts", 4, &rng);
    ASSERT_TRUE(db.Execute("create table u as select * from "
                           "(pick tuples from opts independently "
                           "with probability w / 2) r").ok());
    auto r = db.Query("select ecount(), esum(1), esum(v), esum(3 * v) from u");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NEAR(r->At(0, 0).AsDouble(), r->At(0, 1).AsDouble(), kTol);
    EXPECT_NEAR(3 * r->At(0, 2).AsDouble(), r->At(0, 3).AsDouble(), kTol);
  }
}

// Invariant: tconf() of a row equals conf() of that row grouped alone when
// all duplicates are distinct; and conf of a group is at least the max
// tconf and at most the sum (union bound).
TEST(ConfProperties, UnionBoundAndMonotonicity) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db;
    Rng rng(seed * 89);
    BuildOptionsTable(&db, "opts", 5, &rng);
    ASSERT_TRUE(db.Execute("create table u as select * from "
                           "(pick tuples from opts independently "
                           "with probability w / 2) r").ok());
    auto marginals = db.Query("select v, tconf() as p from u");
    auto grouped = db.Query("select v, conf() as p from u group by v");
    ASSERT_TRUE(marginals.ok());
    ASSERT_TRUE(grouped.ok());
    std::map<int64_t, double> max_t, sum_t;
    for (const Row& row : marginals->rows()) {
      int64_t v = row.values[0].AsInt();
      double p = row.values[1].AsDouble();
      max_t[v] = std::max(max_t[v], p);
      sum_t[v] += p;
    }
    for (const Row& row : grouped->rows()) {
      int64_t v = row.values[0].AsInt();
      double p = row.values[1].AsDouble();
      EXPECT_GE(p, max_t[v] - kTol);
      EXPECT_LE(p, sum_t[v] + kTol);
    }
  }
}

// Invariant: a query evaluated world by world agrees with the lifted
// U-relational evaluation — the possible-worlds semantics itself, on the
// full pipeline (repair-key → join → conf).
TEST(SemanticsProperties, LiftedEvaluationMatchesPerWorldEvaluation) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db;
    Rng rng(seed * 211);
    // Small instance so world enumeration stays tiny.
    ASSERT_TRUE(db.Execute("create table opts (k int, v int, w double)").ok());
    for (int g = 0; g < 2; ++g) {
      int options = 2 + static_cast<int>(rng.NextBounded(2));
      for (int o = 0; o < options; ++o) {
        ASSERT_TRUE(db.Execute(StringFormat("insert into opts values (%d, %d, %g)",
                                            g, o, 0.5 + rng.NextDouble())).ok());
      }
    }
    ASSERT_TRUE(db.Execute("create table u as select * from "
                           "(repair key k in opts weight by w) r").ok());

    // Query: Q(v) = u(0, v) ⋈ u(1, v) — both groups picked the same v.
    auto lifted = db.Query(
        "select a.v, conf() as p from u a, u b "
        "where a.k = 0 and b.k = 1 and a.v = b.v group by a.v");
    ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();

    // Per-world oracle: enumerate the worlds of the world table; evaluate
    // the query in each world over the materialized U-relation.
    auto table = *db.catalog().GetTable("u");
    const WorldTable& wt = db.world_table();
    std::vector<VarId> vars;
    for (VarId v = 0; v < wt.NumVariables(); ++v) vars.push_back(v);
    std::map<int64_t, double> truth;
    ASSERT_TRUE(EnumerateWorlds(wt, vars, 1u << 16, [&](const World& w) {
                  std::map<int64_t, bool> present0, present1;
                  for (const Row& row : table->rows()) {
                    if (!w.Satisfies(row.condition)) continue;
                    int64_t k = row.values[0].AsInt();
                    int64_t v = row.values[1].AsInt();
                    (k == 0 ? present0 : present1)[v] = true;
                  }
                  for (const auto& [v, _] : present0) {
                    if (present1.count(v)) truth[v] += w.probability;
                  }
                }).ok());

    EXPECT_EQ(lifted->NumRows(), truth.size()) << "seed " << seed;
    for (const Row& row : lifted->rows()) {
      EXPECT_NEAR(row.values[1].AsDouble(), truth[row.values[0].AsInt()], kTol)
          << "seed " << seed;
    }
  }
}

// Invariant: multiset union commutes with conf: conf over (A union B)
// equals conf over (B union A).
TEST(UnionProperties, UnionIsCommutativeUnderConf) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db;
    Rng rng(seed * 17);
    BuildOptionsTable(&db, "a", 3, &rng);
    BuildOptionsTable(&db, "b", 3, &rng);
    ASSERT_TRUE(db.Execute("create table ua as select * from "
                           "(pick tuples from a independently "
                           "with probability w / 2) r").ok());
    ASSERT_TRUE(db.Execute("create table ub as select * from "
                           "(pick tuples from b independently "
                           "with probability w / 2) r").ok());
    auto ab = db.Query(
        "select v, conf() as p from (select v from ua union select v from ub) u "
        "group by v order by v");
    auto ba = db.Query(
        "select v, conf() as p from (select v from ub union select v from ua) u "
        "group by v order by v");
    ASSERT_TRUE(ab.ok());
    ASSERT_TRUE(ba.ok());
    ASSERT_EQ(ab->NumRows(), ba->NumRows());
    for (size_t i = 0; i < ab->NumRows(); ++i) {
      EXPECT_NEAR(ab->At(i, 1).AsDouble(), ba->At(i, 1).AsDouble(), kTol);
    }
  }
}

// Determinism: the same script produces identical results on a fresh
// database, including aconf (Monte Carlo seeded from lineage content).
TEST(DeterminismProperties, SeededRunsAreReproducible) {
  auto run = []() -> double {
    Database db;
    EXPECT_TRUE(db.Execute("create table t (x int, p double)").ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(db.Execute(StringFormat("insert into t values (%d, 0.4)", i % 3)).ok());
    }
    auto r = db.Query(
        "select x, aconf(0.1, 0.1) as p from "
        "(pick tuples from t independently with probability p) r "
        "group by x order by x");
    EXPECT_TRUE(r.ok());
    return r->At(0, 1).AsDouble();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace maybms
