// Randomized whole-pipeline fuzzing: SQL queries over randomly generated
// hypothesis spaces, validated against a per-world oracle that enumerates
// every possible world of the world table and evaluates the query's
// semantics directly. Catches cross-module bugs (construct → join →
// aggregate) that unit tests miss.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "tests/world_oracle.h"

namespace maybms {
namespace {

constexpr double kTol = 1e-9;

// Builds two small random tables and random uncertain views over them.
// Keeps the variable count small enough for full world enumeration.
void BuildRandomSpaces(Database* db, Rng* rng) {
  ASSERT_TRUE(db->Execute("create table t1 (k int, v int, w double)").ok());
  ASSERT_TRUE(db->Execute("create table t2 (k int, v int, w double)").ok());
  for (int k = 0; k < 3; ++k) {
    int options = 1 + static_cast<int>(rng->NextBounded(3));
    for (int o = 0; o < options; ++o) {
      ASSERT_TRUE(db->Execute(StringFormat(
          "insert into t1 values (%d, %d, %g)", k,
          static_cast<int>(rng->NextBounded(3)), 0.25 + rng->NextDouble())).ok());
    }
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Execute(StringFormat(
        "insert into t2 values (%d, %d, %g)", static_cast<int>(rng->NextBounded(3)),
        static_cast<int>(rng->NextBounded(3)), 0.2 + 0.6 * rng->NextDouble())).ok());
  }
  // u1: key repair of t1; u2: independent subset of t2.
  ASSERT_TRUE(db->Execute("create table u1 as select * from "
                          "(repair key k in t1 weight by w) r").ok());
  ASSERT_TRUE(db->Execute("create table u2 as select * from "
                          "(pick tuples from t2 independently "
                          "with probability w) r").ok());
}

class FuzzPipelineTest : public ::testing::TestWithParam<int> {};

// conf() grouped by a data column over a single construct.
TEST_P(FuzzPipelineTest, GroupedConfOverRepair) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()) * 7013);
  BuildRandomSpaces(&db, &rng);
  auto result = db.Query("select v, conf() as p from u1 group by v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Snapshot u1 = Snap(db, "u1");
  std::map<int64_t, double> truth;
  ForEachWorld(db, [&](const World& w) {
    std::map<int64_t, bool> present;
    for (const Row& row : u1.rows) {
      if (w.Satisfies(row.condition)) present[row.values[1].AsInt()] = true;
    }
    for (const auto& [v, _] : present) truth[v] += w.probability;
  });
  ASSERT_EQ(result->NumRows(), truth.size());
  for (const Row& row : result->rows()) {
    EXPECT_NEAR(row.values[1].AsDouble(), truth[row.values[0].AsInt()], kTol);
  }
}

// conf() over the join of the two constructs (correlations through both
// the repair variables and the independent tuples).
TEST_P(FuzzPipelineTest, JoinConfAcrossConstructs) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()) * 9127);
  BuildRandomSpaces(&db, &rng);
  auto result = db.Query(
      "select a.v, conf() as p from u1 a, u2 b where a.k = b.k and a.v = b.v "
      "group by a.v");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Snapshot u1 = Snap(db, "u1"), u2 = Snap(db, "u2");
  std::map<int64_t, double> truth;
  ForEachWorld(db, [&](const World& w) {
    std::map<int64_t, bool> present;
    for (const Row& a : u1.rows) {
      if (!w.Satisfies(a.condition)) continue;
      for (const Row& b : u2.rows) {
        if (!w.Satisfies(b.condition)) continue;
        if (a.values[0].Equals(b.values[0]) && a.values[1].Equals(b.values[1])) {
          present[a.values[1].AsInt()] = true;
        }
      }
    }
    for (const auto& [v, _] : present) truth[v] += w.probability;
  });
  ASSERT_EQ(result->NumRows(), truth.size());
  for (const Row& row : result->rows()) {
    EXPECT_NEAR(row.values[1].AsDouble(), truth[row.values[0].AsInt()], kTol)
        << "v=" << row.values[0].AsInt();
  }
}

// esum over a join equals the expectation of the per-world sum.
TEST_P(FuzzPipelineTest, JoinEsumMatchesExpectation) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()) * 5519);
  BuildRandomSpaces(&db, &rng);
  auto result = db.Query(
      "select esum(a.v + b.v) from u1 a, u2 b where a.k = b.k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Snapshot u1 = Snap(db, "u1"), u2 = Snap(db, "u2");
  double truth = 0;
  ForEachWorld(db, [&](const World& w) {
    double sum = 0;
    for (const Row& a : u1.rows) {
      if (!w.Satisfies(a.condition)) continue;
      for (const Row& b : u2.rows) {
        if (!w.Satisfies(b.condition)) continue;
        if (a.values[0].Equals(b.values[0])) {
          sum += static_cast<double>(a.values[1].AsInt() + b.values[1].AsInt());
        }
      }
    }
    truth += w.probability * sum;
  });
  EXPECT_NEAR(result->At(0, 0).AsDouble(), truth, kTol);
}

// possible returns exactly the tuples appearing in >= 1 world.
TEST_P(FuzzPipelineTest, PossibleMatchesWorldSupport) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()) * 3301);
  BuildRandomSpaces(&db, &rng);
  auto result = db.Query("select possible a.v from u1 a, u2 b where a.k = b.k");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Snapshot u1 = Snap(db, "u1"), u2 = Snap(db, "u2");
  std::map<int64_t, bool> support;
  ForEachWorld(db, [&](const World& w) {
    for (const Row& a : u1.rows) {
      if (!w.Satisfies(a.condition)) continue;
      for (const Row& b : u2.rows) {
        if (!w.Satisfies(b.condition)) continue;
        if (a.values[0].Equals(b.values[0])) support[a.values[1].AsInt()] = true;
      }
    }
  });
  EXPECT_EQ(result->NumRows(), support.size());
  for (const Row& row : result->rows()) {
    EXPECT_TRUE(support.count(row.values[0].AsInt()));
  }
}

// tconf marginals equal the per-tuple world mass.
TEST_P(FuzzPipelineTest, TconfMatchesWorldMass) {
  Database db;
  Rng rng(static_cast<uint64_t>(GetParam()) * 881);
  BuildRandomSpaces(&db, &rng);
  auto result = db.Query("select k, v, tconf() as p from u2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Snapshot u2 = Snap(db, "u2");
  ASSERT_EQ(result->NumRows(), u2.rows.size());
  for (size_t i = 0; i < u2.rows.size(); ++i) {
    double mass = 0;
    const Condition& cond = u2.rows[i].condition;
    ForEachWorld(db, [&](const World& w) {
      if (w.Satisfies(cond)) mass += w.probability;
    });
    EXPECT_NEAR(result->At(i, 2).AsDouble(), mass, kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipelineTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace maybms
