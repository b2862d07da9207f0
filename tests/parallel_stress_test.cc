// Stress/fuzz for the morsel-driven parallel engine: randomly generated
// uncertain pipelines (the fuzz_pipeline_test generator family, scaled up
// past one batch) run under the parallel batch engine with a TINY morsel
// size — forcing many task boundaries through every operator — and must
// produce results identical to the serial engine: values and order
// bit-for-bit, condition columns atom for atom, probabilities to 1e-12.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"

namespace maybms {
namespace {

constexpr double kProbTol = 1e-12;

DatabaseOptions StressOptions(unsigned num_threads, size_t morsel_size) {
  DatabaseOptions options;
  options.exec.num_threads = num_threads;
  options.exec.morsel_size = morsel_size;
  return options;
}

// Builds two random tables and random uncertain views over them — the
// fuzz_pipeline_test hypothesis-space generator, sized up so scans span
// multiple morsels (and, at 200+ rows, multiple join/aggregate partials).
void BuildRandomSpaces(Database* db, Rng* rng) {
  ASSERT_TRUE(db->Execute("create table t1 (k int, v int, w double)").ok());
  ASSERT_TRUE(db->Execute("create table t2 (k int, v int, w double)").ok());
  for (int k = 0; k < 40; ++k) {
    int options = 1 + static_cast<int>(rng->NextBounded(4));
    for (int o = 0; o < options; ++o) {
      ASSERT_TRUE(db->Execute(StringFormat(
          "insert into t1 values (%d, %d, %g)", k,
          static_cast<int>(rng->NextBounded(5)), 0.25 + rng->NextDouble())).ok());
    }
  }
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db->Execute(StringFormat(
        "insert into t2 values (%d, %d, %g)",
        static_cast<int>(rng->NextBounded(40)),
        static_cast<int>(rng->NextBounded(5)),
        0.2 + 0.6 * rng->NextDouble())).ok());
  }
  ASSERT_TRUE(db->Execute("create table u1 as select * from "
                          "(repair key k in t1 weight by w) r").ok());
  ASSERT_TRUE(db->Execute("create table u2 as select * from "
                          "(pick tuples from t2 independently "
                          "with probability w) r").ok());
}

class ParallelStressTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelStressTest, TinyMorselsMatchSerialExactly) {
  // morsel_size 3 on 100+-row inputs: every scan chunk splits into dozens
  // of tasks, every join probe and aggregate partial crosses many morsel
  // boundaries.
  Database serial(StressOptions(1, 1024));
  Database parallel(StressOptions(8, 3));
  uint64_t seed = static_cast<uint64_t>(GetParam()) * 60913;
  {
    Rng rng(seed);
    BuildRandomSpaces(&serial, &rng);
  }
  {
    Rng rng(seed);
    BuildRandomSpaces(&parallel, &rng);
  }

  const std::vector<std::string> queries = {
      // scan → filter → project chains
      "select k, v, w * 2 as w2 from t2 where v >= 1 and w < 0.7 order by k, v, w",
      "select k, v, tconf() as p from u1 order by k, v",
      "select k, v, tconf() as p from u2 where v <> 2 order by k, v, p",
      // joins (equi and cross), with and without residuals
      "select a.k, a.v, b.v from u1 a, u2 b where a.k = b.k order by a.k, a.v, b.v",
      "select a.v, b.v from u1 a, t2 b where a.k = b.k and a.v < b.v "
      "order by a.v, b.v",
      "select a.v, b.v from t1 a, t2 b where a.k < 2 and b.k < 2 "
      "order by a.v, b.v",
      "select count(*) as n from t1 a, t2 b where a.v = b.v",
      // aggregates: standard, expectation, exact confidence
      "select v, count(*) as n, sum(w) as s, min(k) as mn, max(k) as mx "
      "from t1 group by v order by v",
      "select v, conf() as p from u1 group by v order by v",
      "select a.v, conf() as p from u1 a, u2 b where a.k = b.k "
      "group by a.v order by a.v",
      "select conf() as any from (select 1 as one from u2 where v >= 1) h "
      "group by one",
      "select esum(v) as ev, ecount() as ec from u2",
      "select argmax(k, w) as best from t2",
      // dedup / possible / set ops / subqueries
      "select distinct v from t1 order by v",
      "select possible v from u1 where v >= 1",
      "select v from t1 union select v from t2",
      "select k from t1 where k in (select k from t2) order by k limit 17",
      "select k from t1 where k not in (select k from t2) order by k",
      // sort + limit over uncertain data
      "select k, v from u2 order by v desc, k limit 23",
  };

  for (const std::string& sql : queries) {
    auto sr = serial.Query(sql);
    auto pr = parallel.Query(sql);
    ASSERT_TRUE(sr.ok()) << sql << ": " << sr.status().ToString();
    ASSERT_TRUE(pr.ok()) << sql << ": " << pr.status().ToString();
    ASSERT_EQ(sr->NumRows(), pr->NumRows()) << sql;
    ASSERT_EQ(sr->NumColumns(), pr->NumColumns()) << sql;
    EXPECT_EQ(sr->uncertain(), pr->uncertain()) << sql;
    for (size_t i = 0; i < sr->NumRows(); ++i) {
      for (size_t c = 0; c < sr->NumColumns(); ++c) {
        const Value& sv = sr->At(i, c);
        const Value& pv = pr->At(i, c);
        ASSERT_EQ(sv.type(), pv.type()) << sql << " row " << i << " col " << c;
        if (sv.type() == TypeId::kDouble) {
          EXPECT_NEAR(sv.AsDouble(), pv.AsDouble(), kProbTol)
              << sql << " row " << i << " col " << c;
        } else {
          EXPECT_TRUE(sv.Equals(pv))
              << sql << " row " << i << " col " << c << ": " << sv.ToString()
              << " vs " << pv.ToString();
        }
      }
      EXPECT_EQ(sr->rows()[i].condition, pr->rows()[i].condition)
          << sql << " row " << i;
    }
  }

  // Error parity under tiny morsels: the lowest-morsel error surfaces.
  for (const char* bad : {"select 1 / (v - v) from t2",
                          "select * from nope"}) {
    EXPECT_FALSE(serial.Query(bad).ok()) << bad;
    EXPECT_FALSE(parallel.Query(bad).ok()) << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelStressTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace maybms
