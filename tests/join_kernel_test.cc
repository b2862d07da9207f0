// Randomized tests of the typed join-key kernels (src/exec/key_table.h)
// behind the batch engine's hash join, IN / NOT IN semijoin and semijoin
// reducer. Every query runs at num_threads ∈ {1, 2, 8}: batch/2 and
// batch/8 must equal batch/1 bit for bit in the same order, conditions
// atom for atom, and batch/1 must equal a nested-loop oracle over the
// table snapshots as a multiset of values and conditions. conf() answers
// are also checked against the possible-world oracle
// (tests/world_oracle.h). The "MatchesRowEngine" test names are kept from
// when the row-at-a-time interpreter was the reference; the nested-loop
// oracle computes what it did, pair by pair.
//
// The keys cover int, double and mixed int/double columns (int 5 meets
// double 5.0; an int64 beyond 2^53 meets the double it rounds to), NULL
// keys, boxed (mixed-type) columns, strings, multi-column keys, an empty
// build side, probe keys all outside the build range, and inconsistent
// condition pairs from self-joins of a repaired relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/exec/key_table.h"
#include "src/types/row.h"
#include "tests/world_oracle.h"

namespace maybms {
namespace {

// Config 0 is the order-preserving reference for the others.
constexpr unsigned kThreadCounts[] = {1, 2, 8};

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// SQL equality, as the join operators apply it: NULL matches nothing.
bool SqlEq(const Value& a, const Value& b) {
  return !a.is_null() && !b.is_null() && a.Equals(b);
}

using Match = std::function<bool(const Row&, const Row&)>;
using Project = std::function<std::vector<Value>(const Row&, const Row&)>;

// Rows of `s` satisfying `keep`.
Snapshot Where(Snapshot s, const std::function<bool(const Row&)>& keep) {
  s.rows.erase(std::remove_if(s.rows.begin(), s.rows.end(),
                              [&](const Row& r) { return !keep(r); }),
               s.rows.end());
  return s;
}

// `select project(a, b) from a, b where match(a, b)`, pair by pair: every
// matching pair with consistent conditions, conditions conjoined.
std::vector<Row> JoinRows(const Snapshot& a, const Snapshot& b, const Match& match,
                          const Project& project) {
  std::vector<Row> out;
  for (const Row& ra : a.rows) {
    for (const Row& rb : b.rows) {
      if (!match(ra, rb)) continue;
      std::optional<Condition> merged = Condition::Merge(ra.condition, rb.condition);
      if (merged) out.emplace_back(project(ra, rb), std::move(*merged));
    }
  }
  return out;
}

// `select project(a) from a where a.<a_col> [not] in (select <b_col> from
// b)`. IN: per row of `a` with a non-null key, one row per distinct
// condition of the matching `b` rows (a true one subsumes the rest),
// conjoined with the row's own. NOT IN (the binder requires a t-certain
// `b`): the rows with a non-null key that match nothing.
std::vector<Row> InRows(const Snapshot& a, size_t a_col, const Snapshot& b, size_t b_col,
                        bool anti, const std::function<std::vector<Value>(const Row&)>& project) {
  std::vector<Row> out;
  for (const Row& ra : a.rows) {
    if (ra.values[a_col].is_null()) continue;
    std::vector<Condition> conds;
    bool any = false;
    bool certain = false;
    for (const Row& rb : b.rows) {
      if (!SqlEq(ra.values[a_col], rb.values[b_col])) continue;
      any = true;
      certain |= rb.condition.IsTrue();
      if (std::find(conds.begin(), conds.end(), rb.condition) == conds.end()) {
        conds.push_back(rb.condition);
      }
    }
    if (anti) {
      if (!any) out.emplace_back(project(ra), ra.condition);
      continue;
    }
    if (certain) conds = {Condition()};
    for (const Condition& c : conds) {
      std::optional<Condition> merged = Condition::Merge(ra.condition, c);
      if (merged) out.emplace_back(project(ra), std::move(*merged));
    }
  }
  return out;
}

// One row as an exact, typed string: doubles by their bits.
std::string RowKey(const std::vector<Value>& values, const Condition& cond) {
  std::string key;
  for (const Value& v : values) {
    if (v.type() == TypeId::kDouble) {
      key += StringFormat("d%016llx|", static_cast<unsigned long long>(Bits(v.AsDouble())));
    } else {
      key += std::string(TypeIdToString(v.type())) + ":" + v.ToString() + "|";
    }
  }
  return key + cond.ToString();
}

std::vector<std::string> SortedKeys(const std::vector<Row>& rows) {
  std::vector<std::string> keys;
  for (const Row& row : rows) keys.push_back(RowKey(row.values, row.condition));
  std::sort(keys.begin(), keys.end());
  return keys;
}

class ParallelJoinKernelTest : public ::testing::TestWithParam<int> {
 protected:
  ParallelJoinKernelTest() {
    for (unsigned threads : kThreadCounts) {
      DatabaseOptions options;
      options.exec.num_threads = threads;
      // Tiny morsels split even these small tables into parallel work.
      if (threads > 1) options.exec.morsel_size = 3;
      dbs_.emplace_back(options);
    }
  }

  static std::string Name(size_t i) { return StringFormat("batch/%u", kThreadCounts[i]); }

  void Exec(const std::string& sql) {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      Status s = dbs_[i].Execute(sql);
      ASSERT_TRUE(s.ok()) << Name(i) << ": " << s.ToString() << "\n  " << sql;
    }
  }

  Snapshot Table(const std::string& name) const { return Snap(dbs_[0], name); }

  // Runs `sql` everywhere; every threaded config must equal batch/1 bit
  // for bit. Returns the batch/1 result.
  QueryResult Check(const std::string& sql) {
    auto ref = dbs_[0].Query(sql);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString() << "\n  " << sql;
    if (!ref.ok()) return QueryResult();
    for (size_t i = 1; i < dbs_.size(); ++i) {
      auto got = dbs_[i].Query(sql);
      EXPECT_TRUE(got.ok()) << Name(i) << ": " << got.status().ToString();
      if (got.ok()) ExpectIdentical(*ref, *got, sql, Name(i));
    }
    return std::move(*ref);
  }

  // Check, and the batch/1 answer equals `expected` as a multiset.
  QueryResult Check(const std::string& sql, const std::vector<Row>& expected) {
    QueryResult r = Check(sql);
    EXPECT_EQ(SortedKeys(r.rows()), SortedKeys(expected)) << sql;
    return r;
  }

  static void ExpectIdentical(const QueryResult& ref, const QueryResult& got,
                              const std::string& sql, const std::string& config) {
    ASSERT_EQ(ref.NumColumns(), got.NumColumns()) << config << ": " << sql;
    ASSERT_EQ(ref.NumRows(), got.NumRows()) << config << ": " << sql;
    EXPECT_EQ(ref.uncertain(), got.uncertain()) << config << ": " << sql;
    for (size_t i = 0; i < ref.NumRows(); ++i) {
      for (size_t c = 0; c < ref.NumColumns(); ++c) {
        const Value& rv = ref.At(i, c);
        const Value& gv = got.At(i, c);
        ASSERT_EQ(rv.type(), gv.type()) << config << ": " << sql << " row " << i;
        if (rv.type() == TypeId::kDouble) {
          EXPECT_EQ(Bits(rv.AsDouble()), Bits(gv.AsDouble()))
              << config << ": " << sql << " row " << i << " col " << c;
        } else {
          EXPECT_TRUE(rv.Equals(gv))
              << config << ": " << sql << " row " << i << ": " << rv.ToString()
              << " vs " << gv.ToString();
        }
      }
      EXPECT_EQ(ref.rows()[i].condition, got.rows()[i].condition)
          << config << ": " << sql << " row " << i;
    }
  }

  // conf() grouped by column 0 against per-group world probabilities.
  static void ExpectConf(const QueryResult& result,
                         const std::map<std::string, double>& truth,
                         const std::string& sql) {
    ASSERT_EQ(result.NumRows(), truth.size()) << sql;
    for (const Row& row : result.rows()) {
      auto it = truth.find(row.values[0].ToString());
      ASSERT_NE(it, truth.end()) << sql << ": group " << row.values[0].ToString();
      EXPECT_NEAR(row.values[1].AsDouble(), it->second, 1e-9)
          << sql << ": group " << row.values[0].ToString();
    }
  }

  // Per world: the groups `group(a, b)` of present pairs with match(a, b).
  std::map<std::string, double> JoinTruth(
      const std::string& left, const std::string& right,
      const Match& match, const std::function<Value(const Row&, const Row&)>& group) {
    const Database& db = dbs_[0];
    Snapshot a = Snap(db, left);
    Snapshot b = Snap(db, right);
    std::map<std::string, double> truth;
    ForEachWorld(db, [&](const World& w) {
      std::map<std::string, bool> present;
      for (const Row& ra : a.rows) {
        if (!w.Satisfies(ra.condition)) continue;
        for (const Row& rb : b.rows) {
          if (w.Satisfies(rb.condition) && match(ra, rb)) {
            present[group(ra, rb).ToString()] = true;
          }
        }
      }
      for (const auto& [g, unused] : present) truth[g] += w.probability;
    });
    return truth;
  }

  // The EXPLAIN ANALYZE line of the first operator whose label starts
  // with `label`, run on batch/1.
  std::string AnalyzeLine(const std::string& sql, const std::string& label) {
    auto r = dbs_[0].Query("explain analyze " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    for (const std::string& line : Split(r->message(), '\n')) {
      size_t at = line.find_first_not_of(' ');
      if (at != std::string::npos && line.compare(at, label.size(), label) == 0) {
        return line;
      }
    }
    ADD_FAILURE() << "no " << label << " in\n" << r->message();
    return "";
  }

  // Two uncertain relations with typed, mixed and NULL keys: ua repairs ta
  // on x (inconsistent alternatives share a variable), ub picks tb's tuples
  // independently. Few enough variables for full world enumeration.
  void BuildSpaces(Rng* rng) {
    Exec("create table ta (k int, d double, s text, x int, w double)");
    Exec("create table tb (k int, d double, s text, y int, w double)");
    auto key = [&](int range) -> std::string {
      if (rng->NextBounded(6) == 0) return "null";
      return std::to_string(rng->NextBounded(range));
    };
    auto dbl = [&](const std::string& k) -> std::string {
      // Integral doubles meet int keys; .5 ones meet nothing of type int.
      if (k == "null" || rng->NextBounded(4) == 0) return "null";
      return k + (rng->NextBounded(3) == 0 ? ".5" : ".0");
    };
    auto str = [&]() -> std::string {
      const char* kStrs[] = {"null", "'a'", "'b'", "'c'"};
      return kStrs[rng->NextBounded(4)];
    };
    for (int x = 0; x < 4; ++x) {
      const int alternatives = 1 + static_cast<int>(rng->NextBounded(3));
      for (int o = 0; o < alternatives; ++o) {
        const std::string k = key(5);
        Exec(StringFormat("insert into ta values (%s, %s, %s, %d, %g)", k.c_str(),
                          dbl(k).c_str(), str().c_str(), x, 0.25 + rng->NextDouble()));
      }
    }
    for (int y = 0; y < 5; ++y) {
      const std::string k = key(5);
      Exec(StringFormat("insert into tb values (%s, %s, %s, %d, %g)", k.c_str(),
                        dbl(k).c_str(), str().c_str(), y, 0.2 + 0.6 * rng->NextDouble()));
    }
    Exec("create table ua as select * from (repair key x in ta weight by w) r");
    Exec("create table ub as select * from "
         "(pick tuples from tb independently with probability w) r");
  }

  std::vector<Database> dbs_;
};

// Hash joins over every key kind, checked against the nested-loop oracle
// and, for conf(), against the worlds.
TEST_P(ParallelJoinKernelTest, HashJoinMatchesRowEngineAndWorlds) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  BuildSpaces(&rng);
  struct Case {
    const char* where;
    Match match;
  };
  // Columns: ua (k, d, s, x, w), ub (k, d, s, y, w).
  const std::vector<Case> cases = {
      {"a.k = b.k", [](const Row& a, const Row& b) { return SqlEq(a.values[0], b.values[0]); }},
      {"a.k = b.d", [](const Row& a, const Row& b) { return SqlEq(a.values[0], b.values[1]); }},
      {"a.d = b.d", [](const Row& a, const Row& b) { return SqlEq(a.values[1], b.values[1]); }},
      {"a.s = b.s", [](const Row& a, const Row& b) { return SqlEq(a.values[2], b.values[2]); }},
      {"a.k = b.k and a.s = b.s",
       [](const Row& a, const Row& b) {
         return SqlEq(a.values[0], b.values[0]) && SqlEq(a.values[2], b.values[2]);
       }},
      {"a.d = b.k and a.s = b.s",
       [](const Row& a, const Row& b) {
         return SqlEq(a.values[1], b.values[0]) && SqlEq(a.values[2], b.values[2]);
       }},
  };
  const Snapshot ua = Table("ua");
  const Snapshot ub = Table("ub");
  for (const Case& c : cases) {
    const std::string from = std::string(" from ua a, ub b where ") + c.where;
    Check("select a.x, a.k, a.d, a.s, b.y, b.k, b.d, b.s" + from,
          JoinRows(ua, ub, c.match, [](const Row& a, const Row& b) {
            return std::vector<Value>{a.values[3], a.values[0], a.values[1], a.values[2],
                                      b.values[3], b.values[0], b.values[1], b.values[2]};
          }));
    const std::string conf_sql = "select a.x, conf() as p" + from + " group by a.x";
    QueryResult r = Check(conf_sql);
    ExpectConf(r, JoinTruth("ua", "ub", c.match,
                            [](const Row& a, const Row&) { return a.values[3]; }),
               conf_sql);
  }
  // Self-join on a repaired relation: pairs of alternatives of one key
  // group are inconsistent and must drop before any value is copied.
  const Match self_match = [](const Row& a, const Row& b) {
    return SqlEq(a.values[0], b.values[0]) && SqlEq(a.values[2], b.values[2]);
  };
  const std::string self = " from ua a, ua b where a.k = b.k and a.s = b.s";
  Check("select a.x, b.x, a.d, b.d" + self,
        JoinRows(ua, ua, self_match, [](const Row& a, const Row& b) {
          return std::vector<Value>{a.values[3], b.values[3], a.values[1], b.values[1]};
        }));
  QueryResult r = Check("select a.x, conf() as p" + self + " group by a.x");
  ExpectConf(r,
             JoinTruth("ua", "ua", self_match,
                       [](const Row& a, const Row&) { return a.values[3]; }),
             "self-join conf");
}

// IN / NOT IN subqueries, typed and mixed.
TEST_P(ParallelJoinKernelTest, InSubqueryMatchesRowEngineAndWorlds) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729);
  BuildSpaces(&rng);
  struct Case {
    const char* in;
    size_t left_col;   // ua column on the left of IN
    size_t right_col;  // ub column the subquery selects
  };
  const Case cases[] = {{"a.k in (select k from ub)", 0, 0},
                        {"a.d in (select k from ub)", 1, 0},
                        {"a.k in (select d from ub)", 0, 1},
                        {"a.s in (select s from ub)", 2, 2}};
  const Snapshot ua = Table("ua");
  const Snapshot ub = Table("ub");
  for (const Case& c : cases) {
    const std::string from = std::string(" from ua a where ") + c.in;
    Check("select a.x, a.k, a.d, a.s" + from,
          InRows(ua, c.left_col, ub, c.right_col, /*anti=*/false, [](const Row& a) {
            return std::vector<Value>{a.values[3], a.values[0], a.values[1], a.values[2]};
          }));
    const std::string conf_sql = "select a.x, conf() as p" + from + " group by a.x";
    QueryResult r = Check(conf_sql);
    ExpectConf(r,
               JoinTruth("ua", "ub",
                         [&](const Row& a, const Row& b) {
                           return SqlEq(a.values[c.left_col], b.values[c.right_col]);
                         },
                         [](const Row& a, const Row&) { return a.values[3]; }),
               conf_sql);
  }
  // NOT IN needs a t-certain subquery; NULL keys never qualify.
  const Snapshot tb = Table("tb");
  const Snapshot tb_none = Where(tb, [](const Row& r) {
    return !r.values[0].is_null() && r.values[0].AsInt() > 100;
  });
  Check("select a.x, a.k from ua a where a.k not in (select k from tb)",
        InRows(ua, 0, tb, 0, /*anti=*/true, [](const Row& a) {
          return std::vector<Value>{a.values[3], a.values[0]};
        }));
  Check("select a.x, a.d from ua a where a.d not in (select k from tb)",
        InRows(ua, 1, tb, 0, /*anti=*/true, [](const Row& a) {
          return std::vector<Value>{a.values[3], a.values[1]};
        }));
  Check("select a.x, a.k from ua a where a.k not in (select k from tb where k > 100)",
        InRows(ua, 0, tb_none, 0, /*anti=*/true, [](const Row& a) {
          return std::vector<Value>{a.values[3], a.values[0]};
        }));
}

// Keys the typed path must get exactly right: int64 beyond 2^53 against
// doubles, boxed mixed-type columns, an empty build side, and probe keys
// that all fall outside the build range (skipped before hashing).
TEST_P(ParallelJoinKernelTest, EdgeKeysMatchRowEngine) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 15485863);
  BuildSpaces(&rng);
  Exec("create table tbig (i int, y int)");
  Exec("insert into tbig values (9007199254740993, 1), (9007199254740992, 2), "
       "(-9007199254740993, 3), (5, 4), (9223372036854775807, 5), (null, 6)");
  Exec("create table tdbl (d double, y int)");
  Exec("insert into tdbl values (9007199254740992.0, 1), (9007199254740994.0, 2), "
       "(-9007199254740992.0, 3), (5.0, 4), (9223372036854775807.0, 5), (null, 6)");
  // Int/double equality is not transitive past 2^53 (2^53 and 2^53 + 1 are
  // distinct ints that both equal the double 2^53). Joins compare
  // pairwise, like the nested-loop oracle, and find both.
  const Snapshot big = Table("tbig");
  const Snapshot dbl = Table("tdbl");
  const Match first_cols_equal = [](const Row& g, const Row& h) {
    return SqlEq(g.values[0], h.values[0]);
  };
  const std::vector<Row> pairs =
      JoinRows(big, dbl, first_cols_equal, [](const Row& g, const Row& h) {
        return std::vector<Value>{g.values[1], h.values[1]};
      });
  ASSERT_EQ(pairs.size(), 5u);  // includes both ints that meet 2^53
  Check("select g.y, h.y from tbig g, tdbl h where g.i = h.d", pairs);
  Check("select g.y, h.y from tdbl h, tbig g where h.d = g.i", pairs);
  auto y_of = [](const Row& r) { return std::vector<Value>{r.values[1]}; };
  Check("select g.y, h.y from tbig g, tbig h where g.i = h.i",
        JoinRows(big, big, first_cols_equal, [](const Row& g, const Row& h) {
          return std::vector<Value>{g.values[1], h.values[1]};
        }));
  Check("select g.y from tbig g where g.i in (select d from tdbl)",
        InRows(big, 0, dbl, 0, /*anti=*/false, y_of));
  Check("select h.y from tdbl h where h.d in (select i from tbig)",
        InRows(dbl, 0, big, 0, /*anti=*/false, y_of));
  Check("select h.y from tdbl h where h.d not in (select i from tbig)",
        InRows(dbl, 0, big, 0, /*anti=*/true, y_of));

  // A boxed column: `null as z` is untyped, so mixed appends box it.
  Exec("create table tbox as select k, null as z from ta");
  Exec("insert into tbox values (10, 2), (11, 'a'), (12, 2.0), (13, 'b'), (14, null)");
  const Snapshot box = Table("tbox");
  const Snapshot ub = Table("ub");
  // Columns: tbox (k, z), ub (k, d, s, y, w).
  auto box_join = [&](size_t ub_col) {
    return JoinRows(
        box, ub, [ub_col](const Row& t, const Row& b) { return SqlEq(t.values[1], b.values[ub_col]); },
        [](const Row& t, const Row& b) { return std::vector<Value>{t.values[0], b.values[3]}; });
  };
  Check("select t.k, b.y from tbox t, ub b where t.z = b.k", box_join(0));
  Check("select t.k, b.y from tbox t, ub b where t.z = b.d", box_join(1));
  Check("select t.k, b.y from tbox t, ub b where t.z = b.s", box_join(2));
  Check("select b.y, t.k from ub b, tbox t where b.s = t.z and b.k = t.k",
        JoinRows(ub, box,
                 [](const Row& b, const Row& t) {
                   return SqlEq(b.values[2], t.values[1]) && SqlEq(b.values[0], t.values[0]);
                 },
                 [](const Row& b, const Row& t) {
                   return std::vector<Value>{b.values[3], t.values[0]};
                 }));
  Check("select t.k from tbox t where t.z in (select k from ub)",
        InRows(box, 1, ub, 0, /*anti=*/false,
               [](const Row& t) { return std::vector<Value>{t.values[0]}; }));
  Check("select b.y from ub b where b.s in (select z from tbox)",
        InRows(ub, 2, box, 1, /*anti=*/false,
               [](const Row& b) { return std::vector<Value>{b.values[3]}; }));

  // Empty build side.
  const Snapshot ua = Table("ua");
  const Snapshot ub_none = Where(ub, [](const Row& r) {
    return !r.values[0].is_null() && r.values[0].AsInt() > 100;
  });
  ASSERT_TRUE(ub_none.rows.empty());
  auto x_of = [](const Row& a) { return std::vector<Value>{a.values[3]}; };
  Check("select a.x, b.y from ua a, (select * from ub where k > 100) b where a.k = b.k",
        {});
  Check("select a.x from ua a where a.k in (select k from ub where k > 100)",
        InRows(ua, 0, ub_none, 0, /*anti=*/false, x_of));

  // Every probe key outside the build range: no row may be hashed, and
  // EXPLAIN ANALYZE reports them on the join line.
  Exec("create table tfar (k int, y int)");
  Exec("insert into tfar values (100, 1), (103, 2), (105, 3)");
  const Snapshot far_rows = Table("tfar");
  const std::string far = "select a.x, f.y from ua a, tfar f where a.k = f.k";
  QueryResult r = Check(far, {});
  EXPECT_EQ(r.NumRows(), 0u);
  const std::string line = AnalyzeLine(far, "HashJoin");
  EXPECT_NE(line.find("range_skipped="), std::string::npos) << line;
  EXPECT_EQ(line.find("range_skipped=0"), std::string::npos) << line;
  Check("select a.x from ua a where a.k in (select k from tfar)",
        InRows(ua, 0, far_rows, 0, /*anti=*/false, x_of));
  Check("select a.x from ua a where a.k not in (select k from tfar)",
        InRows(ua, 0, far_rows, 0, /*anti=*/true, x_of));
  Check("select a.x from ua a where a.d in (select k from tfar)",
        InRows(ua, 1, far_rows, 0, /*anti=*/false, x_of));
}

// The optimizer's semijoin reducer on a self-join of a repaired relation:
// the key source carries conditions, and reduced rows whose only matches
// are inconsistent with them must go.
TEST_P(ParallelJoinKernelTest, SemijoinReducerMatchesRowEngineAndWorlds) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299709);
  Exec("create table tc (k int, x int, w double)");
  std::string insert = "insert into tc values ";
  for (int i = 0; i < 40; ++i) {
    const uint64_t k = rng.NextBounded(30);
    insert += StringFormat("%s(%s, %d, %g)", i == 0 ? "" : ", ",
                           rng.NextBounded(10) == 0 ? "null" : std::to_string(k).c_str(),
                           i % 4, 0.1 + rng.NextDouble());
  }
  Exec(insert);
  Exec("create table uc as select * from (repair key x in tc weight by w) r");
  const Snapshot uc = Table("uc");
  for (const char* where : {"a.k = b.k and b.x = 0 and b.k < 12",
                            "a.k = b.k and b.x = 1 and b.k >= 20"}) {
    const std::string from = std::string(" from uc a, uc b where ") + where;
    const std::string conf_sql = "select a.k, conf() as p" + from + " group by a.k";
    auto plan = dbs_[0].Explain(conf_sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE(plan->find("SemiJoinReduce"), std::string::npos) << *plan;
    const int64_t bx = std::string(where).find("b.x = 0") != std::string::npos ? 0 : 1;
    const bool low = bx == 0;
    // Columns: uc (k, x, w).
    const Match match = [&](const Row& a, const Row& b) {
      if (!SqlEq(a.values[0], b.values[0])) return false;
      if (b.values[1].AsInt() != bx) return false;
      const int64_t k = b.values[0].AsInt();
      return low ? k < 12 : k >= 20;
    };
    Check("select a.k, a.x, b.x" + from,
          JoinRows(uc, uc, match, [](const Row& a, const Row& b) {
            return std::vector<Value>{a.values[0], a.values[1], b.values[1]};
          }));
    QueryResult r = Check(conf_sql);
    ExpectConf(r,
               JoinTruth("uc", "uc", match,
                         [](const Row& a, const Row&) { return a.values[0]; }),
               conf_sql);
    EXPECT_NE(AnalyzeLine(conf_sql, "SemiJoinReduce").find("range_skipped="),
              std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelJoinKernelTest, ::testing::Range(1, 7));

// Many pairs from one probe range — the join gathers values in chunks of
// pairs — mixed with inconsistent ones: a self-join of a repaired relation
// whose 72 rows share one key, and a cross product of the same size. One
// seed: the shape, not the data, is the point.
class ParallelJoinKernelChunkTest : public ParallelJoinKernelTest {};

TEST_P(ParallelJoinKernelChunkTest, ManyPairsPerProbeRange) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::string many = "insert into tmraw values ";
  for (int i = 0; i < 72; ++i) {
    many += StringFormat("%s(1, %d, %d, %g)", i == 0 ? "" : ", ", i % 12, i,
                         0.1 + rng.NextDouble());
  }
  Exec("create table tmraw (k int, g int, y int, w double)");
  Exec(many);
  Exec("create table tm as select * from (repair key g in tmraw weight by w) r");
  const Snapshot tm = Table("tm");
  // Columns: tm (k, g, y, w).
  QueryResult r = Check("select a.y, b.y, a.g from tm a, tm b where a.k = b.k",
                        JoinRows(tm, tm,
                                 [](const Row& a, const Row& b) {
                                   return SqlEq(a.values[0], b.values[0]);
                                 },
                                 [](const Row& a, const Row& b) {
                                   return std::vector<Value>{a.values[2], b.values[2],
                                                             a.values[1]};
                                 }));
  EXPECT_EQ(r.NumRows(), 72u * 72u - 12u * 6u * 5u);
  Check("select a.y, b.y from tm a, tm b where a.y < 60",
        JoinRows(tm, tm, [](const Row& a, const Row&) { return a.values[2].AsInt() < 60; },
                 [](const Row& a, const Row& b) {
                   return std::vector<Value>{a.values[2], b.values[2]};
                 }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelJoinKernelChunkTest, ::testing::Values(1));

// The typed hash is HashValueSpan over the boxed cells, and the typed
// equality is Value::Equals, for every pair of column kinds.
TEST(JoinKernelTest, TypedHashAndEqualityMatchValuePath) {
  Rng rng(42);
  auto random_column = [&](TypeId type) {
    auto col = std::make_shared<ColumnVector>(type);
    for (int i = 0; i < 64; ++i) {
      const uint64_t pick = rng.NextBounded(8);
      if (pick == 0) {
        col->AppendNull();
        continue;
      }
      const int64_t small = static_cast<int64_t>(rng.NextBounded(5));
      const int64_t big = (int64_t{1} << 53) + static_cast<int64_t>(rng.NextBounded(4));
      switch (type) {
        case TypeId::kInt:
          col->Append(Value::Int(pick == 1 ? big : small));
          break;
        case TypeId::kDouble:
          col->Append(Value::Double(pick == 1   ? static_cast<double>(big)
                                    : pick == 2 ? small + 0.5
                                    : pick == 3 ? -0.0
                                                : static_cast<double>(small)));
          break;
        case TypeId::kBool:
          col->Append(Value::Bool(small % 2 == 0));
          break;
        case TypeId::kString:
          col->Append(Value::String(std::string(static_cast<size_t>(small), 'q')));
          break;
        case TypeId::kNull: {  // boxed: any mix
          const Value mix[] = {Value::Int(small), Value::Double(static_cast<double>(small)),
                               Value::String("q"), Value::Bool(true), Value::Int(big)};
          col->Append(mix[rng.NextBounded(5)]);
          break;
        }
      }
    }
    return col;
  };
  const TypeId types[] = {TypeId::kInt, TypeId::kDouble, TypeId::kBool,
                          TypeId::kString, TypeId::kNull};
  for (TypeId ta : types) {
    for (TypeId tb : types) {
      KeyColumns a{random_column(ta), random_column(tb)};
      std::vector<uint32_t> rows(64);
      for (uint32_t i = 0; i < 64; ++i) rows[i] = i;
      std::vector<uint64_t> hashes(64);
      HashKeyRows(a, rows.data(), rows.size(), hashes.data());
      for (uint32_t i = 0; i < 64; ++i) {
        const Value key[] = {a[0]->GetValue(i), a[1]->GetValue(i)};
        // Rows with a null key cell are never hashed (they join nothing).
        if (!key[0].is_null() && !key[1].is_null()) {
          ASSERT_EQ(hashes[i], HashValueSpan(key, 2)) << "row " << i;
        }
        for (uint32_t j = 0; j < 64; ++j) {
          if (a[0]->IsNull(i) || a[1]->IsNull(j)) continue;
          ASSERT_EQ(CellsEqual(*a[0], i, *a[1], j),
                    a[0]->GetValue(i).Equals(a[1]->GetValue(j)))
              << a[0]->GetValue(i).ToString() << " vs " << a[1]->GetValue(j).ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace maybms
