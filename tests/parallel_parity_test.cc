// Engine goldens and possible-world checks for the parity corpus.
//
// ParallelRelationalParityTest, ParallelProbabilisticParityTest and
// ParallelRandomParityTest run every query of the corpus at num_threads ∈
// {1, 2, 8} — three identically-seeded databases executing identical
// statement sequences — and hold each answer to its recorded golden
// (tests/engine_goldens.inc): the same columns, value types and row order,
// every value exact except doubles (within 1e-12), and every condition
// atom for atom. The threaded configs use a deliberately tiny morsel_size
// so even the small corpus tables split into many parallel work units.
//
// RelationalParityTest holds the relational corpus to the same goldens
// with the cost-based optimizer off (the syntactic plan, at num_threads
// {1, 8}), so the answers of the unoptimized plan are pinned too, not
// only those of the plan the optimizer picks.
//
// ProbabilisticParityTest and RandomParityTest check the probabilistic
// answers of the same corpus — conf, tconf, possible, esum, ecount —
// against brute-force enumeration of the possible worlds
// (tests/world_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "tests/world_oracle.h"

namespace maybms {
namespace {

constexpr double kProbTol = 1e-12;
// World sums add the probabilities of up to a few thousand worlds.
constexpr double kWorldTol = 1e-10;

// One recorded row: typed cells ("null", "b:<0|1>", "i:<int>",
// "d:<%.17g>", "s:<text>") and the condition's ToString().
struct GoldenRow {
  std::vector<const char*> cells;
  const char* condition;
};

// One recorded answer. `scope` is the name of the test that runs `sql`.
struct GoldenAnswer {
  const char* scope;
  const char* sql;
  bool uncertain;
  std::vector<const char*> columns;
  std::vector<GoldenRow> rows;
};

#include "tests/engine_goldens.inc"

const GoldenAnswer* FindGolden(const std::string& scope, const std::string& sql) {
  for (const GoldenAnswer& golden : kEngineGoldens) {
    if (scope == golden.scope && sql == golden.sql) return &golden;
  }
  return nullptr;
}

size_t GoldenCount(const std::string& scope) {
  size_t n = 0;
  for (const GoldenAnswer& golden : kEngineGoldens) n += scope == golden.scope;
  return n;
}

Value ParseCell(const std::string& cell) {
  if (cell == "null") return Value::Null();
  const std::string text = cell.substr(2);
  switch (cell[0]) {
    case 'b':
      return Value::Bool(text == "1");
    case 'i':
      return Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    case 'd':
      return Value::Double(std::strtod(text.c_str(), nullptr));
    default:
      return Value::String(text);
  }
}

void ExpectMatchesGolden(const QueryResult& got, const GoldenAnswer& golden,
                         const std::string& config) {
  const std::string where = config + ": " + golden.sql;
  ASSERT_EQ(got.NumColumns(), golden.columns.size()) << where;
  ASSERT_EQ(got.NumRows(), golden.rows.size()) << where;
  EXPECT_EQ(got.uncertain(), golden.uncertain) << where;
  for (size_t c = 0; c < got.NumColumns(); ++c) {
    EXPECT_EQ(got.schema().column(c).name, golden.columns[c]) << where;
  }
  for (size_t i = 0; i < got.NumRows(); ++i) {
    const GoldenRow& row = golden.rows[i];
    for (size_t c = 0; c < got.NumColumns(); ++c) {
      const Value want = ParseCell(row.cells[c]);
      const Value& gv = got.At(i, c);
      ASSERT_EQ(gv.type(), want.type())
          << where << "\n  row " << i << " col " << c << ": " << gv.ToString()
          << " vs golden " << row.cells[c];
      if (want.type() == TypeId::kDouble) {
        EXPECT_NEAR(gv.AsDouble(), want.AsDouble(), kProbTol)
            << where << "\n  row " << i << " col " << c;
      } else if (!want.is_null()) {
        EXPECT_TRUE(gv.Equals(want)) << where << "\n  row " << i << " col " << c
                                     << ": " << gv.ToString() << " vs golden "
                                     << row.cells[c];
      }
    }
    EXPECT_EQ(got.rows()[i].condition.ToString(), row.condition)
        << where << "\n  row " << i;
  }
}

std::string CurrentTestName() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

constexpr unsigned kThreadCounts[] = {1, 2, 8};

DatabaseOptions ThreadOptions(unsigned num_threads, bool optimizer = true) {
  DatabaseOptions options;
  options.exec.num_threads = num_threads;
  options.exec.optimizer = optimizer;
  if (num_threads > 1) options.exec.morsel_size = 3;
  return options;
}

struct GoldenConfig {
  std::string name;
  DatabaseOptions options;
};

// batch/1, batch/2, batch/8 with the default (optimizing) planner.
std::vector<GoldenConfig> ThreadConfigs() {
  std::vector<GoldenConfig> configs;
  for (unsigned threads : kThreadCounts) {
    configs.push_back({StringFormat("batch/%u", threads), ThreadOptions(threads)});
  }
  return configs;
}

// The syntactic plan, serial and morsel-split.
std::vector<GoldenConfig> OptimizerOffConfigs() {
  return {{"batch/1/optimizer=off", ThreadOptions(1, false)},
          {"batch/8/optimizer=off", ThreadOptions(8, false)}};
}

// Databases under every config, each query held to the golden recorded
// under the running test's name. TearDown fails if a golden of that scope
// was never checked.
class GoldenDatabases {
 public:
  explicit GoldenDatabases(std::vector<GoldenConfig> configs = ThreadConfigs()) {
    for (GoldenConfig& config : configs) {
      names_.push_back(std::move(config.name));
      dbs_.emplace_back(config.options);
    }
  }

  void Exec(const std::string& sql) {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      Status s = dbs_[i].Execute(sql);
      ASSERT_TRUE(s.ok()) << Name(i) << ": " << s.ToString() << "\n  " << sql;
    }
  }

  void Check(const std::string& sql) {
    const GoldenAnswer* golden = FindGolden(CurrentTestName(), sql);
    ASSERT_NE(golden, nullptr) << "no golden for " << CurrentTestName() << ": " << sql;
    ++checked_;
    for (size_t i = 0; i < dbs_.size(); ++i) {
      auto got = dbs_[i].Query(sql);
      ASSERT_TRUE(got.ok()) << Name(i) << ": " << got.status().ToString() << "\n  "
                            << sql;
      ExpectMatchesGolden(*got, *golden, Name(i));
    }
  }

  void CheckError(const std::string& sql) {
    for (size_t i = 0; i < dbs_.size(); ++i) {
      EXPECT_FALSE(dbs_[i].Query(sql).ok()) << Name(i) << ": " << sql;
    }
  }

  void ExpectEveryGoldenChecked() const {
    EXPECT_EQ(checked_, GoldenCount(CurrentTestName()))
        << "goldens recorded for " << CurrentTestName() << " were not checked";
  }

  std::vector<Database>& dbs() { return dbs_; }
  const std::string& Name(size_t i) const { return names_[i]; }

 private:
  std::vector<std::string> names_;
  std::vector<Database> dbs_;
  size_t checked_ = 0;
};

class ParallelParityTest : public ::testing::Test {
 protected:
  ParallelParityTest() = default;
  explicit ParallelParityTest(std::vector<GoldenConfig> configs)
      : goldens_(std::move(configs)) {}

  void TearDown() override { goldens_.ExpectEveryGoldenChecked(); }

  void Exec(const std::string& sql) { goldens_.Exec(sql); }
  void Check(const std::string& sql) { goldens_.Check(sql); }
  void CheckError(const std::string& sql) { goldens_.CheckError(sql); }

  GoldenDatabases goldens_;
};

// ---------------------------------------------------------------------------
// Deterministic relational workloads (the parity corpus)
// ---------------------------------------------------------------------------

void SetUpEmployees(GoldenDatabases& db) {
  db.Exec("create table emp (id int, name text, dept text, salary double)");
  db.Exec("insert into emp values "
          "(1,'ann','eng',100.0), (2,'bob','eng',90.0), (3,'cat','ops',80.0), "
          "(4,'dan','ops',85.0), (5,'eve','hr',70.0), (6,'fay','hr',null)");
  db.Exec("create table dept (dept text, city text)");
  db.Exec("insert into dept values ('eng','NYC'), ('ops','SF')");
}

void ScansFiltersProjectionsCorpus(GoldenDatabases& db) {
  db.Check("select * from emp");
  db.Check("select name, salary * 2 as double_pay from emp order by id");
  db.Check("select name from emp where salary >= 85 and dept <> 'hr'");
  db.Check("select name from emp where salary % 20 = 0 or length(name) = 3");
  db.Check("select name from emp where salary is null");
  db.Check("select name from emp where salary is not null order by salary desc");
  db.Check("select upper(name), abs(-salary), least(salary, 85.0) from emp order by id");
  db.Check("select name from emp where -salary < -80 order by name");
}

void JoinsUnionsDistinctCorpus(GoldenDatabases& db) {
  db.Check("select e.name, d.city from emp e, dept d where e.dept = d.dept "
           "order by e.id");
  db.Check("select e.id from emp e, dept d");
  db.Check("select e1.name from emp e1, emp e2 where e1.salary = e2.salary + 10");
  db.Check("select distinct dept from emp order by dept");
  db.Check("select dept from emp union select dept from dept");
  db.Check("select name from emp where dept in (select dept from dept)");
  db.Check("select name from emp where dept not in (select dept from dept) "
           "order by name");
  db.Check("select name from emp order by salary desc limit 3");
  db.Check("select name from emp limit 0");
}

void AggregatesAndGroupsCorpus(GoldenDatabases& db) {
  db.Check("select dept, count(*), sum(salary), avg(salary), min(name), max(salary) "
           "from emp group by dept order by dept");
  db.Check("select count(salary) from emp");
  db.Check("select sum(salary) from emp where dept = 'none'");
  db.Check("select argmax(name, salary) from emp");
}

void DmlCorpus(GoldenDatabases& db) {
  db.Exec("update emp set salary = salary + 1 where dept = 'eng'");
  db.Exec("delete from emp where salary < 75");
  db.Check("select * from emp order by id");
  db.Exec("create table emp2 as select name, salary from emp where salary > 80");
  db.Check("select * from emp2 order by name");
}

class ParallelRelationalParityTest : public ParallelParityTest {
 protected:
  void SetUp() override { SetUpEmployees(goldens_); }
};

TEST_F(ParallelRelationalParityTest, ScansFiltersProjections) {
  ScansFiltersProjectionsCorpus(goldens_);
}

TEST_F(ParallelRelationalParityTest, JoinsUnionsDistinct) {
  JoinsUnionsDistinctCorpus(goldens_);
}

TEST_F(ParallelRelationalParityTest, AggregatesAndGroups) {
  AggregatesAndGroupsCorpus(goldens_);
}

TEST_F(ParallelRelationalParityTest, DmlParity) { DmlCorpus(goldens_); }

TEST_F(ParallelRelationalParityTest, ErrorParity) {
  CheckError("select * from missing_table");
  CheckError("select name from emp where 1 / (length(name) - 3) > 0 "
             "and name = 'ann'");
}

class RelationalParityTest : public ParallelParityTest {
 protected:
  RelationalParityTest() : ParallelParityTest(OptimizerOffConfigs()) {}
  void SetUp() override { SetUpEmployees(goldens_); }
};

TEST_F(RelationalParityTest, ScansFiltersProjections) {
  ScansFiltersProjectionsCorpus(goldens_);
}

TEST_F(RelationalParityTest, JoinsUnionsDistinct) { JoinsUnionsDistinctCorpus(goldens_); }

TEST_F(RelationalParityTest, AggregatesAndGroups) { AggregatesAndGroupsCorpus(goldens_); }

TEST_F(RelationalParityTest, DmlParity) { DmlCorpus(goldens_); }

// ---------------------------------------------------------------------------
// Probabilistic workloads (repair-key, pick-tuples, conf, tconf, possible)
// ---------------------------------------------------------------------------

void SetUpPlayers(const std::function<void(const std::string&)>& exec) {
  exec("create table PlayerStatus (player text, status text, p double)");
  exec("insert into PlayerStatus values "
       "('kobe','fit',0.7), ('kobe','injured',0.3), "
       "('shaq','fit',0.5), ('shaq','injured',0.5), "
       "('ray','fit',0.9), ('ray','injured',0.1)");
  exec("create table Skills (player text, skill text)");
  exec("insert into Skills values "
       "('kobe','shooting'), ('kobe','passing'), "
       "('shaq','defense'), ('shaq','shooting'), ('ray','three_point')");
  exec("create table Status as select * from "
       "(repair key player in PlayerStatus weight by p) r");
}

void SetUpSensors(const std::function<void(const std::string&)>& exec) {
  exec("create table Sensor (sid int, temp double, prob double)");
  exec("insert into Sensor values (1, 20.0, 0.9), (2, 22.5, 0.8), "
       "(3, 19.0, 1.0), (4, 30.5, 0.25)");
  exec("create table USensor as select * from "
       "(pick tuples from Sensor independently with probability prob) r");
}

// 1,500 rows: more than one batch, so a streaming limit would stop
// mid-input.
std::string BigInsert() {
  std::string insert = "insert into big values ";
  for (int i = 0; i < 1500; ++i) {
    insert += StringFormat("%s(%d, 0.5)", i == 0 ? "" : ", ", i);
  }
  return insert;
}

const char* const kGroupedConfSql =
    "select s.skill, conf() as p from Status t, Skills s "
    "where t.player = s.player and t.status = 'fit' "
    "group by s.skill order by s.skill";
const char* const kPossibleSql =
    "select possible player from Status t where t.status = 'injured'";
const char* const kEsumSql =
    "select esum(p) as expected, ecount() as n from "
    "(select t.p as p from Status s2, PlayerStatus t "
    " where s2.player = t.player and s2.status = t.status) u";

class ParallelProbabilisticParityTest : public ParallelParityTest {
 protected:
  void SetUp() override {
    SetUpPlayers([&](const std::string& sql) { Exec(sql); });
  }
};

TEST_F(ParallelProbabilisticParityTest, RepairKeyStateAndTconf) {
  Check("select player, status, tconf() as p from Status order by player, status");
}

TEST_F(ParallelProbabilisticParityTest, GroupedConfOverJoin) {
  Check(kGroupedConfSql);
}

TEST_F(ParallelProbabilisticParityTest, PossibleAndEsum) {
  Check(kPossibleSql);
  Check(kEsumSql);
}

TEST_F(ParallelProbabilisticParityTest, PickTuplesParity) {
  SetUpSensors([&](const std::string& sql) { Exec(sql); });
  Check("select sid, temp, tconf() as p from USensor order by sid");
  Check("select conf() as any_hot from (select 1 as one from USensor "
        "where temp > 21) h group by one");
}

TEST_F(ParallelProbabilisticParityTest, LimitOverUncertainConstructParity) {
  // A limit over a construct materializes its child fully, registering a
  // world-table variable for EVERY row under morsel splitting too: the
  // recorded atom ids of the next construct pin the variable count.
  Exec("create table big (id int, p double)");
  Exec(BigInsert());
  Check("select id from (pick tuples from big independently with probability p) "
        "r limit 2");
  Exec("create table After as select * from "
       "(repair key player in PlayerStatus weight by p) r2");
  Check("select player, status from After order by player, status");
  Check("select player, status, tconf() as p from After order by player, status");
  // Errors past the cutoff must still surface.
  Exec("create table withzero (id int, d double)");
  Exec("insert into withzero select id, 2.0 from big");
  Exec("update withzero set d = 0 where id = 1400");
  CheckError("select 10 / d from withzero limit 5");
}

// aconf() samples lineage-content-seeded counter-based substreams at every
// thread count (serial configs run the substreams inline), so every config
// must produce the SAME estimate bit for bit.
TEST_F(ParallelProbabilisticParityTest, AconfBitEqualAcrossThreadedConfigs) {
  const std::string sql =
      "select s.skill, aconf(0.05, 0.05) as p from Status t, Skills s "
      "where t.player = s.player and t.status = 'fit' "
      "group by s.skill order by s.skill";
  std::vector<Database>& dbs = goldens_.dbs();
  auto reference = dbs[0].Query(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (size_t i = 1; i < dbs.size(); ++i) {
    auto got = dbs[i].Query(sql);
    const std::string& name = goldens_.Name(i);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ASSERT_EQ(reference->NumRows(), got->NumRows()) << name;
    for (size_t r = 0; r < reference->NumRows(); ++r) {
      EXPECT_TRUE(reference->At(r, 0).Equals(got->At(r, 0))) << name;
      EXPECT_EQ(reference->At(r, 1).AsDouble(), got->At(r, 1).AsDouble())
          << name << " row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized uncertain pipelines
// ---------------------------------------------------------------------------

// t1 holds 1-3 alternatives per key k (repaired into u1), t2 six
// independent tuples (picked into u2).
std::vector<std::string> RandomPipelineSetup(int seed) {
  Rng rng(static_cast<uint64_t>(seed) * 90017);
  std::vector<std::string> setup = {
      "create table t1 (k int, v int, w double)",
      "create table t2 (k int, v int, w double)",
  };
  for (int k = 0; k < 4; ++k) {
    int options = 1 + static_cast<int>(rng.NextBounded(3));
    for (int o = 0; o < options; ++o) {
      setup.push_back(StringFormat("insert into t1 values (%d, %d, %g)", k,
                                   static_cast<int>(rng.NextBounded(3)),
                                   0.25 + rng.NextDouble()));
    }
  }
  for (int i = 0; i < 6; ++i) {
    setup.push_back(StringFormat("insert into t2 values (%d, %d, %g)",
                                 static_cast<int>(rng.NextBounded(4)),
                                 static_cast<int>(rng.NextBounded(3)),
                                 0.2 + 0.6 * rng.NextDouble()));
  }
  setup.push_back("create table u1 as select * from "
                  "(repair key k in t1 weight by w) r");
  setup.push_back("create table u2 as select * from "
                  "(pick tuples from t2 independently with probability w) r");
  return setup;
}

const char* const kRandomConfSql = "select v, conf() as p from u1 group by v order by v";
const char* const kRandomJoinConfSql =
    "select a.v, conf() as p from u1 a, u2 b where a.k = b.k "
    "group by a.v order by a.v";
const char* const kRandomPossibleSql = "select possible v from u1 where v >= 1";
const char* const kRandomTconfSql = "select k, v, tconf() as p from u1 order by k, v";
const char* const kRandomEsumSql = "select esum(v) as ev, ecount() as ec from u2";

const char* const kRandomPipelineQueries[] = {
    kRandomConfSql,
    kRandomJoinConfSql,
    kRandomPossibleSql,
    kRandomTconfSql,
    kRandomEsumSql,
    "select v, count(*) as n from t1 group by v order by v",
    "select a.k from u1 a, u2 b where a.k = b.k and a.v <= b.v order by a.k",
};

class ParallelRandomParityTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { goldens_.ExpectEveryGoldenChecked(); }

  GoldenDatabases goldens_;
};

TEST_P(ParallelRandomParityTest, RandomPipelines) {
  for (const std::string& sql : RandomPipelineSetup(GetParam())) {
    ASSERT_NO_FATAL_FAILURE(goldens_.Exec(sql));
  }
  for (const char* sql : kRandomPipelineQueries) goldens_.Check(sql);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomParityTest, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// The probabilistic answers against the possible worlds
// ---------------------------------------------------------------------------

// Rows of `s` present in world `w`.
std::vector<const Row*> Present(const Snapshot& s, const World& w) {
  std::vector<const Row*> rows;
  for (const Row& row : s.rows) {
    if (w.Satisfies(row.condition)) rows.push_back(&row);
  }
  return rows;
}

// For every answer some world reports, the total probability of the
// worlds reporting it: conf() of a group, or whether a value is possible.
std::map<std::string, double> AnswerProbs(
    const Database& db, const std::function<std::set<std::string>(const World&)>& answers) {
  std::map<std::string, double> probs;
  ForEachWorld(db, [&](const World& w) {
    for (const std::string& a : answers(w)) probs[a] += w.probability;
  });
  return probs;
}

// E[f] over the worlds: esum() and ecount().
double Expectation(const Database& db, const std::function<double(const World&)>& f) {
  double e = 0;
  ForEachWorld(db, [&](const World& w) { e += w.probability * f(w); });
  return e;
}

// conf() per group (column 0), against the worlds.
void ExpectGroupConf(const QueryResult& result, const std::map<std::string, double>& truth,
                     const std::string& sql) {
  ASSERT_EQ(result.NumRows(), truth.size()) << sql;
  for (const Row& row : result.rows()) {
    auto it = truth.find(row.values[0].ToString());
    ASSERT_NE(it, truth.end()) << sql << ": group " << row.values[0].ToString();
    EXPECT_NEAR(row.values.back().AsDouble(), it->second, kWorldTol)
        << sql << ": group " << row.values[0].ToString();
  }
}

// `possible` answers (column 0): exactly the values of positive probability.
void ExpectPossible(const QueryResult& result, const std::map<std::string, double>& truth,
                    const std::string& sql) {
  std::set<std::string> want;
  for (const auto& [value, p] : truth) {
    if (p > 0) want.insert(value);
  }
  std::multiset<std::string> got;
  for (const Row& row : result.rows()) got.insert(row.values[0].ToString());
  EXPECT_EQ(got, std::multiset<std::string>(want.begin(), want.end())) << sql;
  EXPECT_FALSE(result.uncertain()) << sql;
}

// tconf() (last column) of every row of `table`, matched by the columns
// before it, which are the table's leading columns: the probability of the
// worlds holding that row.
void ExpectTconf(const Database& db, const QueryResult& result, const std::string& table,
                 const std::string& sql) {
  ASSERT_GE(result.NumColumns(), 2u) << sql;
  const Snapshot s = Snap(db, table);
  const size_t key_cols = result.NumColumns() - 1;
  auto key = [&](const std::vector<Value>& values) {
    std::string k;
    for (size_t c = 0; c < key_cols; ++c) k += values[c].ToString() + "|";
    return k;
  };
  std::vector<double> truth(s.rows.size(), 0);
  ForEachWorld(db, [&](const World& w) {
    for (size_t i = 0; i < s.rows.size(); ++i) {
      if (w.Satisfies(s.rows[i].condition)) truth[i] += w.probability;
    }
  });
  std::multiset<std::pair<std::string, double>> want;
  for (size_t i = 0; i < s.rows.size(); ++i) want.emplace(key(s.rows[i].values), truth[i]);
  ASSERT_EQ(result.NumRows(), want.size()) << sql;
  // Rows with equal keys pair up in ascending probability order.
  std::multiset<std::pair<std::string, double>> got;
  for (const Row& row : result.rows()) {
    got.emplace(key(row.values), row.values.back().AsDouble());
  }
  for (auto g = got.begin(), w = want.begin(); g != got.end(); ++g, ++w) {
    EXPECT_EQ(g->first, w->first) << sql;
    EXPECT_NEAR(g->second, w->second, kWorldTol) << sql << ": " << g->first;
  }
}

// esum() (column 0) and ecount() (column 1) against the expectations of
// the per-world `sum` and `count`.
void ExpectEsumEcount(const Database& db, const QueryResult& result,
                      const std::function<double(const World&)>& sum,
                      const std::function<double(const World&)>& count,
                      const std::string& sql) {
  ASSERT_EQ(result.NumRows(), 1u) << sql;
  EXPECT_NEAR(result.At(0, 0).AsDouble(), Expectation(db, sum), kWorldTol) << sql;
  EXPECT_NEAR(result.At(0, 1).AsDouble(), Expectation(db, count), kWorldTol) << sql;
}

class ProbabilisticParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetUpPlayers([&](const std::string& sql) { Exec(sql); });
  }

  void Exec(const std::string& sql) {
    Status s = db_.Execute(sql);
    ASSERT_TRUE(s.ok()) << s.ToString() << "\n  " << sql;
  }

  QueryResult Query(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  " << sql;
    return r.ok() ? std::move(*r) : QueryResult();
  }

  Database db_;
};

TEST_F(ProbabilisticParityTest, RepairKeyStateAndTconf) {
  const std::string sql =
      "select player, status, tconf() as p from Status order by player, status";
  ExpectTconf(db_, Query(sql), "Status", sql);
}

TEST_F(ProbabilisticParityTest, GroupedConfOverJoin) {
  const Snapshot status = Snap(db_, "Status");
  const Snapshot skills = Snap(db_, "Skills");
  // Columns: Status (player, status, p), Skills (player, skill).
  auto truth = AnswerProbs(db_, [&](const World& w) {
    std::set<std::string> groups;
    for (const Row* t : Present(status, w)) {
      if (t->values[1].AsString() != "fit") continue;
      for (const Row& s : skills.rows) {
        if (s.values[0].Equals(t->values[0])) groups.insert(s.values[1].ToString());
      }
    }
    return groups;
  });
  ExpectGroupConf(Query(kGroupedConfSql), truth, kGroupedConfSql);
}

TEST_F(ProbabilisticParityTest, PossibleAndEsum) {
  const Snapshot status = Snap(db_, "Status");
  const Snapshot players = Snap(db_, "PlayerStatus");
  auto injured = AnswerProbs(db_, [&](const World& w) {
    std::set<std::string> out;
    for (const Row* t : Present(status, w)) {
      if (t->values[1].AsString() == "injured") out.insert(t->values[0].ToString());
    }
    return out;
  });
  ExpectPossible(Query(kPossibleSql), injured, kPossibleSql);

  // Per world: the PlayerStatus rows matching a present Status row.
  auto matched = [&](const World& w) {
    std::vector<const Row*> rows;
    for (const Row* s2 : Present(status, w)) {
      for (const Row& t : players.rows) {
        if (s2->values[0].Equals(t.values[0]) && s2->values[1].Equals(t.values[1])) {
          rows.push_back(&t);
        }
      }
    }
    return rows;
  };
  ExpectEsumEcount(
      db_, Query(kEsumSql),
      [&](const World& w) {
        double sum = 0;
        for (const Row* t : matched(w)) sum += t->values[2].AsDouble();
        return sum;
      },
      [&](const World& w) { return static_cast<double>(matched(w).size()); }, kEsumSql);
}

TEST_F(ProbabilisticParityTest, PickTuplesParity) {
  SetUpSensors([&](const std::string& sql) { Exec(sql); });
  const std::string tconf = "select sid, temp, tconf() as p from USensor order by sid";
  ExpectTconf(db_, Query(tconf), "USensor", tconf);
  const Snapshot sensors = Snap(db_, "USensor");
  // Columns: USensor (sid, temp, prob).
  const double any_hot = Expectation(db_, [&](const World& w) {
    for (const Row* r : Present(sensors, w)) {
      if (r->values[1].AsDouble() > 21) return 1.0;
    }
    return 0.0;
  });
  const QueryResult r = Query(
      "select conf() as any_hot from (select 1 as one from USensor "
      "where temp > 21) h group by one");
  ASSERT_EQ(r.NumRows(), 1u);
  EXPECT_NEAR(r.At(0, 0).AsDouble(), any_hot, kWorldTol);
}

// aconf(ε, δ) lands within ε (relative) of the recorded exact answer.
TEST_F(ProbabilisticParityTest, AconfAgreesWithinTolerance) {
  const GoldenAnswer* golden = FindGolden("GroupedConfOverJoin", kGroupedConfSql);
  ASSERT_NE(golden, nullptr);
  const double epsilon = 0.05;
  const QueryResult r = Query(
      "select s.skill, aconf(0.05, 0.05) as p from Status t, Skills s "
      "where t.player = s.player and t.status = 'fit' "
      "group by s.skill order by s.skill");
  ASSERT_EQ(r.NumRows(), golden->rows.size());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    EXPECT_TRUE(r.At(i, 0).Equals(ParseCell(golden->rows[i].cells[0])));
    const double conf = ParseCell(golden->rows[i].cells[1]).AsDouble();
    EXPECT_LE(std::fabs(r.At(i, 1).AsDouble() - conf), epsilon * conf)
        << r.At(i, 0).ToString();
  }
}

TEST_F(ProbabilisticParityTest, LimitOverUncertainConstructParity) {
  Exec("create table big (id int, p double)");
  Exec(BigInsert());
  const size_t before = db_.catalog().world_table().NumVariables();
  const QueryResult limited = Query(
      "select id from (pick tuples from big independently with probability p) "
      "r limit 2");
  EXPECT_EQ(limited.NumRows(), 2u);
  // The construct registered a variable for every input row, not only for
  // the two rows the limit kept.
  EXPECT_EQ(db_.catalog().world_table().NumVariables(), before + 1500);
  // A repair key over keys whose weights sum to 1 has tconf() = weight.
  Exec("create table After as select * from "
       "(repair key player in PlayerStatus weight by p) r2");
  const QueryResult after =
      Query("select a.player, a.status, tconf() as p, s.p from After a, "
            "PlayerStatus s where a.player = s.player and a.status = s.status");
  ASSERT_EQ(after.NumRows(), 6u);
  for (const Row& row : after.rows()) {
    EXPECT_NEAR(row.values[2].AsDouble(), row.values[3].AsDouble(), kProbTol)
        << row.values[0].ToString() << " " << row.values[1].ToString();
  }
  Exec("create table withzero (id int, d double)");
  Exec("insert into withzero select id, 2.0 from big");
  Exec("update withzero set d = 0 where id = 1400");
  EXPECT_FALSE(db_.Query("select 10 / d from withzero limit 5").ok());
}

TEST_F(ProbabilisticParityTest, ErrorParity) {
  EXPECT_FALSE(db_.Query("select * from missing_table").ok());
  EXPECT_FALSE(db_.Query("select name from Skills where 1 / (length(player) - 4) > 0 "
                         "and player = 'kobe'")
                   .ok());
}

class RandomParityTest : public ::testing::TestWithParam<int> {};

// The random pipelines' conf, tconf, possible, esum and ecount against the
// worlds of u1 (repaired t1) and u2 (picked t2).
TEST_P(RandomParityTest, RandomPipelines) {
  Database db;
  for (const std::string& sql : RandomPipelineSetup(GetParam())) {
    ASSERT_TRUE(db.Execute(sql).ok()) << sql;
  }
  const Snapshot u1 = Snap(db, "u1");
  const Snapshot u2 = Snap(db, "u2");
  auto query = [&](const std::string& sql) {
    auto r = db.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  " << sql;
    return r.ok() ? std::move(*r) : QueryResult();
  };
  // Columns: u1 and u2 are (k, v, w).
  ExpectGroupConf(query(kRandomConfSql), AnswerProbs(db, [&](const World& w) {
                    std::set<std::string> vs;
                    for (const Row* a : Present(u1, w)) vs.insert(a->values[1].ToString());
                    return vs;
                  }),
                  kRandomConfSql);
  ExpectGroupConf(query(kRandomJoinConfSql), AnswerProbs(db, [&](const World& w) {
                    std::set<std::string> vs;
                    for (const Row* a : Present(u1, w)) {
                      for (const Row* b : Present(u2, w)) {
                        if (a->values[0].Equals(b->values[0])) {
                          vs.insert(a->values[1].ToString());
                        }
                      }
                    }
                    return vs;
                  }),
                  kRandomJoinConfSql);
  ExpectPossible(query(kRandomPossibleSql), AnswerProbs(db, [&](const World& w) {
                   std::set<std::string> vs;
                   for (const Row* a : Present(u1, w)) {
                     if (a->values[1].AsInt() >= 1) vs.insert(a->values[1].ToString());
                   }
                   return vs;
                 }),
                 kRandomPossibleSql);
  ExpectTconf(db, query(kRandomTconfSql), "u1", kRandomTconfSql);
  ExpectEsumEcount(
      db, query(kRandomEsumSql),
      [&](const World& w) {
        double sum = 0;
        for (const Row* b : Present(u2, w)) sum += static_cast<double>(b->values[1].AsInt());
        return sum;
      },
      [&](const World& w) { return static_cast<double>(Present(u2, w).size()); },
      kRandomEsumSql);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomParityTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace maybms
