// Tests for the engine facade: Database, QueryResult, Explain, scripts,
// seeding, and the embedding API (catalog/world-table access).
#include <gtest/gtest.h>

#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/sprout/tuple_independent.h"

namespace maybms {
namespace {

TEST(DatabaseTest, QueryParseErrorsSurface) {
  Database db;
  Result<QueryResult> r = db.Query("selec 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(DatabaseTest, ExecuteScriptStopsAtFirstError) {
  Database db;
  Result<QueryResult> r = db.ExecuteScript(
      "create table t (a int); insert into t values ('not an int');"
      "insert into t values (2);");
  ASSERT_FALSE(r.ok());
  // The failing insert must not leave the later statement applied.
  auto count = db.Query("select count(*) from t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->At(0, 0).AsInt(), 0);
}

TEST(DatabaseTest, EmptyScriptRejected) {
  Database db;
  EXPECT_FALSE(db.ExecuteScript("  ;;  ").ok());
}

TEST(DatabaseTest, ExplainOnDmlReportsNoPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (a int)").ok());
  auto plan = db.Explain("insert into t values (1)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("no plan"), std::string::npos);
}

TEST(DatabaseTest, ExplainShowsProbabilisticOperators) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, w double)").ok());
  auto plan = db.Explain(
      "select k, conf() from (repair key k in t weight by w) r group by k");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("RepairKey"), std::string::npos);
  EXPECT_NE(plan->find("conf"), std::string::npos);
  EXPECT_NE(plan->find("[uncertain]"), std::string::npos);
}

TEST(DatabaseTest, OptionsControlExactSolver) {
  DatabaseOptions options;
  options.exec.exact.max_steps = 1;  // absurdly tight budget
  Database db(options);
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int k = 0; k < 6; ++k) {
    for (int v = 0; v < 2; ++v) {
      ASSERT_TRUE(db.Execute(StringFormat("insert into t values (%d,%d)", k, v)).ok());
    }
  }
  ASSERT_TRUE(db.Execute("create table u as select * from (repair key k in t) r").ok());
  Result<QueryResult> r =
      db.Query("select a.v, conf() from u a, u b where a.v = b.v group by a.v");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(DatabaseTest, SetStatementAdjustsSessionKnobs) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int k = 0; k < 6; ++k) {
    for (int v = 0; v < 2; ++v) {
      ASSERT_TRUE(db.Execute(StringFormat("insert into t values (%d,%d)", k, v)).ok());
    }
  }
  ASSERT_TRUE(db.Execute("create table u as select * from (repair key k in t) r").ok());
  const std::string conf_sql =
      "select a.v, conf() as p from u a, u b where a.v = b.v group by a.v "
      "order by a.v";

  // Tighten the node budget via SQL: the same query now overruns it.
  ASSERT_TRUE(db.Execute("SET dtree_node_budget = 1").ok());
  EXPECT_EQ(db.options().exec.exact.max_steps, 1u);
  Result<QueryResult> over = db.Query(conf_sql);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange);

  // Enable the hybrid fallback: the query answers with seeded aconf
  // estimates and carries a warning.
  ASSERT_TRUE(db.Execute("SET conf_fallback = on").ok());
  Result<QueryResult> fallback = db.Query(conf_sql);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_NE(fallback->message().find("warning: conf() exceeded"),
            std::string::npos);

  // Restore the budget: exact answers again (no warning), and turning the
  // compilation cache off returns bit-identical probabilities.
  ASSERT_TRUE(db.Execute("SET dtree_node_budget = 0").ok());
  Result<QueryResult> cached = db.Query(conf_sql);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->message().find("warning"), std::string::npos);
  ASSERT_TRUE(db.Execute("SET dtree_cache = off").ok());
  Result<QueryResult> fresh = db.Query(conf_sql);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(cached->NumRows(), fresh->NumRows());
  for (size_t i = 0; i < cached->NumRows(); ++i) {
    EXPECT_EQ(cached->At(i, 1).AsDouble(), fresh->At(i, 1).AsDouble());
  }

  // Unknown knobs and malformed values are clean errors.
  EXPECT_EQ(db.Execute("SET bogus = 1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Execute("SET fallback_epsilon = 7").code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, SetKnobsRejectMalformedNumbersWithPositions) {
  Database db;
  // Trailing garbage after a numeric value: rejected by the SET parser
  // with a position-stamped error naming the statement, never silently
  // truncated to the leading float.
  Status trailing = db.Execute("SET fallback_epsilon = 0.5abc");
  EXPECT_EQ(trailing.code(), StatusCode::kParseError);
  EXPECT_NE(trailing.ToString().find("SET fallback_epsilon"), std::string::npos)
      << trailing.ToString();
  EXPECT_NE(trailing.ToString().find("at 1:27"), std::string::npos)
      << trailing.ToString();

  // Out-of-range and non-finite values: the knob re-parses the raw token
  // strictly instead of casting the lexer's saturated double (1e999 →
  // inf → undefined behavior when cast to an integer).
  for (const char* bad :
       {"SET dtree_node_budget = 1e999", "SET dtree_node_budget = 2.5",
        "SET dtree_node_budget = 99999999999999999999999",
        "SET num_threads = 1e999", "SET num_threads = 3.7",
        "SET num_threads = 99999", "SET fallback_epsilon = 1e999",
        "SET fallback_delta = 1e-999", "SET dtree_cache_budget = 0.5",
        "SET fallback_epsilon = on", "SET dtree_node_budget = legacy"}) {
    Status st = db.Execute(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
  }
  // The stamped position survives into the knob errors.
  Status ranged = db.Execute("SET dtree_node_budget = 1e999");
  EXPECT_NE(ranged.ToString().find("at 1:25"), std::string::npos)
      << ranged.ToString();

  // Budgets and flags the strict parser must still accept.
  EXPECT_TRUE(db.Execute("SET dtree_node_budget = 4000000").ok());
  EXPECT_EQ(db.options().exec.exact.max_steps, 4000000u);
  EXPECT_TRUE(db.Execute("SET dtree_cache = off").ok());
  EXPECT_FALSE(db.options().exec.dtree_cache);
  EXPECT_TRUE(db.Execute("SET dtree_cache = on").ok());
  EXPECT_TRUE(db.options().exec.dtree_cache);
  EXPECT_TRUE(db.Execute("SET dtree_cache_budget = 4096").ok());
  EXPECT_EQ(db.options().exec.dtree_cache_budget, 4096u);
  EXPECT_TRUE(db.Execute("SET dtree_cache_budget = 0").ok());
  EXPECT_TRUE(db.Execute("SET fallback_epsilon = 0.25").ok());
  EXPECT_TRUE(db.Execute("SET num_threads = 2").ok());
  EXPECT_TRUE(db.Execute("SET num_threads = 0").ok());
}

TEST(DatabaseTest, DirectOptionsMutationsAreValidatedAtNextStatement) {
  // options() hands out a mutable reference, so embedding code can bypass
  // the SET parser entirely. Out-of-range values must be caught at the
  // next statement with an error naming the knob — historically a
  // fallback_epsilon of 0.0 sailed through and hit undefined behavior in
  // the Karp-Luby sample-size computation.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1)").ok());

  db.options().exec.fallback_epsilon = 0.0;
  Status st = db.Execute("select x from t");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("fallback_epsilon"), std::string::npos)
      << st.ToString();

  // SET still works while options are invalid — it is the repair path.
  ASSERT_TRUE(db.Execute("SET fallback_epsilon = 0.25").ok());
  EXPECT_TRUE(db.Query("select x from t").ok());

  db.options().exec.fallback_delta = 1.5;
  EXPECT_EQ(db.Execute("select x from t").code(),
            StatusCode::kInvalidArgument);
  db.options().exec.fallback_delta = 0.05;

  db.options().exec.snapshot_chunk_rows = 0;
  st = db.Execute("select x from t");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("snapshot_chunk_rows"), std::string::npos);
  db.options().exec.snapshot_chunk_rows = ExecOptions().snapshot_chunk_rows;

  db.options().exec.num_threads = 1u << 20;
  EXPECT_EQ(db.Execute("select x from t").code(),
            StatusCode::kInvalidArgument);
  db.options().exec.num_threads = 0;
  EXPECT_TRUE(db.Query("select x from t").ok());
}

TEST(QueryResultTest, ScalarValueAccessor) {
  Database db;
  auto one = db.Query("select 41 + 1");
  ASSERT_TRUE(one.ok());
  auto v = one->ScalarValue();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 42);

  auto wide = db.Query("select 1, 2");
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(wide->ScalarValue().ok());
}

TEST(QueryResultTest, LookupFindsFirstMatch) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k text, v int)").ok());
  ASSERT_TRUE(db.Execute("insert into t values ('a',1), ('b',2), ('a',3)").ok());
  auto r = db.Query("select k, v from t");
  ASSERT_TRUE(r.ok());
  auto found = r->Lookup(0, Value::String("a"), 1);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->AsInt(), 1);
  EXPECT_FALSE(r->Lookup(0, Value::String("zz"), 1).has_value());
}

TEST(QueryResultTest, UncertainResultsRenderConditions) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1,10), (1,20)").ok());
  auto r = db.Query("select * from (repair key k in t) x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->uncertain());
  std::string rendered = r->ToString();
  EXPECT_NE(rendered.find("condition"), std::string::npos);
  EXPECT_NE(rendered.find("x0->"), std::string::npos);
}

TEST(QueryResultTest, MessageForDdl) {
  Database db;
  auto r = db.Query("create table t (a int)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->message(), "CREATE TABLE");
  EXPECT_EQ(r->NumColumns(), 0u);
}

// Embedding API: tables built programmatically (bulk load path) are
// queryable through SQL, including tuple-independent U-relations built
// with the sprout helper.
TEST(EmbeddingTest, ProgrammaticTablesAreQueryable) {
  Database db;
  Schema schema({{"name", TypeId::kString}, {"score", TypeId::kInt}});
  auto rows = std::vector<std::pair<std::vector<Value>, double>>{
      {{Value::String("a"), Value::Int(10)}, 0.5},
      {{Value::String("b"), Value::Int(20)}, 0.75},
  };
  auto table = MakeTupleIndependentTable("scores", schema, rows, &db.world_table());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(db.catalog().RegisterTable(*table).ok());

  auto r = db.Query("select esum(score) from scores");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->At(0, 0).AsDouble(), 10 * 0.5 + 20 * 0.75);
}

TEST(EmbeddingTest, BulkAppendThenSql) {
  Database db;
  ASSERT_TRUE(db.Execute("create table big (x int)").ok());
  TablePtr t = *db.catalog().GetTable("big");
  for (int i = 0; i < 1000; ++i) {
    t->AppendUnchecked(Row({Value::Int(i)}));
  }
  auto r = db.Query("select count(*), sum(x) from big");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0).AsInt(), 1000);
  EXPECT_EQ(r->At(0, 1).AsInt(), 499500);
}

}  // namespace
}  // namespace maybms
