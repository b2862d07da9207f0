// SQL-level tests for secondary indexes: DDL (CREATE/DROP/SHOW INDEX),
// maintenance across DML, index-aware planning (EXPLAIN shows IndexScan,
// SET use_indexes toggles it), and the bit-identity contract: every query
// answers the same with indexes on or off, across thread counts. Also covers the trace_sample knob and Prometheus export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/obs/metrics.h"

namespace maybms {
namespace {

void FillOrders(Database* db, int rows) {
  ASSERT_TRUE(
      db->Execute("create table orders (id int, cust text, amount double)")
          .ok());
  for (int start = 0; start < rows; start += 500) {
    std::string insert = "insert into orders values ";
    const int end = std::min(rows, start + 500);
    for (int i = start; i < end; ++i) {
      if (i > start) insert += ", ";
      insert += "(" + std::to_string(i) + ", 'cust" + std::to_string(i % 97) +
                "', " + std::to_string((i * 7) % 1000) + ".25)";
    }
    ASSERT_TRUE(db->Execute(insert).ok());
  }
}

TEST(IndexSqlTest, CreateShowDropLifecycle) {
  Database db;
  FillOrders(&db, 100);
  auto created = db.Query("create index orders_id on orders (id)");
  ASSERT_TRUE(created.ok());
  EXPECT_NE(created->message().find("100"), std::string::npos)
      << "CREATE INDEX reports the entries built: " << created->message();

  // Duplicate name is an error; IF EXISTS drop of a missing name is not.
  EXPECT_FALSE(db.Execute("create index orders_id on orders (cust)").ok());
  EXPECT_FALSE(db.Execute("drop index no_such_index").ok());
  EXPECT_TRUE(db.Execute("drop index if exists no_such_index").ok());

  ASSERT_TRUE(db.Execute("create index orders_cust on orders (cust)").ok());
  auto shown = db.Query("show indexes");
  ASSERT_TRUE(shown.ok());
  ASSERT_EQ(shown->NumRows(), 2u);
  // Sorted by name: orders_cust before orders_id.
  EXPECT_EQ(shown->At(0, 0).AsString(), "orders_cust");
  EXPECT_EQ(shown->At(1, 0).AsString(), "orders_id");
  EXPECT_EQ(shown->At(1, 1).AsString(), "orders");
  EXPECT_EQ(shown->At(1, 2).AsString(), "id");

  ASSERT_TRUE(db.Execute("drop index orders_id").ok());
  shown = db.Query("show indexes");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(shown->NumRows(), 1u);
}

TEST(IndexSqlTest, CreateIndexValidatesTableAndColumn) {
  Database db;
  FillOrders(&db, 10);
  EXPECT_FALSE(db.Execute("create index i on nope (id)").ok());
  EXPECT_FALSE(db.Execute("create index i on orders (nope)").ok());
  EXPECT_TRUE(db.Execute("create index i on orders (id)").ok());
}

TEST(IndexSqlTest, DropTableDropsItsIndexes) {
  Database db;
  FillOrders(&db, 10);
  ASSERT_TRUE(db.Execute("create index i on orders (id)").ok());
  ASSERT_TRUE(db.Execute("drop table orders").ok());
  auto shown = db.Query("show indexes");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(shown->NumRows(), 0u);
}

TEST(IndexSqlTest, ExplainShowsIndexScanAndKnobDisablesIt) {
  Database db;
  FillOrders(&db, 2000);
  ASSERT_TRUE(db.Execute("create index orders_id on orders (id)").ok());
  auto plan = db.Query("explain select * from orders where id = 1234");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->message().find("IndexScan orders using orders_id"),
            std::string::npos)
      << plan->message();
  ASSERT_TRUE(db.Execute("set use_indexes = off").ok());
  plan = db.Query("explain select * from orders where id = 1234");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->message().find("IndexScan"), std::string::npos)
      << plan->message();
  ASSERT_TRUE(db.Execute("set use_indexes = on").ok());
  plan = db.Query("explain select * from orders where id = 1234");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->message().find("IndexScan"), std::string::npos);
}

TEST(IndexSqlTest, SmallTablesKeepSequentialScans) {
  Database db;
  FillOrders(&db, 20);  // far below the optimizer's row floor
  ASSERT_TRUE(db.Execute("create index orders_id on orders (id)").ok());
  auto plan = db.Query("explain select * from orders where id = 7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->message().find("IndexScan"), std::string::npos)
      << plan->message();
}

TEST(IndexSqlTest, IndexMaintainedAcrossDml) {
  Database db;
  FillOrders(&db, 1000);
  ASSERT_TRUE(db.Execute("create index orders_id on orders (id)").ok());

  // INSERT: absorbed incrementally; the new row is immediately visible
  // through the index path.
  ASSERT_TRUE(
      db.Execute("insert into orders values (100000, 'new', 1.0)").ok());
  auto r = db.Query("select cust from orders where id = 100000");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->At(0, 0).AsString(), "new");

  // UPDATE: stales the index; the next lookup rebuilds and must see the
  // updated keys (old key gone, new key present).
  ASSERT_TRUE(db.Execute("update orders set id = 200000 where id = 500").ok());
  r = db.Query("select count(*) from orders where id = 500");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0).AsInt(), 0);
  r = db.Query("select cust from orders where id = 200000");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);

  // DELETE: row ids shift; the rebuilt index must not resurrect rows.
  ASSERT_TRUE(db.Execute("delete from orders where id < 100").ok());
  r = db.Query("select count(*) from orders where id = 50");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0).AsInt(), 0);
  r = db.Query("select count(*) from orders where id = 150");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->At(0, 0).AsInt(), 1);
}

// The acceptance contract: bit-identical answers with indexes on vs off,
// for serial vs pooled execution.
TEST(IndexSqlTest, ParitySweepAcrossEnginesAndThreads) {
  const std::vector<std::string> queries = {
      "select * from orders where id = 1117",
      "select cust, amount from orders where id >= 1500 and id <= 1520",
      "select count(*) from orders where cust = 'cust13'",
      "select sum(amount) from orders where id > 2900",
      "select o.id, o.amount from orders o, vips v "
      "where o.cust = v.name and o.id < 400",
      "select cust, count(*) from orders where id >= 100 and id < 300 "
      "group by cust order by cust",
  };
  std::vector<std::string> expected;
  {
    // Ground truth: no indexes ever created.
    Database base;
    FillOrders(&base, 3000);
    ASSERT_TRUE(base.Execute("create table vips (name text)").ok());
    ASSERT_TRUE(
        base.Execute("insert into vips values ('cust13'), ('cust42')").ok());
    for (const std::string& q : queries) {
      auto r = base.Query(q);
      ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
      expected.push_back(r->ToString());
    }
  }
  for (const char* threads : {"1", "4"}) {
    for (const char* indexes : {"on", "off"}) {
      Database db;
      FillOrders(&db, 3000);
      ASSERT_TRUE(db.Execute("create table vips (name text)").ok());
      ASSERT_TRUE(
          db.Execute("insert into vips values ('cust13'), ('cust42')").ok());
      ASSERT_TRUE(db.Execute("create index orders_id on orders (id)").ok());
      ASSERT_TRUE(
          db.Execute("create index orders_cust on orders (cust)").ok());
      ASSERT_TRUE(
          db.Execute(std::string("set num_threads = ") + threads).ok());
      ASSERT_TRUE(
          db.Execute(std::string("set use_indexes = ") + indexes).ok());
      for (size_t i = 0; i < queries.size(); ++i) {
        auto r = db.Query(queries[i]);
        ASSERT_TRUE(r.ok()) << queries[i];
        EXPECT_EQ(r->ToString(), expected[i])
            << queries[i] << " (threads=" << threads
            << " use_indexes=" << indexes << ")";
      }
    }
  }
}

TEST(IndexSqlTest, IndexScanCountsInMetrics) {
  Database db;
  FillOrders(&db, 2000);
  ASSERT_TRUE(db.Execute("create index orders_id on orders (id)").ok());
  ASSERT_TRUE(db.Execute("select * from orders where id = 77").ok());
  auto stats = db.Query("show stats like 'opt.index%'");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->NumRows(), 1u);
  EXPECT_GE(stats->At(0, 1).AsDouble(), 1.0);
  auto lookups = db.Query("show stats like 'index.lookups'");
  ASSERT_TRUE(lookups.ok());
  ASSERT_EQ(lookups->NumRows(), 1u);
  EXPECT_GE(lookups->At(0, 1).AsDouble(), 1.0);
}

TEST(IndexSqlTest, KnobsValidateTheirValues) {
  Database db;
  EXPECT_FALSE(db.Execute("set use_indexes = 42").ok());
  EXPECT_FALSE(db.Execute("set trace_sample = -1").ok());
  EXPECT_FALSE(db.Execute("set trace_sample = maybe").ok());
  EXPECT_TRUE(db.Execute("set use_indexes = off").ok());
  EXPECT_TRUE(db.Execute("set trace_sample = 10").ok());
  EXPECT_TRUE(db.Execute("set trace_sample = 0").ok());
}

TEST(IndexSqlTest, TraceSampleRecordsEveryNthStatement) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1), (2), (3)").ok());
  // With metrics OFF, routine statements leave no traces...
  ASSERT_TRUE(db.Execute("set metrics = off").ok());
  const size_t before = db.session_manager().traces().Recent().size();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Execute("select count(*) from t").ok());
  }
  EXPECT_EQ(db.session_manager().traces().Recent().size(), before);
  // ...until sampling asks for every 3rd statement, which traces like an
  // explicit EXPLAIN ANALYZE (results unchanged).
  ASSERT_TRUE(db.Execute("set trace_sample = 3").ok());
  for (int i = 0; i < 6; ++i) {
    auto r = db.Query("select count(*) from t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->At(0, 0).AsInt(), 3);
  }
  EXPECT_EQ(db.session_manager().traces().Recent().size(), before + 2);
}

TEST(IndexSqlTest, PrometheusExportHasCountersAndHistograms) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1), (2)").ok());
  ASSERT_TRUE(db.Execute("select * from t").ok());
  const std::string text = db.session_manager().metrics().PrometheusText();
  EXPECT_NE(text.find("# TYPE maybms_stmt_select_executed counter"),
            std::string::npos)
      << text.substr(0, 500);
  EXPECT_NE(text.find("# TYPE maybms_stmt_total_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("maybms_stmt_total_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("maybms_stmt_total_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("maybms_stmt_total_seconds_count"), std::string::npos);
}

}  // namespace
}  // namespace maybms
