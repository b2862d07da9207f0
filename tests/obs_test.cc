// Observability subsystem tests (ISSUE 8): the metrics registry under
// concurrent sessions, EXPLAIN ANALYZE bit-identity with the untraced
// answer, SHOW STATS shape and LIKE filtering, chrome://tracing export
// well-formedness, and the SET metrics = off no-op guarantee.
//
// Every suite name contains "Obs" so the TSan CI lane's -R regex picks
// these up: the registry's relaxed atomics and the trace ring's mutex are
// exactly the surfaces TSan exists to vet.

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace maybms {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

using Snapshot = std::vector<std::pair<std::string, double>>;

std::optional<double> FindMetric(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap) {
    if (n == name) return v;
  }
  return std::nullopt;
}

double MetricDelta(const Snapshot& before, const Snapshot& after,
                   const std::string& name) {
  return FindMetric(after, name).value_or(0.0) -
         FindMetric(before, name).value_or(0.0);
}

/// Seeds a database with repair-key groups whose conf() lineage is
/// non-trivial (several alternatives per group, values mixing groups).
void SeedUncertain(Database* db, int groups) {
  ASSERT_TRUE(
      db->Execute("create table base (id int, k int, v int, w double)").ok());
  Rng rng(7);
  int id = 0;
  for (int k = 0; k < groups; ++k) {
    for (int a = 0; a < 5; ++a) {
      ASSERT_TRUE(db->Execute(StringFormat(
                                  "insert into base values (%d, %d, %d, %g)",
                                  id++, k, static_cast<int>(rng.NextBounded(3)),
                                  0.25 + 0.75 * rng.NextDouble()))
                      .ok());
    }
  }
  ASSERT_TRUE(
      db->Execute("create table u as repair key k in base weight by w").ok());
}

const char* kConfQuery = "select v, conf() as p from u group by v order by v";

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
        EXPECT_EQ(DoubleBits(va.AsDouble()), DoubleBits(vb.AsDouble()))
            << what << " row " << r << " col " << c << ": " << va.ToString()
            << " vs " << vb.ToString();
      } else if (!va.is_null()) {
        EXPECT_TRUE(va.Equals(vb)) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, SnapshotShapeSortedAndComplete) {
  Database db;
  SeedUncertain(&db, 4);
  ASSERT_TRUE(db.Query(kConfQuery).ok());

  const Snapshot snap = db.session_manager().StatsSnapshot();
  ASSERT_FALSE(snap.empty());
  // Sorted, unique names (the SHOW STATS contract).
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first) << "at index " << i;
  }
  // One representative per instrumented layer: statement kinds, conf
  // phases, histograms, cache gauges, session gauge.
  for (const char* name :
       {"stmt.select.executed", "stmt.create_table.executed",
        "conf.exact.calls", "conf.exact.compile_nodes", "stmt.total.count",
        "stmt.execute.total_ms", "dtree_cache.hits", "dtree_cache.bytes",
        "sessions.live", "trace.statements"}) {
    EXPECT_TRUE(FindMetric(snap, name).has_value()) << name;
  }
  EXPECT_GE(FindMetric(snap, "stmt.select.executed").value_or(0), 1.0);
  EXPECT_GE(FindMetric(snap, "conf.exact.calls").value_or(0), 1.0);
  EXPECT_EQ(FindMetric(snap, "sessions.live").value_or(0), 1.0);
}

TEST(ObsRegistryTest, MetricNameLikeMatchesSqlLikeSemantics) {
  EXPECT_TRUE(MetricNameLike("%", "anything.at.all"));
  EXPECT_TRUE(MetricNameLike("stmt.%", "stmt.select.executed"));
  EXPECT_FALSE(MetricNameLike("stmt.%", "conf.exact.calls"));
  EXPECT_TRUE(MetricNameLike("%.executed", "stmt.select.executed"));
  EXPECT_TRUE(MetricNameLike("stmt._otal.count", "stmt.total.count"));
  EXPECT_FALSE(MetricNameLike("stmt._otal.count", "stmt.tootal.count"));
  EXPECT_TRUE(MetricNameLike("%cache%hits%", "dtree_cache.component.hits"));
  EXPECT_FALSE(MetricNameLike("", "x"));
  EXPECT_TRUE(MetricNameLike("", ""));
}

TEST(ObsRegistryTest, ConcurrentSessionsAccumulateExactly) {
  constexpr int kSessions = 4;
  constexpr int kPerSession = 8;
  Database db;
  SeedUncertain(&db, 4);
  const Snapshot before = db.session_manager().StatsSnapshot();

  // Sessions are created and destroyed from this (controlling) thread;
  // statements run from one thread each, all folding into the one shared
  // registry — the TSan surface.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(db.session_manager().CreateSession());
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    Session* s = sessions[i].get();
    threads.emplace_back([s]() {
      for (int q = 0; q < kPerSession; ++q) {
        ASSERT_TRUE(s->Query(kConfQuery).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const auto& s : sessions) {
    EXPECT_EQ(s->statements_run(), static_cast<uint64_t>(kPerSession));
    EXPECT_EQ(s->statements_failed(), 0u);
  }
  const Snapshot after = db.session_manager().StatsSnapshot();
  // Exactly-once accounting: every statement lands in exactly one
  // executed bucket and one stmt.total histogram sample.
  EXPECT_EQ(MetricDelta(before, after, "stmt.select.executed"),
            static_cast<double>(kSessions * kPerSession));
  EXPECT_EQ(MetricDelta(before, after, "stmt.select.failed"), 0.0);
  EXPECT_EQ(MetricDelta(before, after, "stmt.total.count"),
            static_cast<double>(kSessions * kPerSession));
  EXPECT_GE(MetricDelta(before, after, "conf.exact.calls"), 1.0);
  EXPECT_EQ(MetricDelta(before, after, "trace.statements"),
            static_cast<double>(kSessions * kPerSession));
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

struct EngineConfig {
  unsigned num_threads;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {1, "batch/1"},
    {4, "batch/4"},
};

TEST(ObsExplainAnalyzeTest, BitIdenticalToUntracedAcrossEnginesAndThreads) {
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    // Two FRESH databases built identically: one answers the plain query,
    // the other the traced one, both cold — tracing must not perturb a
    // single bit of the answer.
    DatabaseOptions options;
    options.exec.num_threads = config.num_threads;
    Database plain(options);
    Database traced(options);
    SeedUncertain(&plain, 5);
    SeedUncertain(&traced, 5);

    Result<QueryResult> a = plain.Query(kConfQuery);
    Result<QueryResult> b =
        traced.Query(std::string("explain analyze ") + kConfQuery);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectBitIdentical(*a, *b, config.name);
  }
}

TEST(ObsExplainAnalyzeTest, RendersPhaseAndOperatorBreakdown) {
  Database db;
  SeedUncertain(&db, 4);
  Result<QueryResult> r =
      db.Query(std::string("explain analyze ") + kConfQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& msg = r->message();
  // Statement-level phase summary plus the annotated operator tree with
  // per-operator timings and row counts.
  EXPECT_NE(msg.find("phases:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("execute"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rows="), std::string::npos) << msg;
  EXPECT_NE(msg.find("time="), std::string::npos) << msg;
  // The conf() statement must surface its confidence-phase breakdown.
  EXPECT_NE(msg.find("conf:"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// SHOW STATS
// ---------------------------------------------------------------------------

TEST(ObsShowStatsTest, ShapeAndLikeFilter) {
  Database db;
  SeedUncertain(&db, 3);
  ASSERT_TRUE(db.Query(kConfQuery).ok());

  Result<QueryResult> all = db.Query("show stats");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->NumColumns(), 2u);
  ASSERT_GT(all->NumRows(), 20u);

  Result<QueryResult> stmt_only = db.Query("show stats like 'stmt.%'");
  ASSERT_TRUE(stmt_only.ok()) << stmt_only.status().ToString();
  ASSERT_GT(stmt_only->NumRows(), 0u);
  ASSERT_LT(stmt_only->NumRows(), all->NumRows());
  for (size_t r = 0; r < stmt_only->NumRows(); ++r) {
    const std::string name = stmt_only->At(r, 0).ToString();
    EXPECT_EQ(name.rfind("stmt.", 0), 0u) << name;
  }

  Result<QueryResult> none = db.Query("show stats like 'no.such.prefix%'");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->NumRows(), 0u);
}

// ---------------------------------------------------------------------------
// SET metrics = off
// ---------------------------------------------------------------------------

TEST(ObsMetricsOffTest, CountersAndTracesFrozenWhileOff) {
  Database db;
  SeedUncertain(&db, 3);
  ASSERT_TRUE(db.Execute("set metrics = off").ok());

  const Snapshot before = db.session_manager().StatsSnapshot();
  const size_t traces_before = db.session_manager().traces().Recent().size();
  Result<QueryResult> off_answer = db.Query(kConfQuery);
  ASSERT_TRUE(off_answer.ok());
  ASSERT_TRUE(db.Query("select count(*) from base").ok());
  const Snapshot after = db.session_manager().StatsSnapshot();

  // The no-op contract: with metrics off, the REGISTRY is untouched — no
  // counters, no histograms, no trace-ring growth. Component gauges
  // (dtree_cache.*, pool.*, sessions.live) are exempt: they are sourced
  // from their owning components at snapshot time, and those components
  // keep working with metrics off (the cache is a perf feature, not an
  // observability one).
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    const std::string& name = before[i].first;
    EXPECT_EQ(name, after[i].first);
    if (name.rfind("dtree_cache.", 0) == 0 || name.rfind("pool.", 0) == 0 ||
        name == "sessions.live") {
      continue;
    }
    EXPECT_EQ(before[i].second, after[i].second) << name;
  }
  EXPECT_EQ(db.session_manager().traces().Recent().size(), traces_before);

  // ...and the answers themselves are bit-identical to metrics-on runs
  // over an identically built database.
  Database on;
  SeedUncertain(&on, 3);
  Result<QueryResult> on_answer = on.Query(kConfQuery);
  ASSERT_TRUE(on_answer.ok());
  ExpectBitIdentical(*off_answer, *on_answer, "metrics off vs on");

  // Turning metrics back on resumes counting with the next statement.
  ASSERT_TRUE(db.Execute("set metrics = on").ok());
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  const Snapshot resumed = db.session_manager().StatsSnapshot();
  EXPECT_EQ(MetricDelta(after, resumed, "stmt.select.executed"), 1.0);
}

// ---------------------------------------------------------------------------
// Trace export
// ---------------------------------------------------------------------------

TEST(ObsTraceExportTest, ChromeJsonWellFormed) {
  Database db;
  SeedUncertain(&db, 3);
  ASSERT_TRUE(db.Query(kConfQuery).ok());
  ASSERT_TRUE(db.Query(std::string("explain analyze ") + kConfQuery).ok());

  const auto traces = db.session_manager().traces().Recent();
  ASSERT_FALSE(traces.empty());
  EXPECT_LE(traces.size(), db.session_manager().traces().capacity());
  for (const auto& t : traces) {
    EXPECT_GT(t->total_ns, 0u);
    EXPECT_FALSE(t->statement.empty());
  }

  const std::string json = db.session_manager().ExportTraceJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  const size_t last = json.find_last_not_of(" \t\n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // Structural sanity without a JSON parser: braces and brackets balance
  // and never go negative (metric names and SQL text are the only string
  // payloads, and the exporter escapes them).
  int depth = 0, sq = 0;
  bool in_string = false, escaped = false;
  for (char ch : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (ch == '[') ++sq;
    if (ch == ']') --sq;
    ASSERT_GE(depth, 0);
    ASSERT_GE(sq, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(sq, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace maybms
