// Experiment: the lineage-aware cost-based optimizer (statistics, join
// ordering, annotated semijoin reduction) against the binder's syntactic
// plans.
//
// Two worst-syntactic-order shapes where the FROM-clause order is
// maximally bad:
//
//   star_*   select ... from big1, big2, small
//            where big1.k = small.k and big2.k = small.k and small.s < T
//            Syntactically big1 and big2 share no predicate, so the
//            translated plan CROSS-joins them (|big1| x |big2| rows)
//            before small arrives; the optimizer routes both joins
//            through the selective hub instead.
//
//   chain_*  select ... from big1, mid, small
//            where big1.k = mid.k and mid.m = small.m and small.s < T
//            A join chain written largest-first; the optimizer starts
//            from the filtered small end.
//
// Each shape is timed with `set optimizer = on` (…_optimized) and
// `set optimizer = off` (…_syntactic), median of 3; the report carries
// the speedup. The star speedup is an acceptance floor (>= 3x): falling
// under it exits non-zero.
//
//   semijoin_reduce   select fact.v from dim, fact
//                     where dim.team = T and dim.k = fact.k
//            A selective dimension filter (60 of 20k keys, contiguous,
//            served by an index on dim.team) joined to a 30k-row fact
//            table: the optimizer reduces fact by the filtered keys, so the
//            time is mostly the reducer's probe over the fact table, most
//            of which the key table's range filter drops unhashed (metric
//            range_skipped_rows). Serial, median of 3 samples of
//            kReduceReps statements each.
//
// SELF-CHECK: before timing, every shape also runs an uncertain variant
// (joining through a pick-tuples U-relation, plus a conf() aggregate)
// with the optimizer on and off, at num_threads 1 and 4. The
// sorted multisets — values AND condition columns, doubles at full
// %.17g precision — must match bit for bit. Any mismatch prints the
// offending case and exits non-zero (the guard CI runs this binary in
// the Release lane).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"

using namespace maybms;
using maybms_bench::JsonReporter;
using maybms_bench::PrintHeader;
using maybms_bench::TimeMs3;

namespace {

constexpr int kBigRows = 800;
constexpr int kMidRows = 800;
constexpr int kSmallRows = 60;
constexpr int kDimRows = 20000;
constexpr int kFactRows = 30000;
constexpr int kTeamSize = 60;
constexpr int kReduceReps = 20;

// big1(k,a), big2(k,b), mid(k,m), small(k,m,s) + uncertain usmall.
// Key domains keep the equijoins selective while the syntactic
// big1 x big2 cross product stays |big1| * |big2|.
Status Build(Database* db, uint64_t seed) {
  Rng rng(seed);
  MAYBMS_RETURN_NOT_OK(db->Execute("create table big1 (k int, a int)"));
  MAYBMS_RETURN_NOT_OK(db->Execute("create table big2 (k int, b int)"));
  MAYBMS_RETURN_NOT_OK(db->Execute("create table mid (k int, m int)"));
  MAYBMS_RETURN_NOT_OK(db->Execute("create table small (k int, m int, s int)"));
  Catalog& catalog = db->catalog();
  TablePtr big1 = *catalog.GetTable("big1");
  TablePtr big2 = *catalog.GetTable("big2");
  TablePtr mid = *catalog.GetTable("mid");
  TablePtr small = *catalog.GetTable("small");
  for (int i = 0; i < kBigRows; ++i) {
    big1->AppendUnchecked(Row({Value::Int(i % 97), Value::Int(i)}));
    big2->AppendUnchecked(Row({Value::Int(i % 89), Value::Int(i)}));
  }
  for (int i = 0; i < kMidRows; ++i) {
    mid->AppendUnchecked(Row({Value::Int(i % 97),
                              Value::Int(static_cast<int64_t>(rng.NextBounded(200)))}));
  }
  for (int i = 0; i < kSmallRows; ++i) {
    small->AppendUnchecked(Row({Value::Int(i % 97), Value::Int(i % 200),
                                Value::Int(i % 10)}));
  }
  // Star schema for the semijoin-reduce case: dim(k, team) with contiguous
  // teams, fact(k, v) drawing its keys over all of dim.
  MAYBMS_RETURN_NOT_OK(db->Execute("create table dim (k int, team int)"));
  MAYBMS_RETURN_NOT_OK(db->Execute("create table fact (k int, v int)"));
  TablePtr dim = *catalog.GetTable("dim");
  TablePtr fact = *catalog.GetTable("fact");
  for (int i = 0; i < kDimRows; ++i) {
    dim->AppendUnchecked(Row({Value::Int(i), Value::Int(i / kTeamSize)}));
  }
  for (int i = 0; i < kFactRows; ++i) {
    fact->AppendUnchecked(Row(
        {Value::Int(static_cast<int64_t>(rng.NextBounded(kDimRows))), Value::Int(i)}));
  }
  MAYBMS_RETURN_NOT_OK(db->Execute("create index dim_team on dim (team)"));
  // Uncertain hub for the self-check: tuple-independent subset of small.
  MAYBMS_RETURN_NOT_OK(db->Execute(
      "create table usmall as select * from "
      "(pick tuples from small independently with probability 0.7) x"));
  return Status::OK();
}

// Sorted multiset of rows, values + condition columns, doubles at full
// precision: optimizer-on and -off answers must agree BIT FOR BIT.
std::vector<std::string> Multiset(const QueryResult& r) {
  std::vector<std::string> rows;
  rows.reserve(r.NumRows());
  for (size_t i = 0; i < r.NumRows(); ++i) {
    std::string line;
    for (size_t c = 0; c < r.NumColumns(); ++c) {
      const Value& v = r.At(i, c);
      line += v.type() == TypeId::kDouble ? StringFormat("%.17g", v.AsDouble())
                                          : v.ToString();
      line += "|";
    }
    line += r.rows()[i].condition.ToString();
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<std::vector<std::string>> RunMultiset(Database* db, unsigned threads,
                                             const char* optimizer,
                                             const std::string& sql) {
  MAYBMS_RETURN_NOT_OK(db->Execute(StringFormat("set num_threads = %u", threads)));
  MAYBMS_RETURN_NOT_OK(db->Execute(StringFormat("set optimizer = %s", optimizer)));
  MAYBMS_ASSIGN_OR_RETURN(QueryResult r, db->Query(sql));
  return Multiset(r);
}

// Runs `sql` with the optimizer on and off at 1 and 4 threads and fails
// the process on any multiset divergence.
void SelfCheck(Database* db, const char* label, const std::string& sql) {
  const unsigned saved_threads = db->options().exec.num_threads;
  for (unsigned threads : {1u, 4u}) {
    auto on = RunMultiset(db, threads, "on", sql);
    auto off = RunMultiset(db, threads, "off", sql);
    if (!on.ok() || !off.ok()) {
      std::fprintf(stderr, "SELF-CHECK %s (threads=%u): query failed: %s\n", label,
                   threads,
                   (!on.ok() ? on.status() : off.status()).ToString().c_str());
      std::exit(1);
    }
    if (*on != *off) {
      std::fprintf(stderr,
                   "SELF-CHECK %s (threads=%u): optimizer on/off answers diverge "
                   "(%zu vs %zu rows)\n",
                   label, threads, on->size(), off->size());
      size_t n = std::max(on->size(), off->size());
      for (size_t i = 0; i < n; ++i) {
        const std::string a = i < on->size() ? (*on)[i] : "<missing>";
        const std::string b = i < off->size() ? (*off)[i] : "<missing>";
        if (a != b) std::fprintf(stderr, "  on : %s\n  off: %s\n", a.c_str(), b.c_str());
      }
      std::exit(1);
    }
  }
  // Restore the default configuration for the timed runs.
  (void)db->Execute(StringFormat("set num_threads = %u", saved_threads));
  (void)db->Execute("set optimizer = on");
}

struct Shape {
  const char* name;
  std::string timed_sql;      // certain worst-order join, timed on vs off
  std::string check_sql;      // uncertain variant for the self-check
  std::string check_conf_sql; // confidence aggregate for the self-check
};

}  // namespace

int main() {
  std::printf("Cost-based optimizer vs the binder's syntactic join order.\n");
  JsonReporter json("optimizer");

  Database db;
  if (Status s = Build(&db, 42); !s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::vector<Shape> shapes;
  shapes.push_back(
      {"star",
       "select big1.a, big2.b from big1, big2, small "
       "where big1.k = small.k and big2.k = small.k and small.s < 2",
       "select big1.a, big2.b from big1, big2, usmall "
       "where big1.k = usmall.k and big2.k = usmall.k and usmall.s < 2",
       "select big1.a, conf() from big1, big2, usmall "
       "where big1.k = usmall.k and big2.k = usmall.k and usmall.s < 2 "
       "group by big1.a"});
  shapes.push_back(
      {"chain",
       "select big1.a from big1, mid, small "
       "where big1.k = mid.k and mid.m = small.m and small.s < 2",
       "select big1.a from big1, mid, usmall "
       "where big1.k = mid.k and mid.m = usmall.m and usmall.s < 2",
       "select big1.a, conf() from big1, mid, usmall "
       "where big1.k = mid.k and mid.m = usmall.m and usmall.s < 2 "
       "group by big1.a"});

  PrintHeader("self-check (on/off bit-identity, 1 and 4 threads)");
  for (const Shape& shape : shapes) {
    SelfCheck(&db, shape.name, shape.check_sql);
    SelfCheck(&db, shape.name, shape.check_conf_sql);
    std::printf("%-8s OK\n", shape.name);
  }

  PrintHeader("worst syntactic order, optimizer on vs off (median of 3)");
  std::printf("%-8s %14s %15s %10s %10s\n", "shape", "optimized(ms)",
              "syntactic(ms)", "speedup", "out rows");
  double star_speedup = 0;
  for (const Shape& shape : shapes) {
    size_t on_rows = 0, off_rows = 0;
    if (!db.Execute("set optimizer = on").ok()) return 1;
    double on_ms = TimeMs3([&] {
      auto r = db.Query(shape.timed_sql);
      if (!r.ok()) std::exit(1);
      on_rows = r->NumRows();
    });
    if (!db.Execute("set optimizer = off").ok()) return 1;
    double off_ms = TimeMs3([&] {
      auto r = db.Query(shape.timed_sql);
      if (!r.ok()) std::exit(1);
      off_rows = r->NumRows();
    });
    if (!db.Execute("set optimizer = on").ok()) return 1;
    if (on_rows != off_rows) {
      std::fprintf(stderr, "%s: row counts diverge (%zu vs %zu)\n", shape.name,
                   on_rows, off_rows);
      return 1;
    }
    double speedup = on_ms > 0 ? off_ms / on_ms : 0;
    if (std::string(shape.name) == "star") star_speedup = speedup;
    std::printf("%-8s %14.2f %15.2f %9.2fx %10zu\n", shape.name, on_ms, off_ms,
                speedup, on_rows);
    json.Report(StringFormat("%s_optimized", shape.name), on_ms)
        .Param("big_rows", kBigRows)
        .Param("small_rows", kSmallRows)
        .Threads(1)
        .Metric("out_rows", static_cast<double>(on_rows))
        .Metric("speedup_vs_syntactic", speedup);
    json.Report(StringFormat("%s_syntactic", shape.name), off_ms)
        .Param("big_rows", kBigRows)
        .Param("small_rows", kSmallRows)
        .Threads(1)
        .Metric("out_rows", static_cast<double>(off_rows));
  }

  // Semijoin reduction of a fact table by a selective dimension filter.
  const std::string reduce_sql =
      "select fact.v from dim, fact where dim.team = 77 and dim.k = fact.k";
  SelfCheck(&db, "semijoin_reduce", reduce_sql);
  auto plan = db.Explain(reduce_sql);
  if (!plan.ok() || plan->find("SemiJoinReduce on fact.k") == std::string::npos) {
    std::fprintf(stderr, "semijoin_reduce: the optimizer placed no reducer:\n%s\n",
                 plan.ok() ? plan->c_str() : plan.status().ToString().c_str());
    return 1;
  }
  if (!db.Execute("set num_threads = 1").ok()) return 1;
  MetricsRegistry& metrics = db.session_manager().metrics();
  const uint64_t skipped_before = metrics.Get(Counter::kJoinRangeSkippedRows);
  size_t reduce_rows = 0;
  const double reduce_ms =
      TimeMs3([&] {
        for (int rep = 0; rep < kReduceReps; ++rep) {
          auto r = db.Query(reduce_sql);
          if (!r.ok()) std::exit(1);
          reduce_rows = r->NumRows();
        }
      }) /
      kReduceReps;
  const double skipped_per_stmt =
      static_cast<double>(metrics.Get(Counter::kJoinRangeSkippedRows) - skipped_before) /
      (3.0 * kReduceReps);
  std::printf("%-16s %10.3f ms/stmt %10zu rows %12.0f range-skipped/stmt\n",
              "semijoin_reduce", reduce_ms, reduce_rows, skipped_per_stmt);
  json.Report("semijoin_reduce", reduce_ms)
      .Param("dim_rows", kDimRows)
      .Param("fact_rows", kFactRows)
      .Threads(1)
      .Metric("out_rows", static_cast<double>(reduce_rows))
      .Metric("range_skipped_rows", skipped_per_stmt);

  // Acceptance floor (ISSUE 9): the cross-join star shape must gain at
  // least 3x from reordering. The actual margin is far larger; 3x only
  // trips when reordering silently stops firing.
  if (star_speedup < 3.0) {
    std::fprintf(stderr,
                 "ACCEPTANCE: star speedup %.2fx below the 3x floor — the "
                 "optimizer is no longer reordering the cross-join shape\n",
                 star_speedup);
    return 1;
  }
  return 0;
}
