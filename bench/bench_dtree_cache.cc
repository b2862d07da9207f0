// The cross-statement d-tree compilation cache (src/lineage/dtree_cache.h)
// on the workload that motivated it: a CONFIDENCE DASHBOARD issuing the
// same conf() statement repeatedly over a slowly-changing U-relation
// (paper §1 scenarios; Koch & Olteanu VLDB'08 conditioning workloads).
//
// Each dashboard panel is one group whose lineage sits in the exact
// solver's hard region (width-3 monotone DNF, variable-to-clause ratio
// ~0.75 — the same regime bench_exact_vs_approx sweeps): expensive enough
// to compile that PR 4 recompiled tens of milliseconds per group per
// statement. The bench reports
//   conf_cold    — the statement with an empty cache (compiles + fills),
//   conf_cached  — kRepeats warm statements (every group served from the
//                  cache), with the hit rate and the per-statement speedup,
// at threads {1, 4}, and SELF-CHECKS that cached answers
// are bit-identical to a cache-disabled database (exits non-zero on any
// mismatch — the guard CI runs this). A final section gates the metrics
// registry's overhead: SET metrics = on vs off on the warm dashboard must
// stay within 3% (or sub-1.5us/statement — the 1-CPU jitter floor).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/engine/database.h"
#include "src/lineage/dtree_cache.h"

using namespace maybms;
using maybms_bench::JsonReporter;
using maybms_bench::PrintHeader;
using maybms_bench::TimeMs;
using maybms_bench::TimeMs3;

namespace {

constexpr int kGroups = 4;
constexpr int kVarsPerGroup = 48;
constexpr int kClausesPerGroup = 64;
constexpr int kWidth = 3;
// Warm statements per timed sample: enough that the guarded conf_cached
// total sits in the tens of milliseconds — sub-ms samples would put the
// regression guard in scheduler-jitter territory.
constexpr int kRepeats = 400;

const char* kDashboardSql = "select g, conf() as p from dash group by g order by g";

/// A U-relation whose per-group conf() lineage is a random width-3
/// monotone DNF over a per-group variable pool (groups are independent —
/// the component-parallel root splits them; within a group the solver
/// works). Deterministic seed: every database built here carries
/// IDENTICAL lineage, so results compare bitwise across configurations.
std::unique_ptr<Database> BuildDashboard(unsigned threads, bool cache_on) {
  DatabaseOptions options;
  options.exec.num_threads = threads;
  options.exec.dtree_cache = cache_on;
  auto db = std::make_unique<Database>(options);
  Schema schema(std::vector<Column>{{"g", TypeId::kInt}, {"id", TypeId::kInt}});
  auto table = db->catalog().CreateTable("dash", schema, /*uncertain=*/true);
  if (!table.ok()) return nullptr;
  Rng rng(42);
  int id = 0;
  for (int g = 0; g < kGroups; ++g) {
    std::vector<VarId> pool;
    for (int v = 0; v < kVarsPerGroup; ++v) {
      pool.push_back(
          *db->world_table().NewBooleanVariable(0.1 + 0.3 * rng.NextDouble()));
    }
    for (int c = 0; c < kClausesPerGroup; ++c) {
      std::vector<Atom> atoms;
      for (int a = 0; a < kWidth; ++a) {
        atoms.push_back({pool[rng.NextBounded(pool.size())], 1});
      }
      auto cond = Condition::FromAtoms(std::move(atoms));
      if (!cond) continue;  // duplicate-var draw collapsed the clause
      (*table)->AppendUnchecked(
          Row({Value::Int(g), Value::Int(id++)}, std::move(*cond)));
    }
  }
  return db;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Collects the dashboard's probabilities; empty on failure.
std::vector<double> RunDashboard(Database* db) {
  Result<QueryResult> r = db->Query(kDashboardSql);
  if (!r.ok()) {
    std::printf("  ERROR: %s\n", r.status().ToString().c_str());
    return {};
  }
  std::vector<double> probs;
  for (size_t i = 0; i < r->NumRows(); ++i) probs.push_back(r->At(i, 1).AsDouble());
  return probs;
}

}  // namespace

int main() {
  JsonReporter json("dtree_cache");
  json.Env("hardware_threads", static_cast<double>(ThreadPool::DefaultThreads()));
  std::printf("Cross-statement d-tree compilation cache: repeated conf()\n");
  std::printf("dashboards over an unchanged U-relation (%d groups, %d vars x "
              "%d clauses each).\n",
              kGroups, kVarsPerGroup, kClausesPerGroup);

  int failures = 0;
  std::vector<double> reference;  // bit-identity across every configuration

  for (unsigned threads : {1u, 4u}) {
    PrintHeader(StringFormat("threads=%u", threads).c_str());

    // The uncached truth first: this is the PR-4 baseline the cache must
    // reproduce bit-for-bit and beat by >= 3x on repeats.
    auto off = BuildDashboard(threads, /*cache_on=*/false);
    if (off == nullptr) return 1;
    double uncached_ms = TimeMs3([&] { (void)off->Query(kDashboardSql); });
    std::vector<double> truth = RunDashboard(off.get());
    if (truth.empty()) return 1;

    auto db = BuildDashboard(threads, /*cache_on=*/true);
    if (db == nullptr) return 1;
    DTreeCache& cache = db->catalog().dtree_cache();

    // Cold: every sample starts from an empty cache.
    double cold_ms = TimeMs3([&] {
      cache.Clear();
      (void)db->Query(kDashboardSql);
    });

    // Warm: the dashboard re-issued kRepeats times, all groups cached.
    // The registry snapshot delta across the timed region rides into the
    // JSON metrics object (the regression guard reads hit rates off it).
    cache.ResetCounters();
    auto stats_before = db->session_manager().StatsSnapshot();
    double warm_total_ms = TimeMs3([&] {
      for (int i = 0; i < kRepeats; ++i) (void)db->Query(kDashboardSql);
    });
    auto stats_after = db->session_manager().StatsSnapshot();
    double warm_ms = warm_total_ms / kRepeats;
    DTreeCache::Stats stats = cache.stats();
    double probes = static_cast<double>(stats.hits + stats.misses);
    double hit_rate = probes > 0 ? static_cast<double>(stats.hits) / probes : 0;
    double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;

    // Bit-identity self-checks: cached vs uncached, and vs every other
    // thread configuration (the first one seen is the reference).
    std::vector<double> cached = RunDashboard(db.get());
    if (cached.size() != truth.size() || truth.empty()) ++failures;
    for (size_t i = 0; i < cached.size() && i < truth.size(); ++i) {
      if (Bits(cached[i]) != Bits(truth[i])) {
        std::printf("  ERROR: cached probability differs from uncached at "
                    "group %zu: %.17g vs %.17g\n", i, cached[i], truth[i]);
        ++failures;
      }
    }
    if (reference.empty()) {
      reference = truth;
    } else {
      for (size_t i = 0; i < truth.size(); ++i) {
        if (Bits(reference[i]) != Bits(truth[i])) {
          std::printf("  ERROR: thread configuration drifted at "
                      "group %zu\n", i);
          ++failures;
        }
      }
    }

    std::printf("  uncached statement:      %8.2f ms\n", uncached_ms);
    std::printf("  cold statement (+fill):  %8.2f ms\n", cold_ms);
    std::printf("  warm statement:          %8.2f ms  (%.0fx cold, hit rate "
                "%.0f%%, %zu entries, %.0f KiB)\n",
                warm_ms, speedup, 100 * hit_rate, stats.entries,
                static_cast<double>(stats.bytes) / 1024.0);

    // One case name per phase; threads live in the params, so the
    // regression guard's (case, params) matching sees one comparable
    // record per thread count. `engine_batch: 1` keeps the records keyed
    // like the committed baselines.
    const double engine_batch = 1.0;
    json.Report("conf_cold", cold_ms)
        .Threads(threads)
        .Param("engine_batch", engine_batch)
        .Param("groups", kGroups)
        .Metric("uncached_ms", uncached_ms);
    JsonReporter::Record& warm_record =
        json.Report("conf_cached", warm_total_ms)
            .Threads(threads)
            .Param("engine_batch", engine_batch)
            .Param("groups", kGroups)
            .Param("repeats", kRepeats)
            .Metric("per_statement_ms", warm_ms)
            .Metric("hit_rate", hit_rate)
            .Metric("speedup_vs_cold", speedup);
    maybms_bench::MetricsDelta(&warm_record, stats_before, stats_after,
                               {"dtree_cache.", "conf.", "stmt.select"});

    if (hit_rate <= 0) {
      std::printf("  ERROR: warm dashboard reported no cache hits\n");
      ++failures;
    }
  }

  // Metrics-overhead self-check (acceptance gate): the registry must cost
  // <= 3% on the warm dashboard — the workload where per-statement fixed
  // costs are most visible. Interleaved medians; statements whose absolute
  // delta is under ~1.5us each are inside 1-CPU scheduler jitter.
  {
    PrintHeader("metrics overhead self-check (warm dashboard, batch, 1 thread)");
    auto db = BuildDashboard(1, /*cache_on=*/true);
    if (db == nullptr) return 1;
    (void)db->Query(kDashboardSql);  // fill the cache once
    auto repeat = [&] {
      for (int i = 0; i < kRepeats; ++i) (void)db->Query(kDashboardSql);
    };
    maybms_bench::OverheadCheck check = maybms_bench::MeasureOverhead(
        [&] {
          (void)db->Query("set metrics = on");
          repeat();
        },
        [&] {
          (void)db->Query("set metrics = off");
          repeat();
        },
        /*pairs=*/9, /*units=*/kRepeats, /*rel_budget=*/0.03,
        /*abs_floor_ms=*/0.0015);
    std::printf("  metrics on:  %8.2f ms / %d statements\n", check.on_ms, kRepeats);
    std::printf("  metrics off: %8.2f ms / %d statements\n", check.off_ms, kRepeats);
    std::printf("  overhead:    %+8.2f%%  (%+.3f us/statement)%s\n",
                100 * check.rel, 1000 * check.per_unit_ms,
                check.ok ? "" : "  ERROR: exceeds the 3% budget");
    if (!check.ok) ++failures;
    json.Report("metrics_overhead", check.on_ms)
        .Threads(1)
        .Param("repeats", kRepeats)
        .Metric("off_ms", check.off_ms)
        .Metric("rel_overhead", check.rel)
        .Metric("per_statement_us", 1000 * check.per_unit_ms);
  }

  if (failures > 0) {
    std::printf("\n%d self-check failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall probabilities bit-identical: cache on/off x "
              "threads {1,4}; metrics overhead within budget\n");
  return 0;
}
