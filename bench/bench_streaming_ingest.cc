// Delta-incremental lineage maintenance under STREAMING INGEST: the
// dashboard workload of bench_dtree_cache, but with writes between the
// statements. Each ingest step appends one independent lineage block (a
// fresh variable pool, so it arrives as a NEW connected component of the
// dashboard group's DNF) and re-issues the confidence statement. With the
// incremental machinery on, the statement misses its whole-statement
// cache key (the content changed) but answers every untouched component
// from the kind-1 cache and compiles only the delta — and the chunked
// columnar snapshot rebuilds only the tail chunk the append landed in.
// With it off, every refresh recompiles the entire lineage from scratch.
//
// Reported cases:
//   dashboard_warm          — repeated statements with NO writes between
//                             them (whole-statement cache hits), vs the
//                             uncached statement,
//   dashboard_after_append  — append-one-block-then-query refresh steps,
//                             vs the same steps with the cache disabled
//                             (metrics carry speedup_vs_full — the
//                             acceptance target is >= 5x),
//   aconf_warm (threads>1)  — the repeated seeded-aconf dashboard served
//                             from the kind-2 estimate cache.
//
// SELF-CHECKS (exit non-zero on failure): after every refresh step the
// incremental answers are bit-identical to the cache-disabled database,
// and identical across threads {1,4} — same contract as bench_dtree_cache,
// now under interleaved writes.
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

// One ingest block: an independent width-3 monotone DNF over a fresh
// variable pool, solver-hard ratio (~0.75) like bench_exact_vs_approx.
constexpr int kBlockVars = 33;
constexpr int kBlockClauses = 44;
constexpr int kWidth = 3;
constexpr int kInitialBlocks = 12;   // dashboard size before ingest starts
constexpr int kIngestSteps = 12;     // append+query refresh steps timed
constexpr int kWarmRepeats = 200;    // warm statements per timed sample

const char* kDashboardSql = "select g, conf() as p from dash group by g order by g";
const char* kAconfSql =
    "select g, aconf(0.1, 0.1) as p from dash group by g order by g";

/// Appends block `index` to `dash`. The block's contents are a pure
/// function of its index, so every database — across cache settings and
/// thread counts — ingests the IDENTICAL stream and their
/// world tables stay in lockstep (global variable ids line up).
void AppendBlock(Database* db, Table* table, int index) {
  Rng rng(1000 + index);
  std::vector<VarId> pool;
  for (int v = 0; v < kBlockVars; ++v) {
    pool.push_back(
        *db->world_table().NewBooleanVariable(0.1 + 0.3 * rng.NextDouble()));
  }
  int id = index * kBlockClauses;
  for (int c = 0; c < kBlockClauses; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < kWidth; ++a) {
      atoms.push_back({pool[rng.NextBounded(pool.size())], 1});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (!cond) continue;  // duplicate-var draw collapsed the clause
    table->AppendUnchecked(
        Row({Value::Int(0), Value::Int(id++)}, std::move(*cond)));
  }
}

struct Dashboard {
  std::unique_ptr<Database> db;
  TablePtr table;
  int next_block = 0;

  void Ingest() { AppendBlock(db.get(), table.get(), next_block++); }
};

Dashboard BuildDashboard(unsigned threads, bool cache_on) {
  DatabaseOptions options;
  options.exec.num_threads = threads;
  options.exec.dtree_cache = cache_on;
  Dashboard dash;
  dash.db = std::make_unique<Database>(options);
  Schema schema(std::vector<Column>{{"g", TypeId::kInt}, {"id", TypeId::kInt}});
  auto table = dash.db->catalog().CreateTable("dash", schema, /*uncertain=*/true);
  if (!table.ok()) {
    dash.db = nullptr;
    return dash;
  }
  dash.table = *table;
  for (int b = 0; b < kInitialBlocks; ++b) dash.Ingest();
  return dash;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Runs one dashboard statement; empty on failure.
std::vector<double> RunStatement(Database* db, const char* sql) {
  Result<QueryResult> r = db->Query(sql);
  if (!r.ok()) {
    std::printf("  ERROR: %s\n", r.status().ToString().c_str());
    return {};
  }
  std::vector<double> probs;
  for (size_t i = 0; i < r->NumRows(); ++i) probs.push_back(r->At(i, 1).AsDouble());
  return probs;
}

int CheckBits(const std::vector<double>& got, const std::vector<double>& want,
              const char* what) {
  if (got.empty() || got.size() != want.size()) {
    std::printf("  ERROR: %s: %zu probabilities vs %zu expected\n", what,
                got.size(), want.size());
    return 1;
  }
  int failures = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (Bits(got[i]) != Bits(want[i])) {
      std::printf("  ERROR: %s differs at row %zu: %.17g vs %.17g\n", what, i,
                  got[i], want[i]);
      ++failures;
    }
  }
  return failures;
}

}  // namespace

int main() {
  JsonReporter json("streaming_ingest");
  json.Env("hardware_threads", static_cast<double>(ThreadPool::DefaultThreads()));
  std::printf("Streaming ingest: conf() dashboards with appends between\n"
              "statements (%d initial blocks of %d vars x %d clauses, then %d\n"
              "append+query refresh steps).\n",
              kInitialBlocks, kBlockVars, kBlockClauses, kIngestSteps);

  int failures = 0;
  // Bit-identity references across every configuration: the warm answer
  // and each refresh step's answer (the ingest stream is deterministic).
  std::vector<double> warm_reference;
  std::vector<std::vector<double>> step_reference;

  for (unsigned threads : {1u, 4u}) {
    PrintHeader(StringFormat("threads=%u", threads).c_str());
    // Keeps the records keyed like the committed baselines.
    const double engine_batch = 1.0;

    Dashboard off = BuildDashboard(threads, /*cache_on=*/false);
    Dashboard on = BuildDashboard(threads, /*cache_on=*/true);
    if (off.db == nullptr || on.db == nullptr) return 1;

    // --- dashboard_warm: repeated statements, no writes between. ------
    double uncached_ms = TimeMs3([&] { (void)off.db->Query(kDashboardSql); });
    (void)on.db->Query(kDashboardSql);  // cold statement fills the cache
    // Registry snapshot delta across the timed region → JSON metrics
    // object (the regression guard reads the cache hit rate off it).
    auto stats_before = on.db->session_manager().StatsSnapshot();
    double warm_total_ms = TimeMs3([&] {
      for (int i = 0; i < kWarmRepeats; ++i) (void)on.db->Query(kDashboardSql);
    });
    auto stats_after = on.db->session_manager().StatsSnapshot();
    double warm_ms = warm_total_ms / kWarmRepeats;
    double warm_speedup = warm_ms > 0 ? uncached_ms / warm_ms : 0;

    std::vector<double> warm = RunStatement(on.db.get(), kDashboardSql);
    failures += CheckBits(warm, RunStatement(off.db.get(), kDashboardSql),
                          "warm cached vs uncached");
    if (warm_reference.empty()) {
      warm_reference = warm;
    } else {
      failures += CheckBits(warm, warm_reference, "warm across configurations");
    }

    std::printf("  uncached statement:       %8.2f ms\n", uncached_ms);
    std::printf("  warm statement:           %8.2f ms  (%.0fx uncached)\n",
                warm_ms, warm_speedup);
    // The warm loop's statement-cache hit rate, from the registry delta
    // (hits/misses are gauges sourced from the DTreeCache itself).
    auto delta_of = [&](const char* name) {
      double before_v = 0, after_v = 0;
      for (const auto& [k, v] : stats_before) {
        if (k == name) before_v = v;
      }
      for (const auto& [k, v] : stats_after) {
        if (k == name) after_v = v;
      }
      return after_v - before_v;
    };
    const double warm_hits = delta_of("dtree_cache.hits");
    const double warm_probes = warm_hits + delta_of("dtree_cache.misses");
    JsonReporter::Record& warm_record =
        json.Report("dashboard_warm", warm_total_ms)
            .Threads(threads)
            .Param("engine_batch", engine_batch)
            .Param("blocks", kInitialBlocks)
            .Param("repeats", kWarmRepeats)
            .Metric("per_statement_ms", warm_ms)
            .Metric("uncached_ms", uncached_ms)
            .Metric("speedup_vs_uncached", warm_speedup)
            .Metric("hit_rate", warm_probes > 0 ? warm_hits / warm_probes : 0);
    maybms_bench::MetricsDelta(&warm_record, stats_before, stats_after,
                               {"dtree_cache.", "conf.", "stmt.select"});

    // --- dashboard_after_append: append one block, refresh, repeat. ---
    // Both databases ingest the identical block stream; only the
    // recompilation strategy differs. The incremental side misses its
    // whole-statement key every step (content changed) and recompiles
    // exactly one component; the full side recompiles all of them.
    on.db->catalog().dtree_cache().ResetCounters();
    std::vector<std::vector<double>> on_steps(kIngestSteps);
    double on_total_ms = TimeMs([&] {
      for (int s = 0; s < kIngestSteps; ++s) {
        on.Ingest();
        on_steps[s] = RunStatement(on.db.get(), kDashboardSql);
      }
    });
    std::vector<std::vector<double>> off_steps(kIngestSteps);
    double off_total_ms = TimeMs([&] {
      for (int s = 0; s < kIngestSteps; ++s) {
        off.Ingest();
        off_steps[s] = RunStatement(off.db.get(), kDashboardSql);
      }
    });
    double on_step_ms = on_total_ms / kIngestSteps;
    double off_step_ms = off_total_ms / kIngestSteps;
    double ingest_speedup = on_step_ms > 0 ? off_step_ms / on_step_ms : 0;

    for (int s = 0; s < kIngestSteps; ++s) {
      failures += CheckBits(
          on_steps[s], off_steps[s],
          StringFormat("refresh step %d incremental vs full", s).c_str());
    }
    if (step_reference.empty()) {
      step_reference = off_steps;
    } else {
      for (int s = 0; s < kIngestSteps; ++s) {
        failures += CheckBits(
            off_steps[s], step_reference[s],
            StringFormat("refresh step %d across configurations", s).c_str());
      }
    }

    DTreeCache::Stats stats = on.db->catalog().dtree_cache().stats();
    double probes =
        static_cast<double>(stats.component_hits + stats.component_misses);
    double component_hit_rate =
        probes > 0 ? static_cast<double>(stats.component_hits) / probes : 0;
    std::printf("  refresh, full recompile:  %8.2f ms/step\n", off_step_ms);
    std::printf("  refresh, incremental:     %8.2f ms/step  (%.1fx, component "
                "hit rate %.0f%%, %zu entries, %.0f KiB)\n",
                on_step_ms, ingest_speedup, 100 * component_hit_rate,
                stats.entries, static_cast<double>(stats.bytes) / 1024.0);
    if (ingest_speedup < 5.0) {
      std::printf("  ERROR: incremental refresh speedup %.2fx below the 5x "
                  "acceptance floor\n", ingest_speedup);
      ++failures;
    }
    if (component_hit_rate <= 0) {
      std::printf("  ERROR: refresh steps reported no component reuse\n");
      ++failures;
    }
    json.Report("dashboard_after_append", on_total_ms)
        .Threads(threads)
        .Param("engine_batch", engine_batch)
        .Param("blocks", kInitialBlocks)
        .Param("steps", kIngestSteps)
        .Metric("per_refresh_ms", on_step_ms)
        .Metric("full_recompile_ms", off_step_ms)
        .Metric("speedup_vs_full", ingest_speedup)
        .Metric("component_hit_rate", component_hit_rate);

    // --- aconf_warm: the seeded-estimate cache (threads >= 2 engages
    // the content-seeded substream path; serial aconf is a session-RNG
    // stream and is deliberately uncacheable). ------------------------
    if (threads > 1) {
      double aconf_uncached_ms = TimeMs3([&] { (void)off.db->Query(kAconfSql); });
      (void)on.db->Query(kAconfSql);  // fills the kind-2 entries
      double aconf_warm_ms = TimeMs3([&] { (void)on.db->Query(kAconfSql); });
      double aconf_speedup =
          aconf_warm_ms > 0 ? aconf_uncached_ms / aconf_warm_ms : 0;
      failures += CheckBits(RunStatement(on.db.get(), kAconfSql),
                            RunStatement(off.db.get(), kAconfSql),
                            "aconf cached vs uncached");
      std::printf("  aconf uncached:           %8.2f ms\n", aconf_uncached_ms);
      std::printf("  aconf warm:               %8.2f ms  (%.0fx)\n",
                  aconf_warm_ms, aconf_speedup);
      json.Report("aconf_warm", aconf_warm_ms)
          .Threads(threads)
          .Param("engine_batch", engine_batch)
          .Param("blocks", kInitialBlocks + kIngestSteps)
          .Metric("uncached_ms", aconf_uncached_ms)
          .Metric("speedup_vs_uncached", aconf_speedup);
    }
  }

  if (failures > 0) {
    std::printf("\n%d self-check failure(s)\n", failures);
    return 1;
  }
  std::printf("\nall probabilities bit-identical: incremental on/off x "
              "threads {1,4}, under interleaved appends\n");
  return 0;
}
