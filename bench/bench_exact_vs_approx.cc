// Experiment §2.3-[3] (DESIGN.md experiment index): exact vs approximate
// confidence computation.
//
// Paper claim: "Outside a narrow range of variable-to-clause count ratios,
// it [the exact algorithm] outperforms the approximation techniques."
//
// Workload: random monotone DNFs with a fixed clause count and width,
// sweeping the number of variables so the variable-to-clause ratio r moves
// through [0.05, 4]. At tiny r (few variables, heavily shared) variable
// elimination hits few distinct variables; at large r (mostly disjoint
// clauses) decomposition splits the DNF into independent pieces; the hard
// region is in between — where the Karp-Luby/DKLR estimator wins.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"
#include "src/obs/metrics.h"

using namespace maybms;
using maybms_bench::JsonReporter;
using maybms_bench::PrintHeader;
using maybms_bench::TimeMs;

namespace {

struct Instance {
  WorldTable wt;
  Dnf dnf;
};

// Random monotone DNF: `clauses` clauses of `width` Boolean atoms drawn
// uniformly from `vars` variables (tuple probability 0.5 biases the
// confidence away from degenerate 0/1 values).
Instance RandomDnf(int vars, int clauses, int width, uint64_t seed) {
  Instance inst;
  Rng rng(seed);
  std::vector<VarId> ids;
  for (int i = 0; i < vars; ++i) {
    ids.push_back(*inst.wt.NewBooleanVariable(0.1 + 0.3 * rng.NextDouble()));
  }
  for (int c = 0; c < clauses; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < width; ++a) {
      atoms.push_back({ids[rng.NextBounded(ids.size())], 1});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond) inst.dnf.AddClause(std::move(*cond));
  }
  return inst;
}

// P(dnf) for each sweep instance, recorded from the recursive exact
// solver the d-tree compiler replaced; the sweep's answer check.
const std::map<int, double> kSweepGoldens = {
    {4, 0.6307750806892156},    {8, 0.5041878626654687},
    {16, 0.5256088540115231},   {24, 0.683645537319426},
    {40, 0.7958824842284271},   {64, 0.6449477685216393},
    {96, 0.6094104938956504},   {160, 0.7136789191500645},
    {320, 0.664175212590242},   {640, 0.7554746737005011},
    {1280, 0.6917180857254499}, {2560, 0.6918437145601304},
};

// The conf() group lineage of the `whatif` perfbench workload,
// (∨_a x_a = s) ∧ (∨_b y_b = s): one two-atom clause per pair of players,
// over 3-valued variables. `a` and `b` receive the two sides' single-atom
// DNFs. The atoms are rare enough that P(A) and P(B) stay well below 1, so
// a wrong factorisation cannot hide in rounding.
Instance PairProduct(int left, int right, Dnf* a, Dnf* b) {
  Instance inst;
  Rng rng(5);
  auto side = [&](int n, Dnf* out) {
    std::vector<VarId> ids;
    for (int i = 0; i < n; ++i) {
      double p0 = 0.002 + 0.028 * rng.NextDouble();
      double p1 = (1 - p0) * rng.NextDouble();
      ids.push_back(*inst.wt.NewVariable({p0, p1, 1 - p0 - p1}));
      out->AddClause(*Condition::FromAtoms({{ids.back(), 0}}));
    }
    return ids;
  };
  std::vector<VarId> xs = side(left, a);
  std::vector<VarId> ys = side(right, b);
  for (VarId x : xs) {
    for (VarId y : ys) {
      inst.dnf.AddClause(*Condition::FromAtoms({{x, 0}, {y, 0}}));
    }
  }
  return inst;
}

}  // namespace

int main() {
  JsonReporter json("exact_vs_approx");
  json.Env("hardware_threads", static_cast<double>(ThreadPool::DefaultThreads()));
  std::printf("Exact (variable elimination + decomposition) vs approximate\n");
  std::printf("(Karp-Luby + DKLR) confidence computation.\n");
  std::printf("Paper claim: exact wins outside a narrow band of variable-to-"
              "clause ratios.\n");

  const int kClauses = 80;
  const int kWidth = 3;
  const double kEps = 0.1, kDelta = 0.05;
  const uint64_t kExactStepCap = 4'000'000;  // safety net in the hard region

  PrintHeader("ratio sweep (80 clauses, width 3, aconf(0.1, 0.05))");
  std::printf("%-8s %-7s %12s %12s %10s %s\n", "vars", "ratio", "exact(ms)",
              "aconf(ms)", "exact p", "winner");

  int exact_wins_low = 0, approx_wins_mid = 0, exact_wins_high = 0;
  std::vector<std::string> failed_checks;  // names of failed self-checks
  for (int vars : {4, 8, 16, 24, 40, 64, 96, 160, 320, 640, 1280, 2560}) {
    double ratio = static_cast<double>(vars) / kClauses;
    Instance inst = RandomDnf(vars, kClauses, kWidth, 42 + vars);

    // "exact" = the default d-tree knowledge compiler.
    double exact_p = -1;
    bool exact_ok = true;
    double exact_ms = TimeMs([&] {
      ExactOptions options;
      options.max_steps = kExactStepCap;
      Result<double> r = ExactConfidence(inst.dnf, inst.wt, options);
      if (r.ok()) {
        exact_p = *r;
      } else {
        exact_ok = false;
      }
    });

    // Answer check: the recorded golden probability, to 1e-12.
    const double golden = kSweepGoldens.at(vars);
    if (!exact_ok || std::abs(exact_p - golden) > 1e-12) {
      std::printf("  ERROR: exact p at %d vars is %.17g, golden %.17g\n", vars,
                  exact_p, golden);
      failed_checks.push_back(StringFormat("golden p at %d vars", vars));
    }

    double approx_p = -1;
    double approx_ms = TimeMs([&] {
      Rng rng(7);
      auto r = ApproxConfidence(inst.dnf, inst.wt, kEps, kDelta, &rng);
      if (r.ok()) approx_p = r->estimate;
    });

    const char* winner;
    if (!exact_ok) {
      winner = "aconf (exact capped)";
    } else {
      winner = exact_ms < approx_ms ? "exact" : "aconf";
    }
    if (exact_ok && exact_ms < approx_ms) {
      if (ratio <= 0.3) ++exact_wins_low;
      if (ratio >= 8.0) ++exact_wins_high;
    } else if (ratio > 0.3 && ratio < 8.0) {
      ++approx_wins_mid;
    }
    std::printf("%-8d %-7.2f %12.2f %12.2f %10.5f %s\n", vars, ratio,
                exact_ok ? exact_ms : -1.0, approx_ms, exact_p, winner);
    json.Report("exact", exact_ok ? exact_ms : -1.0)
        .Param("vars", vars)
        .Threads(1)
        .Metric("p", exact_p);
    json.Report("aconf", approx_ms).Param("vars", vars).Threads(1).Metric(
        "p", approx_p);
  }

  // Independent-AND (⊙) factorisation on the whatif group shape: the
  // compiler must factor the 59 × 60 cross product into P(A) · P(B)
  // instead of eliminating one player at a time.
  PrintHeader("product: whatif conf() group lineage (59 x 60 two-atom clauses)");
  {
    Dnf side_a, side_b;
    Instance inst = PairProduct(59, 60, &side_a, &side_b);
    double p = -1;
    ExactStats stats;
    double ms = maybms_bench::TimeMs3([&] {
      stats = ExactStats{};
      Result<double> r = ExactConfidence(inst.dnf, inst.wt, {}, &stats);
      if (r.ok()) p = *r;
    });
    Result<double> pa = ExactConfidence(side_a, inst.wt);
    Result<double> pb = ExactConfidence(side_b, inst.wt);
    const double expected = pa.ok() && pb.ok() ? *pa * *pb : -1;
    std::printf("  %zu clauses: %.3f ms, p = %.12f (P(A)·P(B) = %.12f), "
                "%llu ⊙ node(s), %llu steps\n",
                inst.dnf.NumClauses(), ms, p, expected,
                static_cast<unsigned long long>(stats.products),
                static_cast<unsigned long long>(stats.steps));
    if (std::abs(p - expected) > 1e-12 || stats.products == 0) {
      std::printf("  ERROR: product lineage not factored into P(A)·P(B)\n");
      failed_checks.push_back("product factorisation");
    }
    json.Report("product", ms)
        .Param("left", 59)
        .Param("right", 60)
        .Threads(1)
        .Metric("p", p)
        .Metric("steps", static_cast<double>(stats.steps))
        .Metric("products", static_cast<double>(stats.products));
  }

  // Thread scaling: the same solvers on a work-stealing pool. Exact
  // parallelizes across root components (plentiful at high
  // variable-to-clause ratios); aconf draws Karp-Luby sample batches on
  // deterministic RNG substreams across threads.
  PrintHeader("thread scaling (1 vs 4 threads, same instances)");
  std::printf("%-20s %-8s %12s %12s %9s\n", "case", "vars", "t1(ms)", "t4(ms)",
              "speedup");
  {
    ThreadPool pool(4);
    ExactOptions capped;
    capped.max_steps = kExactStepCap;  // same safety net as the sweep
    for (int vars : {640, 2560}) {
      Instance inst = RandomDnf(vars, kClauses, kWidth, 42 + vars);
      double p1 = -1, p4 = -1;
      double t1 = TimeMs([&] {
        Result<double> r = ExactConfidence(inst.dnf, inst.wt, capped);
        if (r.ok()) p1 = *r;
      });
      double t4 = TimeMs([&] {
        Result<double> r = ExactConfidence(inst.dnf, inst.wt, capped, nullptr, &pool);
        if (r.ok()) p4 = *r;
      });
      std::printf("%-20s %-8d %12.2f %12.2f %8.2fx%s\n", "exact", vars, t1, t4,
                  t1 / t4, p1 == p4 ? "" : "  RESULT MISMATCH");
      json.Report("threads/exact", t1).Param("vars", vars).Threads(1).Metric("p", p1);
      json.Report("threads/exact", t4).Param("vars", vars).Threads(4).Metric("p", p4);
    }
    for (int vars : {24, 64}) {
      Instance inst = RandomDnf(vars, kClauses, kWidth, 42 + vars);
      double p1 = -1, p4 = -1;
      double t1 = TimeMs([&] {
        auto r = ApproxConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), kEps,
                                        kDelta, 7, {}, nullptr);
        if (r.ok()) p1 = r->estimate;
      });
      double t4 = TimeMs([&] {
        auto r = ApproxConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), kEps,
                                        kDelta, 7, {}, &pool);
        if (r.ok()) p4 = r->estimate;
      });
      std::printf("%-20s %-8d %12.2f %12.2f %8.2fx%s\n", "aconf(seeded)", vars, t1,
                  t4, t1 / t4, p1 == p4 ? "" : "  RESULT MISMATCH");
      json.Report("threads/aconf", t1).Param("vars", vars).Threads(1).Metric("p", p1);
      json.Report("threads/aconf", t4).Param("vars", vars).Threads(4).Metric("p", p4);
    }
  }

  // Ablation: the design choices inside the exact solver — elimination
  // heuristic, memoization (ws-tree sharing), and clause absorption.
  PrintHeader("ablation: exact-solver design choices (40 clauses, width 3)");
  std::printf("%-28s %12s %14s %12s\n", "configuration", "time(ms)", "steps",
              "cache hits");
  {
    Instance inst = RandomDnf(28, 40, 3, 4242);
    struct Config {
      const char* name;
      ExactOptions options;
    };
    std::vector<Config> configs;
    ExactOptions base;
    base.max_steps = 50'000'000;
    configs.push_back({"max-occurrence (default)", base});
    {
      ExactOptions o = base;
      o.heuristic = EliminationHeuristic::kMinCostEstimate;
      configs.push_back({"min-cost-estimate", o});
    }
    {
      ExactOptions o = base;
      o.heuristic = EliminationHeuristic::kFirstVariable;
      configs.push_back({"first-variable (baseline)", o});
    }
    {
      ExactOptions o = base;
      o.use_cache = false;
      configs.push_back({"no memoization", o});
    }
    {
      ExactOptions o = base;
      o.remove_subsumed = false;
      configs.push_back({"no clause absorption", o});
    }
    double reference = -1;
    for (const Config& config : configs) {
      ExactStats stats;
      double p = -1;
      double ms = TimeMs([&] {
        Result<double> r = ExactConfidence(inst.dnf, inst.wt, config.options, &stats);
        if (r.ok()) p = *r;
      });
      if (reference < 0) reference = p;
      std::printf("%-28s %12.2f %14llu %12llu%s\n", config.name, ms,
                  static_cast<unsigned long long>(stats.steps),
                  static_cast<unsigned long long>(stats.cache_hits),
                  std::abs(p - reference) < 1e-9 ? "" : "  RESULT MISMATCH");
      json.Report(std::string("ablation/") + config.name, ms)
          .Metric("steps", static_cast<double>(stats.steps))
          .Metric("cache_hits", static_cast<double>(stats.cache_hits));
    }
  }

  // Metrics-overhead self-check (acceptance gate): wiring a per-statement
  // ConfPhaseCounters sink into the solver — exactly what the Session does
  // when SET metrics = on — must cost <= 3% on a hard-region instance
  // (the ablation's: the solver path where the counters actually tick).
  {
    PrintHeader("metrics overhead self-check (exact solver, counters wired)");
    Instance inst = RandomDnf(28, 40, 3, 4242);
    ConfPhaseCounters counters;
    ExactOptions wired;
    wired.max_steps = 50'000'000;
    wired.counters = &counters;
    ExactOptions bare = wired;
    bare.counters = nullptr;
    maybms_bench::OverheadCheck check = maybms_bench::MeasureOverhead(
        [&] { (void)ExactConfidence(inst.dnf, inst.wt, wired); },
        [&] { (void)ExactConfidence(inst.dnf, inst.wt, bare); },
        /*pairs=*/9, /*units=*/1, /*rel_budget=*/0.03, /*abs_floor_ms=*/0.0015);
    std::printf("  counters wired: %8.2f ms\n", check.on_ms);
    std::printf("  counters off:   %8.2f ms\n", check.off_ms);
    std::printf("  overhead:       %+8.2f%%%s\n", 100 * check.rel,
                check.ok ? "" : "  ERROR: exceeds the 3% budget");
    if (!check.ok) failed_checks.push_back("metrics overhead");
    json.Report("metrics_overhead", check.on_ms)
        .Threads(1)
        .Metric("off_ms", check.off_ms)
        .Metric("rel_overhead", check.rel);
  }

  PrintHeader("shape summary");
  std::printf("exact wins at low ratios  (r <= 0.3): %d sweep points\n",
              exact_wins_low);
  std::printf("aconf wins in the middle  (0.3 < r < 8): %d sweep points\n",
              approx_wins_mid);
  std::printf("exact wins at high ratios (r >= 8):   %d sweep points\n",
              exact_wins_high);
  std::printf("\nExpected shape per the paper: exact is faster at both ends of "
              "the ratio axis;\nthe approximation only pays off in the narrow "
              "hard band in between.\n");
  if (!failed_checks.empty()) {
    std::string names;
    for (const std::string& name : failed_checks) {
      names += (names.empty() ? "" : ", ") + name;
    }
    std::printf("\nSELF-CHECK FAILED: %s\n", names.c_str());
    return 1;
  }
  return 0;
}
