// Experiment §2.3-[2] (DESIGN.md experiment index): the Dagum-Karp-Luby-
// Ross optimal Monte Carlo estimator driving aconf(ε,δ).
//
// Paper description: the DKLR algorithm "determines the number of
// invocations of the Karp-Luby estimator needed to achieve the required
// bound by running the estimator a small number of times to estimate its
// mean and variance."
//
// This bench shows (a) the sequential-analysis sample counts as ε and δ
// vary (expected N ∝ 1/ε² and ∝ ln(1/δ)), (b) observed error vs the ε·p
// bound, and (c) variance adaptivity: fewer samples for low-variance
// estimators at the same (ε,δ). It runs the sampler layer
// (KarpLubyConfidenceSeeded) directly: production aconf would answer this
// 40-clause DNF exactly before sampling.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"

using namespace maybms;
using maybms_bench::PrintHeader;

namespace {

struct Instance {
  WorldTable wt;
  Dnf dnf;
};

Instance ReferenceDnf(int vars, int clauses, int width, uint64_t seed) {
  Instance inst;
  Rng rng(seed);
  std::vector<VarId> ids;
  for (int i = 0; i < vars; ++i) {
    ids.push_back(*inst.wt.NewBooleanVariable(0.15 + 0.25 * rng.NextDouble()));
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

}  // namespace

int main() {
  std::printf("DKLR optimal Monte Carlo estimation: sample counts from "
              "sequential analysis.\n");

  Instance inst = ReferenceDnf(30, 40, 3, 99);
  double truth = *ExactConfidence(inst.dnf, inst.wt);
  std::printf("reference DNF: 40 clauses over 30 variables, exact p = %.6f\n", truth);

  PrintHeader("epsilon sweep (delta = 0.05)");
  std::printf("%-10s %14s %14s %14s %10s\n", "epsilon", "samples", "estimate",
              "rel. error", "<= eps?");
  double prev_samples = 0;
  for (double eps : {0.4, 0.2, 0.1, 0.05, 0.025}) {
    auto r = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), eps, 0.05,
                                      2718);
    if (!r.ok()) {
      std::printf("%-10.3f failed: %s\n", eps, r.status().ToString().c_str());
      continue;
    }
    double rel = std::fabs(r->estimate - truth) / truth;
    std::printf("%-10.3f %14llu %14.6f %14.4f %10s", eps,
                static_cast<unsigned long long>(r->samples), r->estimate, rel,
                rel <= eps ? "yes" : "NO");
    if (prev_samples > 0) {
      std::printf("   (x%.1f samples)", r->samples / prev_samples);
    }
    std::printf("\n");
    prev_samples = static_cast<double>(r->samples);
  }
  std::printf("expected shape: samples ~ 1/eps^2 (x4 per halving of eps)\n");

  PrintHeader("delta sweep (epsilon = 0.1)");
  std::printf("%-10s %14s %14s\n", "delta", "samples", "estimate");
  for (double delta : {0.3, 0.1, 0.03, 0.01, 0.003}) {
    auto r = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.1,
                                      delta, 314);
    if (!r.ok()) continue;
    std::printf("%-10.4f %14llu %14.6f\n", delta,
                static_cast<unsigned long long>(r->samples), r->estimate);
  }
  std::printf("expected shape: samples grow only logarithmically in 1/delta\n");

  PrintHeader("variance adaptivity (epsilon = 0.05, delta = 0.05)");
  {
    // High-variance Bernoulli trial vs zero-variance constant trial with
    // the same mean: the AA algorithm's phase 2 detects the difference.
    const double mu = 0.4;
    TrialFactory bernoulli = [mu] {
      return TrialFn([mu](Rng* r) { return r->NextBernoulli(mu) ? 1.0 : 0.0; });
    };
    TrialFactory constant = [mu] { return TrialFn([mu](Rng*) { return mu; }); };
    auto high = OptimalEstimateSeeded(bernoulli, 0.05, 0.05, 1);
    auto low = OptimalEstimateSeeded(constant, 0.05, 0.05, 1);
    if (high.ok() && low.ok()) {
      std::printf("Bernoulli(0.4) trial: %llu samples, estimate %.4f\n",
                  static_cast<unsigned long long>(high->samples), high->estimate);
      std::printf("constant 0.4 trial:   %llu samples, estimate %.4f\n",
                  static_cast<unsigned long long>(low->samples), low->estimate);
      std::printf("low-variance speedup: x%.1f fewer samples\n",
                  static_cast<double>(high->samples) / low->samples);
    }
  }

  PrintHeader("guarantee audit: 50 independent runs at (0.1, 0.1)");
  {
    int misses = 0;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      auto r = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.1,
                                        0.1, seed * 37);
      if (!r.ok()) continue;
      if (std::fabs(r->estimate - truth) > 0.1 * truth) ++misses;
    }
    std::printf("runs outside eps*p: %d / 50 (delta allows up to ~5 expected)\n",
                misses);
  }
  return 0;
}
