// Tests for approximate confidence computation: the Karp-Luby estimator,
// the Dagum-Karp-Luby-Ross optimal Monte Carlo algorithms on seeded
// substreams, and the sampler layer (KarpLubyConfidenceSeeded) that the
// aconf front end falls back to.
#include <gtest/gtest.h>

#include <cmath>

#include "src/conf/exact.h"
#include "src/conf/karp_luby.h"
#include "src/conf/montecarlo.h"
#include "src/conf/naive.h"

namespace maybms {
namespace {

Condition C(std::vector<Atom> atoms) { return *Condition::FromAtoms(std::move(atoms)); }

// ---------------------------------------------------------------------------
// Karp-Luby estimator
// ---------------------------------------------------------------------------

TEST(KarpLubyTest, TrivialFormulas) {
  WorldTable wt;
  KarpLubyEstimator empty(Dnf(), wt);
  EXPECT_TRUE(empty.Trivial());
  EXPECT_DOUBLE_EQ(empty.TrivialProbability(), 0.0);

  Dnf valid;
  valid.AddClause(Condition());
  KarpLubyEstimator always(valid, wt);
  EXPECT_TRUE(always.Trivial());
  EXPECT_DOUBLE_EQ(always.TrivialProbability(), 1.0);
}

TEST(KarpLubyTest, ZeroWeightClausesTrivial) {
  WorldTable wt;
  VarId x = *wt.NewVariable({1.0, 0.0});
  Dnf dnf({C({{x, 1}})});
  KarpLubyEstimator est(dnf, wt);
  EXPECT_TRUE(est.Trivial());
  EXPECT_DOUBLE_EQ(est.TrivialProbability(), 0.0);
}

TEST(KarpLubyTest, TotalWeightIsSumOfClauseMarginals) {
  WorldTable wt;
  VarId x = *wt.NewBooleanVariable(0.4);
  VarId y = *wt.NewBooleanVariable(0.5);
  Dnf dnf({C({{x, 1}}), C({{y, 1}}), C({{x, 1}, {y, 1}})});
  KarpLubyEstimator est(dnf, wt);
  EXPECT_NEAR(est.TotalWeight(), 0.4 + 0.5 + 0.2, 1e-12);
}

// The core unbiasedness property: U * mean(Z) → P(dnf).
TEST(KarpLubyTest, EstimatorIsUnbiased) {
  WorldTable wt;
  VarId x = *wt.NewBooleanVariable(0.5);
  VarId y = *wt.NewBooleanVariable(0.3);
  VarId z = *wt.NewBooleanVariable(0.8);
  Dnf dnf({C({{x, 1}, {y, 1}}), C({{y, 1}, {z, 1}}), C({{x, 1}, {z, 1}})});
  double truth = *NaiveConfidence(dnf, wt);

  KarpLubyEstimator est(dnf, wt);
  ASSERT_FALSE(est.Trivial());
  Rng rng(2024);
  const int n = 200000;
  double hits = 0;
  for (int i = 0; i < n; ++i) hits += est.Trial(&rng);
  double estimate = est.TotalWeight() * hits / n;
  EXPECT_NEAR(estimate, truth, 0.01);
}

TEST(KarpLubyTest, UnbiasedOnMultiValuedVariables) {
  WorldTable wt;
  VarId x = *wt.NewVariable({0.2, 0.3, 0.5});
  VarId y = *wt.NewVariable({0.6, 0.4});
  Dnf dnf({C({{x, 0}}), C({{x, 2}, {y, 1}}), C({{y, 0}})});
  double truth = *NaiveConfidence(dnf, wt);
  KarpLubyEstimator est(dnf, wt);
  Rng rng(7);
  const int n = 200000;
  double hits = 0;
  for (int i = 0; i < n; ++i) hits += est.Trial(&rng);
  EXPECT_NEAR(est.TotalWeight() * hits / n, truth, 0.01);
}

// ---------------------------------------------------------------------------
// DKLR stopping rule and AA
// ---------------------------------------------------------------------------

// Seeded trial factories over stateless trial functions.
TrialFactory Trials(TrialFn trial) {
  return [trial] { return trial; };
}

TEST(MonteCarloTest, ParameterValidation) {
  TrialFactory coin =
      Trials([](Rng* r) { return r->NextBernoulli(0.5) ? 1.0 : 0.0; });
  EXPECT_FALSE(StoppingRuleSeeded(coin, 0.0, 0.1, 1).ok());
  EXPECT_FALSE(StoppingRuleSeeded(coin, 1.5, 0.1, 1).ok());
  EXPECT_FALSE(StoppingRuleSeeded(coin, 0.1, 0.0, 1).ok());
  EXPECT_FALSE(OptimalEstimateSeeded(coin, 0.1, 1.2, 1).ok());
}

TEST(MonteCarloTest, StoppingRuleWithinRelativeError) {
  const double mu = 0.37;
  auto result = StoppingRuleSeeded(
      Trials([mu](Rng* r) { return r->NextBernoulli(mu) ? 1.0 : 0.0; }), 0.1,
      0.05, 42);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->estimate, mu, mu * 0.1);
  EXPECT_GT(result->samples, 100u);
}

TEST(MonteCarloTest, StoppingRuleDeterministicTrialExact) {
  auto result = StoppingRuleSeeded(Trials([](Rng*) { return 1.0; }), 0.1, 0.05, 42);
  ASSERT_TRUE(result.ok());
  // Sum reaches Υ₁ after ⌈Υ₁⌉ trials: estimate = Υ₁/⌈Υ₁⌉ ≈ 1.
  EXPECT_NEAR(result->estimate, 1.0, 0.01);
}

TEST(MonteCarloTest, OptimalEstimateWithinRelativeError) {
  const double mu = 0.23;
  auto result = OptimalEstimateSeeded(
      Trials([mu](Rng* r) { return r->NextBernoulli(mu) ? 1.0 : 0.0; }), 0.05,
      0.05, 4242);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->estimate, mu, mu * 0.05);
}

// For low-variance [0,1] trials the AA algorithm needs far fewer samples
// than the worst-case bound — the point of estimating the variance (phase
// 2) before committing to the main run.
TEST(MonteCarloTest, LowVarianceNeedsFewerSamples) {
  const double mu = 0.5;
  TrialFactory bernoulli =
      Trials([mu](Rng* r) { return r->NextBernoulli(mu) ? 1.0 : 0.0; });
  TrialFactory constant = Trials([mu](Rng*) { return mu; });  // zero variance
  auto high = OptimalEstimateSeeded(bernoulli, 0.02, 0.05, 9);
  auto low = OptimalEstimateSeeded(constant, 0.02, 0.05, 9);
  ASSERT_TRUE(high.ok());
  ASSERT_TRUE(low.ok());
  EXPECT_LT(low->samples, high->samples / 2);
  EXPECT_NEAR(low->estimate, mu, mu * 0.02);
}

TEST(MonteCarloTest, SampleBudgetEnforced) {
  TrialFactory rare =
      Trials([](Rng* r) { return r->NextBernoulli(1e-7) ? 1.0 : 0.0; });
  MonteCarloOptions options;
  options.max_samples = 10000;
  auto result = StoppingRuleSeeded(rare, 0.1, 0.05, 5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// aconf(ε,δ) end to end on lineage
// ---------------------------------------------------------------------------

// The front end answers trivial and single-clause lineage through its
// exact attempt: no trials at all.
TEST(ApproxConfidenceTest, TrivialAndSingleClauseNeedNoSampling) {
  WorldTable wt;
  auto empty = ApproxConfidenceSeeded(CompiledDnf(Dnf(), wt), 0.1, 0.1, 1);
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(empty->estimate, 0.0);
  EXPECT_EQ(empty->samples, 0u);

  VarId x = *wt.NewBooleanVariable(0.37);
  Dnf one({C({{x, 1}})});
  auto single = ApproxConfidenceSeeded(CompiledDnf(one, wt), 0.1, 0.1, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_DOUBLE_EQ(single->estimate, 0.37);
  EXPECT_EQ(single->samples, 0u);
}

class AconfSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AconfSweepTest, WithinEpsilonOfExact) {
  const double epsilon = GetParam();
  WorldTable wt;
  Rng build(33);
  std::vector<VarId> vars;
  for (int i = 0; i < 12; ++i) {
    vars.push_back(*wt.NewBooleanVariable(0.2 + 0.05 * (i % 5)));
  }
  Dnf dnf;
  Rng pick(77);
  for (int c = 0; c < 10; ++c) {
    std::vector<Atom> atoms;
    for (int a = 0; a < 3; ++a) {
      atoms.push_back({vars[pick.NextBounded(vars.size())], 1});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond) dnf.AddClause(std::move(*cond));
  }
  double truth = *ExactConfidence(dnf, wt);
  auto approx =
      KarpLubyConfidenceSeeded(CompiledDnf(dnf, wt), epsilon, 0.05, 2025);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_NEAR(approx->estimate, truth, truth * epsilon)
      << "epsilon " << epsilon << " samples " << approx->samples;
  EXPECT_GT(approx->samples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, AconfSweepTest,
                         ::testing::Values(0.3, 0.2, 0.1, 0.05));

// Tighter epsilon must cost more samples (the sequential-analysis shape).
TEST(ApproxConfidenceTest, SampleCountGrowsAsEpsilonShrinks) {
  WorldTable wt;
  std::vector<VarId> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(*wt.NewBooleanVariable(0.3));
  Dnf dnf;
  for (int i = 0; i + 1 < 10; i += 2) {
    dnf.AddClause(C({{vars[i], 1}, {vars[i + 1], 1}}));
  }
  auto loose = KarpLubyConfidenceSeeded(CompiledDnf(dnf, wt), 0.2, 0.05, 3);
  auto tight = KarpLubyConfidenceSeeded(CompiledDnf(dnf, wt), 0.05, 0.05, 3);
  ASSERT_TRUE(loose.ok());
  ASSERT_TRUE(tight.ok());
  EXPECT_GT(tight->samples, loose->samples * 4);
}

// Repeating aconf across seeds: the (ε,δ) guarantee allows at most a δ
// fraction of misses; with 30 runs and δ=0.05 seeing > 6 misses is
// overwhelming evidence of a bug.
TEST(ApproxConfidenceTest, FailureRateRespectsDelta) {
  WorldTable wt;
  std::vector<VarId> vars;
  for (int i = 0; i < 8; ++i) vars.push_back(*wt.NewBooleanVariable(0.4));
  Dnf dnf;
  for (int i = 0; i < 8; i += 2) dnf.AddClause(C({{vars[i], 1}, {vars[i + 1], 1}}));
  double truth = *ExactConfidence(dnf, wt);
  int misses = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    auto r = KarpLubyConfidenceSeeded(CompiledDnf(dnf, wt), 0.1, 0.05,
                                      seed * 101 + 1);
    ASSERT_TRUE(r.ok());
    if (std::fabs(r->estimate - truth) > truth * 0.1) ++misses;
  }
  EXPECT_LE(misses, 6);
}

}  // namespace
}  // namespace maybms
