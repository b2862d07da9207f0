// aconf(ε,δ): exact-first front end, then optimal Monte Carlo estimation.
//
// The paper (§2.3) combines the Karp-Luby estimator with the DKLR
// "optimal algorithm ... based on sequential analysis [which] determines
// the number of invocations of the Karp-Luby estimator needed to achieve
// the required bound by running the estimator a small number of times to
// estimate its mean and variance" (Dagum, Karp, Luby, Ross — "An Optimal
// Algorithm for Monte Carlo Estimation", SIAM J. Comput. 29(5), 2000).
// It also reports that exact confidence computation beats that
// approximation outside a narrow band of variable-to-clause ratios. So
// every aconf() entry point runs one front end:
//
//   1. the kind-2 estimate cache (src/lineage/dtree_cache.h);
//   2. a BOUNDED exact attempt: a serial d-tree compile under a step
//      budget that is a fixed multiple of the clause count
//      (ExactAttemptBudget). An exact value meets any (ε,δ) guarantee, so
//      a compile that fits is the answer, with samples = 0;
//   3. otherwise the sampler layer (KarpLubyConfidenceSeeded): Karp-Luby
//      trials under the DKLR algorithm AA on deterministic substreams.
//
// The attempt uses default ExactOptions, no pool and no cache, so whether
// a group is answered exactly is a pure function of its lineage — never
// of the thread count, the cache knobs, the session's exact-solver knobs,
// or the engine.
#pragma once

#include <cstdint>
#include <functional>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/lineage/compiled_dnf.h"

namespace maybms {

class DTreeCache;
class ThreadPool;
struct ConfPhaseCounters;  // src/obs/metrics.h

/// A randomized experiment producing values in [0, 1].
using TrialFn = std::function<double(Rng*)>;

/// Produces independent TrialFn instances: each returned trial owns its
/// own scratch state, so distinct instances may run on distinct threads.
using TrialFactory = std::function<TrialFn()>;

/// Outcome of a sequential estimation run.
struct MonteCarloResult {
  double estimate = 0;
  uint64_t samples = 0;  ///< total trials consumed (all phases)
};

/// Knobs for the DKLR algorithms.
struct MonteCarloOptions {
  /// Hard cap on total trials (guards #P-hard worst cases); 0 = unlimited.
  uint64_t max_samples = 200'000'000;
  /// Batched (parallel-capable) sampling: trials per RNG substream batch.
  /// Batch k of a seeded run draws from Rng(SubstreamSeed(phase_seed, k)),
  /// so the trial-value sequence depends only on the seed — never on the
  /// thread count.
  uint64_t sample_batch_size = 2048;
  /// Max batches materialized per scheduling wave when sampling on a pool
  /// (stopping-rule waves start at one batch and double up to this cap; a
  /// serial run streams batch by batch and stops at the exact trial). A
  /// pure scheduling knob: the trial stream and the stop index depend only
  /// on the seed and sample_batch_size, so changing the wave cap (or the
  /// thread count) never changes the estimate — larger waves just
  /// parallelize better while wasting more trials past the stopping point.
  uint64_t batches_per_wave = 8;
  /// Cross-statement estimate cache (src/lineage/dtree_cache.h kind-2
  /// entries), or null to sample fresh every call. Non-owning: the
  /// Database wires the catalog's cache in per statement alongside
  /// ExactOptions::cache. Consulted by the aconf front end only: its
  /// answer is a pure function of (lineage content, world version, base
  /// seed, ε, δ, sampling knobs), so a hit returns exactly the value a
  /// rerun would compute. The sampler layer never touches it.
  DTreeCache* cache = nullptr;
  /// World-table version the lineage's probabilities were baked from (the
  /// probability axis of the estimate key; see dtree_cache.h).
  uint64_t world_version = 0;
  /// Observability sink (src/obs/metrics.h), or null when metrics are
  /// off. Counters only (trials, rejections, estimate-cache hits, call
  /// timing); never consulted for any sampling decision, and OUTSIDE the
  /// estimate cache key (BuildEstimateKey hashes named sampling knobs
  /// only), so attaching it cannot perturb cached estimates. Non-owning.
  ConfPhaseCounters* counters = nullptr;
};

/// Counter-based substream seeding (SplitMix64 finalizer over
/// base + k·golden-ratio): maps a (base seed, batch index) pair to the
/// seed of that batch's private RNG. Exposed so tests can pin the scheme.
uint64_t SubstreamSeed(uint64_t base_seed, uint64_t batch_index);

// ---------------------------------------------------------------------------
// The sampler layer: seeded (deterministic, parallel-capable) estimation
// ---------------------------------------------------------------------------
//
// Trials draw in fixed-size batches on counter-based RNG substreams
// (SubstreamSeed): the trial-value sequence, the stopping decisions, and
// the final estimate are a pure function of (base_seed, epsilon, delta,
// options) — bit-identical whether computed serially (pool == nullptr) or
// on a pool of any size. The executor derives base_seed from the lineage
// content (LineageSeed in src/exec/conf_fallback.h), so repeated aconf
// statements over unchanged lineage are repeatable — and cacheable.

/// DKLR Stopping Rule Algorithm: runs trials until the running sum reaches
/// Υ₁ = 1 + (1+ε)·4(e−2)·ln(2/δ)/ε²; the output μ̂ = Υ₁/N satisfies
/// P(|μ̂ − μ| ≤ εμ) ≥ 1 − δ for any [0,1]-valued trial with mean μ > 0.
/// (Phase 1 of OptimalEstimateSeeded.)
Result<MonteCarloResult> StoppingRuleSeeded(const TrialFactory& make_trial,
                                            double epsilon, double delta,
                                            uint64_t base_seed,
                                            const MonteCarloOptions& options = {},
                                            ThreadPool* pool = nullptr);

/// DKLR AA (optimal up to constants) over a deterministic batched trial
/// stream: phase 1 estimates μ roughly via the stopping rule, phase 2
/// estimates the variance, phase 3 runs the number of trials prescribed by
/// the sequential analysis. `make_trial` is invoked once per batch; each
/// returned TrialFn must be independent (own scratch). `pool` only
/// changes wall-clock time, never the result.
Result<MonteCarloResult> OptimalEstimateSeeded(const TrialFactory& make_trial,
                                               double epsilon, double delta,
                                               uint64_t base_seed,
                                               const MonteCarloOptions& options = {},
                                               ThreadPool* pool = nullptr);

/// num_query_clauses value for plain (unconditioned) lineage.
constexpr size_t kAllClauses = SIZE_MAX;

/// Karp-Luby + DKLR AA on compiled lineage, with no cache and no exact
/// attempt. With num_query_clauses < the clause count, the lineage is
/// conditioned: its clauses split into a query prefix and a constraint
/// suffix, coverage trials draw from the prefix and count only when the
/// sampled world also satisfies the suffix disjunction, and the result
/// estimates P(Q ∧ C) (see KarpLubyEstimator; src/cond/posterior.h divides
/// by the exact P(C)). The caller must rule out a zero-probability
/// conjunction: the trial mean would be 0 and the stopping rule would only
/// end at the sample cap.
Result<MonteCarloResult> KarpLubyConfidenceSeeded(
    CompiledDnf dnf, double epsilon, double delta, uint64_t base_seed,
    const MonteCarloOptions& options = {}, ThreadPool* pool = nullptr,
    size_t num_query_clauses = kAllClauses);

// ---------------------------------------------------------------------------
// The aconf front end
// ---------------------------------------------------------------------------

/// Step budget of the exact attempt for lineage of `num_clauses` clauses:
/// 4·m + 16. Independent single-atom clauses compile in m + 1 steps.
uint64_t ExactAttemptBudget(size_t num_clauses);

/// The exact attempt: a serial d-tree compile of `dnf` with default
/// ExactOptions, no cache, and max_steps = ExactAttemptBudget(clauses),
/// clamped to [0, 1] like ExactConfidence. OutOfRange when over budget.
Result<double> BoundedExactConfidence(CompiledDnf dnf);

/// Computes exactly the value the sampler would estimate for `dnf`, or
/// returns OutOfRange to request sampling.
using ExactAttempt = std::function<Result<double>(const CompiledDnf& dnf)>;

/// The front end: the kind-2 cache lookup, then `exact_attempt`, then
/// KarpLubyConfidenceSeeded. An exact answer has samples = 0 and is
/// cached as the kind-2 entry, like an estimate. Counts the call (and an
/// exact answer) on options.counters.
Result<MonteCarloResult> ExactFirstConfidence(
    CompiledDnf dnf, size_t num_query_clauses, double epsilon, double delta,
    uint64_t base_seed, const MonteCarloOptions& options, ThreadPool* pool,
    const ExactAttempt& exact_attempt);

/// aconf(ε,δ) on plain compiled lineage: the probability that the result
/// deviates from the true confidence p by more than ε·p is below δ
/// (paper §2.2). ExactFirstConfidence with BoundedExactConfidence as the
/// attempt.
Result<MonteCarloResult> ApproxConfidenceSeeded(CompiledDnf dnf, double epsilon,
                                                double delta, uint64_t base_seed,
                                                const MonteCarloOptions& options = {},
                                                ThreadPool* pool = nullptr);

}  // namespace maybms
