#include "src/conf/montecarlo.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/conf/karp_luby.h"
#include "src/lineage/dtree.h"
#include "src/lineage/dtree_cache.h"
#include "src/obs/metrics.h"

namespace maybms {

namespace {

constexpr double kEMinus2 = 0.7182818284590452;  // e − 2

// Observability scope for one aconf front-end call: counts the call,
// times it, and on Answered() records the guarantee parameter ε of the
// answer (the "epsilon achieved" in the (ε,δ)-approximation sense — the
// DKLR stopping rule delivers exactly the requested bound when it
// completes; an exact answer records 0). No clock calls at all when
// counters are absent (metrics off).
class AconfScope {
 public:
  explicit AconfScope(ConfPhaseCounters* obs) : obs_(obs) {
    if (obs_ == nullptr) return;
    obs_->aconf_calls.fetch_add(1, std::memory_order_relaxed);
    t0_ = MonotonicNs();
  }
  ~AconfScope() {
    if (obs_ != nullptr) {
      obs_->aconf_ns.fetch_add(MonotonicNs() - t0_,
                               std::memory_order_relaxed);
    }
  }
  AconfScope(const AconfScope&) = delete;
  AconfScope& operator=(const AconfScope&) = delete;

  void Answered(double epsilon, bool exact) {
    if (obs_ == nullptr) return;
    uint64_t bits = 0;
    if (!exact) {
      static_assert(sizeof(bits) == sizeof(epsilon), "bit width");
      std::memcpy(&bits, &epsilon, sizeof(bits));
    }
    obs_->epsilon_bits.store(bits, std::memory_order_relaxed);
  }

 private:
  ConfPhaseCounters* obs_;
  uint64_t t0_ = 0;
};

Status ValidateParams(double epsilon, double delta) {
  if (!(epsilon > 0) || epsilon >= 1) {
    return Status::InvalidArgument(
        StringFormat("aconf epsilon must be in (0,1), got %g", epsilon));
  }
  if (!(delta > 0) || delta >= 1) {
    return Status::InvalidArgument(
        StringFormat("aconf delta must be in (0,1), got %g", delta));
  }
  return Status::OK();
}

// Υ = 4(e−2)·ln(2/δ)/ε² — the master sample-complexity constant of DKLR.
double Upsilon(double epsilon, double delta) {
  return 4 * kEMinus2 * std::log(2.0 / delta) / (epsilon * epsilon);
}

}  // namespace

uint64_t SubstreamSeed(uint64_t base_seed, uint64_t batch_index) {
  // SplitMix64 finalizer over base + (k+1)·φ⁻¹: adjacent counters land in
  // statistically unrelated PCG seeds, and the map is pure — batch k's
  // stream never depends on which thread draws it or on other batches.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (batch_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Fills `out` with the trial values of batches [first_batch,
// first_batch + count) of the phase's deterministic stream. Each batch
// gets a fresh trial instance and its own substream RNG; the batches
// compute concurrently on the pool, but the values are identical to a
// serial pass. Templated on the factory so concrete trial functors (the
// Karp-Luby kernels) inline into the fill loop.
template <class MakeTrial>
void MaterializeBatches(const MakeTrial& make_trial, uint64_t phase_seed,
                        uint64_t first_batch, uint64_t count, uint64_t batch_size,
                        ThreadPool* pool, std::vector<std::vector<double>>* out) {
  out->assign(count, {});
  pool->ParallelFor(0, count, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      auto trial = make_trial();
      Rng rng(SubstreamSeed(phase_seed, first_batch + i));
      std::vector<double>& vals = (*out)[i];
      vals.resize(batch_size);
      for (uint64_t t = 0; t < batch_size; ++t) vals[t] = trial(&rng);
    }
  });
}

// Feeds the trial values of a phase stream to `consume`, strictly in
// stream order, until it returns false. The stream is a pure function of
// (phase_seed, sample_batch_size): batch k draws from
// Rng(SubstreamSeed(phase_seed, k)) with a fresh trial instance. Serially
// the batches run one by one and the drain stops at the exact trial. On a
// pool, whole waves of batches materialize concurrently — `first_wave`
// batches, doubling up to batches_per_wave, never past `max_batches` —
// and trials past the stopping point inside the final wave are wasted.
// Either way `consume` sees the same values, so stop indices, estimates
// and budget errors are thread-count independent.
template <class MakeTrial, class Consume>
void DrainSeededStream(const MakeTrial& make_trial, uint64_t phase_seed,
                       uint64_t first_wave, uint64_t max_batches,
                       const MonteCarloOptions& options, ThreadPool* pool,
                       const Consume& consume) {
  const uint64_t batch_size = std::max<uint64_t>(options.sample_batch_size, 1);
  if (pool == nullptr) {
    for (uint64_t k = 0; k < max_batches; ++k) {
      auto trial = make_trial();
      Rng rng(SubstreamSeed(phase_seed, k));
      for (uint64_t t = 0; t < batch_size; ++t) {
        if (!consume(trial(&rng))) return;
      }
    }
    return;
  }
  const uint64_t max_wave = std::max<uint64_t>(options.batches_per_wave, 1);
  uint64_t wave = std::min(first_wave, max_wave);
  std::vector<std::vector<double>> values;
  for (uint64_t next = 0; next < max_batches;) {
    const uint64_t count = std::min(wave, max_batches - next);
    MaterializeBatches(make_trial, phase_seed, next, count, batch_size, pool,
                       &values);
    next += count;
    wave = std::min(max_wave, wave * 2);
    for (const std::vector<double>& batch : values) {
      for (double v : batch) {
        if (!consume(v)) return;
      }
    }
  }
}

// Stopping Rule Algorithm over the deterministic batched stream. Waves
// start at one batch so cheap stopping-rule runs don't eagerly burn a
// full wave of trials on a pool.
template <class MakeTrial>
Result<MonteCarloResult> StoppingRuleSeededT(const MakeTrial& make_trial,
                                             double epsilon, double delta,
                                             uint64_t phase_seed,
                                             const MonteCarloOptions& options,
                                             ThreadPool* pool) {
  MAYBMS_RETURN_NOT_OK(ValidateParams(epsilon, delta));
  const double upsilon1 = 1 + (1 + epsilon) * Upsilon(epsilon, delta);
  double sum = 0;
  uint64_t n = 0;
  bool over_budget = false;
  DrainSeededStream(make_trial, phase_seed, 1, UINT64_MAX, options, pool,
                    [&](double v) {
                      if (options.max_samples != 0 && n >= options.max_samples) {
                        over_budget = true;
                        return false;
                      }
                      sum += v;
                      ++n;
                      return sum < upsilon1;
                    });
  if (over_budget) {
    return Status::OutOfRange(StringFormat(
        "stopping-rule estimation exceeded %llu samples (mean too small "
        "for requested ε=%g, δ=%g)",
        static_cast<unsigned long long>(options.max_samples), epsilon, delta));
  }
  MonteCarloResult result;
  result.estimate = upsilon1 / static_cast<double>(n);
  result.samples = n;
  return result;
}

// Feeds the first `total` trial values of a phase stream to `consume`.
template <class MakeTrial, class Consume>
void SumSeededTrials(const MakeTrial& make_trial, uint64_t phase_seed,
                     uint64_t total, const MonteCarloOptions& options,
                     ThreadPool* pool, const Consume& consume) {
  if (total == 0) return;
  const uint64_t batch_size = std::max<uint64_t>(options.sample_batch_size, 1);
  uint64_t consumed = 0;
  DrainSeededStream(make_trial, phase_seed, UINT64_MAX,
                    (total + batch_size - 1) / batch_size, options, pool,
                    [&](double v) {
                      consume(v);
                      return ++consumed < total;
                    });
}

template <class MakeTrial>
Result<MonteCarloResult> OptimalEstimateSeededT(const MakeTrial& make_trial,
                                                double epsilon, double delta,
                                                uint64_t base_seed,
                                                const MonteCarloOptions& options,
                                                ThreadPool* pool) {
  MAYBMS_RETURN_NOT_OK(ValidateParams(epsilon, delta));
  const double sqrt_eps = std::sqrt(epsilon);
  const double upsilon = Upsilon(epsilon, delta);
  const double upsilon2 = 2 * (1 + sqrt_eps) * (1 + 2 * sqrt_eps) *
                          (1 + std::log(1.5) / std::log(2.0 / delta)) * upsilon;

  // Each phase runs on its own substream family so phase boundaries never
  // shift trial values between phases.
  const uint64_t p1_seed = SubstreamSeed(base_seed, 0xA1);
  const uint64_t p2_seed = SubstreamSeed(base_seed, 0xA2);
  const uint64_t p3_seed = SubstreamSeed(base_seed, 0xA3);

  // Phase 1: rough estimate with relaxed accuracy min(1/2, √ε), δ/3.
  const double eps1 = std::min(0.5, sqrt_eps);
  MAYBMS_ASSIGN_OR_RETURN(
      MonteCarloResult phase1,
      StoppingRuleSeededT(make_trial, eps1, delta / 3, p1_seed, options, pool));
  const double mu_hat = phase1.estimate;
  uint64_t used = phase1.samples;

  auto budget_left = [&]() -> uint64_t {
    if (options.max_samples == 0) return UINT64_MAX;
    return options.max_samples > used ? options.max_samples - used : 0;
  };

  // Phase 2: variance estimate from squared differences of trial pairs
  // (consecutive stream values pair up).
  uint64_t n2 = static_cast<uint64_t>(std::ceil(upsilon2 * epsilon / mu_hat));
  n2 = std::max<uint64_t>(n2, 1);
  if (n2 > budget_left() / 2) {
    return Status::OutOfRange("optimal estimation phase 2 exceeded sample budget");
  }
  double s = 0;
  double pending = 0;
  bool have_pending = false;
  SumSeededTrials(make_trial, p2_seed, 2 * n2, options, pool, [&](double v) {
    if (have_pending) {
      s += (pending - v) * (pending - v) / 2;
      have_pending = false;
    } else {
      pending = v;
      have_pending = true;
    }
  });
  used += 2 * n2;
  const double rho_hat = std::max(s / static_cast<double>(n2), epsilon * mu_hat);

  // Phase 3: the sequentially-determined definitive run.
  uint64_t n3 = static_cast<uint64_t>(std::ceil(upsilon2 * rho_hat / (mu_hat * mu_hat)));
  n3 = std::max<uint64_t>(n3, 1);
  if (n3 > budget_left()) {
    return Status::OutOfRange("optimal estimation phase 3 exceeded sample budget");
  }
  double sum = 0;
  SumSeededTrials(make_trial, p3_seed, n3, options, pool,
                  [&](double v) { sum += v; });
  used += n3;

  MonteCarloResult result;
  result.estimate = sum / static_cast<double>(n3);
  result.samples = used;
  return result;
}

/// Per-batch Karp-Luby trial: owns its scratch, so each batch task samples
/// independently (the estimator itself is read-only during trials).
///
/// Trial/rejection counts accumulate in plain locals and flush into the
/// shared atomics on destruction — one atomic add pair per batch, never
/// one per trial. The factory returns a prvalue, so each instance is
/// constructed in place (guaranteed elision) and destroyed exactly once
/// at the end of its batch.
struct KlBatchTrial {
  const KarpLubyEstimator* estimator;
  ConfPhaseCounters* counters;
  KarpLubyScratch scratch;
  uint64_t local_trials = 0;
  uint64_t local_rejections = 0;

  ~KlBatchTrial() {
    if (counters != nullptr && local_trials != 0) {
      counters->kl_trials.fetch_add(local_trials, std::memory_order_relaxed);
      counters->kl_rejections.fetch_add(local_rejections,
                                        std::memory_order_relaxed);
    }
  }

  double operator()(Rng* rng) {
    bool z = estimator->Trial(rng, &scratch);
    if (counters != nullptr) {
      ++local_trials;
      if (!z) ++local_rejections;
    }
    return z ? 1.0 : 0.0;
  }
};

struct KlTrialFactory {
  const KarpLubyEstimator* estimator;
  ConfPhaseCounters* counters;

  KlBatchTrial operator()() const { return KlBatchTrial{estimator, counters, {}}; }
};

}  // namespace

Result<MonteCarloResult> StoppingRuleSeeded(const TrialFactory& make_trial,
                                            double epsilon, double delta,
                                            uint64_t base_seed,
                                            const MonteCarloOptions& options,
                                            ThreadPool* pool) {
  return StoppingRuleSeededT(make_trial, epsilon, delta, base_seed, options,
                             pool);
}

Result<MonteCarloResult> OptimalEstimateSeeded(const TrialFactory& make_trial,
                                               double epsilon, double delta,
                                               uint64_t base_seed,
                                               const MonteCarloOptions& options,
                                               ThreadPool* pool) {
  return OptimalEstimateSeededT(make_trial, epsilon, delta, base_seed, options,
                                pool);
}

Result<MonteCarloResult> KarpLubyConfidenceSeeded(
    CompiledDnf dnf, double epsilon, double delta, uint64_t base_seed,
    const MonteCarloOptions& options, ThreadPool* pool,
    size_t num_query_clauses) {
  MAYBMS_RETURN_NOT_OK(ValidateParams(epsilon, delta));
  KarpLubyEstimator estimator(std::move(dnf), num_query_clauses);
  if (estimator.Trivial()) {
    MonteCarloResult result;
    result.estimate = estimator.TrivialProbability();
    return result;
  }
  // Z̄ estimates p/U with relative error ε, hence U·Z̄ estimates p with
  // relative error ε: the mean μ = p/U ≥ 1/m (m clauses) keeps the DKLR
  // sample bound polynomial — the Karp-Luby property.
  KlTrialFactory factory{&estimator, options.counters};
  MAYBMS_ASSIGN_OR_RETURN(
      MonteCarloResult mc,
      OptimalEstimateSeededT(factory, epsilon, delta, base_seed, options, pool));
  mc.estimate = std::min(1.0, mc.estimate * estimator.TotalWeight());
  return mc;
}

uint64_t ExactAttemptBudget(size_t num_clauses) {
  return 4 * static_cast<uint64_t>(num_clauses) + 16;
}

Result<double> BoundedExactConfidence(CompiledDnf dnf) {
  ExactOptions options;
  options.max_steps = ExactAttemptBudget(dnf.original_clauses().size());
  DTreeCompiler compiler(std::move(dnf), options);
  MAYBMS_ASSIGN_OR_RETURN(double p, compiler.CompileValue(nullptr));
  return std::min(1.0, std::max(0.0, p));  // as ExactConfidence clamps
}

Result<MonteCarloResult> ExactFirstConfidence(
    CompiledDnf dnf, size_t num_query_clauses, double epsilon, double delta,
    uint64_t base_seed, const MonteCarloOptions& options, ThreadPool* pool,
    const ExactAttempt& exact_attempt) {
  MAYBMS_RETURN_NOT_OK(ValidateParams(epsilon, delta));
  AconfScope obs_scope(options.counters);
  // The answer is a pure function of (content, world version, seed, ε, δ,
  // sampling knobs) whichever way it is computed, so a cached result IS
  // the value a rerun would return. The key must capture the lineage
  // before it is moved into the sampler below.
  LineageKey key;
  const bool use_cache =
      options.cache != nullptr &&
      dnf.original_clauses().size() >= DTreeCache::kMinCachedClauses;
  if (use_cache) {
    key = BuildEstimateKey(dnf, options.world_version, base_seed, epsilon,
                           delta, num_query_clauses, options);
    MonteCarloResult cached;
    if (options.cache->LookupEstimate(key, &cached.estimate, &cached.samples)) {
      if (options.counters != nullptr) {
        options.counters->estimate_hits.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      obs_scope.Answered(epsilon, cached.samples == 0);
      return cached;
    }
  }
  MonteCarloResult result;
  Result<double> exact = exact_attempt(dnf);
  if (exact.ok()) {
    result.estimate = *exact;
    if (options.counters != nullptr) {
      options.counters->exact_answers.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (exact.status().code() == StatusCode::kOutOfRange) {
    MAYBMS_ASSIGN_OR_RETURN(
        result, KarpLubyConfidenceSeeded(std::move(dnf), epsilon, delta,
                                         base_seed, options, pool,
                                         num_query_clauses));
  } else {
    return exact.status();
  }
  obs_scope.Answered(epsilon, result.samples == 0);
  if (use_cache) options.cache->InsertEstimate(key, result.estimate, result.samples);
  return result;
}

Result<MonteCarloResult> ApproxConfidenceSeeded(CompiledDnf dnf, double epsilon,
                                                double delta, uint64_t base_seed,
                                                const MonteCarloOptions& options,
                                                ThreadPool* pool) {
  return ExactFirstConfidence(std::move(dnf), kAllClauses, epsilon, delta,
                              base_seed, options, pool,
                              [](const CompiledDnf& lineage) {
                                return BoundedExactConfidence(lineage);
                              });
}

}  // namespace maybms
