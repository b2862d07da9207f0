#include "src/exec/conf_fallback.h"

#include <atomic>

#include "src/common/row_index.h"
#include "src/cond/posterior.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"

namespace maybms {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr uint64_t kClauseSep = 0x9e3779b97f4a7c15ULL;

uint64_t AccumAtom(uint64_t h, const Atom& a) {
  h ^= (static_cast<uint64_t>(a.var) << 32) | a.asg;
  return h * kFnvPrime;
}

uint64_t AccumClauseEnd(uint64_t h) { return (h ^ kClauseSep) * kFnvPrime; }

bool WantsFallback(const Result<double>& exact, const ExecContext* ctx) {
  return !exact.ok() && ctx->options->conf_fallback &&
         exact.status().code() == StatusCode::kOutOfRange;
}

Result<double> Fallback(Result<MonteCarloResult> mc, const Status& exact_error,
                        ExecContext* ctx) {
  if (!mc.ok()) return exact_error;  // surface the original budget error
  if (ctx->conf_fallbacks != nullptr) {
    ctx->conf_fallbacks->fetch_add(1, std::memory_order_relaxed);
  }
  return mc->estimate;
}

}  // namespace

/// Content hash of the group lineage over GLOBAL variable ids. The
/// aggregate feeds a canonical clause list for each group, so the seed —
/// and with it the estimate — is independent of thread count and join
/// order.
uint64_t LineageSeed(const Dnf& dnf) {
  uint64_t h = kFnvOffset;
  for (const Condition& c : dnf.clauses()) {
    for (const Atom& a : c.atoms()) h = AccumAtom(h, a);
    h = AccumClauseEnd(h);
  }
  return Mix64(h);
}

/// Same content hash over compiled lineage: the original clause list in
/// input order with local atoms mapped back to their GLOBAL ids — exactly
/// the byte sequence the Dnf/span overloads hash (clause order, atom order
/// within a clause, and duplicate clauses are all preserved by
/// CompiledDnf). This is the SAME canonical form the d-tree compilation
/// cache keys on (src/lineage/dtree_cache.h), and it is computed from the
/// CompiledDnf BEFORE the exact attempt — so the fallback seed (and with
/// it the aconf estimate) is identical whether the exact path compiled
/// fresh, hit the cache, or was answered with the cache disabled.
uint64_t LineageSeed(const CompiledDnf& dnf) {
  uint64_t h = kFnvOffset;
  for (ClauseId id : dnf.original_clauses()) {
    for (const Atom& a : dnf.Clause(id)) {
      h = AccumAtom(h, Atom{dnf.GlobalVar(a.var), a.asg});
    }
    h = AccumClauseEnd(h);
  }
  return Mix64(h);
}

Result<double> GroupConfidence(const Dnf& dnf, ExecContext* ctx) {
  const ConstraintStore& cs = ctx->constraints();
  const WorldTable& wt = ctx->worlds();
  const ExecOptions& options = *ctx->options;
  Result<double> exact =
      cs.active()
          ? PosteriorExactConfidence(dnf, cs, wt, options.exact, ctx->pool)
          : ExactConfidence(dnf, wt, options.exact, nullptr, ctx->pool);
  if (!WantsFallback(exact, ctx)) return exact;
  uint64_t seed = LineageSeed(dnf);
  Result<MonteCarloResult> mc =
      cs.active()
          ? PosteriorApproxConfidenceSeeded(
                dnf, cs, wt, options.fallback_epsilon, options.fallback_delta,
                seed, options.montecarlo, ctx->pool)
          : ApproxConfidenceSeeded(CompiledDnf(dnf, wt),
                                   options.fallback_epsilon,
                                   options.fallback_delta, seed,
                                   options.montecarlo, ctx->pool);
  return Fallback(std::move(mc), exact.status(), ctx);
}

Result<double> GroupConfidence(const ConditionColumn& conds,
                               const uint32_t* rows, size_t n,
                               ExecContext* ctx) {
  const WorldTable& wt = ctx->worlds();
  const ExecOptions& options = *ctx->options;
  // ONE compilation of the group's lineage feeds everything downstream:
  // the seed, the exact attempt, and the Karp-Luby fallback. Deriving the
  // seed from the same canonical object the cache key and the sampler
  // consume — BEFORE the exact attempt — pins the fallback estimate
  // against any drift between re-compilations. With the fallback disabled
  // (the library default) neither seed nor retained copy is ever needed,
  // so the compiled form moves straight into the solver.
  CompiledDnf compiled(conds, rows, n, wt);
  if (!options.conf_fallback) {
    return ExactConfidence(std::move(compiled), wt, options.exact, nullptr,
                           ctx->pool);
  }
  const uint64_t seed = LineageSeed(compiled);
  Result<double> exact =
      ExactConfidence(std::move(compiled), wt, options.exact, nullptr,
                      ctx->pool);
  if (!WantsFallback(exact, ctx)) return exact;
  // Rare branch: rebuild the compiled form for the sampler. Construction
  // is pure, so this is the identical canonical lineage the seed above
  // was hashed from — cheaper than deep-copying it on every non-fallback
  // group just to keep it alive for this path.
  Result<MonteCarloResult> mc = ApproxConfidenceSeeded(
      CompiledDnf(conds, rows, n, wt), options.fallback_epsilon,
      options.fallback_delta, seed, options.montecarlo, ctx->pool);
  return Fallback(std::move(mc), exact.status(), ctx);
}

}  // namespace maybms
