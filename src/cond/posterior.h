// Posterior confidence under evidence: every probability the engine
// reports after an ASSERT is P(Q | C) = P(Q ∧ C) / P(C), where Q is the
// query lineage (a DNF) and C the constraint store's flattened evidence.
//
//   - Exact (conf()): P(Q ∧ C) is solved as the distributed product DNF
//     Q ∧ C (pairwise clause merges — small, since evidence is small), run
//     through the same decomposition/variable-elimination solver as
//     unconditioned conf(), including its component-parallel root step.
//     When the product would blow past a clause budget, the identity
//     P(Q ∧ C) = P(Q) + P(C) − P(Q ∨ C) computes it from three plain DNF
//     probabilities instead.
//   - Approximate (aconf()): P(Q ∧ C) is first attempted exactly on the
//     product under a small step budget; past it, Karp-Luby trials draw
//     coverage from Q's clauses as usual, but a trial only counts when the
//     sampled world also satisfies C (a conditioned/rejecting sampler).
//     Either value divides by the store's exactly-known P(C), preserving
//     the (ε,δ) relative-error guarantee.
//   - Marginals (tconf(), esum(), ecount()): the per-tuple posterior
//     P(cond ∧ C)/P(C), with a fast path returning the plain prior product
//     when the tuple's condition shares no variables with the evidence.
//
// Every function here is a pure function of (lineage, store, world table,
// options[, seed]) — bit-identical across thread counts.
#pragma once

#include "src/cond/constraint_store.h"
#include "src/common/result.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"
#include "src/lineage/dnf.h"
#include "src/prob/world_table.h"

namespace maybms {

/// Exact posterior P(query | C). With an inactive store this is exactly
/// ExactConfidence(query).
Result<double> PosteriorExactConfidence(const Dnf& query,
                                        const ConstraintStore& store,
                                        const WorldTable& wt,
                                        const ExactOptions& options,
                                        ThreadPool* pool);

/// (ε,δ)-approximate posterior P(query | C) through the aconf front end
/// (src/conf/montecarlo.h) on P(Q ∧ C): the kind-2 cache, then a bounded
/// exact attempt on the Q ∧ C product (bit-identical to
/// PosteriorExactConfidence when it fits), then the conditioned sampler on
/// ConditionedLineage. The result is a pure function of (query, store,
/// base_seed) — identical at any thread count.
Result<MonteCarloResult> PosteriorApproxConfidenceSeeded(
    const Dnf& query, const ConstraintStore& store, const WorldTable& wt,
    double epsilon, double delta, uint64_t base_seed,
    const MonteCarloOptions& options, ThreadPool* pool);

/// Q's clauses followed by C's as one compiled lineage: the input of the
/// conditioned Karp-Luby sampler, with the first query.NumClauses()
/// clauses as the query prefix. Requires an active store.
CompiledDnf ConditionedLineage(const Dnf& query, const ConstraintStore& store,
                               const WorldTable& wt);

/// Posterior marginal of a single conjunctive condition — the conditioned
/// tconf()/esum()/ecount() kernel. With an inactive store this is exactly
/// the prior product wt.ConditionProb(...).
Result<double> PosteriorConditionProb(const Atom* atoms, size_t n,
                                      const ConstraintStore& store,
                                      const WorldTable& wt,
                                      const ExactOptions& options);

}  // namespace maybms
