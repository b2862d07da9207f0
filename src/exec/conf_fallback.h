// conf() with the hybrid exact→approximate fallback.
//
// Exact confidence is #P-hard: the d-tree compiler can blow past any node
// budget (ExactOptions::max_steps) on adversarial lineage. With
// ExecOptions::conf_fallback enabled, a conf() group whose compilation
// exceeds the budget falls back to a SEEDED aconf(fallback_epsilon,
// fallback_delta) estimate instead of failing the query; the fallback is
// counted on ExecContext::conf_fallbacks so the engine can attach a
// warning to the result.
//
// Determinism: the fallback runs the aconf front end (src/conf/montecarlo.h)
// with a seed that is a pure function of the group's lineage content (a
// hash over its global-variable atoms), so the fallback answer is
// identical across thread counts, join orders, and sessions.
#pragma once

#include "src/common/result.h"
#include "src/exec/exec_context.h"
#include "src/lineage/dnf.h"
#include "src/types/condition_column.h"

namespace maybms {

class CompiledDnf;

/// Content-derived seed for seeded aconf/fallback estimation: an FNV hash
/// over the lineage's clauses (global-variable atoms, clause-end
/// separators), Mix64-finalized. The aggregate feeds a canonical clause
/// list for each group (sorted by condition), so the seed — and with it
/// the estimate — is thread-count-, join-order- and session-independent,
/// and repeated statements over unchanged lineage reuse their cached
/// estimates (MonteCarloOptions::cache).
uint64_t LineageSeed(const Dnf& dnf);
/// Same hash over compiled lineage: the original clause list in input
/// order with local atoms mapped back to their GLOBAL ids — exactly the
/// byte sequence the Dnf overload hashes.
uint64_t LineageSeed(const CompiledDnf& dnf);

/// Exact (posterior-aware) group confidence with the optional fallback —
/// the conditioned conf() kernel.
Result<double> GroupConfidence(const Dnf& dnf, ExecContext* ctx);

/// Same over packed condition-column spans (the batch engine's
/// unconditioned conf() kernel; compiles straight from the spans).
Result<double> GroupConfidence(const ConditionColumn& conds,
                               const uint32_t* rows, size_t n,
                               ExecContext* ctx);

}  // namespace maybms
