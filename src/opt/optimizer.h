// Cost-based plan optimizer between binder and executor: join-order
// enumeration over snapshot-derived statistics (src/opt/stats.h), predicate
// pushdown through the reordered tree, and annotated semijoin reduction
// (Kolaitis, "Semijoins of Annotated Relations") that shrinks join inputs —
// and with them the condition columns every downstream confidence solver
// sees — before the full hash join runs.
//
// The cost model charges each intermediate both its estimated rows and its
// estimated lineage width (condition atoms per row): uncertain relations'
// intermediates cost more, because every extra row grows the DNF the
// exact/d-tree/Karp-Luby solvers must chew through later.
//
// Determinism / bit-identity: the optimized plan produces the same answer
// multiset as the translated plan, with bit-identical conf()/aconf()/
// tconf() values — the executor canonicalizes per-group clause order at the
// confidence funnels (a joined row's condition CONTENT is merge-order
// invariant; only the clause-list order could differ, and the funnels sort
// it), serial aconf() samples on lineage-content-derived seeds, and join
// regions containing repair-key/pick-tuples are never reordered (variable
// minting order is engine-observable state).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/opt/stats.h"
#include "src/plan/logical_plan.h"

namespace maybms {

struct ExecOptions;
class IndexManager;  // src/index/index_manager.h

/// Counters the session folds into the metrics registry (opt.*).
struct OptimizerCounters {
  uint64_t plans_considered = 0;    ///< candidate join extensions costed
  uint64_t reorders_applied = 0;    ///< regions rebuilt in a new order
  uint64_t semijoins_inserted = 0;  ///< SemiJoinReduce operators inserted
  uint64_t semijoins_skipped = 0;   ///< eligible reducers rejected by cost
  uint64_t index_scans = 0;         ///< Filter(Scan) sites given an index path
};

/// Join-order enumerator inputs, exposed for unit tests.
struct JoinLeafInfo {
  double rows = 1;   ///< estimated rows out of the leaf
  double width = 0;  ///< estimated condition atoms per row (lineage width)
};
struct JoinEdgeInfo {
  size_t a = 0;            ///< leaf indices the predicate connects
  size_t b = 0;
  double selectivity = 1;  ///< estimated selectivity of the predicate
};

/// Chooses a left-deep join order: exhaustive DP over subsets for up to 8
/// leaves, greedy beyond (or when forced). Deterministic: ties break toward
/// the syntactic order. Returns the leaf indices in join order.
std::vector<size_t> ChooseJoinOrder(const std::vector<JoinLeafInfo>& leaves,
                                    const std::vector<JoinEdgeInfo>& edges,
                                    bool force_greedy = false,
                                    uint64_t* plans_considered = nullptr);

/// Optimizes a bound plan in place (no-op when options.optimizer is off or
/// the plan is null). `stats` may be null — estimation then falls back to
/// coarse defaults and only structural rewrites with sure wins apply.
/// `indexes` (the catalog's secondary-index registry) enables the final
/// access-path pass: Filter(Scan) sites whose predicate bounds an indexed
/// column become Filter(IndexScan) when the cost model (tree height +
/// estimated matching rows vs. a full scan) clearly favors it. The filter
/// keeps its FULL predicate and re-checks every candidate, so the rewrite
/// never changes answers. Null `indexes` — or options.use_indexes = false —
/// skips the pass entirely.
Status OptimizePlan(PlanNodePtr* plan, StatsCache* stats,
                    const ExecOptions& options, OptimizerCounters* counters,
                    IndexManager* indexes = nullptr);

}  // namespace maybms
