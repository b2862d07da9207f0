// Exact confidence computation (paper §2.3, citing Koch & Olteanu,
// "Conditioning Probabilistic Databases", VLDB 2008).
//
// Given a DNF whose clauses are conjunctive local conditions, the
// probability is computed by applying
//   (1) DECOMPOSITION of the DNF into independent subsets of clauses
//       (subsets that do not share variables): the probabilities combine as
//       P = 1 - Π(1 - P_i);
//   (2) INDEPENDENT-AND factorisation of a connected DNF that is the cross
//       product of two DNFs over disjoint variables: P = P_1 · P_2 (the ⊙
//       node of Olteanu, Huang & Koch's d-trees, ICDE 2010); and
//   (3) VARIABLE ELIMINATION (Shannon expansion over the assignments of one
//       variable): P = Σ_a P(x=a)·P(DNF | x:=a) + P(other)·P(DNF \ x),
// with cost-estimation heuristics for choosing which variable to eliminate.
//
// The rule applications are recorded by the d-tree KNOWLEDGE COMPILER
// (src/lineage/dtree.h) as a hash-consed decomposition tree whose
// bottom-up evaluation is the probability. This file adds the
// cross-statement compilation cache and its component-level reuse on top.
//
// ExactOptions / ExactStats / EliminationHeuristic live in
// src/lineage/dtree.h (the compilation layer) and are re-exported here.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/lineage/compiled_dnf.h"
#include "src/lineage/dnf.h"
#include "src/lineage/dtree.h"
#include "src/prob/world_table.h"

namespace maybms {

class ThreadPool;

/// Computes P(dnf) exactly. Returns OutOfRange if the `max_steps` node
/// budget is hit.
///
/// With a non-null `pool`, the root-level DECOMPOSITION step fans its
/// variable-connected components out across threads: each component gets a
/// private compiler (own hash-cons table, own scratch, own copy of the
/// clause store) and the component probabilities fold as
/// P = 1 − Π(1 − P_i) in component order — the same arithmetic, in the
/// same order, as the serial pass, so the returned probability is
/// bit-identical at any thread count (including pool == nullptr).
/// `max_steps` keeps its cumulative meaning: the parallel shards share one
/// step budget, so the budget outcome is deterministic at any pool size.
/// (Near the exact budget boundary the parallel mode may count slightly
/// differently from serial — per-shard private caches cross fill caps at
/// different points — but for a fixed mode the outcome never varies.)
Result<double> ExactConfidence(const Dnf& dnf, const WorldTable& wt,
                               const ExactOptions& options = {},
                               ExactStats* stats = nullptr,
                               ThreadPool* pool = nullptr);

/// Same, over pre-compiled lineage (the batch engine builds CompiledDnf
/// straight from condition-column spans; probabilities were captured at
/// compile time). `wt` MUST be the world table `dnf` was compiled against:
/// its version() is the probability axis of the compilation-cache key
/// (ExactOptions::cache; see src/lineage/dtree_cache.h).
Result<double> ExactConfidence(CompiledDnf dnf, const WorldTable& wt,
                               const ExactOptions& options = {},
                               ExactStats* stats = nullptr,
                               ThreadPool* pool = nullptr);

}  // namespace maybms
