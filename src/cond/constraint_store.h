// The constraint store: the evidence half of the conditioning subsystem
// (Koch & Olteanu, "Conditioning Probabilistic Databases", VLDB 2008 — the
// companion work the paper's §2.3 confidence algorithms come from).
//
// `ASSERT <query>` accumulates evidence: the event "the query has at least
// one answer", whose lineage is a DNF over the world table's independent
// random variables. The store keeps the CONJUNCTION of all asserted events
// flattened into a single canonical DNF (pairwise clause merge, duplicate
// and subsumed-clause elimination — the same parsimonious machinery as the
// join translation), together with its exactly-computed probability P(C).
// Every subsequent conf()/aconf()/tconf() answer is the posterior
// P(Q ∧ C)/P(C) (see src/cond/posterior.h); world pruning substitutes
// fully-determined variables back into the stored U-relations
// (src/cond/prune.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/lineage/dnf.h"
#include "src/lineage/dtree.h"
#include "src/prob/world_table.h"

namespace maybms {

/// The restriction the evidence places on one random variable: `var` takes
/// a value in `allowed` in every world satisfying the constraint. Only
/// variables mentioned in *every* clause are restricted (a clause that does
/// not mention the variable imposes nothing).
struct VarRestriction {
  VarId var = 0;
  std::vector<AsgId> allowed;  ///< sorted, distinct; singleton = determined
};

/// The compiled form of the evidence, cached on the store and rebuilt only
/// when the evidence itself changes (ASSERT / CONDITION ON / CLEAR
/// EVIDENCE / pruning substitution). Posterior conf()/aconf()/tconf()
/// calls read these instead of re-flattening and re-compiling C per call:
///   - `atoms`/`offsets`: the flattened clauses as one CSR atom array over
///     GLOBAL variable ids — the Q ∧ C product and Q+C combined lineage
///     merge directly against these spans, skipping the per-call
///     Condition/Dnf heap churn;
///   - `tree`: the evidence d-tree — compiling it IS how the store
///     computes P(C) (the cached root value), so the cache costs no extra
///     solve;
///   - `restrictions`/`determined`: the per-variable restriction map and
///     its singleton (fully-determined) atoms, precomputed once for the
///     pruning pass and the marginal fast paths.
struct CompiledEvidence {
  std::vector<Atom> atoms;
  std::vector<uint32_t> offsets;  ///< size NumClauses()+1
  DTree tree;
  std::vector<VarRestriction> restrictions;
  std::vector<Atom> determined;

  size_t NumClauses() const { return offsets.size() - 1; }
  const Atom* ClauseAtoms(size_t c) const { return atoms.data() + offsets[c]; }
  size_t ClauseSize(size_t c) const { return offsets[c + 1] - offsets[c]; }
};

/// Accumulated evidence C as interned, flattened DNF lineage. Inactive
/// (C ≡ true, P(C) = 1) until the first successful Conjoin.
class ConstraintStore {
 public:
  /// False while no evidence is asserted (C ≡ true).
  bool active() const { return !clauses_.empty(); }

  /// The flattened evidence clauses (disjunction), canonical order:
  /// deduplicated, absorption-reduced, stable across sessions.
  const std::vector<Condition>& clauses() const { return clauses_; }
  size_t NumClauses() const { return clauses_.size(); }

  /// Exact P(C) under the current world table; 1 when inactive.
  double probability() const { return prob_; }

  /// Distinct variables mentioned by the constraint, sorted.
  const std::vector<VarId>& variables() const { return vars_; }
  bool MentionsVar(VarId var) const;

  /// Per-variable restriction map: variables bound in every clause, with
  /// the assignments the evidence still allows. Served from the compiled
  /// cache when available.
  std::vector<VarRestriction> Restrictions() const;

  /// Atoms fixed by the evidence: restrictions whose allowed set is a
  /// singleton. These are the substitution candidates for world pruning.
  std::vector<Atom> DeterminedAtoms() const;

  /// The compiled evidence (CSR clause atoms, d-tree, restriction maps);
  /// null iff the store is inactive. Invalidated and rebuilt on every
  /// successful mutation (Conjoin / Substitute / Load / Clear).
  const CompiledEvidence* compiled() const { return compiled_.get(); }

  /// Conjoins one more evidence event (a DNF — the lineage of an ASSERT
  /// query's result) into the store: C := C ∧ evidence, flattened by
  /// pairwise clause merge with inconsistent pairs dropped, then
  /// simplified. Recomputes P(C) exactly. If the combined evidence is
  /// inconsistent (P(C) = 0) or the flattened form exceeds the clause
  /// budget, the store is left UNCHANGED and a non-OK Status is returned.
  Status Conjoin(const Dnf& evidence, const WorldTable& wt,
                 const ExactOptions& exact);

  /// Substitutes determined atoms var := asg into the constraint (the
  /// pruning pass has folded them into the database): matching atoms are
  /// removed from every clause; a clause shrinking to empty makes C true
  /// and deactivates the store. P(C) is recomputed once at the end.
  Status Substitute(const std::vector<Atom>& determined, const WorldTable& wt,
                    const ExactOptions& exact);

  /// Drops all evidence (C ≡ true). Pruned rows are not resurrected:
  /// evidence already substituted into the database stays materialized.
  void Clear();

  /// Replaces the store's contents wholesale (persistence restore).
  /// Clauses are simplified and P(C) recomputed; rejects P(C) = 0.
  Status Load(std::vector<Condition> clauses, const WorldTable& wt,
              const ExactOptions& exact);

  /// True iff `cond ∧ C` is satisfiable with positive probability — i.e.
  /// some clause of C merges consistently with `cond` and every atom of
  /// the merge has positive prior probability. With no evidence this is
  /// exactly P(cond) > 0. The `possible` operator's filter under evidence.
  bool CompatiblePositive(const Condition& cond, const WorldTable& wt) const;
  bool CompatiblePositive(const Atom* atoms, size_t n, const WorldTable& wt) const;

  /// "{x0->1} ∨ {x2->0, x3->1}" (or "true" when inactive) — introspection.
  std::string ToString() const;

 private:
  /// Absorption pass over deduped, sorted clauses (quadratic; callers
  /// enforce the clause budget first).
  static void Simplify(std::vector<Condition>* clauses);
  Status CommitClauses(std::vector<Condition> clauses, const WorldTable& wt,
                       const ExactOptions& exact, const char* what);
  void RebuildVariables();
  std::vector<VarRestriction> ComputeRestrictions() const;

  std::vector<Condition> clauses_;
  std::vector<VarId> vars_;  // sorted distinct
  std::shared_ptr<const CompiledEvidence> compiled_;  // null iff inactive
  double prob_ = 1.0;
  /// Flattened-DNF growth budget: Conjoin refuses (leaving the store
  /// unchanged) rather than let pathological evidence blow up the product.
  size_t max_clauses_ = 4096;
};

}  // namespace maybms
