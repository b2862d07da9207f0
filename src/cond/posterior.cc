#include "src/cond/posterior.h"

#include <algorithm>

namespace maybms {

namespace {

/// Flattened-product budget: beyond |Q|·|C| merges of this many surviving
/// clauses, exact posterior switches to the inclusion-exclusion identity.
constexpr size_t kMaxProductClauses = 1u << 16;

double Clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

/// Appends the merge of two sorted atom lists to `atoms` as one clause of
/// the CSR under construction. Returns false (rolling the emit back) on a
/// conflict — the clause pair is inconsistent and drops out.
bool EmitMerge(const Atom* a, size_t na, const Atom* b, size_t nb,
               std::vector<Atom>* atoms, std::vector<uint32_t>* offsets) {
  size_t start = atoms->size();
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i].var < b[j].var) {
      atoms->push_back(a[i++]);
    } else if (b[j].var < a[i].var) {
      atoms->push_back(b[j++]);
    } else {
      if (a[i].asg != b[j].asg) {
        atoms->resize(start);
        return false;
      }
      atoms->push_back(a[i++]);
      ++j;
    }
  }
  atoms->insert(atoms->end(), a + i, a + na);
  atoms->insert(atoms->end(), b + j, b + nb);
  offsets->push_back(static_cast<uint32_t>(atoms->size()));
  return true;
}

/// Q ∧ C distributed into a CSR clause list of pairwise merges against the
/// store's cached compiled evidence (no intermediate Condition/Dnf heaps —
/// the same clause multiset ProductDnf used to build, so the compiled
/// product is bit-identical). Returns false when the product would exceed
/// `budget` clauses.
bool ProductCsr(const Dnf& query, const CompiledEvidence& ev, size_t budget,
                std::vector<Atom>* atoms, std::vector<uint32_t>* offsets) {
  offsets->push_back(0);
  for (const Condition& q : query.clauses()) {
    for (size_t c = 0; c < ev.NumClauses(); ++c) {
      if (EmitMerge(q.atoms().data(), q.atoms().size(), ev.ClauseAtoms(c),
                    ev.ClauseSize(c), atoms, offsets)) {
        if (offsets->size() - 1 > budget) return false;
      }
    }
  }
  return true;
}

/// True iff P(query ∧ C) > 0: some (query clause, constraint clause) pair
/// merges consistently with all-positive atom probabilities. Guards the
/// samplers against a zero-mean trial stream that would never terminate.
bool ConjunctionPositive(const Dnf& query, const ConstraintStore& store,
                         const WorldTable& wt) {
  for (const Condition& q : query.clauses()) {
    if (store.CompatiblePositive(q, wt)) return true;
  }
  return false;
}

bool SharesVariables(const Dnf& query, const ConstraintStore& store) {
  for (const Condition& q : query.clauses()) {
    for (const Atom& a : q.atoms()) {
      if (store.MentionsVar(a.var)) return true;
    }
  }
  return false;
}

}  // namespace

Result<double> PosteriorExactConfidence(const Dnf& query,
                                        const ConstraintStore& store,
                                        const WorldTable& wt,
                                        const ExactOptions& options,
                                        ThreadPool* pool) {
  if (!store.active()) return ExactConfidence(query, wt, options, nullptr, pool);
  if (query.IsEmpty()) return 0.0;
  if (query.HasEmptyClause()) return 1.0;  // P(C|C) = 1
  // Independent lineage: P(Q ∧ C) = P(Q)·P(C), posterior is the prior.
  if (!SharesVariables(query, store)) {
    return ExactConfidence(query, wt, options, nullptr, pool);
  }
  const CompiledEvidence& ev = *store.compiled();
  double p_and;
  std::vector<Atom> atoms;
  std::vector<uint32_t> offsets;
  if (ProductCsr(query, ev, kMaxProductClauses, &atoms, &offsets)) {
    if (offsets.size() == 1) return 0.0;  // every pairwise merge conflicted
    MAYBMS_ASSIGN_OR_RETURN(
        p_and,
        ExactConfidence(CompiledDnf(atoms.data(), offsets.data(),
                                    offsets.size() - 1, wt),
                        wt, options, nullptr, pool));
  } else {
    // Product too large: P(Q ∧ C) = P(Q) + P(C) − P(Q ∨ C). The choice
    // depends only on clause counts, so it is identical across thread
    // counts. Caveat: the subtraction carries an absolute error
    // floor of ~1e-16, so when the true conjunction probability is many
    // orders below P(Q)/P(C) this path loses relative precision (down to
    // reporting 0 for a tiny positive posterior) — the cancellation-free
    // product path is primary for exactly this reason, and only lineages
    // past the 2^16-merged-clause budget ever land here.
    MAYBMS_ASSIGN_OR_RETURN(double p_q,
                            ExactConfidence(query, wt, options, nullptr, pool));
    Dnf either = query;
    for (const Condition& c : store.clauses()) either.AddClause(c);
    MAYBMS_ASSIGN_OR_RETURN(double p_or,
                            ExactConfidence(either, wt, options, nullptr, pool));
    p_and = p_q + store.probability() - p_or;
  }
  return Clamp01(p_and / store.probability());
}

Result<double> PosteriorConditionProb(const Atom* atoms, size_t n,
                                      const ConstraintStore& store,
                                      const WorldTable& wt,
                                      const ExactOptions& options) {
  if (!store.active()) return wt.ConditionProb(atoms, n);
  bool overlap = false;
  for (size_t i = 0; i < n && !overlap; ++i) overlap = store.MentionsVar(atoms[i].var);
  // Independent of the evidence: posterior equals the prior product,
  // bit-for-bit the unconditioned computation.
  if (!overlap) return wt.ConditionProb(atoms, n);
  // cond ∧ C merged straight against the cached evidence spans.
  const CompiledEvidence& ev = *store.compiled();
  std::vector<Atom> product_atoms;
  std::vector<uint32_t> product_offsets;
  product_offsets.push_back(0);
  for (size_t c = 0; c < ev.NumClauses(); ++c) {
    EmitMerge(atoms, n, ev.ClauseAtoms(c), ev.ClauseSize(c), &product_atoms,
              &product_offsets);
  }
  if (product_offsets.size() == 1) return 0.0;
  // Per-row marginals stay serial (pool = nullptr): callers already run
  // them inside morsel- or group-parallel regions, and ExactConfidence is
  // bit-identical with or without a pool.
  MAYBMS_ASSIGN_OR_RETURN(
      double p_and,
      ExactConfidence(CompiledDnf(product_atoms.data(), product_offsets.data(),
                                  product_offsets.size() - 1, wt),
                      wt, options, nullptr, nullptr));
  return Clamp01(p_and / store.probability());
}

CompiledDnf ConditionedLineage(const Dnf& query, const ConstraintStore& store,
                               const WorldTable& wt) {
  const CompiledEvidence& ev = *store.compiled();
  std::vector<Atom> atoms;
  std::vector<uint32_t> offsets;
  offsets.push_back(0);
  for (const Condition& q : query.clauses()) {
    atoms.insert(atoms.end(), q.atoms().begin(), q.atoms().end());
    offsets.push_back(static_cast<uint32_t>(atoms.size()));
  }
  atoms.insert(atoms.end(), ev.atoms.begin(), ev.atoms.end());
  for (size_t c = 1; c <= ev.NumClauses(); ++c) {
    offsets.push_back(static_cast<uint32_t>(atoms.size()) -
                      static_cast<uint32_t>(ev.atoms.size()) + ev.offsets[c]);
  }
  return CompiledDnf(atoms.data(), offsets.data(), offsets.size() - 1, wt);
}

Result<MonteCarloResult> PosteriorApproxConfidenceSeeded(
    const Dnf& query, const ConstraintStore& store, const WorldTable& wt,
    double epsilon, double delta, uint64_t base_seed,
    const MonteCarloOptions& options, ThreadPool* pool) {
  if (!store.active() || !SharesVariables(query, store)) {
    return ApproxConfidenceSeeded(CompiledDnf(query, wt), epsilon, delta,
                                  base_seed, options, pool);
  }
  MonteCarloResult result;
  if (query.IsEmpty()) return result;  // estimate 0
  if (query.HasEmptyClause()) {
    result.estimate = 1;  // P(C|C) = 1
    return result;
  }
  // Q ∧ C unsatisfiable: the sampler's trial mean would be 0.
  if (!ConjunctionPositive(query, store, wt)) return result;
  // The front end caches and samples P(Q ∧ C) over the combined lineage;
  // its exact attempt is the product path of PosteriorExactConfidence
  // under the attempt's budget rule. Products past the clause budget go
  // straight to sampling.
  const CompiledEvidence& ev = *store.compiled();
  MAYBMS_ASSIGN_OR_RETURN(
      MonteCarloResult mc,
      ExactFirstConfidence(
          ConditionedLineage(query, store, wt), query.NumClauses(), epsilon,
          delta, base_seed, options, pool,
          [&](const CompiledDnf&) -> Result<double> {
            std::vector<Atom> atoms;
            std::vector<uint32_t> offsets;
            if (!ProductCsr(query, ev, kMaxProductClauses, &atoms, &offsets)) {
              return Status::OutOfRange("Q ∧ C product over the clause budget");
            }
            return BoundedExactConfidence(CompiledDnf(
                atoms.data(), offsets.data(), offsets.size() - 1, wt));
          }));
  mc.estimate = Clamp01(mc.estimate / store.probability());
  return mc;
}

}  // namespace maybms
