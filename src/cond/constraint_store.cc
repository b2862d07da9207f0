#include "src/cond/constraint_store.h"

#include <algorithm>

#include "src/common/str_util.h"
#include "src/lineage/compiled_dnf.h"

namespace maybms {

namespace {

/// Walks two sorted atom lists as a conjunction: returns false on a
/// conflict (same variable, different assignment); otherwise feeds every
/// atom of the merge to `emit`.
template <typename Emit>
bool MergeAtoms(const Atom* a, size_t na, const Atom* b, size_t nb, Emit&& emit) {
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i].var < b[j].var) {
      emit(a[i++]);
    } else if (b[j].var < a[i].var) {
      emit(b[j++]);
    } else {
      if (a[i].asg != b[j].asg) return false;
      emit(a[i++]);
      ++j;
    }
  }
  while (i < na) emit(a[i++]);
  while (j < nb) emit(b[j++]);
  return true;
}

}  // namespace

bool ConstraintStore::MentionsVar(VarId var) const {
  return std::binary_search(vars_.begin(), vars_.end(), var);
}

std::vector<VarRestriction> ConstraintStore::Restrictions() const {
  if (compiled_ != nullptr) return compiled_->restrictions;
  return ComputeRestrictions();
}

std::vector<VarRestriction> ConstraintStore::ComputeRestrictions() const {
  std::vector<VarRestriction> out;
  if (clauses_.empty()) return out;
  // Candidates: the first clause's variables; survivors must be bound in
  // every later clause too.
  for (const Atom& a : clauses_.front().atoms()) {
    out.push_back(VarRestriction{a.var, {a.asg}});
  }
  for (size_t c = 1; c < clauses_.size() && !out.empty(); ++c) {
    std::vector<VarRestriction> kept;
    kept.reserve(out.size());
    for (VarRestriction& r : out) {
      std::optional<AsgId> asg = clauses_[c].Lookup(r.var);
      if (!asg) continue;  // clause leaves the variable free: unrestricted
      if (!std::binary_search(r.allowed.begin(), r.allowed.end(), *asg)) {
        r.allowed.insert(
            std::upper_bound(r.allowed.begin(), r.allowed.end(), *asg), *asg);
      }
      kept.push_back(std::move(r));
    }
    out = std::move(kept);
  }
  return out;
}

std::vector<Atom> ConstraintStore::DeterminedAtoms() const {
  if (compiled_ != nullptr) return compiled_->determined;
  std::vector<Atom> out;
  for (const VarRestriction& r : Restrictions()) {
    if (r.allowed.size() == 1) out.push_back(Atom{r.var, r.allowed.front()});
  }
  return out;
}

// Compiles the candidate clause list into the evidence cache WITHOUT
// touching the store: the d-tree doubles as the P(C) computation (its
// root value, by the bit-identity contract, is exactly what the solver
// returns), so CommitClauses builds the cache first, validates the
// probability, and only then installs both. The caller's ExactOptions
// govern the compile — the node budget still bounds pathological
// evidence.
Result<std::shared_ptr<CompiledEvidence>> BuildCompiledEvidence(
    const std::vector<Condition>& clauses, const WorldTable& wt,
    const ExactOptions& exact) {
  auto compiled = std::make_shared<CompiledEvidence>();
  compiled->offsets.reserve(clauses.size() + 1);
  compiled->offsets.push_back(0);
  for (const Condition& c : clauses) {
    compiled->atoms.insert(compiled->atoms.end(), c.atoms().begin(),
                           c.atoms().end());
    compiled->offsets.push_back(static_cast<uint32_t>(compiled->atoms.size()));
  }
  DTreeCompiler compiler(CompiledDnf(compiled->atoms.data(),
                                     compiled->offsets.data(), clauses.size(),
                                     wt),
                         exact);
  MAYBMS_ASSIGN_OR_RETURN(compiled->tree, compiler.Compile());
  return compiled;
}

void ConstraintStore::Simplify(std::vector<Condition>* clauses) {
  // Absorption elimination: clause B is redundant when some clause A's
  // atoms are a subset of B's (A covers every world B covers). Quadratic —
  // callers dedup and enforce the clause budget first so this is bounded.
  // Mark first, move after: moving a survivor out early would leave an
  // empty (always-true) Condition behind that spuriously subsumes the rest.
  std::vector<uint8_t> subsumed(clauses->size(), 0);
  for (size_t i = 0; i < clauses->size(); ++i) {
    for (size_t j = 0; j < clauses->size(); ++j) {
      if (i == j) continue;
      // Strictly-smaller subsets absorb; equal clauses were deduped above,
      // so equal-sized subsets cannot occur (atoms are var-unique).
      if ((*clauses)[j].NumAtoms() < (*clauses)[i].NumAtoms() &&
          (*clauses)[j].SubsetOf((*clauses)[i])) {
        subsumed[i] = 1;
        break;
      }
    }
  }
  std::vector<Condition> kept;
  kept.reserve(clauses->size());
  for (size_t i = 0; i < clauses->size(); ++i) {
    if (!subsumed[i]) kept.push_back(std::move((*clauses)[i]));
  }
  *clauses = std::move(kept);
}

void ConstraintStore::RebuildVariables() {
  vars_.clear();
  for (const Condition& c : clauses_) {
    for (const Atom& a : c.atoms()) vars_.push_back(a.var);
  }
  std::sort(vars_.begin(), vars_.end());
  vars_.erase(std::unique(vars_.begin(), vars_.end()), vars_.end());
}

Status ConstraintStore::CommitClauses(std::vector<Condition> clauses,
                                      const WorldTable& wt,
                                      const ExactOptions& exact,
                                      const char* what) {
  // Canonical order + dedup (O(n log n)) and the budget check come BEFORE
  // the quadratic absorption pass, so oversized evidence is rejected
  // cheaply instead of after minutes of subset tests.
  std::sort(clauses.begin(), clauses.end());
  clauses.erase(std::unique(clauses.begin(), clauses.end()), clauses.end());
  if (clauses.empty()) {
    return Status::InvalidArgument(StringFormat(
        "inconsistent evidence: %s has probability 0 (no possible world "
        "satisfies it); evidence unchanged", what));
  }
  if (clauses.size() > max_clauses_) {
    return Status::InvalidArgument(StringFormat(
        "evidence too complex: flattened constraint has %zu clauses "
        "(budget %zu); evidence unchanged", clauses.size(), max_clauses_));
  }
  Simplify(&clauses);
  // Quick syntactic satisfiability: over independent variables a consistent
  // clause has positive probability iff every atom does.
  bool positive = false;
  for (const Condition& c : clauses) {
    if (wt.ConditionProb(c) > 0) {
      positive = true;
      break;
    }
  }
  if (!positive) {
    return Status::InvalidArgument(StringFormat(
        "inconsistent evidence: %s has probability 0 (every clause contains "
        "a zero-probability atom); evidence unchanged", what));
  }
  // Compile the evidence d-tree; its root value IS the exact P(C) (clamped
  // like ExactConfidence clamps), so the cache build and the probability
  // computation are one pass.
  MAYBMS_ASSIGN_OR_RETURN(std::shared_ptr<CompiledEvidence> compiled,
                          BuildCompiledEvidence(clauses, wt, exact));
  double p = std::min(1.0, std::max(0.0, compiled->tree.root_value()));
  if (p <= 0) {
    return Status::InvalidArgument(StringFormat(
        "inconsistent evidence: %s has probability 0; evidence unchanged", what));
  }
  clauses_ = std::move(clauses);
  prob_ = p;
  RebuildVariables();
  compiled->restrictions = ComputeRestrictions();
  for (const VarRestriction& r : compiled->restrictions) {
    if (r.allowed.size() == 1) {
      compiled->determined.push_back(Atom{r.var, r.allowed.front()});
    }
  }
  compiled_ = std::move(compiled);
  return Status::OK();
}

Status ConstraintStore::Conjoin(const Dnf& evidence, const WorldTable& wt,
                                const ExactOptions& exact) {
  if (evidence.HasEmptyClause()) return Status::OK();  // C ∧ true = C
  if (evidence.IsEmpty()) {
    return Status::InvalidArgument(
        "inconsistent evidence: asserted query has no possible answers "
        "(probability 0); evidence unchanged");
  }
  std::vector<Condition> flattened;
  if (!active()) {
    flattened = evidence.clauses();
  } else {
    // C ∧ (e1 ∨ ... ∨ ek) distributes into pairwise merges; inconsistent
    // pairs drop out — exactly the parsimonious join translation applied
    // to lineage.
    if (clauses_.size() * evidence.NumClauses() > max_clauses_ * 4) {
      return Status::InvalidArgument(StringFormat(
          "evidence too complex: conjunction would flatten to up to %zu "
          "clauses (budget %zu); evidence unchanged",
          clauses_.size() * evidence.NumClauses(), max_clauses_ * 4));
    }
    flattened.reserve(clauses_.size());
    for (const Condition& have : clauses_) {
      for (const Condition& add : evidence.clauses()) {
        std::optional<Condition> merged = Condition::Merge(have, add);
        if (merged) flattened.push_back(std::move(*merged));
      }
    }
  }
  return CommitClauses(std::move(flattened), wt, exact,
                       "the asserted constraint");
}

Status ConstraintStore::Substitute(const std::vector<Atom>& determined,
                                   const WorldTable& wt,
                                   const ExactOptions& exact) {
  if (determined.empty() || !active()) return Status::OK();
  std::vector<Condition> next;
  next.reserve(clauses_.size());
  for (const Condition& c : clauses_) {
    std::optional<Condition> reduced = c;
    for (const Atom& a : determined) {
      reduced = reduced->Assign(a.var, a.asg);
      if (!reduced) break;  // conflicting clause: covered by the others
    }
    if (!reduced) continue;
    if (reduced->IsTrue()) {
      // A clause shrank to the empty conjunction: the residual constraint
      // is valid — all evidence is now materialized in the database.
      Clear();
      return Status::OK();
    }
    next.push_back(std::move(*reduced));
  }
  return CommitClauses(std::move(next), wt, exact,
                       "the residual constraint");
}

void ConstraintStore::Clear() {
  clauses_.clear();
  vars_.clear();
  compiled_.reset();
  prob_ = 1.0;
}

Status ConstraintStore::Load(std::vector<Condition> clauses, const WorldTable& wt,
                             const ExactOptions& exact) {
  if (clauses.empty()) {
    Clear();
    return Status::OK();
  }
  return CommitClauses(std::move(clauses), wt, exact,
                       "the restored constraint");
}

bool ConstraintStore::CompatiblePositive(const Condition& cond,
                                         const WorldTable& wt) const {
  return CompatiblePositive(cond.atoms().data(), cond.atoms().size(), wt);
}

bool ConstraintStore::CompatiblePositive(const Atom* atoms, size_t n,
                                         const WorldTable& wt) const {
  if (!active()) return wt.ConditionProb(atoms, n) > 0;
  for (const Condition& c : clauses_) {
    double p = 1.0;
    bool consistent = MergeAtoms(
        atoms, n, c.atoms().data(), c.atoms().size(),
        [&](const Atom& a) { p *= wt.AtomProb(a); });
    if (consistent && p > 0) return true;
  }
  return false;
}

std::string ConstraintStore::ToString() const {
  if (!active()) return "true";
  std::string out;
  for (size_t i = 0; i < clauses_.size(); ++i) {
    if (i > 0) out += " ∨ ";
    out += clauses_[i].ToString();
  }
  return out;
}

}  // namespace maybms
