#include "src/conf/karp_luby.h"

#include <algorithm>

namespace maybms {

KarpLubyEstimator::KarpLubyEstimator(const Dnf& dnf, const WorldTable& wt)
    : dnf_(dnf, wt), num_coverage_(dnf_.original_clauses().size()) {
  Init();
}

KarpLubyEstimator::KarpLubyEstimator(CompiledDnf dnf, size_t num_query_clauses)
    : dnf_(std::move(dnf)),
      num_coverage_(std::min(num_query_clauses, dnf_.original_clauses().size())) {
  Init();
}

void KarpLubyEstimator::Init() {
  const std::vector<ClauseId>& clauses = dnf_.original_clauses();
  const bool constrained = num_coverage_ < clauses.size();
  if (num_coverage_ == 0) {
    trivial_ = true;
    trivial_probability_ = 0;
    return;
  }
  if (!constrained) {
    // An empty clause makes the (unconditioned) DNF valid. Conditioned
    // estimators skip this shortcut: an always-true query clause still
    // requires the sampled world to satisfy the constraint.
    for (ClauseId id : clauses) {
      if (dnf_.ClauseSize(id) == 0) {
        trivial_ = true;
        trivial_probability_ = 1;
        return;
      }
    }
  }
  cumulative_.reserve(num_coverage_);
  double acc = 0;
  for (size_t i = 0; i < num_coverage_; ++i) {
    acc += dnf_.ClauseProb(clauses[i]);
    cumulative_.push_back(acc);
  }
  total_weight_ = acc;
  // Size the world array before any early return: Trial() on a trivial
  // estimator is a contract violation, but it must not scribble past an
  // empty vector (the old map-based sampling was memory-safe there too).
  scratch_.world.assign(dnf_.NumVars(), 0);
  if (total_weight_ <= 0) {
    trivial_ = true;
    trivial_probability_ = 0;
    return;
  }
  BuildKernels();
}

void KarpLubyEstimator::BuildKernels() {
  const std::vector<ClauseId>& clauses = dnf_.original_clauses();
  // Flatten clause atoms by position so the trial scan walks one packed
  // array in stream order instead of chasing clause ids.
  pos_off_.reserve(clauses.size() + 1);
  pos_off_.push_back(0);
  coverage_width1_ = true;
  for (size_t j = 0; j < clauses.size(); ++j) {
    AtomSpan span = dnf_.Clause(clauses[j]);
    pos_atoms_.insert(pos_atoms_.end(), span.begin(), span.end());
    pos_off_.push_back(static_cast<uint32_t>(pos_atoms_.size()));
    if (j < num_coverage_ && span.size != 1) coverage_width1_ = false;
  }
  if (coverage_width1_) {
    w1_atoms_.reserve(num_coverage_);
    for (size_t j = 0; j < num_coverage_; ++j) {
      const Atom& a = pos_atoms_[pos_off_[j]];
      w1_atoms_.push_back(static_cast<uint64_t>(a.asg) << 32 | a.var);
    }
  }
  // Per-variable cumulative distributions: cum[k] = probs[0] + … + probs[k]
  // accumulated left to right — bit-equal to a running-sum inverse-CDF
  // draw, so u maps to the identical assignment.
  size_t n_vars = dnf_.NumVars();
  var_cum_off_.reserve(n_vars + 1);
  var_cum_off_.push_back(0);
  for (size_t v = 0; v < n_vars; ++v) {
    const double* probs = dnf_.VarProbs(static_cast<LocalVar>(v));
    uint32_t domain = dnf_.DomainSize(static_cast<LocalVar>(v));
    double cdf = 0;
    for (uint32_t k = 0; k + 1 < domain; ++k) {
      cdf += probs[k];
      var_cum_.push_back(cdf);
    }
    var_cum_off_.push_back(static_cast<uint32_t>(var_cum_.size()));
  }
  // Clause-selection buckets: sel_start_[b] lower-bounds the scan for any
  // u in bucket b. The runtime correction loops make selection exact even
  // under floating-point bucket rounding, so this is pure acceleration.
  size_t buckets = 16;
  while (buckets < 2 * num_coverage_ && buckets < (1u << 20)) buckets *= 2;
  sel_scale_ = static_cast<double>(buckets) / total_weight_;
  sel_start_.reserve(buckets);
  size_t j = 0;
  for (size_t b = 0; b < buckets; ++b) {
    double threshold = static_cast<double>(b) / sel_scale_;
    while (j < cumulative_.size() && cumulative_[j] < threshold) ++j;
    sel_start_.push_back(static_cast<uint32_t>(j));
  }
}

size_t KarpLubyEstimator::SelectClause(double u) const {
  // Exact lower bound (first i with cumulative_[i] >= u), bucket-started.
  const double* cum = cumulative_.data();
  const size_t n = cumulative_.size();
  size_t b = static_cast<size_t>(u * sel_scale_);
  if (b >= sel_start_.size()) b = sel_start_.size() - 1;
  size_t i = sel_start_[b];
  while (i < n && cum[i] < u) ++i;
  while (i > 0 && !(cum[i - 1] < u)) --i;  // fp bucket-rounding correction
  if (i >= n) i = n - 1;  // same clamp as a plain lower_bound
  return i;
}

uint64_t KarpLubyEstimator::BeginTrial(size_t num_vars,
                                       KarpLubyScratch* scratch) {
  if (scratch->world.size() != num_vars) {
    scratch->world.assign(num_vars, 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // 2^32-trial wraparound: flush stale tags
    std::fill(scratch->world.begin(), scratch->world.end(), 0);
    scratch->epoch = 1;
  }
  return static_cast<uint64_t>(scratch->epoch) << 32;
}

AsgId KarpLubyEstimator::SampleVar(LocalVar var, uint64_t tag, Rng* rng,
                                   KarpLubyScratch* scratch) const {
  // Inverse-CDF draw over the precomputed partial sums; identical
  // comparisons to a running-sum inverse-CDF loop.
  double u = rng->NextDouble();
  const double* cum = var_cum_.data() + var_cum_off_[var];
  uint32_t points = var_cum_off_[var + 1] - var_cum_off_[var];  // domain − 1
  AsgId a = points;  // defaults to domain − 1
  for (uint32_t k = 0; k < points; ++k) {
    if (u < cum[k]) {
      a = static_cast<AsgId>(k);
      break;
    }
  }
  scratch->world[var] = tag | a;
  return a;
}

AsgId KarpLubyEstimator::AssignmentOf(LocalVar var, uint64_t tag, Rng* rng,
                                      KarpLubyScratch* scratch) const {
  uint64_t w = scratch->world[var];
  if ((w & 0xffffffff00000000ull) == tag) return static_cast<AsgId>(w);
  return SampleVar(var, tag, rng, scratch);
}

bool KarpLubyEstimator::Trial(Rng* rng) const { return Trial(rng, &scratch_); }

bool KarpLubyEstimator::Trial(Rng* rng, KarpLubyScratch* scratch) const {
  const uint64_t tag = BeginTrial(dnf_.NumVars(), scratch);
  // Sample clause index i proportional to its marginal probability.
  double u = rng->NextDouble() * total_weight_;
  size_t i = SelectClause(u);

  // Sample a world conditioned on clause i: its atoms are fixed; all other
  // variables follow their prior, sampled lazily on demand.
  uint64_t* world = scratch->world.data();
  for (uint32_t p = pos_off_[i]; p < pos_off_[i + 1]; ++p) {
    const Atom& a = pos_atoms_[p];
    world[a.var] = tag | a.asg;
  }

  // Z = 1 iff no earlier clause is satisfied by the sampled world (clause i
  // is satisfied by construction, so i is then the minimal satisfying
  // index — the canonical-cover trick making trials unbiased).
  if (coverage_width1_) {
    // Single-atom coverage clauses: one packed word per clause, no inner
    // loop. The world is consulted (and lazily drawn) in exactly the
    // plain loop's order.
    const uint64_t* atoms = w1_atoms_.data();
    for (size_t j = 0; j < i; ++j) {
      uint64_t packed = atoms[j];
      LocalVar v = static_cast<LocalVar>(packed);
      uint64_t w = world[v];
      AsgId a = (w & 0xffffffff00000000ull) == tag
                    ? static_cast<AsgId>(w)
                    : SampleVar(v, tag, rng, scratch);
      if (a == static_cast<AsgId>(packed >> 32)) return false;
    }
  } else {
    for (size_t j = 0; j < i; ++j) {
      bool satisfied = true;
      for (uint32_t p = pos_off_[j]; p < pos_off_[j + 1]; ++p) {
        const Atom& a = pos_atoms_[p];
        if (AssignmentOf(a.var, tag, rng, scratch) != a.asg) {
          satisfied = false;
          break;
        }
      }
      if (satisfied) return false;
    }
  }
  const size_t num_clauses = pos_off_.size() - 1;
  if (num_coverage_ == num_clauses) return true;
  // Conditioned trial: the world (still lazily extended from the prior for
  // variables no clause has touched yet) must also satisfy the constraint
  // disjunction, else the trial is rejected (Z = 0). The suffix reads the
  // compiled evidence straight from the flattened atom arrays.
  for (size_t j = num_coverage_; j < num_clauses; ++j) {
    bool satisfied = true;
    for (uint32_t p = pos_off_[j]; p < pos_off_[j + 1]; ++p) {
      const Atom& a = pos_atoms_[p];
      if (AssignmentOf(a.var, tag, rng, scratch) != a.asg) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) return true;
  }
  return false;
}

}  // namespace maybms
