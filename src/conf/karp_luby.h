// The Karp-Luby unbiased estimator for DNF counting, "in a modified version
// adapted to confidence computation in probabilistic databases" (paper
// §2.3, citing [2]).
//
// Coverage construction: let U = Σ_i P(C_i) (clause marginals). A trial
// samples a clause i with probability P(C_i)/U, then samples a world from
// the distribution conditioned on C_i being true. The Bernoulli outcome
// Z = 1 iff i is the *first* clause the world satisfies; E[Z] = P(⋃C_i)/U,
// so U·Z̄ is an unbiased estimate of the confidence.
//
// Trials run on PACKED KERNELS built once per estimator from the compiled
// lineage:
//   - clause atoms are flattened into per-position arrays (no clause-id
//     indirection in the scanning loop), with a dedicated branchless layout
//     when every coverage clause is a single atom — the dominant
//     tuple-level-uncertainty shape;
//   - per-variable cumulative distribution tables replace the inner
//     running-sum inverse-CDF loop (the partial sums are precomputed with
//     the identical left-to-right additions, so every draw maps to the
//     identical assignment);
//   - clause selection runs on a bucket-indexed lower bound over the
//     cumulative weights with an exactness correction, replacing the
//     branchy binary search;
//   - the conditioned rejection check reads the constraint suffix from the
//     same flattened atom arrays (the compiled evidence), not the clause
//     store.
// The kernels consume the SAME RNG draws in the SAME order as the plain
// trial loop (clause selection by lower bound over the cumulative weights,
// then running-sum inverse-CDF draws in scan order): tests/ keeps that
// loop as an oracle and pins Trial() to it outcome for outcome and draw
// for draw.
#pragma once

#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/lineage/compiled_dnf.h"
#include "src/lineage/dnf.h"
#include "src/prob/world_table.h"

namespace maybms {

/// Per-thread trial state: the lazily-sampled world, epoch-stamped per
/// trial. One scratch per concurrent sampling thread lets many threads run
/// Trial() against the same (read-only) estimator. Each entry packs
/// (trial epoch << 32 | assignment) so the hot loop answers "sampled this
/// trial?" and "to what?" with a single load. Epochs start at 1; on the
/// (2^32-trial) wraparound the world resets.
struct KarpLubyScratch {
  std::vector<uint64_t> world;
  uint32_t epoch = 0;
};

/// Reusable trial generator over a fixed DNF.
class KarpLubyEstimator {
 public:
  /// Precomputes clause weights. The DNF must have consistent clauses
  /// (guaranteed for lineage built from Conditions).
  KarpLubyEstimator(const Dnf& dnf, const WorldTable& wt);

  /// Over pre-compiled lineage. With num_query_clauses at least the clause
  /// count this is the plain estimator; otherwise a conditioned sampler
  /// (posterior aconf, see src/cond/posterior.h): the compiled DNF's
  /// original clauses split into a QUERY prefix [0, num_query_clauses)
  /// and a CONSTRAINT suffix. Coverage trials draw
  /// from the query prefix as usual, but Z = 1 additionally requires the
  /// sampled world to satisfy at least one constraint clause — so
  /// E[Z] = P(query ∧ constraint) / TotalWeight(). Worlds violating the
  /// constraint are rejected by zeroing the trial, keeping the estimator
  /// unbiased; the caller divides by the exactly-known P(constraint).
  KarpLubyEstimator(CompiledDnf dnf, size_t num_query_clauses);

  /// Σ_i P(C_i): the normalization constant (upper bound on the
  /// confidence by the union bound).
  double TotalWeight() const { return total_weight_; }

  /// True if the DNF is trivially decided (no clauses / an empty clause /
  /// all clause weights zero); Trial() must not be called then.
  bool Trivial() const { return trivial_; }
  /// The trivial probability when Trivial() is true.
  double TrivialProbability() const { return trivial_probability_; }

  /// One Bernoulli trial Z with E[Z] = P(dnf)/TotalWeight(), using the
  /// estimator's internal scratch (single-threaded use only).
  bool Trial(Rng* rng) const;

  /// Same trial over caller-owned scratch. Thread-safe with respect to
  /// *this: concurrent callers with distinct scratches (and distinct RNGs)
  /// never touch shared mutable state.
  bool Trial(Rng* rng, KarpLubyScratch* scratch) const;

 private:
  void Init();
  void BuildKernels();
  AsgId AssignmentOf(LocalVar var, uint64_t tag, Rng* rng,
                     KarpLubyScratch* scratch) const;
  AsgId SampleVar(LocalVar var, uint64_t tag, Rng* rng,
                  KarpLubyScratch* scratch) const;
  static uint64_t BeginTrial(size_t num_vars, KarpLubyScratch* scratch);
  size_t SelectClause(double u) const;

  CompiledDnf dnf_;
  /// Clauses [0, num_coverage_) of original_clauses() are the coverage
  /// (query) clauses; the rest are the conditioning constraint disjunction.
  size_t num_coverage_ = 0;
  std::vector<double> cumulative_;  // cumulative clause weights
  double total_weight_ = 0;
  bool trivial_ = false;
  double trivial_probability_ = 0;

  // -- packed kernels (built once by BuildKernels) --------------------------

  /// Clause atoms flattened by POSITION in original_clauses() order:
  /// positions [pos_off_[j], pos_off_[j+1]) of pos_atoms_. Coverage prefix
  /// and constraint suffix share the arrays.
  std::vector<Atom> pos_atoms_;
  std::vector<uint32_t> pos_off_;
  /// All coverage clauses are single atoms: the scan reads one packed
  /// (asg << 32 | var) word per clause instead of spans.
  bool coverage_width1_ = false;
  std::vector<uint64_t> w1_atoms_;
  /// Per-variable cumulative distributions (partial sums in domain order),
  /// indexed by the compiled DNF's variable offsets.
  std::vector<double> var_cum_;
  std::vector<uint32_t> var_cum_off_;
  /// Clause-selection bucket index: start position of the lower-bound scan
  /// for u in bucket floor(u · sel_scale_).
  std::vector<uint32_t> sel_start_;
  double sel_scale_ = 0;

  mutable KarpLubyScratch scratch_;  // backs the single-threaded Trial()
};

}  // namespace maybms
