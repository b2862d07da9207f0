// Test-only oracle for the packed Karp-Luby kernels (src/conf/karp_luby.h):
// the plain trial loop they were derived from. Clause selection is a
// lower bound over the cumulative clause weights; every variable a scan
// reaches is drawn lazily from its prior by a running-sum inverse CDF.
// For any Rng state, KarpLubyEstimator::Trial must return the same
// outcome as ReferenceKarpLuby::Trial and consume the same draws, so
// every seeded estimate is the one this loop would produce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/conf/montecarlo.h"
#include "src/lineage/compiled_dnf.h"

namespace maybms {

class ReferenceKarpLuby {
 public:
  /// Clauses [0, num_query_clauses) of original_clauses() are the coverage
  /// clauses; the rest form the conditioning constraint disjunction. The
  /// caller must ensure the estimator is not trivial (KarpLubyEstimator::
  /// Trivial()).
  ReferenceKarpLuby(CompiledDnf dnf, size_t num_query_clauses = kAllClauses)
      : dnf_(std::move(dnf)),
        num_coverage_(std::min(num_query_clauses, dnf_.original_clauses().size())) {
    double acc = 0;
    for (size_t i = 0; i < num_coverage_; ++i) {
      acc += dnf_.ClauseProb(dnf_.original_clauses()[i]);
      cumulative_.push_back(acc);
    }
  }

  double TotalWeight() const { return cumulative_.back(); }

  /// One trial; `world` is caller-owned scratch (resized on first use).
  bool Trial(Rng* rng, std::vector<int64_t>* world) const {
    world->assign(dnf_.NumVars(), -1);
    double u = rng->NextDouble() * TotalWeight();
    size_t i = static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
    if (i >= cumulative_.size()) i = cumulative_.size() - 1;
    const std::vector<ClauseId>& clauses = dnf_.original_clauses();
    for (const Atom& a : dnf_.Clause(clauses[i])) (*world)[a.var] = a.asg;

    auto satisfied = [&](ClauseId id) {
      for (const Atom& a : dnf_.Clause(id)) {
        if (AssignmentOf(a.var, rng, world) != a.asg) return false;
      }
      return true;
    };
    for (size_t j = 0; j < i; ++j) {
      if (satisfied(clauses[j])) return false;
    }
    if (num_coverage_ == clauses.size()) return true;
    for (size_t j = num_coverage_; j < clauses.size(); ++j) {
      if (satisfied(clauses[j])) return true;
    }
    return false;
  }

  /// Batch trials for OptimalEstimateSeeded: each instance owns its world.
  TrialFactory Factory() const {
    return [this] {
      return TrialFn([this, world = std::vector<int64_t>()](Rng* rng) mutable {
        return Trial(rng, &world) ? 1.0 : 0.0;
      });
    };
  }

 private:
  AsgId AssignmentOf(LocalVar var, Rng* rng, std::vector<int64_t>* world) const {
    if ((*world)[var] >= 0) return static_cast<AsgId>((*world)[var]);
    const double* probs = dnf_.VarProbs(var);
    uint32_t domain = dnf_.DomainSize(var);
    double u = rng->NextDouble();
    double cdf = 0;
    AsgId a = domain - 1;
    for (uint32_t k = 0; k + 1 < domain; ++k) {
      cdf += probs[k];
      if (u < cdf) {
        a = static_cast<AsgId>(k);
        break;
      }
    }
    (*world)[var] = a;
    return a;
  }

  CompiledDnf dnf_;
  size_t num_coverage_;
  std::vector<double> cumulative_;
};

}  // namespace maybms
