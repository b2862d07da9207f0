// The condition column of a U-relation batch, stored columnar: all rows'
// (variable, assignment) atom pairs packed into one contiguous array with
// per-row offsets (CSR layout). This is the batch-engine analogue of the
// paper's V_i D_i condition column pairs (§2.1/§2.4): instead of one
// heap-allocated Condition per row, a batch carries two flat arrays that
// scan, merge, and feed into lineage without per-row allocation.
//
// Rows with the empty (true) condition cost nothing: a column that has
// only true conditions stores no atoms and no offsets at all.
#pragma once

#include <cstdint>
#include <vector>

#include "src/prob/condition.h"

namespace maybms {

/// A view of one row's atoms: sorted by variable id, at most one atom per
/// variable (the Condition invariant).
struct AtomSpan {
  const Atom* data = nullptr;
  size_t size = 0;

  const Atom* begin() const { return data; }
  const Atom* end() const { return data + size; }
  bool empty() const { return size == 0; }
  const Atom& operator[](size_t i) const { return data[i]; }
};

class ConditionColumn {
 public:
  size_t size() const { return num_rows_; }

  /// True when every row so far is t-certain (no atoms stored).
  bool AllTrue() const { return atoms_.empty(); }

  size_t NumAtoms() const { return atoms_.size(); }
  const Atom* AtomData() const { return atoms_.data(); }

  void Clear();

  /// Appends the empty (true) condition.
  void AppendTrue();

  /// Appends a row's atoms. The span must satisfy the Condition invariant
  /// (sorted by var, unique vars); spans taken from Condition or another
  /// ConditionColumn already do.
  void AppendAtoms(AtomSpan atoms);
  void AppendCondition(const Condition& c);

  /// Appends the conjunction of two atom spans — the parsimonious join
  /// merge. Returns false (appending nothing) when the conjunction is
  /// inconsistent (same variable, different assignment): the joined row
  /// drops out.
  bool AppendMerged(AtomSpan a, AtomSpan b);

  /// Copies row `i` of `other` (gather).
  void AppendFrom(const ConditionColumn& other, size_t i) {
    AppendAtoms(other.Span(i));
  }

  AtomSpan Span(size_t i) const {
    if (atoms_.empty()) return AtomSpan{};
    uint32_t begin = offsets_[i];
    return AtomSpan{atoms_.data() + begin, offsets_[i + 1] - begin};
  }

  bool IsTrue(size_t i) const { return Span(i).empty(); }

  /// Materializes row `i` as a heap Condition (row materialization and
  /// the posterior solvers).
  Condition ToCondition(size_t i) const;

 private:
  void MaterializeOffsets();

  std::vector<Atom> atoms_;
  std::vector<uint32_t> offsets_;  // size num_rows_+1; empty while AllTrue
  size_t num_rows_ = 0;
};

}  // namespace maybms
