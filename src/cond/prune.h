// World pruning / renormalization: after evidence is asserted, worlds that
// violate it are removed from the *stored* representation wherever the
// constraint pins variables down (Koch & Olteanu VLDB'08: conditioning
// yields a database whose possible worlds are exactly the surviving ones,
// renormalized).
//
// Pruning substitutes the constraint store's fully-DETERMINED variables
// (per-variable restriction is a singleton) into every U-relation in the
// catalog:
//   - a row whose condition contradicts a determined fact (same variable,
//     different assignment) has probability 0 in every surviving world and
//     is deleted physically;
//   - matching determined atoms are substituted away: the atom is removed
//     from surviving conditions, the world table collapses the variable to
//     the one-hot posterior distribution, and the constraint store divides
//     the variable out of its clauses.
// Condition columns therefore shrink physically in both storages: heap
// rows are rewritten in place and the tables' cached columnar snapshots
// (batch engine) rebuild from them on next access.
//
// Only determined variables are pruned physically, on purpose: their
// collapse makes the stored representation self-consistent with or
// without the residual constraint, so CLEAR EVIDENCE stays sound.
// Rows that are merely *restricted* (a disallowed assignment of a
// multi-valued restriction) are left in place — their posterior is 0
// through the posterior algebra (tconf/possible/conf all consult the
// store) and legitimately reverts to the prior if evidence is cleared.
//
// The conditional distribution is preserved exactly: P(C) factors as
// P(det atoms)·P(C'), so posteriors computed against the pruned database
// and residual constraint equal the unpruned ones (up to one floating
// division; the equality tests pin it to 1e-12).
#pragma once

#include <cstddef>

#include "src/common/result.h"

namespace maybms {

class Catalog;
class ConstraintStore;
struct ExactOptions;

/// Counters describing one pruning pass.
struct PruneStats {
  size_t rows_dropped = 0;    ///< rows contradicting a determined fact
  size_t atoms_removed = 0;   ///< determined atoms erased from conditions
  size_t vars_collapsed = 0;  ///< variables renormalized to one-hot
  size_t tables_touched = 0;  ///< uncertain tables rewritten
};

/// Prunes every U-relation in `catalog` against `store` (the asserting
/// session's evidence) and substitutes determined variables (world table +
/// residual constraint). No-op when the store is inactive or nothing is
/// restricted. Callers must hold the database exclusively: pruning
/// rewrites shared tables and the world table, which is only sound while
/// the asserting session is the catalog's sole session (ExecContext::
/// allow_prune).
Result<PruneStats> PruneConditionedWorlds(Catalog* catalog,
                                          ConstraintStore* store,
                                          const ExactOptions& exact);

}  // namespace maybms
