#include "src/cond/prune.h"

#include <algorithm>

#include "src/cond/constraint_store.h"
#include "src/storage/catalog.h"

namespace maybms {

namespace {

/// Binary-searched lookup into the determined-atom list (sorted by var):
/// the assignment `var` is pinned to, or nullptr if not determined.
const Atom* FindDetermined(const std::vector<Atom>& determined, VarId var) {
  auto it = std::lower_bound(
      determined.begin(), determined.end(), var,
      [](const Atom& a, VarId v) { return a.var < v; });
  return it != determined.end() && it->var == var ? &*it : nullptr;
}

}  // namespace

Result<PruneStats> PruneConditionedWorlds(Catalog* catalog,
                                          ConstraintStore* store_ptr,
                                          const ExactOptions& exact) {
  PruneStats stats;
  ConstraintStore& store = *store_ptr;
  if (!store.active()) return stats;
  // Only DETERMINED variables may be pruned physically: their world-table
  // collapse keeps the stored representation self-consistent even after a
  // later CLEAR EVIDENCE. Rows merely *restricted* by the constraint (a
  // disallowed assignment of a multi-valued restriction) keep living in
  // the table — their posterior is 0 through the posterior algebra while
  // the evidence is active, and reverts to the prior if it is cleared.
  std::vector<Atom> determined = store.DeterminedAtoms();
  if (determined.empty()) return stats;
  std::sort(determined.begin(), determined.end(),
            [](const Atom& a, const Atom& b) { return a.var < b.var; });

  for (const std::string& name : catalog->TableNames()) {
    TablePtr table = *catalog->GetTable(name);
    if (!table->uncertain() || table->NumRows() == 0) continue;
    // First a read-only scan: most tables are untouched by a given piece of
    // evidence, and skipping them keeps their columnar snapshots cached.
    bool affected = false;
    for (const Row& row : table->rows()) {
      for (const Atom& a : row.condition.atoms()) {
        if (FindDetermined(determined, a.var) != nullptr) {
          affected = true;
          break;
        }
      }
      if (affected) break;
    }
    if (!affected) continue;

    ++stats.tables_touched;
    // mutable_rows() bumps the table's snapshot version: the rewritten
    // rows rebuild the columnar condition columns, so post-prune lineage
    // reaches the d-tree compilation cache as new content (and the
    // world-version bump in CollapseVariable below invalidates entries
    // whose atoms survived the rewrite unchanged).
    std::vector<Row>& rows = table->mutable_rows();
    std::vector<Row> kept;
    kept.reserve(rows.size());
    for (Row& row : rows) {
      bool drop = false;
      bool rewrite = false;
      for (const Atom& a : row.condition.atoms()) {
        const Atom* det = FindDetermined(determined, a.var);
        if (det == nullptr) continue;
        if (a.asg != det->asg) {
          drop = true;  // contradicts a determined fact: probability 0
          break;
        }
        rewrite = true;  // matching determined atom: substitute away
      }
      if (drop) {
        ++stats.rows_dropped;
        continue;
      }
      if (rewrite) {
        Condition next = row.condition;
        for (const Atom& a : determined) {
          std::optional<Condition> assigned = next.Assign(a.var, a.asg);
          if (assigned && assigned->NumAtoms() < next.NumAtoms()) {
            ++stats.atoms_removed;
            next = std::move(*assigned);
          }
        }
        row.condition = std::move(next);
      }
      kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  // Renormalize: determined variables become one-hot in the world table
  // (the posterior marginal given the evidence), and the constraint store
  // divides them out of its clauses.
  for (const Atom& a : determined) {
    MAYBMS_RETURN_NOT_OK(catalog->world_table().CollapseVariable(a.var, a.asg));
    ++stats.vars_collapsed;
  }
  MAYBMS_RETURN_NOT_OK(
      store.Substitute(determined, catalog->world_table(), exact));
  return stats;
}

}  // namespace maybms
