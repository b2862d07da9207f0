// Database persistence: dump and restore of the whole catalog — tables
// (data columns *and* condition columns) plus the world table.
//
// Paper §2.3 ("Updates, concurrency control, and recovery"): "As a
// consequence of our choice of a purely relational representation system,
// these issues cause surprisingly little difficulty. U-relations are
// represented relationally ..." — the dump below is exactly that
// relational representation serialized: each row's condition is a list of
// (variable, assignment) integer pairs and the world table is a ternary
// relation (variable, assignment, probability).
//
// Two on-disk formats share one API:
//   - The BINARY PAGED format (magic "MAYBMSP1", page 0 byte 0) writes
//     rows as slotted records in 8 KiB pages through a BufferPool over a
//     FilePageStore (src/storage/page.h) — the format SaveDatabaseToFile
//     produces. Index definitions persist with the data and are
//     re-registered (lazily rebuilt on first use) at load.
//   - The TEXT dump (magic line "MAYBMS DUMP v1") remains fully supported
//     for import: LoadDatabaseFromFile sniffs the magic and routes to the
//     right reader, so pre-paged-storage dumps keep loading.
#pragma once

#include <string>

#include "src/common/result.h"
#include "src/storage/catalog.h"

namespace maybms {

class ConstraintStore;

/// Serializes the catalog (all tables + the world table + the snapshot
/// chunk layout) into a single self-contained text dump. Evidence lives
/// per session, not in the catalog (src/engine/session.h), so the caller
/// passes the store to persist — typically the dumping session's own;
/// nullptr (or an inactive store) omits the EVIDENCE section.
std::string DumpDatabase(const Catalog& catalog,
                         const ConstraintStore* evidence = nullptr);

/// Writes the database to `path` in the binary paged format.
Status SaveDatabaseToFile(const Catalog& catalog, const std::string& path,
                          const ConstraintStore* evidence = nullptr);

/// Binary paged writer (what SaveDatabaseToFile calls): rows as slotted
/// records behind a small BufferPool, oversize rows in overflow page
/// chains, metadata (world table, schemas, index definitions, evidence)
/// in a trailing stream, the page-0 header written last.
Status SaveDatabaseBinary(const Catalog& catalog, const std::string& path,
                          const ConstraintStore* evidence = nullptr);

/// Binary paged reader. The catalog must be fresh (as RestoreDatabase).
Status LoadDatabaseBinary(const std::string& path, Catalog* catalog,
                          ConstraintStore* evidence = nullptr);

/// Restores a dump into `catalog`. The catalog must be fresh: no tables
/// and an empty world table (variable ids in conditions are dense indexes
/// into the dumped world table). A dump with an EVIDENCE section loads it
/// into `evidence` (the restoring session's store); passing nullptr for a
/// dump that carries evidence is a ParseError rather than a silent drop.
Status RestoreDatabase(const std::string& dump, Catalog* catalog,
                       ConstraintStore* evidence = nullptr);

/// Reads a database file and restores it, sniffing the format from the
/// leading magic: binary paged files and text dumps both load.
Status LoadDatabaseFromFile(const std::string& path, Catalog* catalog,
                            ConstraintStore* evidence = nullptr);

}  // namespace maybms
