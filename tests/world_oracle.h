// Possible-world oracle for randomized tests: table snapshots and full
// enumeration of the world table's worlds. A test evaluates its query's
// semantics in every world directly and compares the engine against the
// resulting probabilities.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/prob/world_enum.h"

namespace maybms {

// A materialized U-relation snapshot for the oracle.
struct Snapshot {
  std::vector<Row> rows;  // values + condition
};

inline Snapshot Snap(const Database& db, const std::string& table) {
  Snapshot s;
  auto t = db.catalog().GetTable(table);
  EXPECT_TRUE(t.ok());
  if (t.ok()) s.rows = (*t)->rows();
  return s;
}

// Enumerates all worlds; calls fn(world) for each.
inline void ForEachWorld(const Database& db,
                         const std::function<void(const World&)>& fn) {
  const WorldTable& wt = db.catalog().world_table();
  std::vector<VarId> vars;
  for (VarId v = 0; v < wt.NumVariables(); ++v) vars.push_back(v);
  ASSERT_TRUE(EnumerateWorlds(wt, vars, 1u << 20, fn).ok());
}

}  // namespace maybms
