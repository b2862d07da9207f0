// Statement execution: queries, DDL, and DML on top of the plan executor.
#pragma once

#include <string>

#include "src/exec/batch_operators.h"
#include "src/exec/exec_context.h"
#include "src/plan/planner.h"

namespace maybms {

/// Result of executing one statement.
struct StatementResult {
  bool has_data = false;   ///< true for selects (data is meaningful)
  TableData data;
  size_t affected_rows = 0;  ///< DML row counts
  std::string message;       ///< e.g. "CREATE TABLE"
};

/// Executes a bound statement against the context's catalog.
Result<StatementResult> ExecuteStatement(const BoundStatement& stmt, ExecContext* ctx);

}  // namespace maybms
