// The vectorized executor: a bound logical plan compiled into a pull-based
// tree of batch operators. Each operator's Next() produces a Batch —
// columnar data plus a packed condition column — so scans share column
// vectors instead of copying rows, filters and projections evaluate
// expressions column-at-a-time, and conf()/aconf() aggregates compile their
// lineage straight from condition-column spans.
//
// It is the only executor: tests hold its answers to recorded goldens
// (tests/engine_goldens.inc) and to brute-force possible-world enumeration
// (tests/world_oracle.h).
#pragma once

#include "src/exec/exec_context.h"
#include "src/plan/logical_plan.h"

namespace maybms {

/// Executes a bound plan, materializing the result.
Result<TableData> ExecutePlan(const PlanNode& plan, ExecContext* ctx);

}  // namespace maybms
