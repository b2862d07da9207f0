// Per-statement execution traces (ISSUE 8).
//
// Every statement executed with metrics on records a StatementTrace with
// the statement-level phase breakdown (parse / bind+plan / lock-wait /
// execute / conf). Under EXPLAIN ANALYZE the trace additionally carries a
// TraceNode tree mirroring the bound plan, with per-operator inclusive
// wall time, rows/batches/morsels, and confidence-phase deltas.
//
// Completed traces land in a fixed-capacity ring buffer (TraceBuffer,
// owned by the SessionManager) and can be exported as chrome://tracing
// "trace event" JSON: one X (complete) event per phase and per operator,
// pid = session id, tid = a stable hash of the executing thread,
// timestamps from the shared monotonic clock (MonotonicNs).
//
// Threading model: a TraceNode is written only by the thread pulling the
// operator it shadows — the batch engine's Next() chain and the row
// engine's recursion are both single-pull — so its fields are plain
// integers. Concurrent work INSIDE an operator (morsel tasks) reports
// through the atomic ConfPhaseCounters instead, and the pulling thread
// folds before/after samples into the node. The ring buffer itself is
// mutex-guarded.
//
// Like metrics.h this header is a LEAF: operator labels are captured as
// strings by the exec layer (PlanNode::Describe()), so obs/ never depends
// on plan/.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace maybms {

struct TraceNode {
  std::string label;  // PlanNode::Describe() at build time
  uint64_t inclusive_ns = 0;
  uint64_t calls = 0;  // Next() calls (batch) / 1 (row)
  /// Optimizer cardinality estimate copied from PlanNode::est_rows at
  /// build time (-1 = not estimated). Rendered next to actual rows so
  /// EXPLAIN ANALYZE exposes estimation error per operator.
  double est_rows = -1;
  uint64_t rows_out = 0;
  uint64_t batches_out = 0;
  uint64_t morsels = 0;
  /// Hash join / semijoin probe rows dropped by the key table's build-side
  /// range filter; -1 for operators without a key table (not rendered).
  int64_t range_skipped = -1;
  ConfPhaseSample conf;  // inclusive confidence-phase deltas
  std::vector<std::unique_ptr<TraceNode>> children;
};

struct StatementTrace {
  uint64_t session_id = 0;
  uint64_t thread_hash = 0;  // stable hash of the executing thread's id
  std::string statement;     // statement text (truncated for display)
  uint64_t start_ns = 0;     // MonotonicNs() at statement start

  // Statement-level phases, nanoseconds.
  uint64_t parse_ns = 0;
  uint64_t bind_ns = 0;  // bind + plan
  uint64_t lock_wait_ns = 0;
  uint64_t lock_catalog_ns = 0;
  uint64_t lock_world_ns = 0;
  uint64_t lock_table_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t total_ns = 0;
  bool failed = false;

  ConfPhaseSample conf;  // statement-level confidence totals

  // Operator tree; non-null only for EXPLAIN ANALYZE.
  std::unique_ptr<TraceNode> root;

  // Creates a child TraceNode under `parent` (or as the root when parent
  // is null) and returns it. Single-threaded (plan build / row
  // recursion).
  TraceNode* NewNode(TraceNode* parent, std::string label);

  // Annotated-plan + phase-summary text (the EXPLAIN ANALYZE message).
  std::string Render() const;
};

// Fixed-capacity ring of completed statement traces, newest last.
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 64) : capacity_(capacity) {}

  void Record(std::shared_ptr<const StatementTrace> trace);
  std::vector<std::shared_ptr<const StatementTrace>> Recent() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const StatementTrace>> traces_;
};

// chrome://tracing JSON ({"traceEvents":[...]}) over a set of traces.
// Span layout per statement: one enclosing statement span, sequential
// phase child spans at their true offsets, and the operator tree (if
// present) nested inside the execute span — children laid out
// back-to-back from their parent's start, since per-call start offsets
// are not retained (aggregate spans; documented in DESIGN.md).
std::string ExportChromeTrace(
    const std::vector<std::shared_ptr<const StatementTrace>>& traces);

}  // namespace maybms
