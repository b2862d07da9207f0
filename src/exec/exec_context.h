// Shared execution context and materialized intermediate results.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/cond/constraint_store.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"
#include "src/storage/catalog.h"
#include "src/types/row.h"
#include "src/types/schema.h"

namespace maybms {

/// Which plan interpreter executes queries.
enum class ExecEngine : uint8_t {
  kRow,    ///< row-at-a-time materializing interpreter (legacy/reference)
  kBatch,  ///< vectorized pull-based operator tree over columnar batches
};

class ThreadPool;
class MetricsRegistry;   // src/obs/metrics.h
struct StatementTrace;   // src/obs/trace.h
struct TraceNode;        // src/obs/trace.h

/// Engine-level execution options (confidence computation knobs).
struct ExecOptions {
  ExactOptions exact;            ///< conf() exact-algorithm tuning
  MonteCarloOptions montecarlo;  ///< aconf() sample caps
  ExecEngine engine = ExecEngine::kBatch;
  /// Worker threads for morsel-driven batch execution and parallel
  /// confidence computation. 0 = hardware_concurrency. 1 = fully serial
  /// (no pool). Results are identical at EVERY thread count: deterministic
  /// morsel order, and aconf always samples content-seeded counter-based
  /// substreams (run serially when no pool exists), so 1-thread and
  /// N-thread estimates agree bit for bit.
  unsigned num_threads = 0;
  /// Max rows per parallel work unit (morsel). Small values force many
  /// task boundaries (the stress tests use this); 0 = one morsel per
  /// batch. Only read when num_threads != 1.
  size_t morsel_size = 1024;
  /// Hybrid conf() fallback: when d-tree compilation exceeds the
  /// exact.max_steps node budget, answer with a seeded
  /// aconf(fallback_epsilon, fallback_delta) estimate (plus a result
  /// warning) instead of failing the query. The fallback seed is a pure
  /// function of the group's lineage, so enabling this never perturbs the
  /// session RNG stream and the estimates are identical across engines and
  /// thread counts. Off by default: the library surface keeps the hard
  /// budget error; the shell turns it on (`SET conf_fallback = on`).
  bool conf_fallback = false;
  double fallback_epsilon = 0.05;
  double fallback_delta = 0.01;
  /// Cross-statement d-tree compilation cache (src/lineage/dtree_cache.h):
  /// repeated conf()/tconf()/posterior queries over unchanged tables skip
  /// compilation entirely. The cached values are bit-identical to fresh
  /// compilation at every thread count on both engines (the key pins the
  /// canonical lineage content, the world-table version, and the solver
  /// options including the node budget), so this is on by default; `SET
  /// dtree_cache = off` disables it per session. Only honored by
  /// embedders that own a Catalog (the Database wires the catalog's cache
  /// into exact.cache per statement); a hand-built ExecContext with
  /// exact.cache == nullptr always compiles fresh.
  bool dtree_cache = true;
  /// Resident-byte budget for that cache (LRU eviction past it;
  /// 0 = unlimited). `SET dtree_cache_budget = <bytes>`. DATABASE-level
  /// knob: the cache is shared by every session over one catalog, so this
  /// field is only the session's view — a change is routed through the
  /// serialized write path and affects all sessions (see
  /// src/engine/session.h for the session/database knob split).
  size_t dtree_cache_budget = 64ull << 20;
  /// Rows per columnar-snapshot chunk (src/storage/table.h): INSERT
  /// rebuilds only the tail chunk, UPDATE/DELETE only touched chunks.
  /// `SET snapshot_chunk_rows = <rows>` (min 1). Changing it forces a
  /// one-time full relayout of each table's next snapshot. DATABASE-level
  /// knob like dtree_cache_budget: it relays out every table's snapshots,
  /// so a change goes through the serialized write path rather than being
  /// re-applied from per-session options each statement (which would let
  /// one session's SET silently rewrite every other session's snapshots).
  size_t snapshot_chunk_rows = 1024;
  /// Cost-based optimizer (`SET optimizer = on|off`, src/opt/): join-order
  /// enumeration with snapshot-derived statistics, predicate pushdown, and
  /// cardinality annotations between bind and execute. The optimized plan
  /// produces the same answer multiset with bit-identical confidence
  /// values as the translated plan (the conf/aconf funnels canonicalize
  /// per-group clause order, so join order cannot leak into lineage
  /// results); off restores the binder's syntactic plans exactly.
  bool optimizer = true;
  /// Annotated semijoin reduction (`SET optimizer_semijoin = on|off`):
  /// lets the optimizer insert SemiJoinReduce operators that shrink join
  /// inputs — and with them the condition columns every confidence solver
  /// downstream sees — when estimated selectivity justifies it. Only read
  /// when `optimizer` is on.
  bool optimizer_semijoin = true;
  /// Index-aware access-path selection (`SET use_indexes = on|off`): lets
  /// the optimizer replace a Filter's base-table Scan with an IndexScan
  /// over a matching B+ tree secondary index (src/index/) when the cost
  /// model favors it. The parent Filter keeps its full predicate and
  /// re-checks every candidate row, and IndexScan emits candidates in
  /// table order, so answers are bit-identical with indexes on or off.
  /// Only read when `optimizer` is on (access paths are an optimizer pass).
  bool use_indexes = true;
  /// Trace sampling (`SET trace_sample = <n>`): when n > 0 the session
  /// records a full EXPLAIN ANALYZE execution trace for every n-th
  /// statement it runs (1 = every statement) into the trace ring, without
  /// the client asking for EXPLAIN ANALYZE. 0 (default) = off. Sampled
  /// traces are observation-only: results are byte-identical to untraced
  /// runs.
  uint64_t trace_sample = 0;
  /// Observability (`SET metrics = on|off`, src/obs/): when on (the
  /// default) the Session wires the manager's MetricsRegistry and a
  /// per-statement ConfPhaseCounters into the context/solver options and
  /// records statement phase timings + a trace-ring entry per statement.
  /// When off, every obs pointer stays null and the engines skip ALL
  /// instrumentation (no clock reads, no atomic adds) — answers are
  /// identical either way; only visibility changes.
  bool metrics = true;
};

/// Everything operators need: the catalog (DML / create-table-as), the
/// world table (repair-key/pick-tuples create variables; confidence reads
/// probabilities), and the execution knobs.
struct ExecContext {
  Catalog* catalog = nullptr;
  /// Read by no operator: aconf seeds its sampler from lineage content.
  /// Kept only because perfbench/trace.cc, which replicates the session's
  /// statement wiring, still assigns it.
  Rng* rng = nullptr;
  const ExecOptions* options = nullptr;
  /// Non-null iff the effective num_threads > 1; owned by the Database (or
  /// whichever embedder built the context).
  ThreadPool* pool = nullptr;
  /// Counts conf() groups answered by the aconf fallback this statement
  /// (see src/exec/conf_fallback.h); the engine attaches a warning when
  /// non-zero. Atomic: groups aggregate in parallel.
  std::atomic<uint64_t>* conf_fallbacks = nullptr;
  /// The session's evidence store (ASSERT / CONDITION ON state). Owned by
  /// the Session, NOT the shared catalog: each session's evidence is its
  /// own posterior (Koch & Olteanu's conditioning model), so concurrent
  /// sessions condition independently over one database. Set by whichever
  /// facade built the context; never null while statements execute.
  ConstraintStore* session_constraints = nullptr;
  /// True only while the executing session is the catalog's SOLE session
  /// (the embedded Database facade): ASSERT then physically prunes worlds
  /// the evidence determines (src/cond/prune.h). Multi-session execution
  /// keeps evidence purely algebraic — pruning would rewrite shared tables
  /// and the world table from one session's private posterior.
  bool allow_prune = false;
  /// Shared metrics registry (src/obs/metrics.h), or null when metrics
  /// are off (or the embedder has none). Counters only: execution never
  /// reads it. Members (not out-of-band state) because ExecutePlanBatch
  /// copies the context locally — the pointers must travel with the copy.
  MetricsRegistry* metrics = nullptr;
  /// EXPLAIN ANALYZE trace collector for the current statement, or null
  /// for untraced execution (the overwhelmingly common case).
  StatementTrace* trace = nullptr;
  /// Current parent while the trace's operator tree is being built /
  /// recursed (batch plan build and row recursion are single-threaded).
  TraceNode* trace_parent = nullptr;

  WorldTable& worlds() { return catalog->world_table(); }
  const WorldTable& worlds() const { return catalog->world_table(); }
  /// The active evidence: posterior confidence and `possible` consult it.
  const ConstraintStore& constraints() const { return *session_constraints; }
};

/// A materialized operator result.
struct TableData {
  Schema schema;
  std::vector<Row> rows;
  bool uncertain = false;
};

}  // namespace maybms
