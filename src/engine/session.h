// Multi-session execution over one shared catalog.
//
// Paper §2.3 ("Updates, concurrency control, and recovery"): "As a
// consequence of our choice of a purely relational representation system,
// these issues cause surprisingly little difficulty" — U-relations are
// ordinary relations, so concurrency control is ordinary relational
// concurrency control. This file is that claim made concrete:
//
//   SessionManager — owns the Catalog (tables + world table + d-tree
//     compilation cache) and the locks that serialize access to it, plus
//     one shared worker pool for intra-query parallelism.
//   Session — everything that is PER CONNECTION in the original
//     PostgreSQL-based system: execution knobs (SET ...) and the
//     asserted-evidence ConstraintStore, so each
//     session's confidence answers are posteriors under ITS OWN evidence
//     (Koch & Olteanu VLDB'08 conditioning) while all sessions share one
//     set of possible worlds.
//
// Isolation model: statement-level snapshot consistency. Before running,
// a statement is classified by a pre-bind AST walk into the locks it
// needs, acquired in one fixed order (catalog → world table → tables in
// sorted-name order — deadlock-free by construction):
//
//   - catalog EXCLUSIVE: DDL (CREATE/DROP/CREATE AS), database-level SET
//     knobs, sole-session ASSERT (physical world pruning rewrites every
//     U-relation). Nothing else runs concurrently.
//   - world-table EXCLUSIVE: any statement containing repair-key /
//     pick-tuples anywhere (they mint new world variables), held together
//     with catalog SHARED.
//   - per-table statement locks: the write target of INSERT/UPDATE/DELETE
//     exclusively, every other referenced base table shared. Writers to
//     DIFFERENT tables therefore proceed in parallel; readers of a table
//     being written wait and then observe a whole statement's effect —
//     never a half-applied one (each read is a consistent cut at one
//     Table::version()).
//
// Shared caches stay shared safely: the DTreeCache is internally mutex-
// guarded and its keys pin lineage content + world version + options
// fingerprint, and evidence needs no key axis of its own (posterior
// queries reach the solver as explicit Q∧C product lineage), so sessions
// with different evidence can never alias each other's entries. Answers
// are bit-identical to single-session execution: the same morsel
// boundaries, fold orders, and seeded substreams apply regardless of how
// many sessions share the pool.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/cond/constraint_store.h"
#include "src/engine/query_result.h"
#include "src/exec/executor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/opt/stats.h"
#include "src/storage/catalog.h"

namespace maybms {

class SessionManager;
class ThreadPool;

/// Per-session settings: the execution knobs. Two of the ExecOptions
/// fields (dtree_cache_budget, snapshot_chunk_rows) configure
/// DATABASE-level state shared by every session; the session keeps them as
/// its view and routes changes through the serialized write path (see
/// Session).
struct SessionOptions {
  ExecOptions exec;
};

/// One connection's worth of state over a shared catalog. Created by
/// SessionManager::CreateSession; statements on ONE session are serialized
/// (a session is a single logical connection), statements on different
/// sessions run concurrently under the statement locks described above.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs a single statement and returns its result (rows for selects,
  /// affected counts/messages for DDL and DML).
  Result<QueryResult> Query(std::string_view sql);

  /// Runs a statement for its side effects; errors if it fails.
  Status Execute(std::string_view sql);

  /// Runs a ';'-separated script, stopping at the first error. Returns
  /// the result of the last statement. Each statement is its own
  /// consistent cut; the script as a whole is not atomic.
  Result<QueryResult> ExecuteScript(std::string_view sql);

  /// EXPLAIN: the bound logical plan for a query.
  Result<std::string> Explain(std::string_view sql);


  /// The session's knobs. Mutating through this reference is supported
  /// for embedders, but values are VALIDATED at the point of use: the
  /// next statement rejects out-of-range settings (e.g. a fallback
  /// epsilon outside (0,1)) with the same errors SET would have raised,
  /// instead of feeding them to the solvers.
  SessionOptions& options() { return options_; }
  const SessionOptions& options() const { return options_; }

  /// The evidence asserted so far in THIS session (ASSERT / CONDITION ON
  /// statements); this session's conf()/aconf()/tconf() answers are
  /// posteriors given this constraint. Other sessions are unaffected.
  const ConstraintStore& constraints() const { return constraints_; }
  /// Mutable access for persistence (RestoreDatabase loads a dump's
  /// EVIDENCE section into the restoring session's store).
  ConstraintStore& constraints() { return constraints_; }

  SessionManager& manager() { return *manager_; }

  /// Stable id of this session (1-based, per manager); trace events carry
  /// it as their pid so multi-session timelines separate cleanly.
  uint64_t id() const { return id_; }

  /// Statements this session ran / failed (counted only while metrics are
  /// on). Read from the owning connection thread — plain, not atomic.
  uint64_t statements_run() const { return statements_run_; }
  uint64_t statements_failed() const { return statements_failed_; }

 private:
  friend class SessionManager;
  Session(SessionManager* manager, SessionOptions options);

  /// `sql_text` labels the statement's trace; `parse_ns` / `start_ns` are
  /// the caller-measured parse duration and statement start (0 when
  /// untimed — scripts, or metrics off at parse time).
  Result<QueryResult> RunStatement(const Statement& stmt,
                                   std::string_view sql_text,
                                   uint64_t parse_ns, uint64_t start_ns);
  /// Kind dispatch: SET / SHOW STATS are session-level, everything else
  /// goes through the bind/lock/execute path. `analyze` attaches the
  /// operator tree to `trace` (EXPLAIN ANALYZE).
  Result<QueryResult> DispatchStatement(const Statement& stmt,
                                        StatementTrace* trace,
                                        MetricsRegistry* reg, bool analyze);
  Result<QueryResult> RunOrdinary(const Statement& stmt, StatementTrace* trace,
                                  MetricsRegistry* reg, bool analyze);
  Result<QueryResult> RunSet(const SetStmt& stmt);
  Result<QueryResult> RunShowStats(const ShowStatsStmt& stmt);
  /// Plain EXPLAIN: bind only, render the plan, execute nothing.
  Result<QueryResult> RunExplainPlan(const ExplainStmt& stmt);

  SessionManager* manager_;  // non-owning; outlives every session
  uint64_t id_;
  SessionOptions options_;
  ConstraintStore constraints_;
  uint64_t statements_run_ = 0;
  uint64_t statements_failed_ = 0;
  /// Position in this session's statement stream for SET trace_sample = N
  /// (every Nth statement records a full operator trace). Guarded by
  /// statement_mu_ like the statement counters above.
  uint64_t trace_sample_seq_ = 0;
  /// Values of the database-level knobs this session last applied (or
  /// adopted at creation). A statement re-applies a knob only when the
  /// session's OWN option drifted from this mirror — never merely because
  /// another session (or a restored dump) changed the shared state, which
  /// is exactly the bug the mirror exists to fix: blindly re-applying
  /// per-session defaults every statement silently rewrote every other
  /// session's snapshot layout.
  size_t applied_chunk_rows_;
  size_t applied_cache_budget_;
  /// Serializes statements WITHIN this session (one logical connection).
  std::mutex statement_mu_;
};

/// Owns one shared database — catalog, world table, d-tree cache, worker
/// pool — and hands out Sessions over it. Create/destroy sessions from a
/// single controlling thread (the server's accept loop; a test's main
/// thread); statements on live sessions may then run from any thread.
class SessionManager {
 public:
  SessionManager();
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a new session over the shared catalog. The session must not
  /// outlive the manager.
  std::unique_ptr<Session> CreateSession(SessionOptions options = {});

  /// Sessions currently alive.
  size_t num_sessions() const {
    return live_sessions_.load(std::memory_order_acquire);
  }

  /// Direct catalog access for embedding (bulk setup, persistence).
  /// UNSYNCHRONIZED: use it only while no concurrent session statement
  /// can run — before sessions are created, or from a test's single
  /// thread between statements.
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Rendered database summary (the shell's \d): per-table snapshot
  /// stats, world-table size, the CALLING session's evidence, and d-tree
  /// cache counters. Taken under the catalog/world/table locks, so it is
  /// safe while other sessions run statements.
  std::string Describe(const ConstraintStore* session_evidence);

  /// Rendered description of one table (the shell's \d <name>): kind,
  /// row count, columns. Lock-safe like Describe().
  std::string DescribeTable(const std::string& name);

  /// The shared metrics registry (SHOW STATS / server \stats / benches).
  /// Counters accumulate across every session over this manager; snapshot
  /// via StatsSnapshot() to also fold in cache / pool / session gauges.
  MetricsRegistry& metrics() { return metrics_; }

  /// Ring of recently completed statement traces (server \trace).
  TraceBuffer& traces() { return traces_; }

  /// Shared optimizer statistics cache (src/opt/stats.h). Like the
  /// columnar snapshots the stats derive from, it is one per database:
  /// internally synchronized, version-invalidated, chunk-incremental.
  StatsCache& stats() { return stats_; }

  /// One merged (name, value) listing: every registry counter and
  /// histogram aggregate, plus point-in-time gauges sourced from their
  /// owning components at snapshot time (d-tree cache stats, thread-pool
  /// task/steal counts, live sessions) — sourced, not double-counted: the
  /// registry itself never mirrors them. Sorted by name.
  std::vector<std::pair<std::string, double>> StatsSnapshot();

  /// The trace ring as chrome://tracing JSON (the \trace meta-command).
  std::string ExportTraceJson();

  /// The lock footprint of one statement, computed by a pre-bind AST walk
  /// (session.cc's classifier). Public only so the classifier can build
  /// it; acquisition stays private to Session's statement loop.
  struct LockPlan {
    bool catalog_exclusive = false;
    bool world_exclusive = false;
    std::vector<std::string> read_tables;   // lower-cased base-table names
    std::vector<std::string> write_tables;  // lower-cased DML targets
  };

 private:
  friend class Session;

  /// RAII acquisition of one LockPlan, held for the statement's duration.
  /// Locks are taken in the fixed catalog → world → sorted table-name
  /// order.
  struct StatementLocks {
    std::shared_lock<std::shared_mutex> catalog_shared;
    std::unique_lock<std::shared_mutex> catalog_unique;
    std::shared_lock<std::shared_mutex> world_shared;
    std::unique_lock<std::shared_mutex> world_unique;
    std::vector<TablePtr> pinned;  // keeps locked tables alive past DROP
    std::vector<std::shared_lock<std::shared_mutex>> table_shared;
    std::vector<std::unique_lock<std::shared_mutex>> table_unique;
  };
  /// Per-lock-class acquisition times for one statement (lock-wait
  /// visibility). Filled by Acquire when a sink is passed.
  struct LockWaitTimes {
    uint64_t catalog_ns = 0;
    uint64_t world_ns = 0;
    uint64_t table_ns = 0;  // summed over every table lock taken
  };
  StatementLocks Acquire(const LockPlan& plan, LockWaitTimes* waits = nullptr);

  /// The shared worker pool, created on first demand and sized once
  /// (max of the first requester's wish and the hardware default); never
  /// resized, because other sessions may be inside ParallelFor. Sound
  /// because results are bit-identical at every thread count >= 2 — pool
  /// size is a throughput knob, not a semantic one. Returns nullptr for
  /// want <= 1 (the fully serial legacy path).
  ThreadPool* SharedPool(unsigned want);

  Catalog catalog_;
  /// Catalog structure (the name → table map + everything at once for
  /// exclusive statements). Every statement holds it at least shared.
  std::shared_mutex catalog_mu_;
  /// World-table lock: shared to read distributions (all confidence
  /// computation), exclusive to mint variables (repair-key/pick-tuples).
  std::shared_mutex world_mu_;
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<size_t> live_sessions_{0};
  std::atomic<uint64_t> next_session_id_{1};
  MetricsRegistry metrics_;
  TraceBuffer traces_;
  StatsCache stats_;
};

}  // namespace maybms
