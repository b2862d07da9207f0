#include "src/engine/session.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>
#include <utility>

#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/lineage/dtree_cache.h"
#include "src/opt/optimizer.h"
#include "src/plan/planner.h"
#include "src/sql/parser.h"

namespace maybms {

namespace {

/// " at l:c" suffix matching the parser's position-stamped errors; empty
/// for programmatically-built SetStmts that carry no source position.
std::string KnobPos(const SetStmt& set) {
  if (set.value_line == 0) return std::string();
  return StringFormat(" at %u:%u", set.value_line, set.value_col);
}

Status KnobError(const SetStmt& set, const char* expects) {
  return Status::InvalidArgument(StringFormat(
      "SET %s expects %s, got '%s'%s", set.name.c_str(), expects,
      set.value_text.c_str(), KnobPos(set).c_str()));
}

Result<bool> SetBool(const SetStmt& set) {
  if (set.value_text == "on" || set.value_text == "true" ||
      set.value_text == "1") {
    return true;
  }
  if (set.value_text == "off" || set.value_text == "false" ||
      set.value_text == "0") {
    return false;
  }
  return KnobError(set, "on/off");
}

// Numeric knobs re-parse value_text — the raw token spelling — strictly:
// the WHOLE token must convert (no '0.5' for an integer knob, no
// exponent/suffix leftovers) and the value must be finite and in range.
// The lexer's own conversion is a partial parse (strtod/strtoll stop at
// the first bad character and saturate on overflow, e.g. '1e999' → inf),
// which is fine for expression literals that the grammar already bounds,
// but silently truncates for knobs; casting such a value to an integer
// type is undefined behavior before it is even a wrong setting.

/// SET num_threads cap, also enforced on direct options() assignments.
constexpr unsigned kMaxThreads = 4096;

Result<uint64_t> SetUint(const SetStmt& set, const char* expects,
                         uint64_t max_value) {
  // Word values ('on', 'row', ...) carry no value_num: not a number.
  if (!set.value_num || set.value_text.empty()) return KnobError(set, expects);
  const char* text = set.value_text.c_str();
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return KnobError(set, expects);
  if (errno == ERANGE || v > max_value) {
    return Status::InvalidArgument(StringFormat(
        "SET %s: value '%s' out of range (max %llu)%s", set.name.c_str(),
        set.value_text.c_str(), static_cast<unsigned long long>(max_value),
        KnobPos(set).c_str()));
  }
  return static_cast<uint64_t>(v);
}

/// The open-interval range every (ε,δ)-style knob must satisfy. Shared
/// between SET parsing and the point-of-use validation of options()
/// assignments, so both paths accept exactly the same values.
bool ValidFraction(double v) { return std::isfinite(v) && v > 0 && v < 1; }

Result<double> SetFraction(const SetStmt& set) {
  const char* expects = "a number in (0,1)";
  if (!set.value_num || set.value_text.empty()) return KnobError(set, expects);
  const char* text = set.value_text.c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return KnobError(set, expects);
  // ERANGE covers overflow to ±inf ('1e999') and underflow to denormals;
  // the open-interval check rejects both legitimately.
  if (errno == ERANGE || !ValidFraction(v)) return KnobError(set, expects);
  return v;
}

/// Point-of-use validation of the session's ExecOptions. SET already
/// validates each knob, but options() hands embedders a mutable reference
/// that bypasses it — and some invalid values are worse than wrong
/// answers (a fallback epsilon of 0 reaches Karp-Luby's sample-count
/// formula as a division by zero). Every statement revalidates here so a
/// bad assignment fails with the SET-style error instead.
Status ValidateExecOptions(const ExecOptions& exec) {
  if (!ValidFraction(exec.fallback_epsilon)) {
    return Status::InvalidArgument(StringFormat(
        "invalid session option fallback_epsilon = %g: expects a number in "
        "(0,1)", exec.fallback_epsilon));
  }
  if (!ValidFraction(exec.fallback_delta)) {
    return Status::InvalidArgument(StringFormat(
        "invalid session option fallback_delta = %g: expects a number in "
        "(0,1)", exec.fallback_delta));
  }
  if (exec.snapshot_chunk_rows == 0) {
    return Status::InvalidArgument(
        "invalid session option snapshot_chunk_rows = 0: expects a positive "
        "row count");
  }
  if (exec.num_threads > kMaxThreads) {
    return Status::InvalidArgument(StringFormat(
        "invalid session option num_threads = %u: expects at most %u "
        "(0 = hardware)", exec.num_threads, kMaxThreads));
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Statement classification: a pre-bind AST walk computing the lock plan.
// Conservative by construction — anything that can mint world-table
// variables (repair-key / pick-tuples, at any nesting depth including IN
// subqueries and UNION branches) takes the world lock exclusively, DDL
// takes the whole catalog, DML takes its target table exclusively.
// --------------------------------------------------------------------------

void ScanSelect(const SelectStmt* sel, SessionManager::LockPlan* plan);

void ScanExpr(const Expr* e, SessionManager::LockPlan* plan) {
  if (e == nullptr) return;
  switch (e->kind) {
    case ExprKind::kUnary:
      ScanExpr(static_cast<const UnaryExpr*>(e)->operand.get(), plan);
      break;
    case ExprKind::kBinary: {
      const auto* b = static_cast<const BinaryExpr*>(e);
      ScanExpr(b->left.get(), plan);
      ScanExpr(b->right.get(), plan);
      break;
    }
    case ExprKind::kFunctionCall:
      for (const ExprPtr& arg : static_cast<const FunctionCallExpr*>(e)->args) {
        ScanExpr(arg.get(), plan);
      }
      break;
    case ExprKind::kInSubquery: {
      const auto* in = static_cast<const InSubqueryExpr*>(e);
      ScanExpr(in->operand.get(), plan);
      ScanSelect(in->subquery.get(), plan);
      break;
    }
    case ExprKind::kIsNull:
      ScanExpr(static_cast<const IsNullExpr*>(e)->operand.get(), plan);
      break;
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      break;
  }
}

void ScanTableRef(const TableRef* ref, SessionManager::LockPlan* plan) {
  if (ref == nullptr) return;
  switch (ref->kind) {
    case TableRefKind::kBaseTable:
      plan->read_tables.push_back(
          ToLower(static_cast<const BaseTableRef*>(ref)->name));
      break;
    case TableRefKind::kSubquery:
      ScanSelect(static_cast<const SubqueryRef*>(ref)->select.get(), plan);
      break;
    case TableRefKind::kRepairKey: {
      const auto* rk = static_cast<const RepairKeyRef*>(ref);
      plan->world_exclusive = true;
      ScanTableRef(rk->input.get(), plan);
      ScanExpr(rk->weight.get(), plan);
      break;
    }
    case TableRefKind::kPickTuples: {
      const auto* pt = static_cast<const PickTuplesRef*>(ref);
      plan->world_exclusive = true;
      ScanTableRef(pt->input.get(), plan);
      ScanExpr(pt->probability.get(), plan);
      break;
    }
  }
}

void ScanSelect(const SelectStmt* sel, SessionManager::LockPlan* plan) {
  if (sel == nullptr) return;
  for (const SelectItem& item : sel->items) ScanExpr(item.expr.get(), plan);
  for (const TableRefPtr& ref : sel->from) ScanTableRef(ref.get(), plan);
  ScanExpr(sel->where.get(), plan);
  for (const ExprPtr& e : sel->group_by) ScanExpr(e.get(), plan);
  for (const OrderItem& o : sel->order_by) ScanExpr(o.expr.get(), plan);
  ScanSelect(sel->union_next.get(), plan);
}

SessionManager::LockPlan ClassifyStatement(const Statement& stmt,
                                           bool sole_session) {
  SessionManager::LockPlan plan;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      ScanSelect(&static_cast<const SelectStmt&>(stmt), &plan);
      break;
    case StatementKind::kCreateTable:
    case StatementKind::kCreateTableAs:
    case StatementKind::kDropTable:
    case StatementKind::kCreateIndex:
    case StatementKind::kDropIndex:
      plan.catalog_exclusive = true;  // structure change: run alone
      break;
    case StatementKind::kShowIndexes:
      break;  // registry reads are internally synchronized; catalog shared
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      plan.write_tables.push_back(ToLower(ins.table));
      for (const std::vector<ExprPtr>& row : ins.rows) {
        for (const ExprPtr& e : row) ScanExpr(e.get(), &plan);
      }
      ScanSelect(ins.select.get(), &plan);
      break;
    }
    case StatementKind::kUpdate: {
      const auto& upd = static_cast<const UpdateStmt&>(stmt);
      plan.write_tables.push_back(ToLower(upd.table));
      for (const auto& [name, e] : upd.assignments) ScanExpr(e.get(), &plan);
      ScanExpr(upd.where.get(), &plan);
      break;
    }
    case StatementKind::kDelete: {
      const auto& del = static_cast<const DeleteStmt&>(stmt);
      plan.write_tables.push_back(ToLower(del.table));
      ScanExpr(del.where.get(), &plan);
      break;
    }
    case StatementKind::kAssert: {
      const auto& a = static_cast<const AssertStmt&>(stmt);
      // A sole-session ASSERT (not the check-only CONFIDENCE form)
      // physically prunes: it rewrites every U-relation and collapses
      // world variables, so it needs the whole database to itself.
      if (sole_session && !a.min_confidence) {
        plan.catalog_exclusive = true;
      } else {
        ScanSelect(a.select.get(), &plan);
      }
      break;
    }
    case StatementKind::kShowEvidence:
    case StatementKind::kClearEvidence:
      break;  // session-local store; world shared (labels) via Acquire
    case StatementKind::kSet:
    case StatementKind::kExplain:
    case StatementKind::kShowStats:
      break;  // handled by the session before classification
  }
  return plan;
}

/// StatementKind -> dense metrics index (kStatementKindNames order in
/// metrics.cc mirrors the enum exactly).
size_t StatementKindIndex(StatementKind kind) {
  static_assert(static_cast<size_t>(StatementKind::kShowIndexes) + 1 ==
                    kNumStatementKinds,
                "kNumStatementKinds must track StatementKind");
  return static_cast<size_t>(kind);
}

uint64_t CurrentThreadHash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

/// Unwires the per-statement ConfPhaseCounters from the session's solver
/// options on every exit path (the options outlive the counters).
struct ConfWireGuard {
  explicit ConfWireGuard(ExecOptions* exec) : exec_(exec) {}
  ~ConfWireGuard() {
    exec_->exact.counters = nullptr;
    exec_->montecarlo.counters = nullptr;
  }
  ExecOptions* exec_;
};

}  // namespace

// --------------------------------------------------------------------------
// SessionManager
// --------------------------------------------------------------------------

SessionManager::SessionManager() = default;
SessionManager::~SessionManager() = default;

std::unique_ptr<Session> SessionManager::CreateSession(SessionOptions options) {
  // Not make_unique: the constructor is private to enforce creation here.
  return std::unique_ptr<Session>(new Session(this, std::move(options)));
}

SessionManager::StatementLocks SessionManager::Acquire(const LockPlan& plan,
                                                       LockWaitTimes* waits) {
  // Lock-wait visibility: time each acquisition only when a sink is
  // passed (metrics on), so the untimed path stays clock-free.
  StatementLocks held;
  uint64_t t0 = waits != nullptr ? MonotonicNs() : 0;
  if (plan.catalog_exclusive) {
    // Exclusive catalog access subsumes the world and table locks: every
    // other statement holds the catalog lock at least shared.
    held.catalog_unique = std::unique_lock<std::shared_mutex>(catalog_mu_);
    if (waits != nullptr) waits->catalog_ns = MonotonicNs() - t0;
    return held;
  }
  held.catalog_shared = std::shared_lock<std::shared_mutex>(catalog_mu_);
  if (waits != nullptr) {
    const uint64_t t1 = MonotonicNs();
    waits->catalog_ns = t1 - t0;
    t0 = t1;
  }
  if (plan.world_exclusive) {
    held.world_unique = std::unique_lock<std::shared_mutex>(world_mu_);
  } else {
    held.world_shared = std::shared_lock<std::shared_mutex>(world_mu_);
  }
  if (waits != nullptr) {
    const uint64_t t1 = MonotonicNs();
    waits->world_ns = t1 - t0;
    t0 = t1;
  }
  // Per-table statement locks in sorted-name order (the fixed global
  // order that makes the scheme deadlock-free). A name in both sets is
  // locked once, exclusively; names the catalog does not know are
  // skipped — the binder reports them moments later, under this same
  // catalog lock, so no table can appear in between.
  std::vector<std::pair<std::string, bool>> order;  // (name, exclusive)
  order.reserve(plan.read_tables.size() + plan.write_tables.size());
  for (const std::string& n : plan.read_tables) order.emplace_back(n, false);
  for (const std::string& n : plan.write_tables) order.emplace_back(n, true);
  std::sort(order.begin(), order.end());
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    bool exclusive = order[i].second;
    while (j < order.size() && order[j].first == order[i].first) {
      exclusive = exclusive || order[j].second;
      ++j;
    }
    Result<TablePtr> table = catalog_.GetTable(order[i].first);
    if (table.ok()) {
      if (exclusive) {
        held.table_unique.emplace_back((*table)->statement_lock());
      } else {
        held.table_shared.emplace_back((*table)->statement_lock());
      }
      held.pinned.push_back(std::move(*table));
    }
    i = j;
  }
  if (waits != nullptr) waits->table_ns = MonotonicNs() - t0;
  return held;
}

std::vector<std::pair<std::string, double>> SessionManager::StatsSnapshot() {
  std::vector<std::pair<std::string, double>> out = metrics_.Snapshot();
  // Point-in-time gauges live with their owning components (all
  // internally synchronized) and are folded in here rather than mirrored
  // into the registry — one source of truth per number.
  const DTreeCache::Stats dc = catalog_.dtree_cache().stats();
  out.emplace_back("dtree_cache.entries", static_cast<double>(dc.entries));
  out.emplace_back("dtree_cache.bytes", static_cast<double>(dc.bytes));
  out.emplace_back("dtree_cache.hits", static_cast<double>(dc.hits));
  out.emplace_back("dtree_cache.misses", static_cast<double>(dc.misses));
  out.emplace_back("dtree_cache.evictions", static_cast<double>(dc.evictions));
  out.emplace_back("dtree_cache.stale_purged",
                   static_cast<double>(dc.stale_purged));
  out.emplace_back("dtree_cache.component.hits",
                   static_cast<double>(dc.component_hits));
  out.emplace_back("dtree_cache.component.misses",
                   static_cast<double>(dc.component_misses));
  out.emplace_back("dtree_cache.estimate.hits",
                   static_cast<double>(dc.estimate_hits));
  out.emplace_back("dtree_cache.estimate.misses",
                   static_cast<double>(dc.estimate_misses));
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_ != nullptr) {
      out.emplace_back("pool.tasks_executed",
                       static_cast<double>(pool_->tasks_executed()));
      out.emplace_back("pool.tasks_stolen",
                       static_cast<double>(pool_->tasks_stolen()));
    }
  }
  out.emplace_back("sessions.live", static_cast<double>(num_sessions()));
  std::sort(out.begin(), out.end());
  return out;
}

std::string SessionManager::ExportTraceJson() {
  return ExportChromeTrace(traces_.Recent());
}

std::string SessionManager::Describe(const ConstraintStore* session_evidence) {
  // Same acquisition order as statements: catalog → world → tables (the
  // map iterates sorted names), each table shared so its stats are a
  // consistent cut against concurrent writers.
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  std::shared_lock<std::shared_mutex> world(world_mu_);
  std::string out = StringFormat("%-24s %-10s %8s %8s %8s %18s\n", "table",
                                 "kind", "rows", "chunks", "dirty",
                                 "snapshot reuse");
  for (const std::string& name : catalog_.TableNames()) {
    Result<TablePtr> table = catalog_.GetTable(name);
    if (!table.ok()) continue;
    std::shared_lock<std::shared_mutex> tl((*table)->statement_lock());
    const Table::SnapshotStats ss = (*table)->snapshot_stats();
    out += StringFormat("%-24s %-10s %8zu %8zu %8zu %8llu/%llu\n", name.c_str(),
                        (*table)->uncertain() ? "uncertain" : "t-certain",
                        (*table)->NumRows(), ss.chunks, ss.dirty_chunks,
                        static_cast<unsigned long long>(ss.chunks_reused),
                        static_cast<unsigned long long>(ss.chunks_reused +
                                                        ss.chunks_rebuilt));
  }
  out += StringFormat("world table: %zu variable(s)\n",
                      catalog_.world_table().NumVariables());
  size_t sessions = num_sessions();
  out += StringFormat("sessions: %zu live (snapshot_chunk_rows = %zu)\n",
                      sessions, catalog_.snapshot_chunk_rows());
  if (session_evidence != nullptr && session_evidence->active()) {
    out += StringFormat(
        "evidence (this session): %zu clause(s), P(C)=%.6g — conf()/aconf()/"
        "tconf() answers are posteriors (SHOW EVIDENCE; for details)\n",
        session_evidence->NumClauses(), session_evidence->probability());
  } else {
    out += "evidence (this session): none\n";
  }
  const DTreeCache::Stats dc = catalog_.dtree_cache().stats();
  const uint64_t probes = dc.hits + dc.misses;
  out += StringFormat(
      "d-tree cache: %zu entr%s (%.1f KiB), %llu hit(s) / %llu miss(es)",
      dc.entries, dc.entries == 1 ? "y" : "ies",
      static_cast<double>(dc.bytes) / 1024.0,
      static_cast<unsigned long long>(dc.hits),
      static_cast<unsigned long long>(dc.misses));
  if (probes > 0) {
    out += StringFormat(" — %.1f%% hit rate",
                        100.0 * static_cast<double>(dc.hits) /
                            static_cast<double>(probes));
  }
  if (dc.evictions + dc.stale_purged > 0) {
    out += StringFormat(", %llu evicted / %llu stale-purged",
                        static_cast<unsigned long long>(dc.evictions),
                        static_cast<unsigned long long>(dc.stale_purged));
  }
  out += "\n";
  if (dc.component_hits + dc.component_misses + dc.estimate_hits +
          dc.estimate_misses >
      0) {
    out += StringFormat(
        "  components: %llu hit(s) / %llu miss(es); aconf estimates: %llu "
        "hit(s) / %llu miss(es)\n",
        static_cast<unsigned long long>(dc.component_hits),
        static_cast<unsigned long long>(dc.component_misses),
        static_cast<unsigned long long>(dc.estimate_hits),
        static_cast<unsigned long long>(dc.estimate_misses));
  }
  return out;
}

std::string SessionManager::DescribeTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> cat(catalog_mu_);
  Result<TablePtr> table = catalog_.GetTable(name);
  if (!table.ok()) return table.status().ToString() + "\n";
  std::shared_lock<std::shared_mutex> tl((*table)->statement_lock());
  std::string out = StringFormat(
      "%s (%s, %zu rows)\n", (*table)->name().c_str(),
      (*table)->uncertain() ? "U-relation" : "t-certain table",
      (*table)->NumRows());
  for (const Column& col : (*table)->schema().columns()) {
    out += StringFormat("  %-20s %s\n", col.name.c_str(),
                        std::string(TypeIdToString(col.type)).c_str());
  }
  return out;
}

ThreadPool* SessionManager::SharedPool(unsigned want) {
  if (want <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        std::max(want, ThreadPool::DefaultThreads()));
  }
  return pool_.get();
}

// --------------------------------------------------------------------------
// Session
// --------------------------------------------------------------------------

Session::Session(SessionManager* manager, SessionOptions options)
    : manager_(manager),
      id_(manager->next_session_id_.fetch_add(1, std::memory_order_relaxed)),
      options_(std::move(options)) {
  // Reconcile the session's view of the DATABASE-level knobs with the
  // shared state, under the catalog lock (sessions may be created while
  // others run statements). An option differing from the compiled-in
  // default was set explicitly by this session's creator and is applied;
  // a default-valued option ADOPTS the current shared value instead, so
  // joining a server whose layout was restored from a dump (or tuned by
  // another session) does not silently reset it.
  const ExecOptions defaults;
  std::unique_lock<std::shared_mutex> lock(manager_->catalog_mu_);
  Catalog& catalog = manager_->catalog_;
  if (options_.exec.snapshot_chunk_rows != defaults.snapshot_chunk_rows) {
    catalog.SetSnapshotChunkRows(options_.exec.snapshot_chunk_rows);
  } else {
    options_.exec.snapshot_chunk_rows = catalog.snapshot_chunk_rows();
  }
  applied_chunk_rows_ = options_.exec.snapshot_chunk_rows;
  if (options_.exec.dtree_cache_budget != defaults.dtree_cache_budget) {
    catalog.dtree_cache().SetBudgetBytes(options_.exec.dtree_cache_budget);
  } else {
    options_.exec.dtree_cache_budget = catalog.dtree_cache().budget_bytes();
  }
  applied_cache_budget_ = options_.exec.dtree_cache_budget;
  manager_->live_sessions_.fetch_add(1, std::memory_order_acq_rel);
}

Session::~Session() {
  manager_->live_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<QueryResult> Session::RunSet(const SetStmt& set) {
  ExecOptions& exec = options_.exec;
  if (set.name == "dtree_node_budget" || set.name == "max_steps") {
    MAYBMS_ASSIGN_OR_RETURN(
        exec.exact.max_steps,
        SetUint(set, "a non-negative node count (0 = unlimited)",
                ~0ull / 2));
  } else if (set.name == "dtree_cache") {
    MAYBMS_ASSIGN_OR_RETURN(exec.dtree_cache, SetBool(set));
  } else if (set.name == "dtree_cache_budget") {
    MAYBMS_ASSIGN_OR_RETURN(
        uint64_t budget,
        SetUint(set, "a byte budget (0 = unlimited)", ~0ull / 2));
    // DATABASE-level knob: resizes the one cache every session shares.
    // The cache is internally synchronized, so no statement lock is
    // needed; the mirror records the applied value so the next statement
    // does not re-route it.
    exec.dtree_cache_budget = static_cast<size_t>(budget);
    manager_->catalog_.dtree_cache().SetBudgetBytes(exec.dtree_cache_budget);
    applied_cache_budget_ = exec.dtree_cache_budget;
  } else if (set.name == "conf_fallback") {
    MAYBMS_ASSIGN_OR_RETURN(exec.conf_fallback, SetBool(set));
  } else if (set.name == "fallback_epsilon") {
    MAYBMS_ASSIGN_OR_RETURN(exec.fallback_epsilon, SetFraction(set));
  } else if (set.name == "fallback_delta") {
    MAYBMS_ASSIGN_OR_RETURN(exec.fallback_delta, SetFraction(set));
  } else if (set.name == "num_threads") {
    MAYBMS_ASSIGN_OR_RETURN(
        uint64_t threads,
        SetUint(set, "a non-negative thread count (0 = hardware)",
                kMaxThreads));
    exec.num_threads = static_cast<unsigned>(threads);
  } else if (set.name == "dtree_component_cache") {
    MAYBMS_ASSIGN_OR_RETURN(exec.exact.component_cache, SetBool(set));
  } else if (set.name == "metrics") {
    MAYBMS_ASSIGN_OR_RETURN(exec.metrics, SetBool(set));
  } else if (set.name == "optimizer") {
    MAYBMS_ASSIGN_OR_RETURN(exec.optimizer, SetBool(set));
  } else if (set.name == "optimizer_semijoin") {
    MAYBMS_ASSIGN_OR_RETURN(exec.optimizer_semijoin, SetBool(set));
  } else if (set.name == "use_indexes") {
    MAYBMS_ASSIGN_OR_RETURN(exec.use_indexes, SetBool(set));
  } else if (set.name == "trace_sample") {
    MAYBMS_ASSIGN_OR_RETURN(
        exec.trace_sample,
        SetUint(set, "a statement interval (0 = off)", ~0ull / 2));
  } else if (set.name == "snapshot_chunk_rows") {
    MAYBMS_ASSIGN_OR_RETURN(
        uint64_t rows, SetUint(set, "a positive row count", ~0ull / 2));
    if (rows == 0) return KnobError(set, "a positive row count");
    // DATABASE-level knob: relays out every table's snapshot chunks, so
    // the change goes through the serialized write path — exclusive
    // catalog access, exactly like DDL — rather than being re-applied
    // from per-session options on every statement (which would let one
    // session's SET silently rewrite every other session's snapshots).
    exec.snapshot_chunk_rows = static_cast<size_t>(rows);
    {
      std::unique_lock<std::shared_mutex> lock(manager_->catalog_mu_);
      manager_->catalog_.SetSnapshotChunkRows(exec.snapshot_chunk_rows);
    }
    applied_chunk_rows_ = exec.snapshot_chunk_rows;
  } else {
    return Status::InvalidArgument(StringFormat(
        "unknown setting '%s' (supported: dtree_node_budget, dtree_cache, "
        "dtree_cache_budget, dtree_component_cache, snapshot_chunk_rows, "
        "conf_fallback, fallback_epsilon, fallback_delta, "
        "num_threads, metrics, optimizer, optimizer_semijoin, use_indexes, "
        "trace_sample)",
        set.name.c_str()));
  }
  return QueryResult(TableData{},
                     StringFormat("SET %s = %s", set.name.c_str(),
                                  set.value_text.c_str()));
}

Result<QueryResult> Session::RunStatement(const Statement& stmt,
                                          std::string_view sql_text,
                                          uint64_t parse_ns,
                                          uint64_t start_ns) {
  const bool obs = options_.exec.metrics;
  MetricsRegistry* reg = obs ? &manager_->metrics_ : nullptr;
  const auto* explain = stmt.kind == StatementKind::kExplain
                            ? static_cast<const ExplainStmt*>(&stmt)
                            : nullptr;
  if (explain != nullptr && !explain->analyze) {
    // Plain EXPLAIN never executes, so it skips the trace machinery too.
    Result<QueryResult> result = RunExplainPlan(*explain);
    if (reg != nullptr) {
      reg->AddStatement(StatementKindIndex(stmt.kind), !result.ok());
      ++statements_run_;
      if (!result.ok()) ++statements_failed_;
    }
    return result;
  }
  const bool analyze = explain != nullptr;
  const Statement& effective = analyze ? *explain->inner : stmt;
  // SET trace_sample = N collects a full EXPLAIN-ANALYZE-style operator
  // trace on every Nth statement of this session (counted here, under the
  // statement lock) into the shared trace buffer, without touching the
  // statement's own result. Like EXPLAIN ANALYZE, sampling is an explicit
  // request and works with metrics off; registry counters still honor the
  // metrics knob.
  const uint64_t sample_every = options_.exec.trace_sample;
  const bool sampled =
      sample_every > 0 && (++trace_sample_seq_ % sample_every == 0);
  if (!obs && !analyze && !sampled) {
    // Fast path with metrics off: no clocks, no trace, no counters.
    return DispatchStatement(effective, nullptr, nullptr, false);
  }
  // EXPLAIN ANALYZE traces even with metrics off — it is an explicit
  // request — but registry counters stay untouched in that case.
  StatementTrace trace;
  trace.session_id = id_;
  trace.thread_hash = CurrentThreadHash();
  trace.statement = std::string(sql_text.substr(0, 256));
  trace.parse_ns = parse_ns;
  const uint64_t t0 = MonotonicNs();
  trace.start_ns = start_ns != 0 ? start_ns : t0;
  Result<QueryResult> result =
      DispatchStatement(effective, &trace, reg, analyze || sampled);
  trace.total_ns = parse_ns + (MonotonicNs() - t0);
  trace.failed = !result.ok();
  if (reg != nullptr) {
    // The outer kind is counted — EXPLAIN ANALYZE is one kExplain
    // statement, never a double-count of its inner statement.
    reg->AddStatement(StatementKindIndex(stmt.kind), trace.failed);
    reg->RecordNs(Hist::kStmtTotal, trace.total_ns);
    if (trace.parse_ns != 0) reg->RecordNs(Hist::kStmtParse, trace.parse_ns);
    if (trace.bind_ns != 0) reg->RecordNs(Hist::kStmtBind, trace.bind_ns);
    if (trace.lock_wait_ns != 0) {
      reg->RecordNs(Hist::kStmtLockWait, trace.lock_wait_ns);
    }
    if (trace.execute_ns != 0) {
      reg->RecordNs(Hist::kStmtExecute, trace.execute_ns);
    }
    if (trace.lock_catalog_ns != 0) {
      reg->RecordNs(Hist::kLockCatalog, trace.lock_catalog_ns);
    }
    if (trace.lock_world_ns != 0) {
      reg->RecordNs(Hist::kLockWorld, trace.lock_world_ns);
    }
    if (trace.lock_table_ns != 0) {
      reg->RecordNs(Hist::kLockTable, trace.lock_table_ns);
    }
    // Confidence-phase durations (RunOrdinary folded the counters into
    // trace.conf). exact_ns times cache-miss solver work only, so warm
    // cache-hit statements record nothing here.
    if (trace.conf.exact_ns != 0) {
      reg->RecordNs(Hist::kConfExact, trace.conf.exact_ns);
    }
    if (trace.conf.aconf_ns != 0) {
      reg->RecordNs(Hist::kConfAconf, trace.conf.aconf_ns);
    }
    reg->Add(Counter::kTracesRecorded);
    ++statements_run_;
    if (trace.failed) ++statements_failed_;
  }
  auto rec = std::make_shared<const StatementTrace>(std::move(trace));
  if (analyze && result.ok()) {
    result->AppendMessage(rec->Render());
  }
  manager_->traces_.Record(std::move(rec));
  return result;
}

Result<QueryResult> Session::DispatchStatement(const Statement& stmt,
                                               StatementTrace* trace,
                                               MetricsRegistry* reg,
                                               bool analyze) {
  // Session settings mutate SessionOptions directly — no binding/planning.
  // Validation happens inside each knob's SET handler, never against the
  // current options (a SET must be able to FIX an invalid options()
  // assignment, not be blocked by it).
  if (stmt.kind == StatementKind::kSet) {
    return RunSet(static_cast<const SetStmt&>(stmt));
  }
  if (stmt.kind == StatementKind::kShowStats) {
    return RunShowStats(static_cast<const ShowStatsStmt&>(stmt));
  }
  return RunOrdinary(stmt, trace, reg, analyze);
}

Result<QueryResult> Session::RunShowStats(const ShowStatsStmt& stmt) {
  // No statement locks: every source is internally synchronized, and a
  // stats read must never queue behind a long-running writer.
  TableData data;
  data.schema.AddColumn(Column{"metric", TypeId::kString});
  data.schema.AddColumn(Column{"value", TypeId::kDouble});
  for (auto& [name, value] : manager_->StatsSnapshot()) {
    if (!stmt.pattern.empty() && !MetricNameLike(stmt.pattern, name)) continue;
    Row row;
    row.values.push_back(Value::String(std::move(name)));
    row.values.push_back(Value::Double(value));
    data.rows.push_back(std::move(row));
  }
  const size_t n = data.rows.size();
  return QueryResult(std::move(data), StringFormat("STATS %zu metric(s)", n));
}

Result<QueryResult> Session::RunExplainPlan(const ExplainStmt& stmt) {
  const StatementKind inner = stmt.inner->kind;
  if (inner == StatementKind::kSet || inner == StatementKind::kShowStats) {
    return QueryResult(TableData{}, "EXPLAIN: (no plan: session statement)");
  }
  // Binding reads table schemas only: catalog + world shared suffice.
  SessionManager::StatementLocks locks =
      manager_->Acquire(SessionManager::LockPlan{});
  MAYBMS_ASSIGN_OR_RETURN(BoundStatement bound,
                          BindStatement(manager_->catalog_, *stmt.inner));
  if (!bound.plan) {
    return QueryResult(TableData{}, "EXPLAIN: (no plan: DDL/DML statement)");
  }
  // EXPLAIN shows the plan that WOULD run: the optimized one (with its
  // cardinality estimates) under the current knobs.
  MAYBMS_RETURN_NOT_OK(
      OptimizePlan(&bound.plan, &manager_->stats_, options_.exec, nullptr,
                   &manager_->catalog_.index_manager()));
  return QueryResult(TableData{}, "EXPLAIN\n" + ExplainPlan(*bound.plan));
}

Result<QueryResult> Session::RunOrdinary(const Statement& stmt,
                                         StatementTrace* trace,
                                         MetricsRegistry* reg, bool analyze) {
  MAYBMS_RETURN_NOT_OK(ValidateExecOptions(options_.exec));
  const bool sole_session = manager_->num_sessions() == 1;
  SessionManager::LockPlan plan = ClassifyStatement(stmt, sole_session);
  // Database-level knobs assigned through options() rather than SET are
  // detected as drift against the applied mirror and routed through the
  // same write path SET uses: a layout change relays out every table, so
  // it escalates to exclusive catalog access for this one statement.
  const bool layout_drift =
      options_.exec.snapshot_chunk_rows != applied_chunk_rows_;
  const bool budget_drift =
      options_.exec.dtree_cache_budget != applied_cache_budget_;
  if (layout_drift) plan.catalog_exclusive = true;
  SessionManager::LockWaitTimes waits;
  SessionManager::StatementLocks locks =
      manager_->Acquire(plan, trace != nullptr ? &waits : nullptr);
  if (trace != nullptr) {
    trace->lock_catalog_ns = waits.catalog_ns;
    trace->lock_world_ns = waits.world_ns;
    trace->lock_table_ns = waits.table_ns;
    trace->lock_wait_ns = waits.catalog_ns + waits.world_ns + waits.table_ns;
  }
  Catalog& catalog = manager_->catalog_;
  if (layout_drift) {
    catalog.SetSnapshotChunkRows(options_.exec.snapshot_chunk_rows);
    applied_chunk_rows_ = options_.exec.snapshot_chunk_rows;
  }
  if (budget_drift) {
    catalog.dtree_cache().SetBudgetBytes(options_.exec.dtree_cache_budget);
    applied_cache_budget_ = options_.exec.dtree_cache_budget;
  }
  const uint64_t bind0 = trace != nullptr ? MonotonicNs() : 0;
  MAYBMS_ASSIGN_OR_RETURN(BoundStatement bound, BindStatement(catalog, stmt));
  // Cost-based optimization is part of planning (counted in bind_ns).
  // OptimizePlan is a no-op when the knob is off; the stats cache is
  // shared across sessions and version-invalidated, so reading it here
  // under the statement locks observes the same consistent cut the
  // executor will.
  if (bound.plan != nullptr) {
    OptimizerCounters opt;
    MAYBMS_RETURN_NOT_OK(
        OptimizePlan(&bound.plan, &manager_->stats_, options_.exec, &opt,
                     &catalog.index_manager()));
    if (reg != nullptr) {
      auto add = [reg](Counter c, uint64_t v) {
        if (v != 0) reg->Add(c, v);
      };
      add(Counter::kOptPlansConsidered, opt.plans_considered);
      add(Counter::kOptReorders, opt.reorders_applied);
      add(Counter::kOptSemijoinsInserted, opt.semijoins_inserted);
      add(Counter::kOptSemijoinsSkipped, opt.semijoins_skipped);
      add(Counter::kOptIndexScans, opt.index_scans);
    }
  }
  if (trace != nullptr) trace->bind_ns = MonotonicNs() - bind0;
  // Wire the catalog's cross-statement compilation cache into the solver
  // options (re-pointed every statement: the knob may have toggled, and a
  // moved Database must not keep a pointer into its moved-from catalog).
  // Sessions with different evidence can never alias entries: evidence
  // rides in the Q∧C product lineage the keys hash, not in a key axis.
  options_.exec.exact.cache =
      options_.exec.dtree_cache ? &catalog.dtree_cache() : nullptr;
  // The seeded aconf estimate cache shares the same store and toggle; its
  // keys carry the world version the statement observes.
  options_.exec.montecarlo.cache = options_.exec.exact.cache;
  options_.exec.montecarlo.world_version = catalog.world_table().version();
  // Per-statement confidence-phase counters, wired through the solver
  // options so every conf path (aggregates, fallbacks, posteriors)
  // reports to them. OUTSIDE the cache-key fingerprints — attaching them
  // cannot perturb cached results. Unwired on every exit path: options_
  // outlives the counters.
  ConfPhaseCounters conf_counters;
  ConfWireGuard unwire(&options_.exec);
  if (trace != nullptr) {
    options_.exec.exact.counters = &conf_counters;
    options_.exec.montecarlo.counters = &conf_counters;
  }
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.options = &options_.exec;
  std::atomic<uint64_t> conf_fallbacks{0};
  ctx.conf_fallbacks = &conf_fallbacks;
  ctx.session_constraints = &constraints_;
  ctx.allow_prune = sole_session;
  ctx.metrics = reg;
  // The operator tree is collected only under EXPLAIN ANALYZE: routine
  // statements keep the phase-level trace (near-zero cost), never the
  // per-operator clock reads.
  ctx.trace = analyze ? trace : nullptr;
  ctx.trace_parent = nullptr;
  // num_threads == 1 runs fully serial (no pool); anything else shares
  // the manager's pool. Morsel boundaries
  // and fold orders are thread-count-invariant, so the shared pool's size
  // never shows in results.
  unsigned want = options_.exec.num_threads != 0 ? options_.exec.num_threads
                                                 : ThreadPool::DefaultThreads();
  ctx.pool = want > 1 ? manager_->SharedPool(want) : nullptr;
  const uint64_t exec0 = trace != nullptr ? MonotonicNs() : 0;
  Result<StatementResult> executed = ExecuteStatement(bound, &ctx);
  if (trace != nullptr || reg != nullptr) {
    // One atomic sweep of the statement's conf counters feeds both sinks.
    const ConfPhaseSample sample = conf_counters.Sample();
    if (trace != nullptr) {
      trace->execute_ns = MonotonicNs() - exec0;
      trace->conf = sample;
    }
    if (reg != nullptr) {
      reg->FoldConfPhases(sample);
      if (uint64_t n = conf_fallbacks.load(std::memory_order_relaxed); n > 0) {
        reg->Add(Counter::kConfFallbacks, n);
      }
    }
  }
  MAYBMS_RETURN_NOT_OK(executed.status());
  StatementResult result = std::move(*executed);
  if (uint64_t n = conf_fallbacks.load(std::memory_order_relaxed); n > 0) {
    if (!result.message.empty()) result.message += "\n";
    result.message += StringFormat(
        "warning: conf() exceeded the exact node budget (dtree_node_budget="
        "%llu) on %llu group(s); returned seeded aconf(%g, %g) fallback "
        "estimates",
        static_cast<unsigned long long>(options_.exec.exact.max_steps),
        static_cast<unsigned long long>(n), options_.exec.fallback_epsilon,
        options_.exec.fallback_delta);
  }
  if (result.has_data) {
    return QueryResult(std::move(result.data), std::move(result.message));
  }
  return QueryResult(TableData{}, std::move(result.message));
}

Result<QueryResult> Session::Query(std::string_view sql) {
  // Parsing happens inside the statement lock so the metrics knob (which
  // decides whether to time it, and is mutable via SET on this same
  // logical connection) is read race-free; parsing is pure and fast.
  std::lock_guard<std::mutex> lock(statement_mu_);
  const bool obs = options_.exec.metrics;
  const uint64_t t0 = obs ? MonotonicNs() : 0;
  MAYBMS_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  const uint64_t parse_ns = obs ? MonotonicNs() - t0 : 0;
  return RunStatement(*stmt, sql, parse_ns, t0);
}

Status Session::Execute(std::string_view sql) {
  Result<QueryResult> result = Query(sql);
  return result.ok() ? Status::OK() : result.status();
}

Result<QueryResult> Session::ExecuteScript(std::string_view sql) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  std::lock_guard<std::mutex> lock(statement_mu_);
  QueryResult last;
  for (const StatementPtr& stmt : stmts) {
    // Script statements share one upfront parse; their traces carry the
    // whole script text and no per-statement parse time.
    MAYBMS_ASSIGN_OR_RETURN(last, RunStatement(*stmt, sql, 0, 0));
  }
  return last;
}

Result<std::string> Session::Explain(std::string_view sql) {
  MAYBMS_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  std::lock_guard<std::mutex> lock(statement_mu_);
  // Binding reads table schemas only: catalog + world shared suffice.
  SessionManager::StatementLocks locks =
      manager_->Acquire(SessionManager::LockPlan{});
  MAYBMS_ASSIGN_OR_RETURN(BoundStatement bound,
                          BindStatement(manager_->catalog_, *stmt));
  if (!bound.plan) return std::string("(no plan: DDL/DML statement)\n");
  MAYBMS_RETURN_NOT_OK(
      OptimizePlan(&bound.plan, &manager_->stats_, options_.exec, nullptr,
                   &manager_->catalog_.index_manager()));
  return ExplainPlan(*bound.plan);
}

}  // namespace maybms
