#include "perfbench/trace.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/conf/exact.h"
#include "src/conf/montecarlo.h"
#include "src/exec/conf_fallback.h"
#include "src/exec/executor.h"
#include "src/index/index_manager.h"
#include "src/lineage/dtree.h"
#include "src/obs/metrics.h"
#include "src/opt/optimizer.h"
#include "src/plan/planner.h"
#include "src/server/server.h"
#include "src/sql/parser.h"
#include "src/storage/persist.h"

namespace perfbench {

using maybms::Result;
using maybms::SessionManager;
using maybms::Status;
using maybms::StringFormat;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Chrome trace tracks (tid): one per replay.
constexpr int kTrackLayers = 1;   // decomposed module calls
constexpr int kTrackClient = 2;   // Client::Request, one client at a time
constexpr int kTrackStorage = 3;  // load / save
constexpr int kTrackFlipped = 4;  // Session::Query at flipped num_threads

// Every kFlipEvery-th request of each client also runs at flipped
// num_threads.
constexpr size_t kFlipEvery = 2;
// About this many conf/aconf requests, evenly spaced, get the lineage
// replay (it re-solves every group serially without the cache).
constexpr size_t kLineageSamples = 200;

uint64_t RequestId(size_t client, size_t index) {
  return static_cast<uint64_t>(client) * 1000000 + index;
}

double Ms(uint64_t ns, size_t n) {
  return n == 0 ? 0 : static_cast<double>(ns) / 1e6 / static_cast<double>(n);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Sums over the decomposed replay's measured requests.
struct LayerSums {
  size_t requests = 0;
  uint64_t parse_ns = 0, bind_ns = 0, optimize_ns = 0, execute_ns = 0;
  // Execution of the sampled conf/aconf requests, and of the same
  // statements without their confidence aggregate.
  uint64_t sampled_execute_ns = 0, lineage_execute_ns = 0;
  uint64_t plans_considered = 0, index_scans = 0, rows_out = 0;
  size_t lineage_requests = 0;
  uint64_t compile_ns = 0, dtree_nodes = 0, dnf_clauses = 0;
  size_t exact_requests = 0, aconf_requests = 0;
  uint64_t exact_ns = 0, aconf_ns = 0, kl_trials = 0;
  size_t index_lookups = 0;
  uint64_t index_ns = 0, candidate_rows = 0;
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t cache_hits = 0, cache_probes = 0;
  double load_s = 0, save_s = 0, bytes_per_user_byte = 0;
};

/// Bytes of user data in every table: 8 per number, the length of each
/// string. Condition columns are the engine's, not the user's.
double UserBytes(const maybms::Catalog& catalog) {
  double bytes = 0;
  for (const std::string& name : catalog.TableNames()) {
    Result<maybms::TablePtr> table = catalog.GetTable(name);
    if (!table.ok()) continue;
    for (const maybms::Row& row : (*table)->rows()) {
      for (const maybms::Value& v : row.values) {
        bytes += v.type() == maybms::TypeId::kString
                     ? static_cast<double>(v.AsString().size())
                     : 8.0;
      }
    }
  }
  return bytes;
}

/// One statement through the engine's module entry points, in the order
/// Session::Query calls them, on one replayed client's knobs and evidence.
class Decomposer {
 public:
  Decomposer(SessionManager* manager, Tracer* tracer, unsigned nproc)
      : manager_(manager), tracer_(tracer), nproc_(nproc) {}

  struct Step {
    uint64_t parse_ns = 0, bind_ns = 0, optimize_ns = 0, execute_ns = 0;
    maybms::OptimizerCounters opt;
    maybms::StatementResult result;
  };
  /// Span names of the four phases.
  struct Names {
    const char* parse;
    const char* bind;
    const char* optimize;
    const char* execute;
  };
  static constexpr Names kRequest = {"sql.parse", "plan.bind", "opt.optimize",
                                     "exec.execute"};
  static constexpr Names kLineage = {"lineage.parse", "lineage.bind",
                                     "lineage.optimize", "lineage.execute"};

  /// `knobs` carries the client's SET state and evidence store.
  Status Run(const std::string& sql, uint64_t id, maybms::Session* knobs,
             const Names& names, Step* step) {
    maybms::Catalog& catalog = manager_->catalog();
    size_t span = tracer_->Begin(names.parse, id, kTrackLayers);
    Result<maybms::StatementPtr> stmt = maybms::ParseStatement(sql);
    step->parse_ns = End(span);
    MAYBMS_RETURN_NOT_OK(stmt.status());
    if ((*stmt)->kind == maybms::StatementKind::kSet) {
      return knobs->Query(sql).status();  // session state, not a module call
    }
    maybms::ExecOptions exec = knobs->options().exec;
    span = tracer_->Begin(names.bind, id, kTrackLayers);
    Result<maybms::BoundStatement> bound = maybms::BindStatement(catalog, **stmt);
    step->bind_ns = End(span);
    MAYBMS_RETURN_NOT_OK(bound.status());
    if (bound->plan != nullptr) {
      span = tracer_->Begin(names.optimize, id, kTrackLayers);
      Status st = maybms::OptimizePlan(&bound->plan, &manager_->stats(), exec,
                                       &step->opt, &catalog.index_manager());
      step->optimize_ns = End(span);
      MAYBMS_RETURN_NOT_OK(st);
    }
    // The same wiring Session gives every statement.
    exec.exact.cache = exec.dtree_cache ? &catalog.dtree_cache() : nullptr;
    exec.montecarlo.cache = exec.exact.cache;
    exec.montecarlo.world_version = catalog.world_table().version();
    std::atomic<uint64_t> fallbacks{0};
    maybms::ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.rng = &rng_;
    ctx.options = &exec;
    ctx.conf_fallbacks = &fallbacks;
    ctx.session_constraints = &knobs->constraints();
    ctx.allow_prune = false;
    ctx.metrics = &metrics_;
    const unsigned want = exec.num_threads != 0 ? exec.num_threads
                                                : maybms::ThreadPool::DefaultThreads();
    if (want > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<maybms::ThreadPool>(std::max(want, nproc_));
    }
    ctx.pool = want > 1 ? pool_.get() : nullptr;
    span = tracer_->Begin(names.execute, id, kTrackLayers);
    Result<maybms::StatementResult> result = maybms::ExecuteStatement(*bound, &ctx);
    step->execute_ns = End(span);
    MAYBMS_RETURN_NOT_OK(result.status());
    step->result = std::move(*result);
    return Status::OK();
  }

  maybms::MetricsRegistry& metrics() { return metrics_; }

 private:
  uint64_t End(size_t span) {
    tracer_->End(span);
    const Tracer::Span& s = tracer_->spans()[span];
    return s.end_ns - s.start_ns;
  }

  SessionManager* manager_;
  Tracer* tracer_;
  unsigned nproc_;
  maybms::Rng rng_{42};
  maybms::MetricsRegistry metrics_;
  std::unique_ptr<maybms::ThreadPool> pool_;
};

/// The statement's conditioned rows, one DNF per group (every selected
/// column is the group key), compiled and solved module by module.
Status LineageReplay(const Request& req, uint64_t id, maybms::Session* knobs,
                     Decomposer* decomposer, const maybms::WorldTable& worlds,
                     Tracer* tracer, LayerSums* sums) {
  const size_t root = tracer->Begin("lineage.replay", id, kTrackLayers);
  Decomposer::Step step;
  MAYBMS_RETURN_NOT_OK(
      decomposer->Run(req.lineage_sql, id, knobs, Decomposer::kLineage, &step));
  sums->lineage_execute_ns += step.execute_ns;
  std::map<std::string, maybms::Dnf> groups;
  for (const maybms::Row& row : step.result.data.rows) {
    std::string key;
    for (const maybms::Value& v : row.values) key += v.ToString() + '\x1f';
    groups[key].AddClause(row.condition);
  }
  for (const auto& [key, dnf] : groups) {
    const maybms::CompiledDnf compiled(dnf, worlds);
    sums->dnf_clauses += dnf.NumClauses();
    size_t span = tracer->Begin("lineage.compile", id, kTrackLayers);
    Result<maybms::DTree> tree = maybms::CompileDTree(compiled);
    tracer->End(span);
    MAYBMS_RETURN_NOT_OK(tree.status());
    sums->dtree_nodes += tree->NumNodes();
    sums->compile_ns += tracer->spans()[span].end_ns - tracer->spans()[span].start_ns;
    if (req.cls == Cls::kConf) {
      span = tracer->Begin("conf.exact", id, kTrackLayers);
      Result<double> p = maybms::ExactConfidence(compiled, worlds);
      tracer->End(span);
      MAYBMS_RETURN_NOT_OK(p.status());
      sums->exact_ns += tracer->spans()[span].end_ns - tracer->spans()[span].start_ns;
    } else {
      span = tracer->Begin("conf.aconf", id, kTrackLayers);
      // Serial (no pool), so the time is the sampler's own work.
      Result<maybms::MonteCarloResult> est = maybms::ApproxConfidenceSeeded(
          compiled, req.epsilon, req.delta, maybms::LineageSeed(compiled));
      tracer->End(span);
      MAYBMS_RETURN_NOT_OK(est.status());
      sums->aconf_ns += tracer->spans()[span].end_ns - tracer->spans()[span].start_ns;
      sums->kl_trials += est->samples;
    }
  }
  tracer->End(root);
  ++sums->lineage_requests;
  ++(req.cls == Cls::kConf ? sums->exact_requests : sums->aconf_requests);
  return Status::OK();
}

maybms::SecondaryIndexPtr FindIndex(maybms::Catalog& catalog, const Workload& w) {
  for (const auto& index : catalog.index_manager().IndexesOn(w.table)) {
    if (index->def().column == w.index_column) return index;
  }
  return nullptr;
}

uint64_t TotalHits(const maybms::DTreeCache::Stats& s) {
  return s.hits + s.component_hits + s.estimate_hits;
}
uint64_t TotalProbes(const maybms::DTreeCache::Stats& s) {
  return TotalHits(s) + s.misses + s.component_misses + s.estimate_misses;
}

std::string FlipThreads(const std::string& stmt, unsigned threads, unsigned nproc) {
  if (stmt.rfind("set num_threads", 0) != 0) return stmt;
  return StringFormat("set num_threads = %u", threads == 1 ? nproc : 1u);
}

/// Two more instances of the workload's data, driven request by request
/// in lockstep with the solo replay (instance A, timed around
/// Session::Query), so machine drift hits both sides of each comparison
/// alike:
///   B  the decomposed replay: each statement split into parse / bind /
///      optimize / execute, followed by the lineage and index probes;
///   D  Session::Query with every client's num_threads flipped between 1
///      and nproc.
/// Their answers must match A's bit for bit.
class TracedReplay : public ReplayObserver {
 public:
  TracedReplay(const RunOptions& opt, const Workload& w, const std::string& file,
               Tracer* tracer, std::vector<std::string>* problems)
      : opt_(opt), w_(w), file_(file), tracer_(tracer),
        problems_(problems), decomposer_(&b_, tracer, opt.nproc) {}

  Status Start() {
    const size_t span = tracer_->Begin(
        w_.loads_file ? "storage.load" : "storage.setup_sql", 0, kTrackStorage);
    Status st = LoadInstance(w_, file_, &b_);
    tracer_->End(span);
    MAYBMS_RETURN_NOT_OK(st);
    if (w_.loads_file) sums_.load_s = SpanNs(span) / 1e9;
    MAYBMS_RETURN_NOT_OK(LoadInstance(w_, file_, &d_));
    // A second live session per instance keeps evidence per session.
    b_guard_ = b_.CreateSession();
    d_guard_ = d_.CreateSession();
    cache0_ = b_.catalog().dtree_cache().stats();
    const size_t confidence = w_.ClassCount(Cls::kConf) + w_.ClassCount(Cls::kAconf);
    lineage_every_ = std::max<size_t>(1, confidence / kLineageSamples);
    flipped_ns_.assign(w_.clients.size(), {});
    return Status::OK();
  }

  Status BeginClient(size_t k) override {
    const ClientPlan& plan = w_.clients[k];
    knobs_ = b_.CreateSession();
    for (const std::string& sql : plan.prologue) {
      Decomposer::Step step;
      MAYBMS_RETURN_NOT_OK(decomposer_.Run(sql, RequestId(k, kPrologue), knobs_.get(),
                                           Decomposer::kRequest, &step));
    }
    flipped_ = d_.CreateSession();
    for (const std::string& sql : plan.prologue) {
      MAYBMS_RETURN_NOT_OK(
          flipped_->Query(FlipThreads(sql, plan.num_threads, opt_.nproc)).status());
    }
    flipped_ns_[k].resize(plan.requests.size());
    return Status::OK();
  }

  Status AfterRequest(size_t k, size_t i, const Outcome& a) override {
    const Request& req = w_.clients[k].requests[i];
    const uint64_t id = RequestId(k, i);
    MAYBMS_RETURN_NOT_OK(Decomposed(k, i, req, id, a));
    if (i % kFlipEvery != 0) return Status::OK();

    const size_t span = tracer_->Begin("engine.query_flipped", id, kTrackFlipped);
    Result<maybms::QueryResult> d = flipped_->Query(req.sql);
    tracer_->End(span);
    flipped_ns_[k][i] = static_cast<uint64_t>(SpanNs(span));
    if (!d.ok()) {
      Problem("flipped-thread replay: session %zu request %zu failed", k, i);
    } else if (a.ok && ValueDigest(*d) != a.values) {
      Problem("session %zu request %zu (%s): values differ between num_threads "
              "1 and nproc", k, i, ClassName(req.cls));
    }
    return Status::OK();
  }

  Status EndClient(size_t) override {
    knobs_.reset();
    flipped_.reset();
    return Status::OK();
  }

  /// After the replay: cache and buffer-pool deltas, then saving the
  /// post-run database (ingest, which loads no file at setup, times
  /// loading that one back instead).
  Status Finish() {
    maybms::Catalog& catalog = b_.catalog();
    const maybms::DTreeCache::Stats cache1 = catalog.dtree_cache().stats();
    sums_.cache_hits = TotalHits(cache1) - TotalHits(cache0_);
    sums_.cache_probes = TotalProbes(cache1) - TotalProbes(cache0_);
    const maybms::MetricsRegistry& reg = decomposer_.metrics();
    sums_.pool_hits = reg.Get(maybms::Counter::kBufferPoolHits);
    sums_.pool_misses = reg.Get(maybms::Counter::kBufferPoolMisses);

    const std::string saved = opt_.workdir + "/post-run.db";
    size_t span = tracer_->Begin("storage.save", 0, kTrackStorage);
    Status st = maybms::SaveDatabaseToFile(catalog, saved);
    tracer_->End(span);
    MAYBMS_RETURN_NOT_OK(st);
    sums_.save_s = SpanNs(span) / 1e9;
    std::error_code ec;
    const double file_bytes = static_cast<double>(std::filesystem::file_size(saved, ec));
    sums_.bytes_per_user_byte = Ratio(file_bytes, UserBytes(catalog));
    if (!w_.loads_file) {
      SessionManager reload;
      span = tracer_->Begin("storage.load", 0, kTrackStorage);
      st = maybms::LoadDatabaseFromFile(saved, &reload.catalog());
      tracer_->End(span);
      MAYBMS_RETURN_NOT_OK(st);
      sums_.load_s = SpanNs(span) / 1e9;
    }
    std::filesystem::remove(saved, ec);
    return Status::OK();
  }

  const LayerSums& sums() const { return sums_; }
  const std::vector<std::vector<uint64_t>>& flipped_ns() const { return flipped_ns_; }

 private:
  static constexpr size_t kPrologue = 999999;  // request index of prologue statements

  Status Decomposed(size_t k, size_t i, const Request& req, uint64_t id,
                    const Outcome& a) {
    Decomposer::Step step;
    const size_t root = tracer_->Begin("request", id, kTrackLayers);
    Status st = decomposer_.Run(req.sql, id, knobs_.get(), Decomposer::kRequest, &step);
    tracer_->End(root);
    if (!st.ok()) {
      Problem("decomposed replay: session %zu request %zu failed: %s", k, i,
              st.ToString().c_str());
      return Status::OK();
    }
    ++sums_.requests;
    sums_.parse_ns += step.parse_ns;
    sums_.bind_ns += step.bind_ns;
    sums_.optimize_ns += step.optimize_ns;
    sums_.execute_ns += step.execute_ns;
    sums_.plans_considered += step.opt.plans_considered;
    sums_.index_scans += step.opt.index_scans;
    sums_.rows_out += step.result.data.rows.size();
    const bool has_data = step.result.has_data;
    const maybms::QueryResult answer(std::move(step.result.data), "");
    if (has_data && a.ok &&
        (PayloadDigest(answer) != a.digest || ValueDigest(answer) != a.values)) {
      Problem("decomposed replay: session %zu request %zu (%s) differs from "
              "Session::Query", k, i, ClassName(req.cls));
    }
    maybms::Catalog& catalog = b_.catalog();
    if (req.cls == Cls::kConf || req.cls == Cls::kAconf) {
      if (confidence_requests_++ % lineage_every_ == 0) {
        sums_.sampled_execute_ns += step.execute_ns;
        MAYBMS_RETURN_NOT_OK(LineageReplay(req, id, knobs_.get(), &decomposer_,
                                           catalog.world_table(), tracer_, &sums_));
      }
    } else if (req.cls == Cls::kLookup) {
      maybms::SecondaryIndexPtr index = FindIndex(catalog, w_);
      if (index == nullptr) {
        return Status::NotFound(
            StringFormat("no index on %s.%s", w_.table, w_.index_column));
      }
      MAYBMS_ASSIGN_OR_RETURN(maybms::TablePtr table, catalog.GetTable(w_.table));
      std::vector<uint64_t> ids;
      const maybms::Value key = maybms::Value::Int(req.key);
      const size_t span = tracer_->Begin("index.lookup", id, kTrackLayers);
      Status lst = index->Lookup(*table, key, key, &ids, &decomposer_.metrics());
      tracer_->End(span);
      MAYBMS_RETURN_NOT_OK(lst);
      ++sums_.index_lookups;
      sums_.index_ns += static_cast<uint64_t>(SpanNs(span));
      sums_.candidate_rows += ids.size();
    }
    return Status::OK();
  }

  double SpanNs(size_t span) const {
    const Tracer::Span& s = tracer_->spans()[span];
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  template <typename... Args>
  void Problem(const char* fmt, Args... args) {
    problems_->push_back(StringFormat(fmt, args...));
  }

  const RunOptions& opt_;
  const Workload& w_;
  const std::string& file_;
  Tracer* tracer_;
  std::vector<std::string>* problems_;
  SessionManager b_, d_;
  std::unique_ptr<maybms::Session> b_guard_, d_guard_;
  Decomposer decomposer_;
  maybms::DTreeCache::Stats cache0_;
  size_t lineage_every_ = 1;
  size_t confidence_requests_ = 0;
  LayerSums sums_;
  // The current client's sessions.
  std::unique_ptr<maybms::Session> knobs_, flipped_;
  std::vector<std::vector<uint64_t>> flipped_ns_;
};

/// Each client's list sent alone, one connection at a time, back to back
/// over a server on a fresh instance: the solo round trips that
/// engine.wait_share and server.overhead compare against. Its answers
/// must render like the solo replay's.
Status SoloClientPass(const RunOptions& opt, const Workload& w,
                      const std::string& file, const Replay& solo, Tracer* tracer,
                      std::vector<SessionOutcomes>* out,
                      std::vector<std::string>* problems) {
  SessionManager manager;
  MAYBMS_RETURN_NOT_OK(LoadInstance(w, file, &manager));
  auto guard = manager.CreateSession();  // evidence stays per session
  maybms::Server server(&manager, maybms::SessionOptions{}, 2);
  MAYBMS_RETURN_NOT_OK(server.Start(opt.workdir + "/replay.sock"));
  for (size_t k = 0; k < w.clients.size(); ++k) {
    maybms::Client client;
    MAYBMS_RETURN_NOT_OK(client.Connect(server.socket_path()));
    for (const std::string& sql : w.clients[k].prologue) {
      MAYBMS_ASSIGN_OR_RETURN(maybms::ServerReply reply, client.Request(sql));
      if (!reply.ok) return Status::ExecutionError("prologue refused: " + reply.message);
    }
    SessionOutcomes outcomes(w.clients[k].requests.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const size_t span = tracer->Begin("server.request", RequestId(k, i), kTrackClient);
      Result<maybms::ServerReply> reply = client.Request(w.clients[k].requests[i].sql);
      tracer->End(span);
      const Tracer::Span& s = tracer->spans()[span];
      outcomes[i].ns = s.end_ns - s.start_ns;
      if (reply.ok() && reply->ok) {
        outcomes[i].ok = true;
        outcomes[i].digest = PayloadDigest(reply->lines);
      } else {
        outcomes[i].error = reply.ok() ? reply->message : reply.status().ToString();
      }
    }
    client.Close();
    out->push_back(std::move(outcomes));
  }
  server.Stop();
  std::vector<std::string> log;
  CompareAnswers(w, *out, solo.sessions, &log);
  for (const std::string& l : log) problems->push_back("client pass: " + l);
  if (const size_t failed = CountFailed(*out); failed > 0) {
    problems->push_back(StringFormat("client pass: %zu requests failed", failed));
  }
  return Status::OK();
}

}  // namespace

size_t Tracer::Begin(const char* name, uint64_t request, int track) {
  const int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, NowNs(), 0, parent, request, track});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << StringFormat(
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
        "\"parent\": %lld}}",
        i == 0 ? "" : ",\n", s.name, s.track,
        static_cast<double>(s.start_ns - t0) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.request), static_cast<long long>(s.parent));
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::vector<Tracer::LayerTime> Tracer::LayerSplit() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<LayerTime> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, added] = slot.emplace(s.name, out.size());
    if (added) out.push_back(LayerTime{s.name});
    LayerTime& t = out[it->second];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

Status RunTraced(const RunOptions& opt, const Workload& w, const std::string& file,
                 const E2eResult& e2e, Replay* solo, TraceResult* out,
                 std::vector<std::string>* problems) {
  Tracer tracer;
  TracedReplay traced(opt, w, file, &tracer, problems);
  MAYBMS_RETURN_NOT_OK(traced.Start());
  MAYBMS_RETURN_NOT_OK(RunReplay(w, file, solo, problems, &traced));
  MAYBMS_RETURN_NOT_OK(traced.Finish());
  ReleaseFreedMemory();
  std::vector<SessionOutcomes> client;
  MAYBMS_RETURN_NOT_OK(SoloClientPass(opt, w, file, *solo, &tracer, &client, problems));
  const LayerSums& sums = traced.sums();
  out->counts = {sums.dtree_nodes, sums.cache_hits, sums.index_scans};

  // Paired per request: A (Session::Query) and D (flipped num_threads)
  // ran the statement back to back; the client pass ran it on its own.
  uint64_t query_ns = 0, flipped_ns = 0, paired_query_ns = 0;
  size_t queries = 0;
  std::vector<double> overhead_ms;
  for (size_t k = 0; k < w.clients.size(); ++k) {
    for (size_t i = 0; i < w.clients[k].requests.size(); ++i) {
      const Outcome& a = solo->sessions[k][i];
      const Outcome& c = client[k][i];
      if (!a.ok) continue;
      ++queries;
      query_ns += a.ns;
      if (i % kFlipEvery == 0) {
        paired_query_ns += a.ns;
        flipped_ns += traced.flipped_ns()[k][i];
      }
      if (c.ok) {
        overhead_ms.push_back((static_cast<double>(c.ns) - static_cast<double>(a.ns)) / 1e6);
      }
    }
  }
  const uint64_t layer_ns = sums.parse_ns + sums.bind_ns + sums.optimize_ns + sums.execute_ns;
  const bool parallel_list = w.clients.front().num_threads > 1;
  const double t1 = static_cast<double>(parallel_list ? flipped_ns : paired_query_ns);
  const double tn = static_cast<double>(parallel_list ? paired_query_ns : flipped_ns);
  const auto e2e_ns = ClassLatencies(w, e2e.sessions);
  const auto client_ns = ClassLatencies(w, client);

  Report& r = out->layers;
  r.Add("server.overhead_p50_ms", Median(overhead_ms), "ms");
  r.Add("engine.query_ms", Ms(query_ns, queries), "ms");
  r.Add("engine.unattributed_share",
        1.0 - Ratio(static_cast<double>(layer_ns), static_cast<double>(query_ns)),
        "fraction");
  for (size_t c = 0; c < kNumClasses; ++c) {
    const double e2e_p50 = PercentileMs(e2e_ns[c], 0.5);
    r.Add(StringFormat("engine.wait_share.%s", ClassName(static_cast<Cls>(c))),
          Ratio(e2e_p50 - PercentileMs(client_ns[c], 0.5), e2e_p50), "fraction");
  }
  r.Add("sql.parse_ms", Ms(sums.parse_ns, sums.requests), "ms");
  r.Add("plan.bind_ms", Ms(sums.bind_ns, sums.requests), "ms");
  r.Add("opt.optimize_ms", Ms(sums.optimize_ns, sums.requests), "ms");
  r.Add("opt.plans_considered", static_cast<double>(sums.plans_considered), "count");
  r.Add("opt.index_scans", static_cast<double>(sums.index_scans), "count");
  r.Add("exec.execute_ms", Ms(sums.execute_ns, sums.requests), "ms");
  // Execution minus its confidence work: the sampled conf/aconf requests
  // count the execution of their aggregate-free statement instead.
  r.Add("exec.self_ms",
        Ms(sums.execute_ns - sums.sampled_execute_ns + sums.lineage_execute_ns,
           sums.requests),
        "ms");
  r.Add("exec.rows_out", static_cast<double>(sums.rows_out), "count");
  r.Add("exec.parallel_speedup", Ratio(t1, tn), "x");
  r.Add("lineage.compile_ms", Ms(sums.compile_ns, sums.lineage_requests), "ms");
  r.Add("lineage.dtree_nodes", static_cast<double>(sums.dtree_nodes), "count");
  r.Add("lineage.dnf_clauses", static_cast<double>(sums.dnf_clauses), "count");
  r.Add("lineage.cache_hits", static_cast<double>(sums.cache_hits), "count");
  r.Add("lineage.cache_hit_ratio",
        Ratio(static_cast<double>(sums.cache_hits), static_cast<double>(sums.cache_probes)),
        "fraction");
  r.Add("conf.exact_ms", Ms(sums.exact_ns, sums.exact_requests), "ms");
  r.Add("conf.aconf_ms", Ms(sums.aconf_ns, sums.aconf_requests), "ms");
  r.Add("conf.kl_trials", static_cast<double>(sums.kl_trials), "count");
  r.Add("storage.load_s", sums.load_s, "s");
  r.Add("storage.save_s", sums.save_s, "s");
  r.Add("storage.bytes_per_user_byte", sums.bytes_per_user_byte, "ratio");
  r.Add("index.lookup_ms", Ms(sums.index_ns, sums.index_lookups), "ms");
  r.Add("index.candidate_rows", static_cast<double>(sums.candidate_rows), "count");
  r.Add("index.pool_hit_ratio",
        Ratio(static_cast<double>(sums.pool_hits),
              static_cast<double>(sums.pool_hits + sums.pool_misses)),
        "fraction");

  std::string& text = out->layer_split;
  text = "layer split (self time = span time minus child spans):\n";
  text += StringFormat("  %-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const Tracer::LayerTime& t : tracer.LayerSplit()) {
    text += StringFormat("  %-22s %8llu %12.3f %12.3f\n", t.name.c_str(),
                         static_cast<unsigned long long>(t.count),
                         static_cast<double>(t.total_ns) / 1e6,
                         static_cast<double>(t.self_ns) / 1e6);
  }
  const std::string path = StringFormat("%s/trace-%s-%llu.json", opt.workdir.c_str(),
                                        w.name.c_str(),
                                        static_cast<unsigned long long>(opt.seed));
  if (!tracer.WriteChromeJson(path)) return Status::ExecutionError("cannot write " + path);
  text += StringFormat("spans: %zu written to %s\n", tracer.spans().size(), path.c_str());
  return Status::OK();
}

int SelfTest(const RunOptions& base) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (const std::string& name : WorkloadNames()) {
    RunOptions opt = base;
    opt.workload = name;
    opt.seed = 7;
    opt.seconds = 1;
    Workload a, b, c;
    std::string error;
    if (!MakeWorkload(name, 7, 1, opt.nproc, &a, &error) ||
        !MakeWorkload(name, 7, 1, opt.nproc, &b, &error) ||
        !MakeWorkload(name, 8, 1, opt.nproc, &c, &error)) {
      check(false, name + ": " + error);
      continue;
    }
    check(Fingerprint(a) == Fingerprint(b), name + ": same seed, same request list");
    check(Fingerprint(a) != Fingerprint(c), name + ": other seed, other request list");
    const std::string file = DatabaseFile(opt, a);
    if (a.loads_file && !WriteDatabaseFile(a, file).ok()) {
      check(false, name + ": cannot write the database file");
      continue;
    }
    TraceCounts counts[2];
    bool ran = true;
    for (TraceCounts& tc : counts) {
      E2eResult no_e2e;  // the counts do not need an end-to-end run
      no_e2e.sessions.resize(a.clients.size());
      Replay solo;
      TraceResult traced;
      std::vector<std::string> problems;
      ran = ran && RunTraced(opt, a, file, no_e2e, &solo, &traced, &problems).ok() &&
            problems.empty();
      tc = traced.counts;
    }
    if (a.loads_file) std::filesystem::remove(file);
    check(ran, name + ": traced replay runs and its answers check");
    check(counts[0] == counts[1],
          StringFormat("%s: exact counts repeat (dtree_nodes %llu, cache_hits "
                       "%llu, index_scans %llu)",
                       name.c_str(), static_cast<unsigned long long>(counts[0].dtree_nodes),
                       static_cast<unsigned long long>(counts[0].cache_hits),
                       static_cast<unsigned long long>(counts[0].index_scans)));
  }
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
