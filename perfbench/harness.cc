#include "perfbench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <latch>
#include <thread>

#include <malloc.h>

#include "src/common/str_util.h"
#include "src/server/server.h"
#include "src/storage/persist.h"

namespace perfbench {

using maybms::Client;
using maybms::QueryResult;
using maybms::Result;
using maybms::Server;
using maybms::ServerReply;
using maybms::Session;
using maybms::SessionManager;
using maybms::Status;
using maybms::StringFormat;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// Timed setups per run; set-up time is reported as their median.
constexpr int kFileSetups = 9;
constexpr int kSqlSetups = 3;
// Fresh-server slices of the measured lists (see RunE2e).
constexpr size_t kEpochs = 8;
// Every kIndexCheckEvery-th lookup of the replay is re-run without indexes.
constexpr size_t kIndexCheckEvery = 8;

Status RunSql(Session* session, const std::string& sql) {
  Result<QueryResult> r = session->Query(sql);
  if (!r.ok()) {
    return Status::ExecutionError(StringFormat(
        "'%.80s' failed: %s", sql.c_str(), r.status().ToString().c_str()));
  }
  return Status::OK();
}

/// One client's slice of its measured list, sent over one connection.
struct ClientRun {
  Status status;
  Clock::time_point start, end;
};

void DriveClient(const std::string& socket, const ClientPlan& plan,
                 size_t begin, size_t end, std::latch* ready,
                 SessionOutcomes* outcomes, ClientRun* run) {
  Client client;
  run->status = client.Connect(socket);
  for (size_t i = 0; run->status.ok() && i < plan.prologue.size(); ++i) {
    Result<ServerReply> reply = client.Request(plan.prologue[i]);
    if (!reply.ok()) {
      run->status = reply.status();
    } else if (!reply->ok) {
      run->status = Status::ExecutionError("prologue '" + plan.prologue[i] +
                                           "' refused: " + reply->message);
    }
  }
  ready->arrive_and_wait();
  run->start = run->end = Clock::now();
  if (!run->status.ok()) return;
  for (size_t i = begin; i < end; ++i) {
    Outcome& out = (*outcomes)[i];
    const Clock::time_point t0 = Clock::now();
    Result<ServerReply> reply = client.Request(plan.requests[i].sql);
    out.ns = NsSince(t0);
    if (!reply.ok()) {
      out.error = reply.status().ToString();
      if (!client.connected()) {
        // The connection is gone; the rest of the slice fails unsent.
        for (size_t j = i + 1; j < end; ++j) {
          (*outcomes)[j].error = "not sent: connection closed";
        }
        break;
      }
      continue;
    }
    out.ok = reply->ok;
    if (!reply->ok) out.error = reply->message;
    out.digest = PayloadDigest(reply->lines);
  }
  run->end = Clock::now();
}

}  // namespace

void ReleaseFreedMemory() { malloc_trim(0); }

uint64_t ValueDigest(const QueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (size_t c = 0; c < r.NumColumns(); ++c) {
      const maybms::Value& v = r.At(i, c);
      if (v.type() != maybms::TypeId::kDouble) continue;
      const double d = v.AsDouble();
      uint64_t b = 0;
      std::memcpy(&b, &d, sizeof b);
      h = (h ^ b) * 0x100000001b3ULL;
    }
  }
  return h;
}

uint64_t PayloadDigest(const std::vector<std::string>& lines) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (unsigned char ch : line) h = (h ^ ch) * 0x100000001b3ULL;
    h = (h ^ '\n') * 0x100000001b3ULL;
  }
  return h;
}

uint64_t PayloadDigest(const QueryResult& result) {
  std::vector<std::string> lines;
  if (result.NumColumns() > 0) {
    const std::string text = result.ToString();
    size_t start = 0;
    while (start < text.size()) {
      const size_t nl = text.find('\n', start);
      const size_t end = nl == std::string::npos ? text.size() : nl;
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }
  return PayloadDigest(lines);
}

double PercentileMs(std::vector<uint64_t> ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string DatabaseFile(const RunOptions& opt, const Workload& w) {
  if (!w.loads_file) return "";
  return StringFormat("%s/team-%llu.db", opt.workdir.c_str(),
                      static_cast<unsigned long long>(opt.seed));
}

Status WriteDatabaseFile(const Workload& w, const std::string& path) {
  SessionManager manager;
  auto session = manager.CreateSession();
  for (const std::string& sql : w.setup_sql) {
    MAYBMS_RETURN_NOT_OK(RunSql(session.get(), sql));
  }
  return maybms::SaveDatabaseToFile(manager.catalog(), path);
}

Status LoadInstance(const Workload& w, const std::string& file,
                    SessionManager* manager) {
  if (w.loads_file) {
    return maybms::LoadDatabaseFromFile(file, &manager->catalog());
  }
  auto session = manager->CreateSession();
  for (const std::string& sql : w.setup_sql) {
    MAYBMS_RETURN_NOT_OK(RunSql(session.get(), sql));
  }
  return Status::OK();
}

Result<int64_t> CountRows(Session* session, const std::string& table) {
  MAYBMS_ASSIGN_OR_RETURN(QueryResult r,
                          session->Query("select count(*) from " + table));
  MAYBMS_ASSIGN_OR_RETURN(maybms::Value v, r.ScalarValue());
  return v.AsInt();
}

Status RunReplay(const Workload& w, const std::string& file, Replay* out,
                 std::vector<std::string>* mismatches, ReplayObserver* observer) {
  SessionManager manager;
  MAYBMS_RETURN_NOT_OK(LoadInstance(w, file, &manager));
  maybms::SessionOptions no_index;
  no_index.exec.use_indexes = false;
  no_index.exec.num_threads = 1;
  auto checker = manager.CreateSession(no_index);
  out->sessions.assign(w.clients.size(), {});
  size_t lookups = 0;
  for (size_t k = 0; k < w.clients.size(); ++k) {
    const ClientPlan& plan = w.clients[k];
    auto session = manager.CreateSession();
    for (const std::string& sql : plan.prologue) {
      MAYBMS_RETURN_NOT_OK(RunSql(session.get(), sql));
    }
    if (observer != nullptr) MAYBMS_RETURN_NOT_OK(observer->BeginClient(k));
    SessionOutcomes& outcomes = out->sessions[k];
    outcomes.resize(plan.requests.size());
    for (size_t i = 0; i < plan.requests.size(); ++i) {
      const Request& req = plan.requests[i];
      Outcome& o = outcomes[i];
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> r = session->Query(req.sql);
      o.ns = NsSince(t0);
      o.ok = r.ok();
      if (!r.ok()) {
        o.error = r.status().ToString();
      } else {
        o.digest = PayloadDigest(*r);
        o.values = ValueDigest(*r);
        if (req.cls == Cls::kLookup && lookups++ % kIndexCheckEvery == 0) {
          Result<QueryResult> plain = checker->Query(req.sql);
          if (!plain.ok() || PayloadDigest(*plain) != o.digest) {
            mismatches->push_back(StringFormat(
                "session %zu request %zu: lookup differs with use_indexes = off",
                k, i));
          }
        }
      }
      if (observer != nullptr) MAYBMS_RETURN_NOT_OK(observer->AfterRequest(k, i, o));
    }
    if (observer != nullptr) MAYBMS_RETURN_NOT_OK(observer->EndClient(k));
  }
  return Status::OK();
}

Status RunE2e(const RunOptions& opt, const Workload& w, const std::string& file,
              E2eResult* out) {
  const std::string socket = opt.workdir + "/server.sock";
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<Session> guard;
  std::unique_ptr<Server> server;
  const int setups = w.loads_file ? kFileSetups : kSqlSetups;
  for (int s = 0; s < setups; ++s) {
    // Tear the previous instance down before timing the next one.
    if (server) server->Stop();
    server.reset();
    guard.reset();
    manager.reset();
    ReleaseFreedMemory();
    const Clock::time_point t0 = Clock::now();
    manager = std::make_unique<SessionManager>();
    if (w.loads_file) {
      MAYBMS_RETURN_NOT_OK(maybms::LoadDatabaseFromFile(file, &manager->catalog()));
    }
    // A session of the harness's own stays open for the whole run, so
    // ASSERT evidence stays per session as on any multi-session server.
    guard = manager->CreateSession();
    server = std::make_unique<Server>(manager.get(), maybms::SessionOptions{},
                                      w.clients.size() + 1);
    MAYBMS_RETURN_NOT_OK(server->Start(socket));
    if (!w.loads_file) {
      Client client;
      MAYBMS_RETURN_NOT_OK(client.Connect(socket));
      for (const std::string& sql : w.setup_sql) {
        MAYBMS_ASSIGN_OR_RETURN(ServerReply reply, client.Request(sql));
        if (!reply.ok) {
          return Status::ExecutionError("setup statement refused: " + reply.message);
        }
      }
    }
    out->setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  server->Stop();
  server.reset();

  // The measured lists run in kEpochs consecutive slices. Each slice gets
  // a fresh server and fresh connections over the same loaded database, so
  // the per-thread state that differs from one set of threads to the next
  // is drawn kEpochs times and averaged instead of once per run. Each new
  // connection re-sends its client's prologue.
  const size_t clients = w.clients.size();
  out->sessions.assign(clients, {});
  for (size_t k = 0; k < clients; ++k) {
    out->sessions[k].resize(w.clients[k].requests.size());
  }
  out->wall_s = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    Server epoch_server(manager.get(), maybms::SessionOptions{}, clients + 1);
    MAYBMS_RETURN_NOT_OK(epoch_server.Start(socket));
    std::vector<ClientRun> runs(clients);
    std::latch ready(static_cast<std::ptrdiff_t>(clients));
    {
      std::vector<std::jthread> threads;
      for (size_t k = 0; k < clients; ++k) {
        const size_t n = w.clients[k].requests.size();
        threads.emplace_back(DriveClient, socket, std::cref(w.clients[k]),
                             n * e / kEpochs, n * (e + 1) / kEpochs, &ready,
                             &out->sessions[k], &runs[k]);
      }
    }
    epoch_server.Stop();
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    for (const ClientRun& run : runs) {
      MAYBMS_RETURN_NOT_OK(run.status);
      first = std::min(first, run.start);
      last = std::max(last, run.end);
    }
    out->wall_s += std::chrono::duration<double>(last - first).count();
  }
  for (size_t k = 0; k < clients; ++k) {
    for (size_t i = 0; i < out->sessions[k].size(); ++i) {
      if (out->sessions[k][i].ok) out->acked_insert_rows += w.clients[k].requests[i].rows;
    }
  }
  MAYBMS_ASSIGN_OR_RETURN(out->final_rows, CountRows(guard.get(), w.insert_table));
  return Status::OK();
}

size_t CompareAnswers(const Workload& w, const std::vector<SessionOutcomes>& got,
                      const std::vector<SessionOutcomes>& want,
                      std::vector<std::string>* log) {
  size_t bad = 0;
  for (size_t k = 0; k < w.clients.size(); ++k) {
    const std::vector<Request>& reqs = w.clients[k].requests;
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].cls == Cls::kInsert) continue;
      const Outcome& g = got[k][i];
      const Outcome& e = want[k][i];
      if (!g.ok || !e.ok) continue;  // failures are counted, not compared
      if (g.digest != e.digest) {
        if (++bad <= 5) {
          log->push_back(StringFormat("session %zu request %zu (%s): answer "
                                      "differs from the solo replay",
                                      k, i, ClassName(reqs[i].cls)));
        }
      }
    }
  }
  if (bad > 5) log->push_back(StringFormat("%zu more answers differ", bad - 5));
  return bad;
}

std::array<std::vector<uint64_t>, kNumClasses> ClassLatencies(
    const Workload& w, const std::vector<SessionOutcomes>& sessions) {
  std::array<std::vector<uint64_t>, kNumClasses> ns;
  for (size_t k = 0; k < sessions.size(); ++k) {
    for (size_t i = 0; i < sessions[k].size(); ++i) {
      if (!sessions[k][i].ok) continue;
      ns[static_cast<size_t>(w.clients[k].requests[i].cls)].push_back(
          sessions[k][i].ns);
    }
  }
  return ns;
}

size_t CountFailed(const std::vector<SessionOutcomes>& sessions) {
  size_t n = 0;
  for (const SessionOutcomes& s : sessions) {
    for (const Outcome& o : s) n += o.ok ? 0 : 1;
  }
  return n;
}

}  // namespace perfbench
