// Multi-session throughput over one shared catalog (src/engine/session.h):
// N dashboard sessions — each with its OWN knobs, RNG stream, and asserted
// evidence — concurrently issuing posterior conf() statements against the
// same U-relation, the workload the server front end (src/server/server.h)
// exists for.
//
// Reported cases:
//   dashboard_serial      — every session's statement stream replayed
//                           back-to-back on one session (the pre-server
//                           baseline: total work, zero concurrency),
//   dashboard_concurrent  — the same scripts, one thread per session over
//                           one SessionManager (params: sessions).
//
// SELF-CHECK: every session's concurrent answers must be BIT-IDENTICAL to
// replaying its script alone on a fresh single-session database over
// identically built data — the core isolation contract. Any mismatch
// prints the offending session and exits non-zero (the guard CI runs this
// binary in the Release lane).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/engine/session.h"

using namespace maybms;
using maybms_bench::JsonReporter;
using maybms_bench::PrintHeader;
using maybms_bench::TimeMs;
using maybms_bench::TimeMs3;

namespace {

constexpr int kKeys = 40;        // world variables (3 assignments each)
constexpr int kStatements = 120;  // posterior conf() statements per session
constexpr int kMaxSessions = 4;

const char* kDashboardSql =
    "select cand, conf() as p from polls group by cand order by cand";

/// Deterministic shared data: every catalog built here is identical, so
/// answers compare bitwise across serial/concurrent/replay runs. The
/// per-session evidence below restricts keys to 2 of 3 candidates and
/// never DETERMINES a variable, so a sole-session replay (which would
/// otherwise prune physically) stays bit-comparable.
bool BuildPolls(SessionManager* manager) {
  auto setup = manager->CreateSession();
  if (!setup->Execute("create table votes (id int, cand text, w double)").ok())
    return false;
  std::string insert = "insert into votes values ";
  for (int id = 1; id <= kKeys; ++id) {
    insert += StringFormat("%s(%d,'x',%d),(%d,'y',%d),(%d,'z',3)",
                           id == 1 ? "" : ", ", id, 1 + id % 7, id,
                           1 + (id * 3) % 5, id);
  }
  if (!setup->Execute(insert).ok()) return false;
  return setup
      ->Execute("create table polls as select * from "
                "(repair key id in votes weight by w) r")
      .ok();
}

/// One session's statement stream: condition on its own evidence, then
/// keep refreshing the posterior dashboard.
std::vector<std::string> Script(int session_idx) {
  std::vector<std::string> s;
  s.push_back(StringFormat("assert select * from polls where id = %d and "
                           "(cand = 'x' or cand = 'y')",
                           1 + session_idx % kKeys));
  for (int i = 0; i < kStatements; ++i) s.push_back(kDashboardSql);
  return s;
}

SessionOptions DashboardOptions() {
  SessionOptions options;
  options.exec.num_threads = 1;  // concurrency comes from sessions here
  return options;
}

/// Runs one script on a fresh session, appending the bits of every cell.
bool RunScript(SessionManager* manager, int session_idx,
               std::vector<uint64_t>* bits) {
  auto session = manager->CreateSession(DashboardOptions());
  for (const std::string& sql : Script(session_idx)) {
    auto r = session->Query(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "session %d: %s failed: %s\n", session_idx,
                   sql.c_str(), r.status().ToString().c_str());
      return false;
    }
    for (size_t i = 0; i < r->NumRows(); ++i) {
      for (size_t c = 0; c < r->NumColumns(); ++c) {
        const Value& v = r->At(i, c);
        if (v.type() != TypeId::kDouble) continue;
        uint64_t b = 0;
        double d = v.AsDouble();
        std::memcpy(&b, &d, sizeof b);
        bits->push_back(b);
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  JsonReporter reporter("server");
  reporter.Env("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));

  // Ground truth: each script replayed alone on its own fresh database.
  std::vector<std::vector<uint64_t>> truth(kMaxSessions);
  for (int k = 0; k < kMaxSessions; ++k) {
    SessionManager replay;
    if (!BuildPolls(&replay) || !RunScript(&replay, k, &truth[k])) return 1;
    if (truth[k].empty()) {
      std::fprintf(stderr, "session %d: replay produced no probabilities\n", k);
      return 1;
    }
  }

  PrintHeader("multi-session dashboard (posterior conf() per session)");
  const int total_statements = kMaxSessions * (kStatements + 1);

  // Serial baseline: all scripts back-to-back, one live session at a time.
  {
    double ms = TimeMs3([&] {
      SessionManager manager;
      if (!BuildPolls(&manager)) std::exit(1);
      for (int k = 0; k < kMaxSessions; ++k) {
        std::vector<uint64_t> bits;
        if (!RunScript(&manager, k, &bits)) std::exit(1);
      }
    });
    std::printf("%-22s %4d sessions %8.2f ms  %7.0f stmt/s\n",
                "dashboard_serial", kMaxSessions, ms,
                1000.0 * total_statements / ms);
    reporter.Report("dashboard_serial", ms)
        .Param("sessions", kMaxSessions)
        .Threads(1)
        .Metric("statements", total_statements);
  }

  // Concurrent: one thread per session over one shared catalog, answers
  // self-checked against the solo replays.
  for (int sessions = 2; sessions <= kMaxSessions; sessions *= 2) {
    std::vector<std::vector<uint64_t>> got(sessions);
    bool failed = false;
    double ms = TimeMs3([&] {
      SessionManager manager;
      if (!BuildPolls(&manager)) std::exit(1);
      for (auto& bits : got) bits.clear();
      std::vector<std::thread> threads;
      for (int k = 0; k < sessions; ++k) {
        threads.emplace_back([&, k] {
          if (!RunScript(&manager, k, &got[k])) failed = true;
        });
      }
      for (std::thread& t : threads) t.join();
    });
    if (failed) return 1;
    for (int k = 0; k < sessions; ++k) {
      if (got[k] != truth[k]) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: session %d of %d diverged from its "
                     "serial replay (%zu vs %zu probabilities)\n",
                     k, sessions, got[k].size(), truth[k].size());
        return 1;
      }
    }
    const int stmts = sessions * (kStatements + 1);
    std::printf("%-22s %4d sessions %8.2f ms  %7.0f stmt/s  (bit-identical "
                "to solo replay)\n",
                "dashboard_concurrent", sessions, ms, 1000.0 * stmts / ms);
    reporter.Report("dashboard_concurrent", ms)
        .Param("sessions", sessions)
        .Threads(1)
        .Metric("statements", stmts);
  }

  reporter.Flush();
  return 0;
}
