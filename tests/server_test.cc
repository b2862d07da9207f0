// Multi-session and server tests: per-session knob/seed/evidence
// isolation over one shared catalog, statement-level snapshot consistency
// under a racing writer, the line-protocol front end, and a TSan-targeted
// stress suite pinning the core contract — N concurrent sessions produce
// answers BIT-IDENTICAL to a serial single-session replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/engine/session.h"
#include "src/server/server.h"

namespace maybms {
namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Deterministic hypothesis space shared by the isolation and stress
/// tests: 6 keys × 3 candidates, repaired into one world variable per
/// key with 3 assignments each — so restricting a key to TWO candidates
/// (the evidence the tests assert) never DETERMINES a variable, keeping
/// sole-session replays free of physical pruning and therefore
/// bit-comparable to multi-session runs.
void BuildPolls(Session* setup) {
  ASSERT_TRUE(
      setup->Execute("create table votes (id int, cand text, w double)").ok());
  std::string insert = "insert into votes values ";
  for (int id = 1; id <= 6; ++id) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s(%d,'x',%d),(%d,'y',%d),(%d,'z',%d)",
                  id == 1 ? "" : ", ", id, id, id, 7 - id, id, 3);
    insert += buf;
  }
  ASSERT_TRUE(setup->Execute(insert).ok());
  ASSERT_TRUE(
      setup->Execute("create table polls as select * from "
                     "(repair key id in votes weight by w) r").ok());
}

std::string EvidenceFor(int key) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "assert select * from polls where id = %d and "
                "(cand = 'x' or cand = 'y')", key);
  return buf;
}

constexpr const char* kConfQuery =
    "select cand, conf() as p from polls group by cand order by cand";
constexpr const char* kAconfQuery =
    "select cand, aconf(0.1, 0.1) as p from polls group by cand order by cand";

/// Flattens every numeric cell of a result to its bit pattern.
std::vector<uint64_t> ResultBits(const QueryResult& r) {
  std::vector<uint64_t> bits;
  for (size_t i = 0; i < r.NumRows(); ++i) {
    for (size_t c = 0; c < r.NumColumns(); ++c) {
      const Value& v = r.At(i, c);
      if (v.type() == TypeId::kDouble) bits.push_back(DoubleBits(v.AsDouble()));
      if (v.type() == TypeId::kInt) {
        bits.push_back(static_cast<uint64_t>(v.AsInt()));
      }
    }
  }
  return bits;
}

// ---------------------------------------------------------------------------
// Session isolation
// ---------------------------------------------------------------------------

TEST(SessionTest, KnobsAndSeedsAreSessionLocal) {
  Database db;
  {
    // Scoped: sessions must be gone before ~Database tears the manager down.
    auto a = db.session_manager().CreateSession();
    auto b = db.session_manager().CreateSession();

    ASSERT_TRUE(a->Execute("SET optimizer = off").ok());
    ASSERT_TRUE(a->Execute("SET dtree_cache = off").ok());
    EXPECT_FALSE(a->options().exec.optimizer);
    EXPECT_TRUE(b->options().exec.optimizer);
    EXPECT_FALSE(a->options().exec.dtree_cache);
    EXPECT_TRUE(b->options().exec.dtree_cache);

    // Seeds: aconf is seeded from lineage content, so the same statement
    // on two sessions (with different knobs) reproduces the identical
    // sample — not merely a close one.
    BuildPolls(a.get());
    auto r2 = b->Query(kAconfQuery);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    auto r3 = a->Query(kAconfQuery);
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();
    EXPECT_EQ(ResultBits(*r2), ResultBits(*r3));
  }
}

TEST(SessionTest, EvidenceIsSessionLocalAndClearRestoresBitIdentity) {
  SessionManager manager;
  {
    auto setup = manager.CreateSession();
    BuildPolls(setup.get());
  }
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();

  auto baseline = b->Query(kConfQuery);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Session a conditions; its answers become posteriors.
  auto assert_r = a->Query(EvidenceFor(1));
  ASSERT_TRUE(assert_r.ok()) << assert_r.status().ToString();
  EXPECT_NE(assert_r->message().find("session-local"), std::string::npos)
      << assert_r->message();
  EXPECT_TRUE(a->constraints().active());
  EXPECT_FALSE(b->constraints().active());
  auto posterior = a->Query(kConfQuery);
  ASSERT_TRUE(posterior.ok());
  EXPECT_NE(ResultBits(*posterior), ResultBits(*baseline));

  // Session b is untouched — bit-identical to its pre-evidence answer.
  auto b_again = b->Query(kConfQuery);
  ASSERT_TRUE(b_again.ok());
  EXPECT_EQ(ResultBits(*b_again), ResultBits(*baseline));

  // CLEAR EVIDENCE in a: a's answers return to the prior, bit-identically
  // (multi-session evidence is purely algebraic — nothing was pruned).
  ASSERT_TRUE(a->Execute("clear evidence").ok());
  auto a_cleared = a->Query(kConfQuery);
  ASSERT_TRUE(a_cleared.ok());
  EXPECT_EQ(ResultBits(*a_cleared), ResultBits(*baseline));
}

TEST(SessionTest, DatabaseLevelKnobsSurviveOtherSessionsStatements) {
  SessionManager manager;
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  ASSERT_TRUE(a->Execute("create table t (x int)").ok());
  ASSERT_TRUE(a->Execute("insert into t values (1), (2), (3)").ok());

  // a sets the DATABASE-level snapshot layout.
  ASSERT_TRUE(a->Execute("SET snapshot_chunk_rows = 2").ok());
  EXPECT_EQ(manager.catalog().snapshot_chunk_rows(), 2u);

  // b (default options) runs statements: the shared layout must STAY 2 —
  // the historical bug re-applied b's per-session default every statement,
  // silently rewriting a's setting.
  ASSERT_TRUE(b->Execute("insert into t values (4)").ok());
  auto r = b->Query("select count(*) as n from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(manager.catalog().snapshot_chunk_rows(), 2u);
  auto table = manager.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->chunk_rows(), 2u);

  // Session-level knobs in b do not leak into a.
  ASSERT_TRUE(b->Execute("SET num_threads = 2").ok());
  EXPECT_EQ(a->options().exec.num_threads, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot-consistent reads racing a writer
// ---------------------------------------------------------------------------

TEST(SessionStressTest, ReadersSeeWholeStatementsUnderRacingWriter) {
  SessionManager manager;
  {
    auto setup = manager.CreateSession();
    ASSERT_TRUE(setup->Execute("create table log (v int)").ok());
  }
  constexpr int kWriterStatements = 60;
  auto writer = manager.CreateSession();
  auto reader = manager.CreateSession();
  std::atomic<bool> writer_done{false};

  std::thread writer_thread([&] {
    for (int i = 0; i < kWriterStatements; ++i) {
      // Two rows per statement: a torn read would observe an odd count.
      char buf[96];
      std::snprintf(buf, sizeof buf, "insert into log values (%d), (%d)", 2 * i,
                    2 * i + 1);
      ASSERT_TRUE(writer->Execute(buf).ok());
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::thread reader_thread([&] {
    // Keep reading until the writer finishes, then once more: every count
    // must be even (statement-level snapshot consistency) and
    // monotonically consistent with complete statements.
    int64_t last = 0;
    do {
      auto r = reader->Query("select count(*) as n from log");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      int64_t n = r->At(0, 0).AsInt();
      EXPECT_EQ(n % 2, 0) << "torn read: saw half an INSERT";
      EXPECT_GE(n, last);
      last = n;
    } while (!writer_done.load(std::memory_order_acquire));
    auto r = reader->Query("select count(*) as n from log");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->At(0, 0).AsInt(), 2 * kWriterStatements);
  });
  writer_thread.join();
  reader_thread.join();
}

// ---------------------------------------------------------------------------
// Concurrent sessions vs serial single-session replay: bit identity
// ---------------------------------------------------------------------------

struct SessionScript {
  SessionOptions options;
  std::vector<std::string> statements;  // run in order; results recorded
};

/// Runs one script on a fresh session of `manager`, returning the bits of
/// every query result in order.
std::vector<std::vector<uint64_t>> RunScript(SessionManager* manager,
                                             const SessionScript& script) {
  auto session = manager->CreateSession(script.options);
  std::vector<std::vector<uint64_t>> all;
  for (const std::string& sql : script.statements) {
    auto r = session->Query(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) continue;
    all.push_back(ResultBits(*r));
  }
  return all;
}

TEST(SessionStressTest, ConcurrentSessionsMatchSerialReplay) {
  // Four concurrent sessions with distinct knobs and evidence —
  // optimizer on and off, serial and pooled thread counts. Each session's
  // answers must be bit-identical to replaying ITS script alone on a fresh
  // single-session database over identically-built data.
  std::vector<SessionScript> scripts(4);
  for (int k = 0; k < 4; ++k) {
    SessionScript& s = scripts[k];
    s.options.exec.num_threads = (k % 2 == 0) ? 1 : 4;
    s.options.exec.optimizer = k < 2;
    s.statements.push_back(EvidenceFor(k + 1));
    for (int iter = 0; iter < 3; ++iter) {
      s.statements.push_back(kConfQuery);
      s.statements.push_back(kAconfQuery);
      s.statements.push_back("show evidence");
    }
    s.statements.push_back("clear evidence");
    s.statements.push_back(kConfQuery);
  }

  // Concurrent run: one shared catalog, one thread per session.
  std::vector<std::vector<std::vector<uint64_t>>> concurrent(scripts.size());
  {
    SessionManager manager;
    {
      auto setup = manager.CreateSession();
      BuildPolls(setup.get());
    }
    // Pre-create one session per thread? No: RunScript creates its own —
    // but num_sessions() must stay > 1 throughout so no session prunes.
    // The anchor session guarantees that even at thread start/end skew.
    auto anchor = manager.CreateSession();
    std::vector<std::thread> threads;
    for (size_t k = 0; k < scripts.size(); ++k) {
      threads.emplace_back([&, k] {
        concurrent[k] = RunScript(&manager, scripts[k]);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  // Serial replay: each script alone, fresh identical database. The
  // replay session IS sole (ASSERT takes the pruning path), but the
  // evidence never determines a variable, so pruning is a no-op and the
  // answers stay bit-comparable.
  for (size_t k = 0; k < scripts.size(); ++k) {
    SessionManager replay;
    {
      auto setup = replay.CreateSession();
      BuildPolls(setup.get());
    }
    std::vector<std::vector<uint64_t>> serial = RunScript(&replay, scripts[k]);
    EXPECT_EQ(concurrent[k], serial)
        << "session " << k << " diverged from its serial replay";
  }
}

TEST(SessionStressTest, ConcurrentWritersToDistinctTablesMatchSerialReplay) {
  // Sessions writing DISTINCT tables proceed in parallel; each session's
  // own-table aggregates must match a solo replay bit-for-bit.
  constexpr int kSessions = 3;
  constexpr int kRounds = 20;
  auto build = [](SessionManager* manager) {
    auto setup = manager->CreateSession();
    for (int k = 0; k < kSessions; ++k) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "create table t%d (x int, y double)", k);
      ASSERT_TRUE(setup->Execute(buf).ok());
    }
  };
  auto script = [](int k) {
    SessionScript s;
    s.options.exec.num_threads = (k % 2 == 0) ? 1 : 4;
    for (int i = 0; i < kRounds; ++i) {
      char ins[160], q[160];
      std::snprintf(ins, sizeof ins,
                    "insert into t%d values (%d, %d.25), (%d, %d.75)", k, i, i,
                    i + 1000, i);
      std::snprintf(q, sizeof q,
                    "select count(*) as n, sum(y) as s from t%d", k);
      s.statements.push_back(ins);
      s.statements.push_back(q);
    }
    return s;
  };

  std::vector<std::vector<std::vector<uint64_t>>> concurrent(kSessions);
  {
    SessionManager manager;
    build(&manager);
    std::vector<std::thread> threads;
    for (int k = 0; k < kSessions; ++k) {
      threads.emplace_back([&, k] {
        SessionScript s = script(k);
        concurrent[k] = RunScript(&manager, s);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int k = 0; k < kSessions; ++k) {
    SessionManager replay;
    build(&replay);
    SessionScript s = script(k);
    EXPECT_EQ(concurrent[k], RunScript(&replay, s)) << "t" << k;
  }
}

// ---------------------------------------------------------------------------
// Server front end
// ---------------------------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "/tmp/maybms_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  return buf;
}

TEST(ServerTest, ProtocolRoundTrip) {
  Database db;
  Server server(&db.session_manager());
  std::string path = TestSocketPath("proto");
  ASSERT_TRUE(server.Start(path).ok());

  Client client;
  ASSERT_TRUE(client.Connect(path).ok());
  auto r = client.Request("create table t (x int, s text)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ok) << r->message;
  r = client.Request("insert into t values (1, 'tab\there'), (2, 'two')");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  // Multi-line SQL is flattened to one request line by the client.
  r = client.Request("select x, s from t\nwhere x = 1\norder by x");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  ASSERT_FALSE(r->lines.empty());
  bool found = false;
  for (const std::string& line : r->lines) {
    if (line.find("tab\there") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << "escaped payload did not round-trip";

  // Meta-commands: \d renders server-side, \explain plans, errors say ERR.
  r = client.Request("\\d");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  bool lists_t = false;
  for (const std::string& line : r->lines) {
    if (line.find("t ") == 0 || line.find("t  ") != std::string::npos) {
      lists_t = true;
    }
  }
  EXPECT_TRUE(lists_t);
  r = client.Request("\\explain select x from t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  r = client.Request("select nope from missing");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok);
  EXPECT_FALSE(r->message.empty());
  r = client.Request("\\q");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok);
  server.Stop();
}

TEST(ServerTest, ManyLineRepliesMatchTheRenderedResultExactly) {
  // A reply of thousands of payload lines, many straddling receive chunks:
  // the client reads it line by line out of one receive buffer, and every
  // line must come back byte for byte as QueryResult::ToString rendered it.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (x int, d double, s text)").ok());
  constexpr int kRows = 6000;
  for (int begin = 0; begin < kRows; begin += 500) {
    std::string sql = "insert into t values ";
    for (int i = begin; i < begin + 500; ++i) {
      if (i > begin) sql += ", ";
      sql += StringFormat("(%d, %d.25, '%s')", i, i * 3,
                          std::string(i % 13, static_cast<char>('a' + i % 26)).c_str());
    }
    ASSERT_TRUE(db.Execute(sql).ok());
  }
  const std::string query = "select x, d, s from t order by x";
  auto expected = db.Query(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::vector<std::string> want = Split(expected->ToString(), '\n');
  ASSERT_EQ(want.back(), "");  // the rendering ends in a newline
  want.pop_back();
  ASSERT_GT(want.size(), static_cast<size_t>(kRows));

  Server server(&db.session_manager());
  std::string path = TestSocketPath("lines");
  ASSERT_TRUE(server.Start(path).ok());
  Client client;
  ASSERT_TRUE(client.Connect(path).ok());
  for (int round = 0; round < 2; ++round) {  // the buffer carries over
    auto r = client.Request(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok) << r->message;
    ASSERT_EQ(r->lines.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(r->lines[i], want[i]) << "round " << round << " line " << i;
    }
    auto small = client.Request("select x from t where x = 7");
    ASSERT_TRUE(small.ok() && small->ok);
    EXPECT_EQ(small->lines.size(), 6u);  // 3 rules, header, row, count
  }
  server.Stop();
}

TEST(ServerTest, ConnectionsAreIsolatedSessions) {
  Database db;
  {
    // Build shared data through the root session before serving.
    BuildPolls(&db.session());
  }
  Server server(&db.session_manager());
  std::string path = TestSocketPath("iso");
  ASSERT_TRUE(server.Start(path).ok());

  Client a, b;
  ASSERT_TRUE(a.Connect(path).ok());
  ASSERT_TRUE(b.Connect(path).ok());

  auto baseline = b.Request(kConfQuery);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->ok) << baseline->message;

  // Evidence over connection a: b's answers must be byte-identical
  // afterwards (rendered text compares the full precision).
  auto ev = a.Request(EvidenceFor(2));
  ASSERT_TRUE(ev.ok());
  ASSERT_TRUE(ev->ok) << ev->message;
  auto a_post = a.Request(kConfQuery);
  ASSERT_TRUE(a_post.ok());
  EXPECT_NE(a_post->lines, baseline->lines);
  auto b_again = b.Request(kConfQuery);
  ASSERT_TRUE(b_again.ok());
  EXPECT_EQ(b_again->lines, baseline->lines);

  // aconf on b is unaffected by a's evidence.
  auto b_aconf1 = b.Request(kAconfQuery);
  auto b_aconf2 = b.Request(kAconfQuery);
  ASSERT_TRUE(b_aconf1.ok() && b_aconf2.ok());
  EXPECT_TRUE(b_aconf1->ok && b_aconf2->ok);

  // CLEAR EVIDENCE on a restores the shared prior, byte-identically.
  ASSERT_TRUE(a.Request("clear evidence")->ok);
  auto a_cleared = a.Request(kConfQuery);
  ASSERT_TRUE(a_cleared.ok());
  EXPECT_EQ(a_cleared->lines, baseline->lines);

  EXPECT_EQ(server.connections_accepted(), 2u);
  server.Stop();
}

TEST(ServerTest, ConcurrentClientsStress) {
  Database db;
  BuildPolls(&db.session());
  Server server(&db.session_manager());
  std::string path = TestSocketPath("stress");
  ASSERT_TRUE(server.Start(path).ok());

  constexpr int kClients = 4;
  constexpr int kRequests = 15;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      Client client;
      if (!client.Connect(path).ok()) {
        failures.fetch_add(1);
        return;
      }
      auto first = client.Request(kConfQuery);
      if (!first.ok() || !first->ok) {
        failures.fetch_add(1);
        return;
      }
      if (!client.Request(EvidenceFor(k + 1))->ok) failures.fetch_add(1);
      for (int i = 0; i < kRequests; ++i) {
        auto r = client.Request(kConfQuery);
        if (!r.ok() || !r->ok) {
          failures.fetch_add(1);
          return;
        }
      }
      // After clearing, back to the shared prior — byte-identical.
      if (!client.Request("clear evidence")->ok) failures.fetch_add(1);
      auto last = client.Request(kConfQuery);
      if (!last.ok() || !last->ok || last->lines != first->lines) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

}  // namespace
}  // namespace maybms
