// A thin multi-session server front end over one SessionManager: a line
// protocol on a local (AF_UNIX) stream socket, one Session per
// connection. This is the repo's stand-in for the original system's
// PostgreSQL server process (paper §2.3-§2.4: MayBMS is "a complete DBMS"
// — concurrent clients over one probabilistic database); all isolation
// semantics live in src/engine/session.h, the server only moves bytes.
//
// Protocol (text, newline-framed, one request per line):
//
//   request  := one line; embedded newlines in the SQL must be flattened
//               by the client (Client::Request does).
//               Either a SQL statement (EXPLAIN [ANALYZE] and SHOW STATS
//               included — they are ordinary statements), or a
//               meta-command:
//                 \d              database summary (server-rendered)
//                 \d <table>      describe one table
//                 \explain <sql>  bound logical plan (without executing;
//                                 same as the EXPLAIN statement)
//                 \stats [pat]    shared metrics snapshot (optionally
//                                 LIKE-filtered by pat) plus this
//                                 session's statement counts
//                 \trace <file>   write the recent statement traces as
//                                 chrome://tracing JSON to <file>
//                                 (server-side path)
//                 \q              close this connection
//   response := zero or more payload lines, each "D <escaped text>",
//               terminated by exactly one "OK <escaped message>" or
//               "ERR <escaped message>" line. Escaping: backslash,
//               newline, CR, tab as \\ \n \r \t (the dump format's
//               field escaping).
//
// Sessions die with their connection; their evidence and knobs die with
// them. The shared catalog lives as long as the SessionManager.
//
// Threading: a FIXED worker pool (not thread-per-connection). The accept
// loop enqueues accepted sockets; each of N worker threads serves one
// connection start-to-finish, then takes the next from the queue. A
// burst of more than N concurrent connections therefore queues — the
// extra clients block in connect/first-read until a worker frees up —
// which bounds server-side thread count and memory under load. N is a
// constructor knob (0 = kDefaultWorkers).
//
// Observability: the server counts connections, requests, and payload
// bytes into the manager's MetricsRegistry (server.* metrics). These are
// front-end counters owned by the server, always on — the per-session
// `SET metrics` knob governs engine-side instrumentation only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/engine/session.h"

namespace maybms {

class Server {
 public:
  /// Worker threads when the constructor is passed 0.
  static constexpr size_t kDefaultWorkers = 8;

  /// Serves sessions of `manager` (non-owning; must outlive the server).
  /// Every connection's session starts from `session_defaults` — the
  /// server analogue of the shell's interactive defaults. `num_workers`
  /// sizes the fixed worker pool (0 = kDefaultWorkers).
  explicit Server(SessionManager* manager, SessionOptions session_defaults = {},
                  size_t num_workers = 0);
  ~Server();  // calls Stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on `socket_path` (an AF_UNIX path; an existing
  /// stale socket file is replaced) and starts the accept loop.
  Status Start(const std::string& socket_path);

  /// Shuts the listener and every live connection down, joins all
  /// threads, and removes the socket file. Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Size of the fixed worker pool.
  size_t num_workers() const { return num_workers_; }

 private:
  void AcceptLoop();
  /// Takes connections off the queue until Stop(); one at a time, each
  /// served start-to-finish.
  void WorkerLoop();
  void Serve(int fd);

  SessionManager* manager_;
  SessionOptions session_defaults_;
  const size_t num_workers_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// Guards the pending queue AND the in-service fd list. Stop() shuts
  /// active sockets down through the latter so blocked reads return.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;
  std::vector<int> active_fds_;
};

/// One parsed server response.
struct ServerReply {
  bool ok = false;
  std::string message;              ///< the OK/ERR line's payload
  std::vector<std::string> lines;   ///< the D lines, unescaped
};

/// A blocking client for the line protocol above. Not thread-safe; use
/// one Client (= one session) per thread.
class Client {
 public:
  Client() = default;
  ~Client();  // closes
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& socket_path);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends one request (embedded newlines are flattened to spaces) and
  /// reads the reply. A protocol or socket error closes the connection.
  Result<ServerReply> Request(std::string_view request);

 private:
  int fd_ = -1;
  std::string buffer_;     // received bytes; unparsed from buffer_pos_ on
  size_t buffer_pos_ = 0;
};

}  // namespace maybms
