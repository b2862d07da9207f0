#include "src/server/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/str_util.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace maybms {

namespace {

/// Same field escaping as the dump format: the protocol is newline-framed,
/// so payload text must never contain a raw newline.
std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      default:
        out.push_back(s[i]);
    }
  }
  return out;
}

/// Loops write() to completion; MSG_NOSIGNAL turns a torn-down peer into
/// EPIPE instead of killing the process with SIGPIPE.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line into *line (without the newline),
/// buffering leftovers in *buffer. False on EOF/error with nothing read.
bool RecvLine(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// Splits rendered multi-line text into protocol payload ("D ...") lines.
void AppendPayload(std::string_view text, std::string* out) {
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    size_t end = nl == std::string_view::npos ? text.size() : nl;
    *out += "D ";
    *out += Escape(text.substr(start, end - start));
    *out += "\n";
    start = end + 1;
  }
}

}  // namespace

Server::Server(SessionManager* manager, SessionOptions session_defaults,
               size_t num_workers)
    : manager_(manager),
      session_defaults_(std::move(session_defaults)),
      num_workers_(num_workers != 0 ? num_workers : kDefaultWorkers) {}

Server::~Server() { Stop(); }

Status Server::Start(const std::string& socket_path) {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument(
        StringFormat("socket path too long: '%s'", socket_path.c_str()));
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StringFormat("socket(): %s", std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st = Status::IoError(StringFormat("bind('%s'): %s",
                                             socket_path.c_str(),
                                             std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    Status st =
        Status::IoError(StringFormat("listen(): %s", std::strerror(errno)));
    ::close(fd);
    ::unlink(socket_path.c_str());
    return st;
  }
  socket_path_ = socket_path;
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Wake idle workers, shut down in-service sockets so blocked reads
  // return, and refuse whatever queued but was never picked up.
  std::deque<int> never_served;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    never_served.swap(pending_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  for (int fd : never_served) ::close(fd);
  ::unlink(socket_path_.c_str());
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or broken
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void Server::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping, queue drained by Stop()
      fd = pending_.front();
      pending_.pop_front();
      active_fds_.push_back(fd);
    }
    Serve(fd);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      active_fds_.erase(
          std::find(active_fds_.begin(), active_fds_.end(), fd));
    }
    ::close(fd);
  }
}

void Server::Serve(int fd) {
  std::unique_ptr<Session> session = manager_->CreateSession(session_defaults_);
  MetricsRegistry& metrics = manager_->metrics();
  metrics.Add(Counter::kServerConnections);
  std::string buffer, line;
  while (RecvLine(fd, &buffer, &line)) {
    metrics.Add(Counter::kServerRequests);
    metrics.Add(Counter::kServerBytesIn, line.size() + 1);
    std::string_view req = Trim(line);
    std::string reply;
    if (req == "\\q") {
      metrics.Add(Counter::kServerBytesOut, 7);  // "OK bye\n"
      SendAll(fd, "OK bye\n");
      break;
    } else if (req == "\\d") {
      AppendPayload(manager_->Describe(&session->constraints()), &reply);
      reply += "OK \n";
    } else if (req.rfind("\\d ", 0) == 0) {
      AppendPayload(manager_->DescribeTable(std::string(Trim(req.substr(3)))),
                    &reply);
      reply += "OK \n";
    } else if (req.rfind("\\explain ", 0) == 0) {
      Result<std::string> plan = session->Explain(req.substr(9));
      if (plan.ok()) {
        AppendPayload(*plan, &reply);
        reply += "OK \n";
      } else {
        reply += "ERR " + Escape(plan.status().ToString()) + "\n";
      }
    } else if (req == "\\stats" || req.rfind("\\stats ", 0) == 0) {
      // Shared registry snapshot (optionally LIKE-filtered), then this
      // session's own statement counts.
      const std::string pattern =
          req.size() > 7 ? std::string(Trim(req.substr(7))) : std::string();
      if (pattern == "--prom") {
        // Prometheus text exposition (scrape-ready payload).
        AppendPayload(manager_->metrics().PrometheusText(), &reply);
        reply += "OK \n";
      } else {
        std::string text;
        for (const auto& [name, value] : manager_->StatsSnapshot()) {
          if (!pattern.empty() && !MetricNameLike(pattern, name)) continue;
          text += StringFormat("%-44s %.6g\n", name.c_str(), value);
        }
        text += StringFormat(
            "session: id=%llu statements=%llu failed=%llu\n",
            static_cast<unsigned long long>(session->id()),
            static_cast<unsigned long long>(session->statements_run()),
            static_cast<unsigned long long>(session->statements_failed()));
        AppendPayload(text, &reply);
        reply += "OK \n";
      }
    } else if (req.rfind("\\trace ", 0) == 0) {
      const std::string path(Trim(req.substr(7)));
      const auto traces = manager_->traces().Recent();
      const std::string json = ExportChromeTrace(traces);
      FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        reply += "ERR " +
                 Escape(StringFormat("\\trace: cannot open '%s': %s",
                                     path.c_str(), std::strerror(errno))) +
                 "\n";
      } else {
        const size_t written = std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        if (written != json.size()) {
          reply += "ERR " +
                   Escape(StringFormat("\\trace: short write to '%s'",
                                       path.c_str())) +
                   "\n";
        } else {
          reply += "OK " +
                   Escape(StringFormat("wrote %zu trace(s) to %s",
                                       traces.size(), path.c_str())) +
                   "\n";
        }
      }
    } else if (!req.empty() && req[0] == '\\') {
      reply += "ERR unknown meta-command; try \\d [table], \\explain <q>, "
               "\\stats [pattern], \\trace <file>, \\q\n";
    } else if (req.empty()) {
      reply += "OK \n";
    } else {
      Result<QueryResult> result = session->Query(req);
      if (!result.ok()) {
        reply += "ERR " + Escape(result.status().ToString()) + "\n";
      } else {
        if (result->NumColumns() > 0) AppendPayload(result->ToString(), &reply);
        reply += "OK " + Escape(result->message()) + "\n";
      }
    }
    metrics.Add(Counter::kServerBytesOut, reply.size());
    if (!SendAll(fd, reply)) break;
  }
  // The session (its knobs, RNG stream, and evidence) dies with the
  // connection; the worker loop reclaims the fd.
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status Client::Connect(const std::string& socket_path) {
  Close();
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument(
        StringFormat("socket path too long: '%s'", socket_path.c_str()));
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StringFormat("socket(): %s", std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st = Status::IoError(StringFormat("connect('%s'): %s",
                                             socket_path.c_str(),
                                             std::strerror(errno)));
    ::close(fd);
    return st;
  }
  fd_ = fd;
  return Status::OK();
}

Result<ServerReply> Client::Request(std::string_view request) {
  if (fd_ < 0) return Status::InvalidArgument("client is not connected");
  // One request = one line: flatten any newlines in multi-line SQL.
  std::string line(request);
  for (char& c : line) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  line += "\n";
  if (!SendAll(fd_, line)) {
    Close();
    return Status::IoError("server connection lost while sending");
  }
  ServerReply reply;
  std::string resp;
  for (;;) {
    if (!RecvLine(fd_, &buffer_, &resp)) {
      Close();
      return Status::IoError("server connection lost while receiving");
    }
    if (resp.rfind("D ", 0) == 0) {
      reply.lines.push_back(Unescape(std::string_view(resp).substr(2)));
    } else if (resp.rfind("OK", 0) == 0) {
      reply.ok = true;
      reply.message =
          Unescape(Trim(std::string_view(resp).substr(2)));
      return reply;
    } else if (resp.rfind("ERR", 0) == 0) {
      reply.ok = false;
      reply.message =
          Unescape(Trim(std::string_view(resp).substr(3)));
      return reply;
    } else {
      Close();
      return Status::ParseError(
          StringFormat("malformed server response line: '%s'", resp.c_str()));
    }
  }
}

}  // namespace maybms
