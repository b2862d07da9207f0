#include "src/obs/trace.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace maybms {

namespace {

std::string Ms(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) * 1e-6);
  return buf;
}

double EpsilonOf(const ConfPhaseSample& c) {
  if (c.epsilon_bits == 0) return 0.0;
  double eps;
  static_assert(sizeof(eps) == sizeof(c.epsilon_bits), "bit width");
  std::memcpy(&eps, &c.epsilon_bits, sizeof(eps));
  return eps;
}

void AppendConfSummary(const ConfPhaseSample& c, std::string* out) {
  char buf[256];
  if (c.exact_calls != 0) {
    std::snprintf(buf, sizeof(buf),
                  " conf[exact=%llu %s cache_hits=%llu comp_hits=%llu "
                  "compiles=%llu compile=%s nodes=%llu]",
                  static_cast<unsigned long long>(c.exact_calls),
                  Ms(c.exact_ns).c_str(),
                  static_cast<unsigned long long>(c.cache_hits),
                  static_cast<unsigned long long>(c.component_hits),
                  static_cast<unsigned long long>(c.compiles),
                  Ms(c.compile_ns).c_str(),
                  static_cast<unsigned long long>(c.compile_nodes));
    out->append(buf);
  }
  if (c.aconf_calls != 0 || c.kl_trials != 0 || c.estimate_hits != 0) {
    std::snprintf(buf, sizeof(buf),
                  " aconf[calls=%llu %s exact=%llu trials=%llu "
                  "rejections=%llu est_hits=%llu eps=%g]",
                  static_cast<unsigned long long>(c.aconf_calls),
                  Ms(c.aconf_ns).c_str(),
                  static_cast<unsigned long long>(c.exact_answers),
                  static_cast<unsigned long long>(c.kl_trials),
                  static_cast<unsigned long long>(c.kl_rejections),
                  static_cast<unsigned long long>(c.estimate_hits),
                  EpsilonOf(c));
    out->append(buf);
  }
}

void RenderNode(const TraceNode& node, int depth, std::string* out) {
  uint64_t child_ns = 0;
  for (const auto& c : node.children) child_ns += c->inclusive_ns;
  const uint64_t self_ns =
      node.inclusive_ns > child_ns ? node.inclusive_ns - child_ns : 0;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.label);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  (time=%s self=%s rows=%llu batches=%llu",
                Ms(node.inclusive_ns).c_str(), Ms(self_ns).c_str(),
                static_cast<unsigned long long>(node.rows_out),
                static_cast<unsigned long long>(node.batches_out));
  out->append(buf);
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), " est=%.6g", node.est_rows);
    out->append(buf);
  }
  if (node.morsels != 0) {
    std::snprintf(buf, sizeof(buf), " morsels=%llu",
                  static_cast<unsigned long long>(node.morsels));
    out->append(buf);
  }
  if (node.range_skipped >= 0) {
    std::snprintf(buf, sizeof(buf), " range_skipped=%lld",
                  static_cast<long long>(node.range_skipped));
    out->append(buf);
  }
  out->push_back(')');
  AppendConfSummary(node.conf, out);
  out->push_back('\n');
  for (const auto& c : node.children) RenderNode(*c, depth + 1, out);
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char ch : s) {
    switch (ch) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
}

struct EventWriter {
  std::string* out;
  bool first = true;

  void Emit(const std::string& name, uint64_t session, uint64_t tid,
            uint64_t ts_ns, uint64_t dur_ns, const std::string& args_json) {
    if (!first) out->append(",\n");
    first = false;
    char buf[160];
    out->append("{\"name\":\"");
    JsonEscape(name, out);
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"pid\":%llu,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<unsigned long long>(session),
                  static_cast<unsigned long long>(tid),
                  static_cast<double>(ts_ns) * 1e-3,
                  static_cast<double>(dur_ns) * 1e-3);
    out->append(buf);
    if (!args_json.empty()) {
      out->append(",\"args\":{");
      out->append(args_json);
      out->push_back('}');
    }
    out->append("}");
  }
};

std::string NodeArgs(const TraceNode& node) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"rows\":%llu,\"batches\":%llu,\"morsels\":%llu,"
                "\"calls\":%llu,\"kl_trials\":%llu,\"compile_nodes\":%llu",
                static_cast<unsigned long long>(node.rows_out),
                static_cast<unsigned long long>(node.batches_out),
                static_cast<unsigned long long>(node.morsels),
                static_cast<unsigned long long>(node.calls),
                static_cast<unsigned long long>(node.conf.kl_trials),
                static_cast<unsigned long long>(node.conf.compile_nodes));
  return buf;
}

// Aggregate operator spans: children laid out back-to-back from the
// parent's start (per-call offsets are not retained).
void EmitNode(const TraceNode& node, uint64_t session, uint64_t tid,
              uint64_t start_ns, EventWriter* w) {
  w->Emit(node.label, session, tid, start_ns, node.inclusive_ns,
          NodeArgs(node));
  uint64_t child_start = start_ns;
  for (const auto& c : node.children) {
    EmitNode(*c, session, tid, child_start, w);
    child_start += c->inclusive_ns;
  }
}

}  // namespace

TraceNode* StatementTrace::NewNode(TraceNode* parent, std::string label) {
  auto node = std::make_unique<TraceNode>();
  node->label = std::move(label);
  TraceNode* raw = node.get();
  if (parent == nullptr) {
    root = std::move(node);
  } else {
    parent->children.push_back(std::move(node));
  }
  return raw;
}

std::string StatementTrace::Render() const {
  std::string out;
  if (root != nullptr) {
    RenderNode(*root, 0, &out);
  }
  const uint64_t conf_ns = conf.exact_ns + conf.aconf_ns;
  out.append("phases: total=" + Ms(total_ns) + " parse=" + Ms(parse_ns) +
             " bind=" + Ms(bind_ns) + " lock_wait=" + Ms(lock_wait_ns) +
             " execute=" + Ms(execute_ns) + " conf=" + Ms(conf_ns) + "\n");
  if (lock_wait_ns != 0) {
    out.append("locks: catalog=" + Ms(lock_catalog_ns) +
               " world=" + Ms(lock_world_ns) +
               " table=" + Ms(lock_table_ns) + "\n");
  }
  if (!conf.Empty()) {
    std::string line = "conf:";
    AppendConfSummary(conf, &line);
    out.append(line);
    out.push_back('\n');
  }
  return out;
}

void TraceBuffer::Record(std::shared_ptr<const StatementTrace> trace) {
  std::lock_guard<std::mutex> lock(mu_);
  traces_.push_back(std::move(trace));
  while (traces_.size() > capacity_) traces_.pop_front();
}

std::vector<std::shared_ptr<const StatementTrace>> TraceBuffer::Recent()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {traces_.begin(), traces_.end()};
}

std::string ExportChromeTrace(
    const std::vector<std::shared_ptr<const StatementTrace>>& traces) {
  // Normalize timestamps to the earliest statement start so the viewer
  // opens at t=0 regardless of process uptime.
  uint64_t epoch = 0;
  bool have_epoch = false;
  for (const auto& t : traces) {
    if (!have_epoch || t->start_ns < epoch) {
      epoch = t->start_ns;
      have_epoch = true;
    }
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  EventWriter w{&out};
  for (const auto& t : traces) {
    const uint64_t ts = t->start_ns - epoch;
    char args[256];
    std::snprintf(args, sizeof(args),
                  "\"failed\":%s,\"kl_trials\":%llu,\"compile_nodes\":%llu",
                  t->failed ? "true" : "false",
                  static_cast<unsigned long long>(t->conf.kl_trials),
                  static_cast<unsigned long long>(t->conf.compile_nodes));
    std::string label = t->statement.empty() ? "<statement>" : t->statement;
    w.Emit(label, t->session_id, t->thread_hash, ts, t->total_ns, args);
    uint64_t cursor = ts;
    // Statement lifecycle order: locks are acquired before binding (the
    // binder reads table schemas under them), so lock_wait precedes bind.
    const std::pair<const char*, uint64_t> phases[] = {
        {"parse", t->parse_ns},
        {"lock_wait", t->lock_wait_ns},
        {"bind", t->bind_ns},
        {"execute", t->execute_ns},
    };
    uint64_t execute_start = ts;
    for (const auto& ph : phases) {
      if (ph.second != 0) {
        w.Emit(ph.first, t->session_id, t->thread_hash, cursor, ph.second,
               "");
      }
      if (std::strcmp(ph.first, "execute") == 0) execute_start = cursor;
      cursor += ph.second;
    }
    if (t->root != nullptr) {
      EmitNode(*t->root, t->session_id, t->thread_hash, execute_start, &w);
    }
  }
  out.append("\n]}\n");
  return out;
}

}  // namespace maybms
