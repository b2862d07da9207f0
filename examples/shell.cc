// maybms shell: an interactive psql-style REPL over the embedded engine.
//
//   build/examples/shell                    # interactive, embedded
//   build/examples/shell file.sql           # run a script, then exit
//   build/examples/shell --serve /tmp/db.sock    # embedded + serve clients
//   build/examples/shell --connect /tmp/db.sock  # client of a served db
//
// --serve starts the multi-session server (src/server/server.h) on a
// local socket while keeping this shell interactive as the root session;
// every --connect shell gets its OWN session over the same catalog — its
// own SET knobs and asserted evidence — while data and the world table
// are shared under statement-level snapshot isolation
// (src/engine/session.h).
//
// Meta-commands: \d (list tables + world table + sessions + evidence),
// \d <table> (describe), \explain <query>, \stats [pattern] (metrics
// registry snapshot, LIKE-filterable — same data as SHOW STATS),
// \trace <file> (recent statement traces as chrome://tracing JSON),
// \save <file> / \load <file> (dump and restore the whole database —
// conditions, world table, and this session's asserted evidence
// included; embedded mode only), \q.
//
// Conditioning statements (see DESIGN.md):
//   ASSERT <query>;                  -- condition on "query has an answer"
//   CONDITION ON <query>;            -- synonym
//   ASSERT CONFIDENCE >= p <query>;  -- check posterior confidence only
//   SHOW EVIDENCE;  CLEAR EVIDENCE;
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/common/str_util.h"
#include "src/engine/database.h"
#include "src/server/server.h"
#include "src/storage/persist.h"

using maybms::Database;
using maybms::Trim;

namespace {

// Executes one complete statement or meta-command; returns false on \q.
// `serving` disables \save/\load: a dump while remote sessions write
// could tear, and \load swaps out the very catalog they are attached to.
bool Dispatch(Database* db, const std::string& line, bool serving) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return true;
  if (trimmed[0] == '\\') {
    std::string cmd(trimmed);
    if (cmd == "\\q") return false;
    if (cmd == "\\d") {
      std::printf("%s",
                  db->session_manager().Describe(&db->constraints()).c_str());
      return true;
    }
    if (cmd.rfind("\\d ", 0) == 0) {
      std::printf("%s", db->session_manager()
                            .DescribeTable(std::string(Trim(cmd.substr(3))))
                            .c_str());
      return true;
    }
    if (cmd.rfind("\\explain ", 0) == 0) {
      auto plan = db->Explain(cmd.substr(9));
      std::printf("%s", plan.ok() ? plan->c_str()
                                  : (plan.status().ToString() + "\n").c_str());
      return true;
    }
    if (cmd == "\\stats" || cmd.rfind("\\stats ", 0) == 0) {
      std::string pattern =
          cmd.size() > 7 ? std::string(Trim(cmd.substr(7))) : std::string();
      if (pattern == "--prom") {
        // Prometheus text exposition of the registry counters/histograms
        // (same names as \stats, "maybms_"-prefixed and sanitized).
        std::printf("%s",
                    db->session_manager().metrics().PrometheusText().c_str());
        return true;
      }
      for (const auto& [name, value] :
           db->session_manager().StatsSnapshot()) {
        if (!pattern.empty() && !maybms::MetricNameLike(pattern, name)) {
          continue;
        }
        std::printf("%-44s %.6g\n", name.c_str(), value);
      }
      return true;
    }
    if (cmd.rfind("\\trace ", 0) == 0) {
      const std::string path(Trim(cmd.substr(7)));
      const std::string json = db->session_manager().ExportTraceJson();
      std::ofstream out(path, std::ios::binary);
      out << json;
      std::printf(out.good() ? "wrote traces to %s\n"
                             : "cannot write traces to %s\n",
                  path.c_str());
      return true;
    }
    if (serving &&
        (cmd.rfind("\\save ", 0) == 0 || cmd.rfind("\\load ", 0) == 0)) {
      std::printf("\\save/\\load are unavailable while serving: remote "
                  "sessions hold the live catalog\n");
      return true;
    }
    if (cmd.rfind("\\save ", 0) == 0) {
      auto st = maybms::SaveDatabaseToFile(db->catalog(),
                                           std::string(Trim(cmd.substr(6))),
                                           &db->constraints());
      std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
      return true;
    }
    if (cmd.rfind("\\load ", 0) == 0) {
      // Restore replaces the session database (restores need a fresh one).
      auto fresh = std::make_unique<Database>();
      auto st = maybms::LoadDatabaseFromFile(std::string(Trim(cmd.substr(6))),
                                             &fresh->catalog(),
                                             &fresh->constraints());
      if (st.ok()) {
        *db = std::move(*fresh);
        std::printf("loaded\n");
      } else {
        std::printf("%s\n", st.ToString().c_str());
      }
      return true;
    }
    std::printf("unknown meta-command; try \\d [table], \\explain <q>, "
                "\\stats [pattern], \\trace <f>, \\save <f>, \\load <f>, "
                "\\q\n");
    return true;
  }
  auto result = db->Query(trimmed);
  if (!result.ok()) {
    std::printf("%s\n", result.status().ToString().c_str());
    return true;
  }
  if (result->NumColumns() > 0) {
    std::printf("%s", result->ToString().c_str());
    // e.g. the conf() budget-fallback warning rides along with row output.
    if (!result->message().empty()) {
      std::printf("%s\n", result->message().c_str());
    }
  } else {
    std::printf("%s\n", result->message().c_str());
  }
  return true;
}

// Client mode: every complete input (meta-command or statement) becomes
// one protocol request; the server renders everything.
bool DispatchRemote(maybms::Client* client, const std::string& line) {
  std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return true;
  auto reply = client->Request(trimmed);
  if (!reply.ok()) {
    std::printf("%s\n", reply.status().ToString().c_str());
    return false;  // connection gone: leave the REPL
  }
  for (const std::string& payload : reply->lines) {
    std::printf("%s\n", payload.c_str());
  }
  if (!reply->message.empty()) {
    std::printf("%s%s\n", reply->ok ? "" : "error: ", reply->message.c_str());
  }
  return trimmed != "\\q";
}

void PrintBanner(bool serving, bool remote, const char* socket_path) {
  std::printf(
      "maybms shell — type SQL terminated by ';', or \\q to quit\n"
      "uncertainty: repair key / pick tuples, conf(), aconf(ε,δ), "
      "tconf(), possible\n"
      "conditioning: ASSERT <query>; CONDITION ON <query>; "
      "SHOW EVIDENCE; CLEAR EVIDENCE\n"
      "settings: SET dtree_node_budget = <n> (exact conf() node budget; "
      "0 = unlimited, default 50000000),\n"
      "          SET conf_fallback = on|off (over-budget conf() answers "
      "as seeded aconf with a warning; default on),\n"
      "          SET fallback_epsilon|fallback_delta = <p>,\n"
      "          SET num_threads = <n>,\n"
      "          SET dtree_cache = on|off (reuse compiled lineage across "
      "statements; default on, stats under \\d),\n"
      "          SET dtree_cache_budget = <bytes> (shared cache LRU budget; "
      "0 = unlimited, default 64 MiB),\n"
      "          SET dtree_component_cache = on|off (recompile only "
      "delta-touched lineage components; default on),\n"
      "          SET snapshot_chunk_rows = <n> (columnar snapshot chunk "
      "size; default 1024),\n"
      "          SET metrics = on|off (engine metrics + statement traces; "
      "default on),\n"
      "          SET optimizer = on|off (cost-based join reordering + "
      "stats; off = the binder's syntactic plans; default on),\n"
      "          SET optimizer_semijoin = on|off (annotated semijoin "
      "reduction of join inputs; default on),\n"
      "          SET use_indexes = on|off (optimizer may rewrite filtered "
      "scans to secondary-index scans; default on),\n"
      "          SET trace_sample = <n> (record a full operator trace every "
      "nth statement; 0 = off, default 0)\n"
      "indexes: CREATE INDEX <name> ON <table> (<column>); DROP INDEX "
      "[IF EXISTS] <name>; SHOW INDEXES\n"
      "observability: EXPLAIN [ANALYZE] <query>; SHOW STATS [LIKE 'pat']; "
      "\\stats [pattern|--prom]; \\trace <file>\n"
      "meta-commands: \\d [table], \\explain <q>, \\stats [pattern], "
      "\\trace <f>, \\save <f>, \\load <f>, \\q\n"
      "sessions: SET knobs and asserted evidence are PER SESSION; "
      "tables and the world table are shared\n");
  if (serving) {
    std::printf("serving sessions at %s — connect with: shell --connect %s\n",
                socket_path, socket_path);
  } else if (remote) {
    std::printf("connected to %s (this shell is one session of the served "
                "database; \\save/\\load are unavailable remotely)\n",
                socket_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* serve_path = nullptr;
  const char* connect_path = nullptr;
  const char* script_path = nullptr;
  size_t num_workers = 0;  // 0 = Server::kDefaultWorkers
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_path = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      num_workers = std::strtoull(argv[++i], nullptr, 10);
    } else {
      script_path = argv[i];
    }
  }

  if (connect_path != nullptr) {
    maybms::Client client;
    auto st = client.Connect(connect_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    PrintBanner(false, true, connect_path);
    std::string buffer;
    std::string line;
    std::printf("maybms> ");
    while (std::getline(std::cin, line)) {
      std::string_view trimmed = Trim(line);
      if (buffer.empty() && !trimmed.empty() && trimmed[0] == '\\') {
        if (!DispatchRemote(&client, line)) return 0;
        std::printf("maybms> ");
        continue;
      }
      buffer += line;
      buffer += "\n";
      if (trimmed.ends_with(";")) {
        std::string stmt = buffer;
        buffer.clear();
        if (!DispatchRemote(&client, stmt)) return 0;
      }
      std::printf(buffer.empty() ? "maybms> " : "   ...> ");
    }
    return 0;
  }

  // Interactive sessions prefer a degraded answer over a failed query:
  // conf() groups whose d-tree compilation exceeds the node budget fall
  // back to seeded aconf estimates with a warning (SET conf_fallback = off
  // restores hard errors; SET dtree_node_budget = <n> bounds the work).
  maybms::DatabaseOptions options;
  options.exec.conf_fallback = true;
  options.exec.exact.max_steps = 50'000'000;
  Database db(options);

  if (script_path != nullptr) {
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", script_path);
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto result = db.ExecuteScript(buf.str());
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (result->NumColumns() > 0) std::printf("%s", result->ToString().c_str());
    if (!result->message().empty()) std::printf("%s\n", result->message().c_str());
    return 0;
  }

  maybms::Server server(&db.session_manager(), options, num_workers);
  if (serve_path != nullptr) {
    auto st = server.Start(serve_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("worker pool: %zu thread(s) (--workers <n> to change)\n",
                server.num_workers());
  }

  PrintBanner(serve_path != nullptr, false, serve_path);
  std::string buffer;
  std::string line;
  std::printf("maybms> ");
  while (std::getline(std::cin, line)) {
    std::string_view trimmed = Trim(line);
    // Meta-commands act immediately; SQL accumulates until ';'.
    if (buffer.empty() && !trimmed.empty() && trimmed[0] == '\\') {
      if (!Dispatch(&db, line, serve_path != nullptr)) return 0;
      std::printf("maybms> ");
      continue;
    }
    buffer += line;
    buffer += "\n";
    if (trimmed.ends_with(";")) {
      std::string stmt = buffer;
      buffer.clear();
      if (!Dispatch(&db, stmt, serve_path != nullptr)) return 0;
    }
    std::printf(buffer.empty() ? "maybms> " : "   ...> ");
  }
  return 0;
}
