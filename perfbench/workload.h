// Seed-generated workloads for the end-to-end benchmark: the data each
// workload sets up and the fixed request list every client sends.
//
// Everything here is a pure function of (workload name, seed, seconds,
// nproc): the same arguments always give byte-identical SQL, so every run
// of one seed does the same work and the program only ever sees the
// generated statements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request classes. Each class runs exactly one SQL shape, so its latency
/// distribution has a single mode and gets its own percentiles.
enum class Cls : uint8_t { kConf = 0, kAconf, kLookup, kInsert };
inline constexpr size_t kNumClasses = 4;
const char* ClassName(Cls cls);

struct Request {
  Cls cls = Cls::kConf;
  std::string sql;
  /// kConf / kAconf: the same statement with the confidence aggregate
  /// removed — it returns the conditioned rows whose per-group DNF the
  /// traced run compiles. The group key is every selected column.
  std::string lineage_sql;
  double epsilon = 0;  ///< kAconf: the statement's aconf(ε, δ)
  double delta = 0;
  int64_t key = 0;     ///< kLookup: the probed value of the indexed column
  size_t rows = 0;     ///< kInsert: rows the statement appends
};

/// One client connection: the statements it sends before the measured
/// loop (`SET num_threads`, evidence), then its measured request list.
struct ClientPlan {
  unsigned num_threads = 1;
  std::vector<std::string> prologue;
  std::vector<Request> requests;
};

struct Workload {
  std::string name;
  /// Team workloads load a saved database file; ingest builds its table
  /// with SQL through the server.
  bool loads_file = false;
  /// Statements that create the workload's data. For file workloads they
  /// build the file (untimed); for ingest they ARE the timed setup.
  std::vector<std::string> setup_sql;
  const char* table = "";         ///< the table the lookups probe
  const char* index_column = "";  ///< its indexed column
  const char* insert_table = "";  ///< the table the INSERT class appends to
  size_t insert_base_rows = 0;  ///< its rows after setup
  std::vector<ClientPlan> clients;

  size_t NumRequests() const;
  size_t ClassCount(Cls cls) const;
};

/// Names accepted by MakeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload; false (with `*error`) for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  unsigned nproc, Workload* out, std::string* error);

/// FNV-1a over every generated statement, in order (self-test).
uint64_t Fingerprint(const Workload& w);

}  // namespace perfbench
