// The benchmark's end-to-end run and the solo replay its answers are
// checked against, plus the helpers the traced run shares with them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/common/status.h"
#include "src/engine/query_result.h"
#include "src/engine/session.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  unsigned nproc = 1;
  std::string workdir;  ///< scratch directory inside the checkout
};

/// What one request got back: its status, a digest of the answer's
/// rendered payload lines (exactly the server protocol's D lines), and its
/// latency. Only the digest is kept, so the harness's own memory stays
/// small next to the engine's in peak_rss_mb.
struct Outcome {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;
  /// Digest of the bit patterns of every double in the answer (in-process
  /// replays only), for bit-identity checks.
  uint64_t values = 0;
  uint64_t ns = 0;
};
using SessionOutcomes = std::vector<Outcome>;  // one per measured request

/// FNV-1a over the payload lines the server sends for a result (server.cc's
/// AppendPayload split of QueryResult::ToString()), each line terminated.
uint64_t PayloadDigest(const std::vector<std::string>& lines);
uint64_t PayloadDigest(const maybms::QueryResult& result);

/// Hands freed heap back to the system after an instance is torn down, so
/// the peak RSS reflects the largest live instance, not allocator history.
void ReleaseFreedMemory();

/// FNV-1a over the bit pattern of every double in `result`.
uint64_t ValueDigest(const maybms::QueryResult& result);

/// Nearest-rank percentile (q in (0, 1]) of `ns`, in milliseconds.
double PercentileMs(std::vector<uint64_t> ns, double q);
double Median(std::vector<double> v);

/// Path of the workload's saved team database (file workloads only).
std::string DatabaseFile(const RunOptions& opt, const Workload& w);

/// Builds the team database with SQL and saves it (untimed).
maybms::Status WriteDatabaseFile(const Workload& w, const std::string& path);

/// Fills a fresh manager with the workload's data in-process: loads the
/// saved file, or runs the setup SQL on a session.
maybms::Status LoadInstance(const Workload& w, const std::string& file,
                            maybms::SessionManager* manager);

/// Rows of `table` as seen by `session`.
maybms::Result<int64_t> CountRows(maybms::Session* session,
                                  const std::string& table);

/// Callbacks a replay makes around each client's list, so the traced run
/// can drive its other instances in lockstep with it.
class ReplayObserver {
 public:
  virtual ~ReplayObserver() = default;
  /// Client `k`'s session has run its prologue.
  virtual maybms::Status BeginClient(size_t k) = 0;
  /// Request `i` of client `k` has run; `outcome` is what it got.
  virtual maybms::Status AfterRequest(size_t k, size_t i, const Outcome& outcome) = 0;
  virtual maybms::Status EndClient(size_t k) = 0;
};

/// The solo replay: every client's prologue and request list run one
/// after the other, each on its own session of one fresh in-process
/// instance, through Session::Query. A second live session keeps evidence
/// algebraic, as on a multi-session server, and re-runs every 8th lookup
/// with `SET use_indexes = off` to check the index path; disagreements are
/// appended to `mismatches`.
struct Replay {
  std::vector<SessionOutcomes> sessions;
};
maybms::Status RunReplay(const Workload& w, const std::string& file, Replay* out,
                         std::vector<std::string>* mismatches,
                         ReplayObserver* observer = nullptr);

/// End-to-end run through the AF_UNIX server.
struct E2eResult {
  std::vector<double> setup_s;          ///< every timed setup
  std::vector<SessionOutcomes> sessions;
  double wall_s = 0;                    ///< first send to last reply
  int64_t final_rows = 0;               ///< rows of w.insert_table after
  size_t acked_insert_rows = 0;
};
maybms::Status RunE2e(const RunOptions& opt, const Workload& w,
                      const std::string& file, E2eResult* out);

/// Checks `got` against the solo replay: every conf/aconf/lookup answer
/// must render byte-identically. Returns the number of mismatches and
/// describes the first few in `log`.
size_t CompareAnswers(const Workload& w, const std::vector<SessionOutcomes>& got,
                      const std::vector<SessionOutcomes>& want,
                      std::vector<std::string>* log);

/// Per-class latency samples of the successful measured requests.
std::array<std::vector<uint64_t>, kNumClasses> ClassLatencies(
    const Workload& w, const std::vector<SessionOutcomes>& sessions);

/// Failed requests across all sessions.
size_t CountFailed(const std::vector<SessionOutcomes>& sessions);

}  // namespace perfbench
