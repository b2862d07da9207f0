// The traced run: in-process replays of a workload's request list with a
// span around the public entry point of every module the statement
// passes through, so the layer split is measured from outside the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/report.h"
#include "perfbench/workload.h"

namespace perfbench {

/// In-memory span log. Spans nest through a stack (one thread); each has a
/// name, start, end, parent (index into spans(), -1 at the root), the id
/// of the request that caused it, and a track naming the replay.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t request;
    int track;
  };

  /// Opens a span under the innermost open one; returns its index.
  size_t Begin(const char* name, uint64_t request, int track);
  /// Closes span `index` (which must be the innermost open one).
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// chrome://tracing JSON of every span, written once at the end.
  bool WriteChromeJson(const std::string& path) const;

  /// Per span name: count, total and self time (span time minus the time
  /// its child spans cover), in first-seen order.
  struct LayerTime {
    std::string name;
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::vector<LayerTime> LayerSplit() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Exact counts of the decomposed replay, which repeat between runs of one
/// seed (the self-test compares them).
struct TraceCounts {
  uint64_t dtree_nodes = 0;
  uint64_t cache_hits = 0;
  uint64_t index_scans = 0;
  bool operator==(const TraceCounts&) const = default;
};

struct TraceResult {
  Report layers;
  TraceCounts counts;
  std::string layer_split;  ///< printable per-span count / total / self time
};

/// The traced run: the solo replay (filling `solo`, which the end-to-end
/// answers are checked against) with three more instances driven in
/// lockstep, each module call wrapped in a span. Fills `out` with every
/// per-layer metric and writes the spans to
/// <workdir>/trace-<workload>-<seed>.json.
/// Answer disagreements go to `problems`.
maybms::Status RunTraced(const RunOptions& opt, const Workload& w,
                         const std::string& file, const E2eResult& e2e,
                         Replay* solo, TraceResult* out,
                         std::vector<std::string>* problems);

/// Same-seed request lists must be identical and different seeds must
/// differ; the decomposed replay's exact counts must repeat. Returns the
/// process exit code.
int SelfTest(const RunOptions& opt);

}  // namespace perfbench
