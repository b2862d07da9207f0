// Engine-wide metrics registry (ISSUE 8).
//
// One MetricsRegistry is owned by each SessionManager (NOT a process-wide
// singleton: tests create many managers and their counters must not bleed
// into each other). Every layer that wants to count something gets a raw
// pointer wired through ExecContext / ExactOptions / MonteCarloOptions; a
// null pointer means "metrics off" and the instrumented code skips all
// work, so `SET metrics = off` leaves both answers and counters untouched.
//
// Design constraints, in order:
//   1. Near-zero cost while enabled: counters are relaxed atomic adds on a
//      fixed enum-indexed array (no map lookups, no strings, no locks on
//      the hot path). Latency histograms are log2-bucketed nanoseconds —
//      one clz + one relaxed add.
//   2. Thread-safe by construction: morsel workers, server threads and
//      concurrent sessions all hit the same registry.
//   3. Snapshots are names + doubles so SHOW STATS / \stats / bench JSON
//      all render from the same call.
//
// This header is a LEAF: it may be included from any layer (conf/,
// lineage/, exec/, engine/, server/) and depends only on the standard
// library.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace maybms {

// Statement kinds mirrored from StatementKind (src/sql/ast.h). The
// registry cannot include ast.h (ast.h sits above obs/ in the layering),
// so Session maps StatementKind -> this dense index via
// StatementKindIndex() in session.cc; kNumStatementKinds must stay >= the
// number of StatementKind enumerators (static_assert'd at the mapping
// site).
inline constexpr size_t kNumStatementKinds = 16;

// Scalar counters. Names live in kCounterNames (metrics.cc) in the SAME
// order; keep the two in sync.
enum class Counter : uint16_t {
  // Per-statement-kind executed/failed blocks, indexed by
  // kStmtExecutedFirst + kind and kStmtFailedFirst + kind.
  kStmtExecutedFirst = 0,
  kStmtFailedFirst = kStmtExecutedFirst + kNumStatementKinds,
  kFirstScalar = kStmtFailedFirst + kNumStatementKinds,

  // Execution engine.
  kBatchOperators = kFirstScalar,  // batch operators constructed
  kBatchBatches,                   // batches pulled from plan roots
  kBatchRows,                      // rows pulled from plan roots
  kBatchMorsels,                   // morsels dispatched to the pool
  kJoinRangeSkippedRows,           // join/semijoin probe rows range-filtered

  // Exact confidence (d-tree) phases.
  kConfExactCalls,
  kConfExactCacheHits,      // whole-statement (kind-0) cache answers
  kConfExactComponentHits,  // per-component (kind-1) cache answers
  kConfExactCompiles,       // fresh DTreeCompiler runs
  kConfExactCompileNodes,   // compiler steps across fresh runs
  kConfFallbacks,           // exact -> aconf hybrid fallbacks taken

  // Approximate confidence (Karp-Luby).
  kAconfCalls,
  kAconfEstimateCacheHits,  // seeded-estimate (kind-2) cache answers
  kAconfExactAnswers,       // groups answered by the bounded exact attempt
  kKlTrials,                // Bernoulli trials drawn
  kKlRejections,            // trials rejected (Z = 0)

  // Conditioning.
  kConstraintPrunes,      // physical world-pruning passes
  kConstraintPrunedRows,  // rows dropped by pruning
  kConstraintPrunedVars,  // variables collapsed by pruning

  // Server front end.
  kServerConnections,
  kServerRequests,
  kServerBytesIn,
  kServerBytesOut,

  kTracesRecorded,  // statement traces pushed into the ring buffer

  // Cost-based optimizer (src/opt/).
  kOptPlansConsidered,    // join orders costed by the enumerator
  kOptReorders,           // join regions where a non-syntactic order won
  kOptSemijoinsInserted,  // semijoin reducers placed in plans
  kOptSemijoinsSkipped,   // reducer sites rejected by the benefit gate
  kOptIndexScans,         // Filter(Scan) sites rewritten to an index path

  // Paged storage / buffer pool (src/storage/page.h).
  kBufferPoolHits,
  kBufferPoolMisses,
  kBufferPoolEvictions,
  kBufferPoolWritebacks,

  // Secondary indexes (src/index/).
  kIndexLookups,       // B+ tree range/point lookups served
  kIndexScanRows,      // candidate row ids returned by lookups
  kIndexRebuilds,      // full lazy rebuilds (initial build or staleness)
  kIndexAppendedRows,  // rows absorbed incrementally on INSERT

  kNumCounters,
};

// Latency histograms (log2 ns buckets). Names in kHistNames (metrics.cc).
enum class Hist : uint16_t {
  kStmtTotal = 0,  // whole statement incl. parse
  kStmtParse,
  kStmtBind,      // bind + plan (the binder plans)
  kStmtLockWait,  // total statement-lock wait
  kStmtExecute,
  kConfExact,  // per ExactConfidence call
  kConfAconf,  // per aconf call (cache probe, exact attempt, sampling)
  kLockCatalog,
  kLockWorld,
  kLockTable,
  kNumHists,
};

// Plain (non-atomic) snapshot of one ConfPhaseCounters — used for
// before/after deltas around an operator's Next() call when tracing.
struct ConfPhaseSample {
  uint64_t exact_calls = 0;
  uint64_t exact_ns = 0;
  uint64_t cache_hits = 0;
  uint64_t component_hits = 0;
  uint64_t compiles = 0;
  uint64_t compile_ns = 0;
  uint64_t compile_nodes = 0;
  uint64_t aconf_calls = 0;
  uint64_t aconf_ns = 0;
  uint64_t estimate_hits = 0;
  uint64_t exact_answers = 0;
  uint64_t kl_trials = 0;
  uint64_t kl_rejections = 0;
  uint64_t epsilon_bits = 0;  // bit pattern of the last aconf epsilon

  ConfPhaseSample operator-(const ConfPhaseSample& b) const;
  void Accumulate(const ConfPhaseSample& d);
  bool Empty() const;
};

// Per-statement confidence-phase counters. One instance lives on the
// Session stack for the duration of a statement and is wired to the
// solvers through ExactOptions::counters / MonteCarloOptions::counters —
// both pointers are OUTSIDE the cache key fingerprints (verified against
// OptionsFingerprint / BuildEstimateKey in dtree_cache.cc), so attaching
// them can never perturb cached results. All fields are relaxed atomics:
// morsel workers running component-parallel conf() update them
// concurrently.
struct ConfPhaseCounters {
  std::atomic<uint64_t> exact_calls{0};
  std::atomic<uint64_t> exact_ns{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> component_hits{0};
  std::atomic<uint64_t> compiles{0};
  std::atomic<uint64_t> compile_ns{0};
  std::atomic<uint64_t> compile_nodes{0};
  std::atomic<uint64_t> aconf_calls{0};
  std::atomic<uint64_t> aconf_ns{0};
  std::atomic<uint64_t> estimate_hits{0};
  std::atomic<uint64_t> exact_answers{0};
  std::atomic<uint64_t> kl_trials{0};
  std::atomic<uint64_t> kl_rejections{0};
  // Bit pattern of the epsilon GUARANTEED by the most recent completed
  // aconf answer (the DKLR stopping rule's parameter; "achieved" in the
  // (eps, delta)-approximation sense; 0 for an exact answer).
  // Last-writer-wins is fine: the trace renders it per statement, not per
  // trial.
  std::atomic<uint64_t> epsilon_bits{0};

  ConfPhaseSample Sample() const;
};

// Monotonic nanoseconds (steady_clock). All obs timing uses this single
// clock so trace spans and histograms are mutually comparable. Inline:
// hot paths read it up to ~20 times per statement.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// SQL-LIKE wildcard match for metric names: '%' = any sequence, '_' = any
// single char, everything else literal. Case-sensitive (metric names are
// lowercase by construction).
bool MetricNameLike(const std::string& pattern, const std::string& name);

class MetricsRegistry {
 public:
  static constexpr size_t kHistBuckets = 40;  // 2^40 ns ~ 18 min cap

  MetricsRegistry();

  void Add(Counter c, uint64_t v = 1) {
    counters_[static_cast<size_t>(c)].fetch_add(v, std::memory_order_relaxed);
  }
  // Per-kind statement accounting; `kind_index` is StatementKindIndex().
  void AddStatement(size_t kind_index, bool failed);

  void RecordNs(Hist h, uint64_t ns);

  uint64_t Get(Counter c) const {
    return counters_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }

  // All counters plus histogram aggregates (<name>.count / .total_ms /
  // .p50_ms / .p99_ms / .max_ms) as sorted (name, value) pairs.
  // Percentiles are log2-bucket approximations (geometric bucket
  // midpoint); exact enough for operator dashboards, documented as such.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  // Prometheus text exposition format (version 0.0.4): every scalar
  // counter as a `counter` series, and every latency instrument as a real
  // `histogram` — cumulative maybms_<name>_seconds_bucket{le="..."} over
  // the log2-ns buckets (bounds converted to seconds) plus _sum/_count —
  // rather than the p50/p99 gauge approximations SHOW STATS renders.
  // Names are prefixed "maybms_" with non-[a-zA-Z0-9_] characters mapped
  // to '_'. Served by `\stats --prom` on both the shell and the server.
  std::string PrometheusText() const;

  // Folds a statement's confidence-phase counters into the scalar
  // counters (called once per statement by the Session).
  void FoldConfPhases(const ConfPhaseSample& s);

 private:
  struct Histogram {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_ns{0};
    std::atomic<uint64_t> max_ns{0};
    std::array<std::atomic<uint64_t>, kHistBuckets> buckets{};
  };

  std::array<std::atomic<uint64_t>, static_cast<size_t>(Counter::kNumCounters)>
      counters_{};
  std::array<Histogram, static_cast<size_t>(Hist::kNumHists)> hists_{};
};

// Small RAII stopwatch: records elapsed ns into *sink on destruction when
// sink != nullptr (no clock calls at all when metrics are off).
class ScopedNsTimer {
 public:
  explicit ScopedNsTimer(std::atomic<uint64_t>* sink)
      : sink_(sink), start_(sink ? MonotonicNs() : 0) {}
  ~ScopedNsTimer() {
    if (sink_ != nullptr) {
      sink_->fetch_add(MonotonicNs() - start_, std::memory_order_relaxed);
    }
  }
  ScopedNsTimer(const ScopedNsTimer&) = delete;
  ScopedNsTimer& operator=(const ScopedNsTimer&) = delete;

 private:
  std::atomic<uint64_t>* sink_;
  uint64_t start_;
};

}  // namespace maybms
