#include "src/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace maybms {

namespace {

// Statement-kind names in the dense obs order (session.cc's
// StatementKindIndex() maps StatementKind enumerators onto these
// positions explicitly, with a static_assert tying the counts together).
constexpr const char* kStatementKindNames[kNumStatementKinds] = {
    "select",        "create_table",  "create_table_as", "insert",
    "update",        "delete",        "drop_table",      "assert",
    "show_evidence", "clear_evidence", "set",            "explain",
    "show_stats",    "create_index",  "drop_index",      "show_indexes",
};

// Scalar counter names for everything past the per-kind blocks, in
// Counter enumerator order starting at kFirstScalar.
constexpr const char* kScalarNames[] = {
    "exec.batch.operators",
    "exec.batch.batches",
    "exec.batch.rows",
    "exec.batch.morsels",
    "exec.join.range_skipped_rows",
    "conf.exact.calls",
    "conf.exact.cache_hits",
    "conf.exact.component_hits",
    "conf.exact.compiles",
    "conf.exact.compile_nodes",
    "conf.fallbacks",
    "conf.aconf.calls",
    "conf.aconf.estimate_cache_hits",
    "conf.aconf.exact_answers",
    "conf.kl.trials",
    "conf.kl.rejections",
    "constraints.prunes",
    "constraints.pruned_rows",
    "constraints.pruned_vars",
    "server.connections",
    "server.requests",
    "server.bytes_in",
    "server.bytes_out",
    "trace.statements",
    "opt.plans_considered",
    "opt.reorders",
    "opt.semijoin.inserted",
    "opt.semijoin.skipped",
    "opt.index_scans",
    "bufpool.hits",
    "bufpool.misses",
    "bufpool.evictions",
    "bufpool.writebacks",
    "index.lookups",
    "index.scan_rows",
    "index.rebuilds",
    "index.appended_rows",
};
static_assert(sizeof(kScalarNames) / sizeof(kScalarNames[0]) ==
                  static_cast<size_t>(Counter::kNumCounters) -
                      static_cast<size_t>(Counter::kFirstScalar),
              "kScalarNames out of sync with Counter");

constexpr const char* kHistNames[] = {
    "stmt.total",   "stmt.parse",   "stmt.bind",  "stmt.lock_wait",
    "stmt.execute", "conf.exact",   "conf.aconf", "lock.catalog",
    "lock.world",   "lock.table",
};
static_assert(sizeof(kHistNames) / sizeof(kHistNames[0]) ==
                  static_cast<size_t>(Hist::kNumHists),
              "kHistNames out of sync with Hist");

std::string CounterName(size_t i) {
  const size_t exec_first = static_cast<size_t>(Counter::kStmtExecutedFirst);
  const size_t fail_first = static_cast<size_t>(Counter::kStmtFailedFirst);
  const size_t scalar_first = static_cast<size_t>(Counter::kFirstScalar);
  if (i < fail_first) {
    return std::string("stmt.") + kStatementKindNames[i - exec_first] +
           ".executed";
  }
  if (i < scalar_first) {
    return std::string("stmt.") + kStatementKindNames[i - fail_first] +
           ".failed";
  }
  return kScalarNames[i - scalar_first];
}

size_t BucketFor(uint64_t ns) {
  size_t b = 0;
  while (ns > 1 && b + 1 < MetricsRegistry::kHistBuckets) {
    ns >>= 1;
    ++b;
  }
  return b;
}

// Geometric midpoint of bucket b ([2^b, 2^{b+1}) ns): 1.5 * 2^b. The
// percentile error is bounded by one bucket (a factor of 2), which is the
// resolution SHOW STATS documents.
double BucketMidNs(size_t b) { return 1.5 * static_cast<double>(1ULL << b); }

}  // namespace

ConfPhaseSample ConfPhaseSample::operator-(const ConfPhaseSample& b) const {
  ConfPhaseSample d;
  d.exact_calls = exact_calls - b.exact_calls;
  d.exact_ns = exact_ns - b.exact_ns;
  d.cache_hits = cache_hits - b.cache_hits;
  d.component_hits = component_hits - b.component_hits;
  d.compiles = compiles - b.compiles;
  d.compile_ns = compile_ns - b.compile_ns;
  d.compile_nodes = compile_nodes - b.compile_nodes;
  d.aconf_calls = aconf_calls - b.aconf_calls;
  d.aconf_ns = aconf_ns - b.aconf_ns;
  d.estimate_hits = estimate_hits - b.estimate_hits;
  d.exact_answers = exact_answers - b.exact_answers;
  d.kl_trials = kl_trials - b.kl_trials;
  d.kl_rejections = kl_rejections - b.kl_rejections;
  d.epsilon_bits = epsilon_bits;  // not a delta: last-writer value
  return d;
}

void ConfPhaseSample::Accumulate(const ConfPhaseSample& d) {
  exact_calls += d.exact_calls;
  exact_ns += d.exact_ns;
  cache_hits += d.cache_hits;
  component_hits += d.component_hits;
  compiles += d.compiles;
  compile_ns += d.compile_ns;
  compile_nodes += d.compile_nodes;
  aconf_calls += d.aconf_calls;
  aconf_ns += d.aconf_ns;
  estimate_hits += d.estimate_hits;
  exact_answers += d.exact_answers;
  kl_trials += d.kl_trials;
  kl_rejections += d.kl_rejections;
  if (d.epsilon_bits != 0) epsilon_bits = d.epsilon_bits;
}

bool ConfPhaseSample::Empty() const {
  return exact_calls == 0 && aconf_calls == 0 && kl_trials == 0 &&
         compile_nodes == 0 && cache_hits == 0 && component_hits == 0 &&
         estimate_hits == 0;
}

ConfPhaseSample ConfPhaseCounters::Sample() const {
  ConfPhaseSample s;
  const auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  s.exact_calls = ld(exact_calls);
  s.exact_ns = ld(exact_ns);
  s.cache_hits = ld(cache_hits);
  s.component_hits = ld(component_hits);
  s.compiles = ld(compiles);
  s.compile_ns = ld(compile_ns);
  s.compile_nodes = ld(compile_nodes);
  s.aconf_calls = ld(aconf_calls);
  s.aconf_ns = ld(aconf_ns);
  s.estimate_hits = ld(estimate_hits);
  s.exact_answers = ld(exact_answers);
  s.kl_trials = ld(kl_trials);
  s.kl_rejections = ld(kl_rejections);
  s.epsilon_bits = ld(epsilon_bits);
  return s;
}

bool MetricNameLike(const std::string& pattern, const std::string& name) {
  // Iterative two-pointer matcher with one backtrack point per '%'.
  size_t p = 0, n = 0, star = std::string::npos, mark = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star = p++;
      mark = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

MetricsRegistry::MetricsRegistry() = default;

void MetricsRegistry::AddStatement(size_t kind_index, bool failed) {
  if (kind_index >= kNumStatementKinds) return;
  const size_t base = static_cast<size_t>(
      failed ? Counter::kStmtFailedFirst : Counter::kStmtExecutedFirst);
  counters_[base + kind_index].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::RecordNs(Hist h, uint64_t ns) {
  Histogram& hist = hists_[static_cast<size_t>(h)];
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  hist.buckets[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = hist.max_ns.load(std::memory_order_relaxed);
  while (ns > prev &&
         !hist.max_ns.compare_exchange_weak(prev, ns,
                                            std::memory_order_relaxed)) {
  }
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(static_cast<size_t>(Counter::kNumCounters) +
              5 * static_cast<size_t>(Hist::kNumHists));
  for (size_t i = 0; i < static_cast<size_t>(Counter::kNumCounters); ++i) {
    out.emplace_back(CounterName(i),
                     static_cast<double>(
                         counters_[i].load(std::memory_order_relaxed)));
  }
  const double kNsToMs = 1e-6;
  for (size_t i = 0; i < static_cast<size_t>(Hist::kNumHists); ++i) {
    const Histogram& h = hists_[i];
    const uint64_t count = h.count.load(std::memory_order_relaxed);
    const std::string base = kHistNames[i];
    out.emplace_back(base + ".count", static_cast<double>(count));
    out.emplace_back(base + ".total_ms",
                     static_cast<double>(
                         h.sum_ns.load(std::memory_order_relaxed)) *
                         kNsToMs);
    out.emplace_back(base + ".max_ms",
                     static_cast<double>(
                         h.max_ns.load(std::memory_order_relaxed)) *
                         kNsToMs);
    // Approximate percentiles by walking the cumulative bucket counts.
    double p50 = 0.0, p99 = 0.0;
    if (count > 0) {
      const uint64_t need50 = (count + 1) / 2;
      const uint64_t need99 = count - count / 100;
      uint64_t cum = 0;
      for (size_t b = 0; b < kHistBuckets; ++b) {
        cum += h.buckets[b].load(std::memory_order_relaxed);
        if (p50 == 0.0 && cum >= need50) p50 = BucketMidNs(b) * kNsToMs;
        if (cum >= need99) {
          p99 = BucketMidNs(b) * kNsToMs;
          break;
        }
      }
    }
    out.emplace_back(base + ".p50_ms", p50);
    out.emplace_back(base + ".p99_ms", p99);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

std::string PromName(const std::string& name) {
  std::string prom = "maybms_";
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    prom.push_back(ok ? ch : '_');
  }
  return prom;
}

void AppendPromValue(double value, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  // Scalar counters: monotonically increasing by construction.
  for (size_t i = 0; i < static_cast<size_t>(Counter::kNumCounters); ++i) {
    const std::string prom = PromName(CounterName(i));
    out.append("# TYPE ").append(prom).append(" counter\n");
    out.append(prom).append(" ");
    AppendPromValue(
        static_cast<double>(counters_[i].load(std::memory_order_relaxed)),
        &out);
    out.push_back('\n');
  }
  // Latency instruments as real Prometheus histograms in seconds (not the
  // p50/p99 gauge approximations of SHOW STATS). Internal bucket b counts
  // latencies in [2^b, 2^{b+1}) ns, so the cumulative `le` bound of bucket
  // b is 2^{b+1} ns; `le` is nominally inclusive and our bound exclusive —
  // a half-open/closed mismatch of one nanosecond point mass, below the
  // log2 bucket resolution already documented for SHOW STATS.
  const double kNsToSeconds = 1e-9;
  for (size_t i = 0; i < static_cast<size_t>(Hist::kNumHists); ++i) {
    const Histogram& h = hists_[i];
    const std::string prom = PromName(std::string(kHistNames[i])) + "_seconds";
    out.append("# TYPE ").append(prom).append(" histogram\n");
    uint64_t cum = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
      cum += h.buckets[b].load(std::memory_order_relaxed);
      out.append(prom).append("_bucket{le=\"");
      AppendPromValue(static_cast<double>(1ULL << (b + 1)) * kNsToSeconds,
                      &out);
      out.append("\"} ");
      AppendPromValue(static_cast<double>(cum), &out);
      out.push_back('\n');
    }
    const uint64_t count = h.count.load(std::memory_order_relaxed);
    out.append(prom).append("_bucket{le=\"+Inf\"} ");
    AppendPromValue(static_cast<double>(count), &out);
    out.push_back('\n');
    out.append(prom).append("_sum ");
    AppendPromValue(
        static_cast<double>(h.sum_ns.load(std::memory_order_relaxed)) *
            kNsToSeconds,
        &out);
    out.push_back('\n');
    out.append(prom).append("_count ");
    AppendPromValue(static_cast<double>(count), &out);
    out.push_back('\n');
  }
  return out;
}

void MetricsRegistry::FoldConfPhases(const ConfPhaseSample& s) {
  if (s.Empty()) return;
  // Zero fields are skipped: a typical statement touches only a couple of
  // conf phases, and a relaxed RMW of zero is still an RMW.
  auto add = [this](Counter c, uint64_t v) {
    if (v != 0) Add(c, v);
  };
  add(Counter::kConfExactCalls, s.exact_calls);
  add(Counter::kConfExactCacheHits, s.cache_hits);
  add(Counter::kConfExactComponentHits, s.component_hits);
  add(Counter::kConfExactCompiles, s.compiles);
  add(Counter::kConfExactCompileNodes, s.compile_nodes);
  add(Counter::kAconfCalls, s.aconf_calls);
  add(Counter::kAconfEstimateCacheHits, s.estimate_hits);
  add(Counter::kAconfExactAnswers, s.exact_answers);
  add(Counter::kKlTrials, s.kl_trials);
  add(Counter::kKlRejections, s.kl_rejections);
}

}  // namespace maybms
