// Version-keyed d-tree compilation cache: persists compiled-lineage
// results ACROSS statements.
//
// PR 4 made a single conf() call fast by compiling its lineage into a
// d-tree, but every statement still recompiled from scratch. The paper's
// dashboard workload — repeated confidence queries over slowly-changing
// U-relations ("Conditioning Probabilistic Databases", Koch & Olteanu,
// VLDB'08, motivates the same reuse for evidence) — recompiles the SAME
// lineage over and over. This cache maps the canonical content of a
// CompiledDnf plus the versions of everything its probability depends on
// to the CompileValue() result, so a repeated conf()/tconf()/posterior
// query over unchanged tables skips compilation entirely.
//
// The cache holds three kinds of entries, distinguished by a leading KIND
// word so their keys can never collide across kinds:
//
//   kind 0 — whole-statement values: CompileValue() of a full lineage
//     (PR 5's original entry kind).
//   kind 1 — per-component d-trees: the materialized DTree (and its root
//     value) of ONE connected component of a lineage. Streaming ingest
//     appends clauses over fresh variables, which arrive as NEW components
//     while old components' content is untouched — so a dashboard
//     statement after an append misses its whole-statement key but re-uses
//     every untouched component and compiles only the delta
//     (src/conf/exact.cc, ExactOptions::component_cache).
//   kind 2 — seeded aconf estimates: the (estimate, samples) result of a
//     seeded Monte Carlo run, a pure function of lineage content + world
//     version + base seed + (ε,δ) + sampling knobs. Repeated aconf
//     dashboards between writes reuse the estimate without re-sampling —
//     and without changing any sampled value, since the cached result IS
//     the value the rerun would produce.
//
// KEY = one flat word vector:
//   kind 0/1: [ kind | options fingerprint | world version | content ]
//   kind 2:   [ kind | base seed | world version | ε | δ |
//               num-query-clauses | sampling knobs | content ]
//
//   - CONTENT: the (sub)lineage's clause list in input order, each clause
//     as its sorted (GLOBAL variable id, assignment) atoms, length-
//     prefixed. CompileValue() and the seeded estimators are pure
//     functions of exactly this list plus the variable distributions, and
//     the compiler's decisions (subsumption order, partition order,
//     elimination choice, branch order) depend on clause input order — so
//     the key preserves it, and a hit is provably bit-identical to a fresh
//     compile. For kind-1 entries the content is the component's clauses
//     in the parent lineage's sorted-clause order — the component-
//     canonical form every statement containing this component agrees on.
//     Content keying makes row-storage invalidation AUTOMATIC and
//     PRECISE: every DML/prune mutation bumps the owning table's
//     columnar-snapshot version counter (src/storage/table.h), the dirty
//     snapshot chunks (and their condition columns) rebuild, and changed
//     lineage simply hashes to a different key — while mutations that do
//     not touch the lineage (an UPDATE of a data column) keep hitting.
//   - WORLD VERSION (always words[2]): probabilities are NOT part of the
//     key; they are baked into the CompiledDnf from the world table, which
//     carries its own version counter (same scheme as the columnar-
//     snapshot counters), bumped whenever a distribution changes —
//     WorldTable::CollapseVariable, i.e. world pruning after
//     ASSERT/CONDITION ON. Same atoms + same world version ⟹ same baked
//     probabilities. Entries keyed to an older world version can never hit
//     again and are purged when a newer version is first seen.
//   - OPTIONS FINGERPRINT (kinds 0/1): heuristic, subsumption/caching
//     toggles, cache caps, and the max_steps node budget. A tree compiled
//     under a large budget must not leak past a later-tightened budget
//     (the lookup misses and the fresh compile re-raises OutOfRange);
//     conversely a budget-failed compile is never inserted.
//   - SAMPLING KNOBS (kind 2): ε, δ, the base seed, max_samples,
//     sample_batch_size, and use_reference_kernel — everything the seeded
//     estimate is a function of. batches_per_wave is deliberately absent:
//     it is a pure scheduling knob (montecarlo.h pins that it never
//     changes the estimate). num_query_clauses distinguishes conjunction
//     estimates (P(Q∧C) with a query prefix) from plain ones (~0).
//
// Evidence (ASSERT / CONDITION ON / CLEAR EVIDENCE) needs no axis of its
// own: posterior queries reach the solver as explicit Q∧C / Q∨C product
// lineage, so evidence changes change the content; physical pruning flows
// through the table version counters (row rewrites) and the world version
// (variable collapse).
//
// Entries are verified by FULL key comparison (never by hash alone — a
// 64-bit collision would silently break the bit-identity contract) and
// evicted LRU-first under a shared byte budget
// (ExecOptions::dtree_cache_budget); kind-1 entries account their
// materialized tree's nodes and edges. All methods are thread-safe:
// group-parallel conf() aggregates and morsel-parallel tconf() projections
// probe one shared cache.
//
// ONE CACHE PER CATALOG: global variable ids and version counters are
// only meaningful against the world table they were read from, so a
// cache must never be shared across databases. The Database facade
// enforces this by re-pointing ExactOptions::cache at its own catalog's
// cache on every statement (a copied DatabaseOptions cannot smuggle a
// foreign cache in).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace maybms {

class CompiledDnf;
class DTree;
struct ExactOptions;
struct MonteCarloOptions;
using ClauseId = uint32_t;

/// The cache key: a flat, self-delimiting word vector (see file comment
/// for the layout). Equality is whole-vector equality; `hash` is a
/// precomputed mix over the words.
struct LineageKey {
  std::vector<uint64_t> words;
  uint64_t hash = 0;

  bool operator==(const LineageKey& other) const {
    return hash == other.hash && words == other.words;
  }
  /// Resident cost estimate of an entry built from this key.
  size_t ResidentBytes() const;
};

/// Builds the kind-0 (whole-statement) key for `dnf` as compiled under
/// `options` against a world table currently at `world_version`.
/// O(atoms); the caller compares this cost against a full compilation,
/// which it replaces on a hit.
LineageKey BuildLineageKey(const CompiledDnf& dnf, uint64_t world_version,
                           const ExactOptions& options);

/// Builds the kind-1 (per-component) key for the component of `dnf` made
/// of `clauses[0..n)` (clause ids of `dnf`, in component-canonical order:
/// ascending within the parent's sorted root set).
LineageKey BuildComponentKey(const CompiledDnf& dnf, const ClauseId* clauses,
                             size_t n, uint64_t world_version,
                             const ExactOptions& options);

/// Builds the kind-2 (seeded estimate) key. `num_query_clauses` is the
/// conjunction-estimate prefix length, or ~0ull for a plain estimate.
LineageKey BuildEstimateKey(const CompiledDnf& dnf, uint64_t world_version,
                            uint64_t base_seed, double epsilon, double delta,
                            uint64_t num_query_clauses,
                            const MonteCarloOptions& options);

/// Thread-safe LRU cache of CompileValue() results, per-component d-trees,
/// and seeded estimates, keyed by LineageKey. Owned by the Catalog (one
/// per database); ExecOptions::dtree_cache decides per statement whether
/// the solvers consult it.
class DTreeCache {
 public:
  /// Default byte budget (ExecOptions::dtree_cache_budget overrides;
  /// 0 = unlimited).
  static constexpr size_t kDefaultBudgetBytes = 64ull << 20;
  /// Lineages below this many clauses compile in the noise floor of a key
  /// probe — callers skip the cache for them so per-row marginal products
  /// do not pollute it. Applies per component on the kind-1 path.
  static constexpr size_t kMinCachedClauses = 4;

  explicit DTreeCache(size_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}

  /// Counter snapshot for shell `\d`, benches, and the invalidation tests'
  /// hit/miss assertions. Each entry kind counts its probes separately so
  /// the kinds' hit rates stay individually observable; entries/bytes/
  /// evictions/stale_purged are shared (one LRU, one budget).
  struct Stats {
    uint64_t hits = 0;        ///< kind-0 (whole-statement) probes
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t component_hits = 0;  ///< kind-1 (per-component) probes
    uint64_t component_misses = 0;
    uint64_t component_insertions = 0;
    uint64_t estimate_hits = 0;  ///< kind-2 (seeded aconf) probes
    uint64_t estimate_misses = 0;
    uint64_t estimate_insertions = 0;
    uint64_t evictions = 0;      ///< budget-evicted (LRU)
    uint64_t stale_purged = 0;   ///< dropped on a world-version advance
    size_t entries = 0;
    size_t bytes = 0;
  };

  /// True (and fills *value) iff an entry matches the full key. A hit
  /// refreshes the entry's LRU position. Seeing a newer world version in
  /// `key` first purges entries of older versions (they can never match
  /// again — the counter is monotonic).
  bool Lookup(const LineageKey& key, double* value);

  /// Inserts (or refreshes) key → value and evicts LRU entries past the
  /// byte budget. Oversized entries (> budget/4) are not inserted, so one
  /// adversarial lineage cannot flush the whole working set.
  void Insert(const LineageKey& key, double value);

  /// Kind-1: per-component root value + materialized d-tree. `tree` out
  /// param is optional.
  bool LookupComponent(const LineageKey& key, double* value,
                       std::shared_ptr<const DTree>* tree = nullptr);
  void InsertComponent(const LineageKey& key, double value,
                       std::shared_ptr<const DTree> tree);

  /// Kind-2: seeded (estimate, samples consumed) pairs.
  bool LookupEstimate(const LineageKey& key, double* estimate,
                      uint64_t* samples);
  void InsertEstimate(const LineageKey& key, double estimate, uint64_t samples);

  /// Sets the byte budget (0 = unlimited), evicting down immediately.
  void SetBudgetBytes(size_t bytes);
  size_t budget_bytes() const;

  /// Drops every entry (counters survive; see ResetCounters).
  void Clear();

  Stats stats() const;
  /// Zeroes hit/miss/insert/evict counters (entries stay). Test hook.
  void ResetCounters();

 private:
  struct Entry {
    LineageKey key;
    double value = 0;
    uint64_t samples = 0;                  // kind-2 payload
    std::shared_ptr<const DTree> tree;     // kind-1 payload
    size_t bytes = 0;                      // resident cost incl. tree
  };
  using EntryList = std::list<Entry>;  // front = most recently used

  bool LookupEntry(const LineageKey& key, Entry* out, uint64_t* hits,
                   uint64_t* misses);
  void InsertEntry(Entry entry, uint64_t* insertions);

  // All Locked() helpers require mu_ held.
  void EvictToBudgetLocked();
  void PurgeStaleLocked(uint64_t world_version);
  void EraseLocked(EntryList::iterator it, uint64_t* counter);

  mutable std::mutex mu_;
  EntryList lru_;
  /// hash → entries with that hash (collisions chain; full-key compare).
  std::unordered_map<uint64_t, std::vector<EntryList::iterator>> index_;
  size_t bytes_ = 0;
  size_t budget_bytes_;
  uint64_t latest_world_version_ = 0;
  Stats stats_;
};

}  // namespace maybms
