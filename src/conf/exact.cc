#include "src/conf/exact.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/thread_pool.h"
#include "src/lineage/dtree.h"
#include "src/lineage/dtree_cache.h"
#include "src/obs/metrics.h"

namespace maybms {

namespace {

// True iff a's atoms are a subset of b's (both sorted by var, unique vars).
bool SpanSubset(AtomSpan a, AtomSpan b) {
  if (a.size > b.size) return false;
  size_t j = 0;
  for (const Atom& atom : a) {
    while (j < b.size && b[j].var < atom.var) ++j;
    if (j >= b.size || b[j].var != atom.var || b[j].asg != atom.asg) return false;
    ++j;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Component-level cache path (ExactOptions::component_cache)
// ---------------------------------------------------------------------------
//
// On a whole-statement cache miss, the lineage's root set is partitioned
// into connected components exactly the way the compiler's root pass would
// (same subsumption kept-set, same first-occurrence component order), each
// component is answered from its kind-1 cache entry or compiled fresh as
// its own CompiledDnf, and the values fold as 1 − Π(1 − p_i) in component
// order — the identical arithmetic, in the identical order, the compiler's
// CompileIndep / width-1 / pair root paths perform. Under streaming ingest
// appended clauses arrive as NEW components (fresh variables), so a
// dashboard statement recompiles only the delta.
//
// Bit-identity of the per-component fresh compiles rests on CompiledDnf's
// canonicalization: local variable ids are a monotone remap of sorted
// global ids, so relative id order — and with it every heuristic
// tie-break, atom order, and clause sort — is preserved in the
// sub-lineage; reduced clauses always retain a component variable, so no
// memo set can ever span components. Step budgets are the one
// mode-specific axis (each component compiles under the REMAINING budget
// instead of one shared cumulative counter — same caveat as the
// documented CompileRootParallel boundary behavior); values that complete
// are bit-identical regardless.

// The compiler's root absorption pass (FullReduce): the
// kept set is exactly the clauses with no strict subset present, which is
// order-independent, so this standalone replication yields the same
// (ascending) set.
void ReduceRootSet(const CompiledDnf& dnf, std::vector<ClauseId>* set) {
  constexpr size_t kSubsumptionLimit = 512;  // matches the compiler
  if (set->size() > kSubsumptionLimit) return;
  std::vector<ClauseId> order(*set);
  std::sort(order.begin(), order.end(), [&](ClauseId a, ClauseId b) {
    return dnf.ClauseSize(a) < dnf.ClauseSize(b);
  });
  std::vector<ClauseId> kept;
  kept.reserve(order.size());
  for (ClauseId cand : order) {
    AtomSpan cand_span = dnf.Clause(cand);
    bool subsumed = false;
    for (ClauseId k : kept) {
      if (SpanSubset(dnf.Clause(k), cand_span)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(cand);
  }
  std::sort(kept.begin(), kept.end());
  *set = std::move(kept);
}

// Connected components of `set` under "shares a variable", in
// first-occurrence order with each component ascending (position order
// over the sorted set) — the partition and order the compiler's
// Components() produces.
std::vector<std::vector<ClauseId>> RootComponents(const CompiledDnf& dnf,
                                                  const std::vector<ClauseId>& set) {
  std::vector<size_t> parent(set.size());
  for (size_t i = 0; i < set.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<uint32_t> var_pos(dnf.NumVars(), 0xffffffffu);
  for (size_t i = 0; i < set.size(); ++i) {
    for (const Atom& a : dnf.Clause(set[i])) {
      if (var_pos[a.var] != 0xffffffffu) {
        parent[find(i)] = find(var_pos[a.var]);
      } else {
        var_pos[a.var] = static_cast<uint32_t>(i);
      }
    }
  }
  std::vector<std::vector<ClauseId>> components;
  std::unordered_map<size_t, size_t> root_to_component;
  for (size_t i = 0; i < set.size(); ++i) {
    auto [it, inserted] = root_to_component.try_emplace(find(i), components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(set[i]);
  }
  return components;
}

// Attempts the component-cached computation. Returns false when the
// lineage does not decompose (or closes trivially) — the caller falls
// through to the whole compile. On true, *out holds the result (or the
// first failed component's status, e.g. OutOfRange).
bool ComponentConfidence(const CompiledDnf& dnf, const WorldTable& wt,
                         const ExactOptions& options, DTreeCache* cache,
                         Result<double>* out) {
  std::vector<ClauseId> root = dnf.RootSet();
  for (ClauseId id : root) {
    if (dnf.ClauseSize(id) == 0) return false;  // decided: whole path is O(1)
  }
  if (options.remove_subsumed) ReduceRootSet(dnf, &root);
  if (root.size() < 2) return false;
  std::vector<std::vector<ClauseId>> components = RootComponents(dnf, root);
  if (components.size() < 2) return false;

  const uint64_t world_version = wt.version();
  const uint64_t budget = options.max_steps;
  uint64_t used = 0;
  std::vector<Atom> atoms;
  std::vector<uint32_t> offsets;
  double none = 1.0;
  for (const std::vector<ClauseId>& comp : components) {
    double cp;
    LineageKey ckey;
    const bool cacheable = comp.size() >= DTreeCache::kMinCachedClauses;
    if (cacheable) {
      ckey = BuildComponentKey(dnf, comp.data(), comp.size(), world_version,
                               options);
      if (cache->LookupComponent(ckey, &cp)) {
        if (options.counters != nullptr) {
          options.counters->component_hits.fetch_add(
              1, std::memory_order_relaxed);
        }
        none *= (1.0 - cp);
        continue;
      }
    }
    // Fresh compile of just this component over its global-atom content
    // (local atom order is var-sorted, and local→global is monotone, so
    // the CSR stays var-sorted as required).
    atoms.clear();
    offsets.assign(1, 0);
    for (ClauseId id : comp) {
      for (const Atom& a : dnf.Clause(id)) {
        atoms.push_back(Atom{dnf.GlobalVar(a.var), a.asg});
      }
      offsets.push_back(static_cast<uint32_t>(atoms.size()));
    }
    ExactOptions sub_options = options;
    if (budget != 0) {
      if (used >= budget) {
        *out = Status::OutOfRange(
            "exact confidence compilation exceeded max_steps");
        return true;
      }
      sub_options.max_steps = budget - used;
    }
    // The running budget and the compile_nodes counter both read the
    // compiler's own step count — no ExactStats sink, so the recursion
    // carries no per-node stats increments.
    DTreeCompiler compiler(
        CompiledDnf(atoms.data(), offsets.data(), comp.size(), wt),
        sub_options);
    Result<DTree> tree = compiler.Compile(nullptr);
    if (!tree.ok()) {
      *out = tree.status();
      return true;
    }
    used += compiler.StepsUsed();
    if (options.counters != nullptr) {
      options.counters->compiles.fetch_add(1, std::memory_order_relaxed);
      options.counters->compile_nodes.fetch_add(compiler.StepsUsed(),
                                                std::memory_order_relaxed);
    }
    cp = tree->root_value();
    if (cacheable) {
      cache->InsertComponent(ckey, cp,
                             std::make_shared<const DTree>(std::move(*tree)));
    }
    none *= (1.0 - cp);
  }
  *out = 1.0 - none;
  return true;
}

Result<double> ExactConfidenceImpl(CompiledDnf dnf, const WorldTable& wt,
                                   const ExactOptions& options,
                                   ExactStats* stats, ThreadPool* pool) {
  double p;
  ConfPhaseCounters* obs = options.counters;
  // Cross-statement compilation cache (src/lineage/dtree_cache.h), keyed
  // by canonical lineage content + the world table's distribution version
  // + an options fingerprint (budget included — a value compiled under a
  // looser budget never answers for a tighter one). Skipped for trivial
  // lineages (compilation is already in the key-probe noise floor) and
  // when the caller wants ExactStats (a hit has no step counts to report).
  DTreeCache* cache = options.cache;
  const bool use_cache =
      cache != nullptr && stats == nullptr &&
      dnf.original_clauses().size() >= DTreeCache::kMinCachedClauses;
  LineageKey key;
  if (use_cache) {
    key = BuildLineageKey(dnf, wt.version(), options);
    if (cache->Lookup(key, &p)) {  // stored values are clamped
      if (obs != nullptr) {
        obs->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      // Deliberately clock-free: the hit path is the warm-statement hot
      // path and its sub-microsecond duration is probe noise, not solver
      // time. exact_ns times real solver work (the miss tail) only.
      return p;
    }
  }
  // Miss (or uncacheable) tail: everything from here is real solver work
  // and lands in the conf-phase exact_ns total.
  ScopedNsTimer miss_timer(obs != nullptr ? &obs->exact_ns : nullptr);
  if (use_cache && options.component_cache) {
    // Whole-statement miss: try answering component-by-component, reusing
    // kind-1 entries for untouched components and compiling only the
    // delta. Bit-identical to the whole compile below (see the helper's
    // comment), so the kind-0 entry it fills is indistinguishable from
    // one the whole compile would have produced.
    Result<double> component_result = 0.0;
    if (ComponentConfidence(dnf, wt, options, cache, &component_result)) {
      MAYBMS_ASSIGN_OR_RETURN(p, component_result);
      p = std::min(1.0, std::max(0.0, p));
      cache->Insert(key, p);
      return p;
    }
  }
  // Node-count observability rides on the compiler's own budget counter
  // (StepsUsed()), so wiring obs counters attaches NO ExactStats sink and
  // the compile recursion runs the identical instruction stream with
  // metrics on or off.
  DTreeCompiler compiler(std::move(dnf), options, stats);
  const uint64_t c0 = obs != nullptr ? MonotonicNs() : 0;
  Result<double> compiled = compiler.CompileValue(pool);
  if (obs != nullptr) {
    obs->compiles.fetch_add(1, std::memory_order_relaxed);
    obs->compile_ns.fetch_add(MonotonicNs() - c0, std::memory_order_relaxed);
    obs->compile_nodes.fetch_add(compiler.StepsUsed(),
                                 std::memory_order_relaxed);
  }
  MAYBMS_ASSIGN_OR_RETURN(p, compiled);
  // Clamp tiny floating-point drift.
  p = std::min(1.0, std::max(0.0, p));
  // Budget failures returned above; only completed compilations persist.
  if (use_cache) cache->Insert(key, p);
  return p;
}

}  // namespace

Result<double> ExactConfidence(CompiledDnf dnf, const WorldTable& wt,
                               const ExactOptions& options, ExactStats* stats,
                               ThreadPool* pool) {
  // Count-only here: exact_ns is accumulated inside the impl around the
  // cache-miss tail, so warm cache hits stay clock-free (the registry's
  // overhead budget is set by exactly that path).
  if (ConfPhaseCounters* obs = options.counters; obs != nullptr) {
    obs->exact_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return ExactConfidenceImpl(std::move(dnf), wt, options, stats, pool);
}

Result<double> ExactConfidence(const Dnf& dnf, const WorldTable& wt,
                               const ExactOptions& options, ExactStats* stats,
                               ThreadPool* pool) {
  return ExactConfidence(CompiledDnf(dnf, wt), wt, options, stats, pool);
}

}  // namespace maybms
