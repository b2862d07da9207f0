// Knowledge compilation of DNF lineage into decomposition trees (d-trees).
//
// The exact confidence algorithm (paper §2.3; Koch & Olteanu, VLDB'08;
// d-trees of Olteanu, Huang & Koch, ICDE'10) interleaves three rules —
// DECOMPOSITION into variable-disjoint independent partitions,
// INDEPENDENT-AND factorisation of a cross product of variable-disjoint
// clause sets, and Shannon VARIABLE ELIMINATION — until the residual
// formulas are single clauses. Instead of computing probabilities while
// searching (and re-searching on every call), DTreeCompiler records the
// rule applications ONCE as a reduced decomposition tree:
//
//   ⊗ (kIndep)    independent-partition node:  P = 1 − Π(1 − P_child)
//   ⊙ (kProduct)  independent-AND node:        P = Π P_child
//                 (a connected clause set S equal to S1 × S2 with S1, S2
//                 over disjoint variables: each clause is one clause of
//                 S1 conjoined with one of S2)
//   ⊕ (kShannon)  variable-elimination node:   P = Σ w_i · P_child_i
//                 (one weighted branch per world-table alternative of the
//                 eliminated variable, plus the residual "other
//                 assignments" branch; branches over mutually-exclusive
//                 alternatives whose clauses are all decided compile to a
//                 closed 1-OF node with no recursion)
//   leaf          a single conjunctive clause:  P = Π atom probabilities
//   const         decided subformulas (true/false) and parallel-shard
//                 component summaries
//
// A connected clause set tries ⊙ before Shannon. Reconverging branches
// are HASH-CONSED: a clause set already compiled (a Shannon residual or a
// ⊙ factor) is shared (a DAG edge), not rebuilt — the ws-tree sharing of
// [Koch & Olteanu '08] as structure instead of a transient memo.
// Probability evaluation is then one linear bottom-up pass over the node
// array (children always precede parents).
//
// BIT-IDENTITY CONTRACT: the compiled value of a clause set is a pure
// function of its clauses and of the relative order of their ids and
// variable ids (clause ids follow first input occurrence; local variable
// ids are a monotone remap of global ids). Every rule choice (absorption,
// partition order, ⊙ split and factor order, elimination variable, branch
// order) is decided from that alone, and evaluation performs the same
// floating-point operations in the same order. So probabilities are
// bit-identical
//   - across thread counts (the component-parallel root folds the
//     per-component values in component order);
//   - with the cross-statement cache and its component-level reuse on or
//     off (a component compiled on its own sees the same content under a
//     monotone variable remap);
//   - across the optimizer and index knobs (they change plans, not
//     lineage); and
//   - between DTree::Evaluate() and the compile-time value.
// Correctness is pinned by tests/dtree_property_test.cc against
// brute-force world enumeration and against golden values recorded from
// the recursive solver the compiler replaced (both to 1e-12; ⊙ rounds
// differently from Shannon expansion on product shapes, so the goldens
// are not matched bit for bit). Word-wide clause variable masks prefilter
// subsumption, independence and ⊙ probes, reduction-aware bookkeeping
// skips absorption passes that provably cannot fire, clause sets live in
// a stack arena instead of per-node vectors, and the hash-cons table is
// open-addressed. Step/budget COUNTS are representation-specific; only
// the probabilities are pinned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/lineage/compiled_dnf.h"

namespace maybms {

class DTreeCache;
class ThreadPool;
struct ConfPhaseCounters;  // src/obs/metrics.h

/// Which variable the elimination step picks inside a component.
enum class EliminationHeuristic {
  /// Variable occurring in the most clauses — maximizes immediate
  /// simplification and the chance of disconnecting the component (the
  /// paper's cost-estimation-driven default behaves like this on most
  /// inputs).
  kMaxOccurrence,
  /// Variable minimizing (branching factor) / (clauses touched): a direct
  /// cost estimate of the expansion.
  kMinCostEstimate,
  /// First variable in id order (baseline for ablation benchmarks).
  kFirstVariable,
};

/// Tuning knobs of the d-tree compiler.
struct ExactOptions {
  EliminationHeuristic heuristic = EliminationHeuristic::kMaxOccurrence;
  /// Remove subsumed clauses before recursion (absorption).
  bool remove_subsumed = true;
  /// Share reconverging sub-DNFs (d-tree hash-consing — the ws-tree
  /// sharing of [Koch & Olteanu '08]).
  bool use_cache = true;
  /// Cap on hash-cons entries (0 disables the cap).
  size_t max_cache_entries = 1u << 20;
  /// Node budget: abort once this many nodes have been expanded (0 = no
  /// limit). Exact confidence is #P-hard; engine callers prefer falling
  /// back to approximation over unbounded compilation (the conf()
  /// fallback knob in ExecOptions).
  uint64_t max_steps = 0;
  /// Cross-statement compilation cache (src/lineage/dtree_cache.h), or
  /// null to compile fresh every call. Non-owning: the Database wires the
  /// catalog's cache in per statement when ExecOptions::dtree_cache is on.
  /// Consulted only when no ExactStats sink is attached (cached answers
  /// have no step counts, and ablation measurements must stay honest).
  DTreeCache* cache = nullptr;
  /// Component-level reuse (SET dtree_component_cache): on a
  /// whole-statement cache miss, partition the root set into connected
  /// components, answer untouched components from their cached kind-1
  /// entries, and compile only new/changed components. The per-component
  /// values (and their fold) are provably bit-identical to a cold whole
  /// compile, so this flag never changes results — only which work is
  /// skipped. Ignored unless `cache` is wired.
  bool component_cache = true;
  /// Observability sink (src/obs/metrics.h), or null when metrics are
  /// off. Counters only — never consulted for any solver decision — and
  /// deliberately OUTSIDE the cache-key fingerprint (OptionsFingerprint
  /// in dtree_cache.cc hashes named fields only), so attaching it cannot
  /// perturb cached results. Non-owning; the Session wires a
  /// per-statement instance in.
  ConfPhaseCounters* counters = nullptr;
};

/// Counters describing the shape of the decomposition tree that was built.
struct ExactStats {
  uint64_t steps = 0;             ///< nodes expanded
  uint64_t decompositions = 0;    ///< independent-partition applications
  uint64_t shannon_expansions = 0;///< variable eliminations
  uint64_t products = 0;          ///< independent-AND (⊙) factorisations
  uint64_t max_depth = 0;
  uint64_t cache_hits = 0;        ///< hash-cons / memo hits
  uint64_t cache_entries = 0;
};

/// A compiled decomposition DAG. Immutable after compilation;
/// probabilities were baked in from the CompiledDnf's variable table, so
/// evaluation needs no world table.
class DTree {
 public:
  enum class Kind : uint8_t {
    kConst,    ///< decided subformula or parallel-shard summary; value only
    kClause,   ///< single conjunctive clause; value = Π atom probs
    kIndep,    ///< ⊗: value = 1 − Π(1 − child)
    kShannon,  ///< ⊕: value = Σ weight · child
    kProduct,  ///< ⊙: value = Π child (variable-disjoint factors)
  };

  struct Node {
    Kind kind;
    /// kShannon: all branches decided — a closed 1-OF (mutual exclusion)
    /// node over world-table alternatives.
    bool exclusive = false;
    /// kShannon: the eliminated variable (local id); kClause: the clause.
    uint32_t payload = 0;
    uint32_t edge_begin = 0;
    uint32_t edge_end = 0;
    /// The node's probability, computed bottom-up at compile time with the
    /// same arithmetic Evaluate() re-runs.
    double value = 0;
  };
  struct Edge {
    double weight;   ///< kShannon: branch probability mass; else unused
    uint32_t child;  ///< index of a PRECEDING node
  };

  double root_value() const { return nodes_[root_].value; }
  uint32_t root() const { return root_; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }
  const Edge& edge(uint32_t e) const { return edges_[e]; }

  /// Recomputes the root probability in one linear bottom-up pass
  /// (children precede parents in the node array). Bit-identical to
  /// root_value(); exposed so tests can pin the pass and callers can
  /// re-score a cached tree.
  double Evaluate() const;

  /// Node-count/shape summary, e.g. "dtree(nodes=12, edges=14, ⊗=3, ⊕=2,
  /// 1-of=1, leaves=6)".
  std::string Summary() const;

 private:
  friend class DTreeCompiler;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  uint32_t root_ = 0;
};

/// One-shot compiler: construct, Compile(), discard. With a non-null pool
/// the variable-disjoint root components compile in parallel shards (each
/// with a private compiler over its own clause-store copy) and fold as
/// P = 1 − Π(1 − P_i) in component order — the root of the returned tree
/// is then a ⊗ node over per-component kConst summaries, and the value is
/// bit-identical to the serial compile at any thread count. The shared
/// cross-shard node budget keeps max_steps outcomes deterministic.
class DTreeCompiler {
 public:
  DTreeCompiler(CompiledDnf dnf, const ExactOptions& options,
                ExactStats* stats = nullptr);
  ~DTreeCompiler();

  DTreeCompiler(const DTreeCompiler&) = delete;
  DTreeCompiler& operator=(const DTreeCompiler&) = delete;

  /// Compiles the DNF's root clause set. Returns OutOfRange when the node
  /// budget (options.max_steps) is exceeded. Single use.
  Result<DTree> Compile(ThreadPool* pool = nullptr);

  /// Same compilation, but keeps only the bottom-up values (no node/edge
  /// materialization) and returns the root probability — the conf() hot
  /// path. Identical decisions and arithmetic to Compile(): the returned
  /// value is bit-for-bit Compile()'s root_value(). Single use.
  Result<double> CompileValue(ThreadPool* pool = nullptr);

  /// Nodes visited by the completed compile — the same count the
  /// max_steps budget is charged against, maintained unconditionally, so
  /// callers that only need a node count never pay for an ExactStats
  /// sink's per-node increments inside the recursion.
  uint64_t StepsUsed() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// Convenience wrapper: compile `dnf` serially into a d-tree.
Result<DTree> CompileDTree(CompiledDnf dnf, const ExactOptions& options = {},
                           ExactStats* stats = nullptr);

}  // namespace maybms
