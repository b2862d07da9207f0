#include "src/lineage/dtree.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "src/common/status.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"

namespace maybms {

namespace {

// Node ids 0/1 are the shared decided constants, created before any
// compilation step.
constexpr uint32_t kTrueNode = 0;
constexpr uint32_t kZeroNode = 1;
constexpr uint32_t kNoNode = 0xffffffffu;

// Absorption is quadratic; sets above this size skip it (the component
// cache path in src/conf/exact.cc uses the same cap).
constexpr size_t kSubsumptionLimit = 512;

uint64_t HashSpan(const ClauseId* ids, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= ids[i] + 0x9e3779b9ULL + (h << 6) + (h >> 2);
  }
  return h;
}

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

// True iff the two (var-sorted) spans mention a common variable.
bool SpansShareVar(AtomSpan a, AtomSpan b) {
  size_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    if (a[i].var < b[j].var) {
      ++i;
    } else if (b[j].var < a[i].var) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

const Atom* FindVar(AtomSpan span, LocalVar var) {
  // Clause widths are small; a linear scan over the sorted span beats a
  // branchy binary search.
  for (const Atom& a : span) {
    if (a.var >= var) return a.var == var ? &a : nullptr;
  }
  return nullptr;
}

}  // namespace

double DTree::Evaluate() const {
  std::vector<double> v(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kConst:
      case Kind::kClause:
        v[i] = n.value;
        break;
      case Kind::kIndep: {
        double none = 1.0;
        for (uint32_t e = n.edge_begin; e < n.edge_end; ++e) {
          none *= (1.0 - v[edges_[e].child]);
        }
        v[i] = 1.0 - none;
        break;
      }
      case Kind::kShannon: {
        double total = 0;
        for (uint32_t e = n.edge_begin; e < n.edge_end; ++e) {
          total += edges_[e].weight * v[edges_[e].child];
        }
        v[i] = total;
        break;
      }
      case Kind::kProduct: {
        double prod = 1.0;
        for (uint32_t e = n.edge_begin; e < n.edge_end; ++e) {
          prod *= v[edges_[e].child];
        }
        v[i] = prod;
        break;
      }
    }
  }
  return v[root_];
}

std::string DTree::Summary() const {
  size_t indep = 0, product = 0, shannon = 0, oneof = 0, leaves = 0;
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case Kind::kIndep: ++indep; break;
      case Kind::kProduct: ++product; break;
      case Kind::kShannon:
        ++shannon;
        if (n.exclusive) ++oneof;
        break;
      case Kind::kClause: ++leaves; break;
      case Kind::kConst: break;
    }
  }
  return StringFormat(
      "dtree(nodes=%zu, edges=%zu, indep=%zu, product=%zu, shannon=%zu, "
      "1-of=%zu, leaves=%zu)",
      nodes_.size(), edges_.size(), indep, product, shannon, oneof, leaves);
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct DTreeCompiler::Impl {
  Impl(CompiledDnf d, const ExactOptions& o, ExactStats* s)
      : dnf(std::move(d)), options(o), stats(s) {
    masks_exact = dnf.MasksExact();
    size_t n_vars = dnf.NumVars();
    var_occ.assign(n_vars, 0);
    var_epoch.assign(n_vars, 0);
    var_pos.assign(n_vars, 0);
    size_t slots = 0;
    for (size_t v = 0; v < n_vars; ++v) slots += dnf.DomainSize(v);
    asg_epoch.assign(slots, 0);
    tree.nodes_.push_back(
        DTree::Node{DTree::Kind::kConst, false, 0, 0, 0, 1.0});
    tree.nodes_.push_back(
        DTree::Node{DTree::Kind::kConst, false, 0, 0, 0, 0.0});
    values.assign({1.0, 0.0});  // same ids in value-only mode
  }

  CompiledDnf dnf;
  ExactOptions options;
  ExactStats* stats;
  DTree tree;
  /// Dense local ids fit 128 mask bits: mask intersection ⟺ shared
  /// variable, so independence probes run on words instead of union-find.
  bool masks_exact = false;
  /// Structure recording. Compile() materializes nodes and edges (the
  /// reusable d-tree); CompileValue() — the conf() hot path — runs the
  /// identical compilation but keeps only the per-node values, cutting the
  /// memory traffic of node/edge writes. Same decisions, same arithmetic,
  /// same result bits.
  bool record = true;
  std::vector<double> values;  // node id -> value in value-only mode

  // Clause sets live in a stack arena, referenced by (offset, length):
  // child sets are appended past the parent's span and popped when the
  // child node is built — no per-node vector allocations.
  std::vector<ClauseId> arena;
  // A node's edges collect on this stack (children push/pop their own
  // frames in between) and commit contiguously into tree.edges_.
  std::vector<DTree::Edge> edge_stack;

  // Hash-cons table: open-addressed, one 24-byte slot per entry so a probe
  // touches one cache line. Keys are canonical reduced clause sets copied
  // into an append-only pool.
  struct MemoSlot {
    uint64_t hash;
    uint32_t node;  // kNoNode = empty slot
    uint32_t off;
    uint32_t len;
  };
  std::vector<MemoSlot> memo;
  std::vector<ClauseId> key_pool;
  size_t memo_count = 0;
  uint64_t cache_hits = 0;

  // Per-clause leaf node cache (a leaf's probability never changes).
  std::vector<uint32_t> leaf_node;

  // Reusable epoch-stamped scratch.
  std::vector<uint32_t> var_occ;
  std::vector<uint64_t> var_epoch;
  std::vector<uint32_t> var_pos;
  std::vector<uint64_t> asg_epoch;
  std::vector<uint32_t> asg_count;
  std::vector<LocalVar> touched;
  std::vector<size_t> parent;
  std::vector<uint32_t> comp_idx;
  std::vector<uint64_t> clu_lo;       // live cluster masks (mask closure)
  std::vector<uint64_t> clu_hi;
  std::vector<uint32_t> clu_parent;   // cluster union-find
  std::vector<uint32_t> clu_live;     // live (unmerged) cluster ids
  std::vector<uint32_t> clu_order;    // cluster root -> component index
  // Component (offset, length) descriptors, stack-framed like the arena.
  std::vector<std::pair<uint32_t, uint32_t>> comp_desc;
  std::vector<Atom> scratch_atoms;
  std::vector<ClauseId> olds;       // untouched clauses of one branch (sorted)
  std::vector<ClauseId> news;       // newly-reduced clauses of one branch
  std::vector<ClauseId> order;      // full-absorption size ordering
  std::vector<ClauseId> kept;
  std::vector<AsgId> mentioned;
  uint64_t epoch = 0;
  uint64_t asg_pass = 0;
  // ⊙ probe scratch, allocated on first use. Exact masks: per-variable
  // co-occurrence masks. Otherwise: epoch-stamped side membership /
  // co-occurrence marks and a CSR of clause positions per variable.
  std::vector<uint64_t> cooc_lo;
  std::vector<uint64_t> cooc_hi;
  std::vector<uint64_t> var_side;
  std::vector<uint64_t> var_co;
  std::vector<uint32_t> occ_list;
  std::vector<LocalVar> side_queue;
  std::vector<LocalVar> outside;
  uint64_t side_lo = 0, side_hi = 0;  // exact masks: side-1 variables
  uint64_t side_pass = 0;
  uint64_t co_pass = 0;
  std::vector<Atom> scratch_atoms2;
  std::vector<ClauseId> proj1;
  std::vector<ClauseId> proj2;

  uint64_t steps = 0;
  // Component-parallel mode: the cross-shard node total the max_steps
  // budget applies to (null in serial mode).
  std::atomic<uint64_t>* shared_steps = nullptr;

  // -- budget ---------------------------------------------------------------

  uint64_t Bump() {
    ++steps;
    if (shared_steps != nullptr) {
      return shared_steps->fetch_add(1, std::memory_order_relaxed) + 1;
    }
    return steps;
  }

  Status BumpChecked() {
    uint64_t visited = Bump();
    if (options.max_steps != 0 && visited > options.max_steps) {
      return Status::OutOfRange(
          "exact confidence computation exceeded max_steps");
    }
    return Status::OK();
  }

  // -- tree construction ----------------------------------------------------

  uint32_t AddNode(DTree::Kind kind, uint32_t payload, bool exclusive,
                   size_t edge_mark, double value) {
    if (!record) {
      values.push_back(value);
      return static_cast<uint32_t>(values.size() - 1);
    }
    DTree::Node n;
    n.kind = kind;
    n.exclusive = exclusive;
    n.payload = payload;
    n.edge_begin = static_cast<uint32_t>(tree.edges_.size());
    tree.edges_.insert(tree.edges_.end(), edge_stack.begin() + edge_mark,
                       edge_stack.end());
    edge_stack.resize(edge_mark);
    n.edge_end = static_cast<uint32_t>(tree.edges_.size());
    n.value = value;
    tree.nodes_.push_back(n);
    return static_cast<uint32_t>(tree.nodes_.size() - 1);
  }

  void AddEdge(double weight, uint32_t child) {
    if (record) edge_stack.push_back(DTree::Edge{weight, child});
  }

  size_t EdgeMark() const { return edge_stack.size(); }

  double NodeValue(uint32_t id) const {
    return record ? tree.nodes_[id].value : values[id];
  }

  uint32_t LeafNode(ClauseId id) {
    if (leaf_node.size() <= id) leaf_node.resize(dnf.NumStoredClauses(), kNoNode);
    if (leaf_node[id] != kNoNode) return leaf_node[id];
    double p = dnf.ClauseProb(id);
    uint32_t n = AddNode(DTree::Kind::kClause, id, false, EdgeMark(), p);
    leaf_node[id] = n;
    return n;
  }

  // -- hash-cons table ------------------------------------------------------

  void MemoGrow() {
    size_t new_cap = memo.empty() ? 1024 : memo.size() * 2;
    std::vector<MemoSlot> old = std::move(memo);
    memo.assign(new_cap, MemoSlot{0, kNoNode, 0, 0});
    size_t mask = new_cap - 1;
    for (const MemoSlot& e : old) {
      if (e.node == kNoNode) continue;
      size_t slot = static_cast<size_t>(e.hash) & mask;
      while (memo[slot].node != kNoNode) slot = (slot + 1) & mask;
      memo[slot] = e;
    }
  }

  uint32_t MemoFind(uint64_t h, uint32_t off, uint32_t len) {
    if (memo.empty()) return kNoNode;
    size_t mask = memo.size() - 1;
    size_t slot = static_cast<size_t>(h) & mask;
    while (memo[slot].node != kNoNode) {
      if (memo[slot].hash == h && memo[slot].len == len &&
          std::equal(key_pool.begin() + memo[slot].off,
                     key_pool.begin() + memo[slot].off + len,
                     arena.begin() + off)) {
        return memo[slot].node;
      }
      slot = (slot + 1) & mask;
    }
    return kNoNode;
  }

  void MemoInsert(uint64_t h, uint32_t off, uint32_t len, uint32_t node) {
    if (options.max_cache_entries != 0 && memo_count >= options.max_cache_entries) {
      return;
    }
    if (memo_count * 4 >= memo.size() * 3) MemoGrow();
    size_t mask = memo.size() - 1;
    size_t slot = static_cast<size_t>(h) & mask;
    while (memo[slot].node != kNoNode) slot = (slot + 1) & mask;
    memo[slot].hash = h;
    memo[slot].node = node;
    memo[slot].off = static_cast<uint32_t>(key_pool.size());
    memo[slot].len = len;
    key_pool.insert(key_pool.end(), arena.begin() + off, arena.begin() + off + len);
    ++memo_count;
    if (stats) stats->cache_entries = memo_count;
  }

  // -- clause-set reductions ------------------------------------------------

  // Full absorption pass over the (sorted, duplicate-free) span — only the
  // root needs it; every derived set gets the incremental variant or a
  // provable skip. The kept set is every clause with no strict subset: the
  // variable-mask test only skips pairs that cannot be in subset relation.
  void FullReduce(uint32_t off, uint32_t* len) {
    if (*len > kSubsumptionLimit) return;
    order.assign(arena.begin() + off, arena.begin() + off + *len);
    std::sort(order.begin(), order.end(), [&](ClauseId a, ClauseId b) {
      return dnf.ClauseSize(a) < dnf.ClauseSize(b);
    });
    kept.clear();
    for (ClauseId cand : order) {
      AtomSpan cand_span = dnf.Clause(cand);
      uint64_t cand_lo = dnf.ClauseVarMask(cand);
      uint64_t cand_hi = dnf.ClauseVarMaskHi(cand);
      bool subsumed = false;
      for (ClauseId k : kept) {
        if ((dnf.ClauseVarMask(k) & ~cand_lo) != 0 ||
            (dnf.ClauseVarMaskHi(k) & ~cand_hi) != 0) {
          continue;
        }
        if (SpanSubset(dnf.Clause(k), cand_span)) {
          subsumed = true;
          break;
        }
      }
      if (!subsumed) kept.push_back(cand);
    }
    std::sort(kept.begin(), kept.end());
    std::copy(kept.begin(), kept.end(), arena.begin() + off);
    *len = static_cast<uint32_t>(kept.size());
  }

  // Conditions the span on var := asg and appends the REDUCED child set
  // (sorted, unique, absorption-free) to the arena. Sets *valid when a
  // clause shrinks to empty (the branch is decided true).
  //
  // Absorption over the child needs only pairs (reduced, unreduced): the
  // parent span is absorption-free, an unchanged clause cannot newly
  // contain another unchanged clause, an unchanged clause contained in a
  // reduced one would already have been contained in its parent clause,
  // and two reduced clauses in subset relation would imply their parents
  // were too. So the pass is O(new · old) with word-wide mask prefilters
  // instead of a quadratic rescan — with an identical kept set.
  void AssignVarReduce(uint32_t off, uint32_t len, LocalVar var, AsgId asg,
                       bool* valid, uint32_t* child_off, uint32_t* child_len) {
    // Untouched clauses stay in span order (already sorted); only the few
    // reduced ids need sorting before the two lists merge — O(n + k log k)
    // instead of sorting the whole child set.
    olds.clear();
    news.clear();
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      AtomSpan span = dnf.Clause(id);
      const Atom* atom = FindVar(span, var);
      if (atom == nullptr) {
        olds.push_back(id);
        continue;
      }
      if (atom->asg != asg) continue;  // clause false under this branch
      if (span.size == 1) {
        *valid = true;
        return;
      }
      scratch_atoms.clear();
      for (const Atom& a : span) {
        if (a.var != var) scratch_atoms.push_back(a);
      }
      news.push_back(dnf.Intern(scratch_atoms.data(), scratch_atoms.size()));
    }
    std::sort(news.begin(), news.end());
    news.erase(std::unique(news.begin(), news.end()), news.end());
    // Merge-dedup into the arena (an id in both lists is "reduced").
    uint32_t out = static_cast<uint32_t>(arena.size());
    size_t i = 0, j = 0;
    while (i < olds.size() && j < news.size()) {
      if (olds[i] < news[j]) {
        arena.push_back(olds[i++]);
      } else if (news[j] < olds[i]) {
        arena.push_back(news[j++]);
      } else {
        arena.push_back(olds[i]);
        ++i;
        ++j;
      }
    }
    arena.insert(arena.end(), olds.begin() + i, olds.end());
    arena.insert(arena.end(), news.begin() + j, news.end());
    uint32_t n = static_cast<uint32_t>(arena.size()) - out;
    if (options.remove_subsumed && !news.empty() && n <= kSubsumptionLimit &&
        news.size() < n) {
      uint32_t w = out;
      size_t k = 0;  // two-pointer walk: news ⊆ span ids, both sorted
      for (uint32_t r = out; r < out + n; ++r) {
        ClauseId id = arena[r];
        if (k < news.size() && news[k] == id) {
          // Reduced clauses are always kept (no reduced clause can contain
          // another surviving clause — see the invariant above).
          ++k;
          arena[w++] = id;
          continue;
        }
        AtomSpan span = dnf.Clause(id);
        uint64_t lo = dnf.ClauseVarMask(id);
        uint64_t hi = dnf.ClauseVarMaskHi(id);
        size_t size = span.size;
        bool subsumed = false;
        for (ClauseId nw : news) {
          if (dnf.ClauseSize(nw) >= size) continue;
          if ((dnf.ClauseVarMask(nw) & ~lo) != 0 ||
              (dnf.ClauseVarMaskHi(nw) & ~hi) != 0) {
            continue;
          }
          if (SpanSubset(dnf.Clause(nw), span)) {
            subsumed = true;
            break;
          }
        }
        if (!subsumed) arena[w++] = id;
      }
      arena.resize(w);
      n = w - out;
    }
    *child_off = out;
    *child_len = n;
  }

  // -- decomposition --------------------------------------------------------

  // Connected components of span positions under "shares a variable".
  // Returns 0 for a single component (nothing materialized); otherwise
  // appends each component's ids to the arena in first-occurrence order
  // (preserving the span's sortedness within each component) and pushes
  // (offset, length) descriptors onto the comp_desc stack past `dmark`.
  // With exact masks the partition probe is a word-wide mask closure; the
  // epoch-stamped union-find remains for > 128 dense variables. Both
  // produce the identical partition in the identical order.
  size_t Components(uint32_t off, uint32_t len, size_t dmark) {
    if (masks_exact) return ComponentsMask(off, len, dmark);
    return ComponentsUnionFind(off, len, dmark);
  }

  size_t ComponentsMask(uint32_t off, uint32_t len, size_t dmark) {
    // Single pass: each position's mask is tested against the live cluster
    // masks (word-wide AND); intersecting clusters merge through a tiny
    // union-find over cluster ids. Cluster counts stay small, so this is
    // O(len · clusters) word operations with no fixpoint rescans.
    clu_lo.clear();
    clu_hi.clear();
    clu_parent.clear();
    clu_live.clear();
    comp_idx.resize(len);  // position -> cluster id (pre-compression)
    auto clu_find = [&](uint32_t c) {
      while (clu_parent[c] != c) {
        clu_parent[c] = clu_parent[clu_parent[c]];
        c = clu_parent[c];
      }
      return c;
    };
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      uint64_t lo = dnf.ClauseVarMask(id);
      uint64_t hi = dnf.ClauseVarMaskHi(id);
      uint32_t target = kNoNode;
      for (size_t li = 0; li < clu_live.size();) {
        uint32_t c = clu_live[li];
        if (((clu_lo[c] & lo) | (clu_hi[c] & hi)) == 0) {
          ++li;
          continue;
        }
        if (target == kNoNode) {
          target = c;
          ++li;
        } else {
          clu_parent[c] = target;
          clu_lo[target] |= clu_lo[c];
          clu_hi[target] |= clu_hi[c];
          clu_live[li] = clu_live.back();  // swap-remove the merged cluster
          clu_live.pop_back();
        }
      }
      if (target == kNoNode) {
        target = static_cast<uint32_t>(clu_parent.size());
        clu_parent.push_back(target);
        clu_lo.push_back(lo);
        clu_hi.push_back(hi);
        clu_live.push_back(target);
      } else {
        clu_lo[target] |= lo;
        clu_hi[target] |= hi;
      }
      comp_idx[i] = target;
    }
    // Compress to final components in first-occurrence position order (the
    // same order the union-find variant produces).
    size_t ncomp = clu_live.size();
    if (ncomp <= 1) return 0;
    clu_order.assign(clu_parent.size(), kNoNode);
    uint32_t seen = 0;
    for (uint32_t i = 0; i < len; ++i) {
      uint32_t root = clu_find(comp_idx[i]);
      if (clu_order[root] == kNoNode) {
        clu_order[root] = seen++;
        comp_desc.emplace_back(0, 0);
      }
      comp_idx[i] = clu_order[root];
      ++comp_desc[dmark + comp_idx[i]].second;
    }
    uint32_t base = static_cast<uint32_t>(arena.size());
    for (size_t c = dmark; c < comp_desc.size(); ++c) {
      comp_desc[c].first = base;
      base += comp_desc[c].second;
      comp_desc[c].second = 0;
    }
    arena.resize(base);
    for (uint32_t i = 0; i < len; ++i) {
      auto& [o, l] = comp_desc[dmark + comp_idx[i]];
      arena[o + l] = arena[off + i];
      ++l;
    }
    return ncomp;
  }

  size_t ComponentsUnionFind(uint32_t off, uint32_t len, size_t dmark) {
    parent.resize(len);
    for (uint32_t i = 0; i < len; ++i) parent[i] = i;
    auto find = [&](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    ++epoch;
    for (uint32_t i = 0; i < len; ++i) {
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        if (var_epoch[a.var] == epoch) {
          parent[find(i)] = find(var_pos[a.var]);
        } else {
          var_epoch[a.var] = epoch;
          var_pos[a.var] = i;
        }
      }
    }
    size_t root0 = find(0);
    bool single = true;
    for (uint32_t i = 1; i < len; ++i) {
      if (find(i) != root0) {
        single = false;
        break;
      }
    }
    if (single) return 0;
    comp_idx.assign(len, kNoNode);
    // Pass 1: component index per position (first-occurrence order) and
    // component sizes.
    for (uint32_t i = 0; i < len; ++i) {
      size_t root = find(i);
      if (comp_idx[root] == kNoNode) {
        comp_idx[root] = static_cast<uint32_t>(comp_desc.size() - dmark);
        comp_desc.emplace_back(0, 0);
      }
      ++comp_desc[dmark + comp_idx[root]].second;
    }
    // Pass 2: arena offsets per component, then place ids.
    uint32_t base = static_cast<uint32_t>(arena.size());
    for (size_t c = dmark; c < comp_desc.size(); ++c) {
      comp_desc[c].first = base;
      base += comp_desc[c].second;
      comp_desc[c].second = 0;
    }
    arena.resize(base);
    for (uint32_t i = 0; i < len; ++i) {
      auto& [o, l] = comp_desc[dmark + comp_idx[find(i)]];
      arena[o + l] = arena[off + i];
      ++l;
    }
    return comp_desc.size() - dmark;
  }

  // -- independent-AND (⊙) factorisation -----------------------------------

  // Probes whether a connected span is the cross product S1 × S2 of two
  // clause sets over disjoint variables, so that P(S) = P(S1) · P(S2).
  //
  // Across such a split every side-1 variable shares a clause with every
  // side-2 variable, so two variables that never share a clause sit on
  // the same side: side 1 is the closure of "never share a clause" from
  // the lowest local variable. Every clause must then have atoms on both
  // sides. Interning each clause's two projections gives S1 and S2, and
  // |S1| · |S2| == |S| proves S = S1 × S2 (a clause is the union of its
  // projections, so clause → projection pair is injective into S1 × S2).
  // An absorption-free S has absorption-free projections.
  //
  // O(|S| · width) word operations; exits at the first width-1 clause.
  // On success appends S1 then S2 (each sorted, duplicate-free) to the
  // arena and returns true; on failure the arena is untouched.
  bool ProductSplit(uint32_t off, uint32_t len, uint32_t* len1,
                    uint32_t* len2) {
    if (!(masks_exact ? SideByMasks(off, len) : SideByEpochs(off, len))) {
      return false;
    }
    // Every clause must straddle the split (checked before interning
    // anything, so a failed probe leaves the clause store alone).
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      bool in1 = false, in2 = false;
      if (masks_exact) {
        uint64_t lo = dnf.ClauseVarMask(id), hi = dnf.ClauseVarMaskHi(id);
        in1 = ((lo & side_lo) | (hi & side_hi)) != 0;
        in2 = ((lo & ~side_lo) | (hi & ~side_hi)) != 0;
      } else {
        for (const Atom& a : dnf.Clause(id)) {
          (OnSide1(a.var) ? in1 : in2) = true;
        }
      }
      if (!in1 || !in2) return false;
    }
    proj1.clear();
    proj2.clear();
    for (uint32_t i = 0; i < len; ++i) {
      scratch_atoms.clear();
      scratch_atoms2.clear();
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        (OnSide1(a.var) ? scratch_atoms : scratch_atoms2).push_back(a);
      }
      proj1.push_back(dnf.Intern(scratch_atoms.data(), scratch_atoms.size()));
      proj2.push_back(dnf.Intern(scratch_atoms2.data(), scratch_atoms2.size()));
    }
    for (std::vector<ClauseId>* proj : {&proj1, &proj2}) {
      std::sort(proj->begin(), proj->end());
      proj->erase(std::unique(proj->begin(), proj->end()), proj->end());
    }
    if (static_cast<uint64_t>(proj1.size()) * proj2.size() != len) return false;
    arena.insert(arena.end(), proj1.begin(), proj1.end());
    arena.insert(arena.end(), proj2.begin(), proj2.end());
    *len1 = static_cast<uint32_t>(proj1.size());
    *len2 = static_cast<uint32_t>(proj2.size());
    return true;
  }

  bool OnSide1(LocalVar v) const {
    if (masks_exact) {
      return ((v < 64 ? side_lo >> v : side_hi >> (v - 64)) & 1) != 0;
    }
    return var_side[v] == side_pass;
  }

  // Both side finders open with one pass that exits at a width-1 clause
  // and finds the lowest variable v0 with N(v0), the variables sharing a
  // clause with it. (A clause holds v0 iff its own lowest variable is v0;
  // the first clause holding v0 is the first with a variable that low, so
  // restarting N at each new minimum loses nothing.) Side 2 lies inside
  // N(v0) \ {v0}, so a clause missing that set rejects the span — in a
  // typical non-product span within a few clauses.
  //
  // The closure then processes side-1 variables one at a time. The first
  // kLazySteps variables find their co-occurring variables by scanning
  // the span; only a closure that runs longer builds per-variable tables.
  static constexpr int kLazySteps = 2;

  // Side 1 over exact masks (side_lo/side_hi). False when there is no
  // split.
  bool SideByMasks(uint32_t off, uint32_t len) {
    auto lowest = [](uint64_t lo, uint64_t hi) {
      return lo != 0 ? static_cast<LocalVar>(__builtin_ctzll(lo))
                     : 64 + static_cast<LocalVar>(__builtin_ctzll(hi));
    };
    uint64_t all_lo = 0, all_hi = 0, n_lo = 0, n_hi = 0;
    LocalVar v0 = std::numeric_limits<LocalVar>::max();
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      if (dnf.ClauseSize(id) == 1) return false;
      uint64_t lo = dnf.ClauseVarMask(id), hi = dnf.ClauseVarMaskHi(id);
      all_lo |= lo;
      all_hi |= hi;
      LocalVar lv = lowest(lo, hi);
      if (lv < v0) {
        v0 = lv;
        n_lo = n_hi = 0;
      }
      if (lv == v0) {
        n_lo |= lo;
        n_hi |= hi;
      }
    }
    const uint64_t v0_lo = v0 < 64 ? uint64_t{1} << v0 : 0;
    const uint64_t v0_hi = v0 < 64 ? 0 : uint64_t{1} << (v0 - 64);
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      if (((dnf.ClauseVarMask(id) & n_lo & ~v0_lo) |
           (dnf.ClauseVarMaskHi(id) & n_hi & ~v0_hi)) == 0) {
        return false;
      }
    }
    side_lo = v0_lo | (all_lo & ~n_lo);
    side_hi = v0_hi | (all_hi & ~n_hi);
    uint64_t done_lo = v0_lo, done_hi = v0_hi;
    for (int step = 1;; ++step) {
      uint64_t todo_lo = side_lo & ~done_lo, todo_hi = side_hi & ~done_hi;
      if ((todo_lo | todo_hi) == 0) return true;
      LocalVar v = lowest(todo_lo, todo_hi);
      (v < 64 ? done_lo : done_hi) |= uint64_t{1} << (v % 64);
      uint64_t c_lo = 0, c_hi = 0;  // variables sharing a clause with v
      if (step < kLazySteps) {
        for (uint32_t i = 0; i < len; ++i) {
          uint64_t lo = dnf.ClauseVarMask(arena[off + i]);
          uint64_t hi = dnf.ClauseVarMaskHi(arena[off + i]);
          if (((v < 64 ? lo >> v : hi >> (v - 64)) & 1) != 0) {
            c_lo |= lo;
            c_hi |= hi;
          }
        }
      } else {
        if (step == kLazySteps) BuildCoocMasks(off, len, all_lo, all_hi);
        c_lo = cooc_lo[v];
        c_hi = cooc_hi[v];
      }
      side_lo |= all_lo & ~c_lo;
      side_hi |= all_hi & ~c_hi;
      if (side_lo == all_lo && side_hi == all_hi) return false;
    }
  }

  // Per-variable co-occurrence masks of the span's variables.
  void BuildCoocMasks(uint32_t off, uint32_t len, uint64_t all_lo,
                      uint64_t all_hi) {
    if (cooc_lo.empty()) {
      cooc_lo.assign(dnf.NumVars(), 0);
      cooc_hi.assign(dnf.NumVars(), 0);
    }
    for (uint64_t m = all_lo; m != 0; m &= m - 1) {
      cooc_lo[__builtin_ctzll(m)] = cooc_hi[__builtin_ctzll(m)] = 0;
    }
    for (uint64_t m = all_hi; m != 0; m &= m - 1) {
      cooc_lo[64 + __builtin_ctzll(m)] = cooc_hi[64 + __builtin_ctzll(m)] = 0;
    }
    for (uint32_t i = 0; i < len; ++i) {
      ClauseId id = arena[off + i];
      uint64_t lo = dnf.ClauseVarMask(id), hi = dnf.ClauseVarMaskHi(id);
      for (const Atom& a : dnf.Clause(id)) {
        cooc_lo[a.var] |= lo;
        cooc_hi[a.var] |= hi;
      }
    }
  }

  // Side 1 beyond 128 variables, stamped into var_side with side_pass.
  // Same closure as SideByMasks; co-occurrence is stamped into var_co with
  // co_pass, and the per-variable tables are a CSR of clause positions.
  // False when there is no split.
  bool SideByEpochs(uint32_t off, uint32_t len) {
    if (var_side.empty()) {
      var_side.assign(dnf.NumVars(), 0);
      var_co.assign(dnf.NumVars(), 0);
    }
    auto mark = [&](uint32_t pos) {
      for (const Atom& a : dnf.Clause(arena[off + pos])) {
        var_co[a.var] = co_pass;
      }
    };
    LocalVar v0 = std::numeric_limits<LocalVar>::max();
    for (uint32_t i = 0; i < len; ++i) {
      AtomSpan span = dnf.Clause(arena[off + i]);
      if (span.size == 1) return false;
      LocalVar lv = span[0].var;  // atoms are sorted by variable
      if (lv < v0) {
        v0 = lv;
        ++co_pass;
      }
      if (lv == v0) mark(i);
    }
    for (uint32_t i = 0; i < len; ++i) {
      bool hit = false;
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        if (a.var != v0 && var_co[a.var] == co_pass) {
          hit = true;
          break;
        }
      }
      if (!hit) return false;
    }
    // Side 1 starts as v0 plus every variable outside N(v0).
    ++epoch;
    ++side_pass;
    touched.clear();
    side_queue.assign(1, v0);
    outside.clear();
    var_side[v0] = side_pass;
    for (uint32_t i = 0; i < len; ++i) {
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        if (var_epoch[a.var] != epoch) {
          var_epoch[a.var] = epoch;
          var_occ[a.var] = 0;
          touched.push_back(a.var);
          if (a.var == v0) {
            // already on side 1
          } else if (var_co[a.var] == co_pass) {
            outside.push_back(a.var);
          } else {
            var_side[a.var] = side_pass;
            side_queue.push_back(a.var);
          }
        }
        ++var_occ[a.var];
      }
    }
    if (outside.empty()) return false;
    for (size_t step = 1; step < side_queue.size(); ++step) {
      LocalVar v = side_queue[step];
      ++co_pass;
      if (step < kLazySteps) {
        for (uint32_t i = 0; i < len; ++i) {
          if (FindVar(dnf.Clause(arena[off + i]), v) != nullptr) mark(i);
        }
      } else {
        if (step == kLazySteps) BuildOccurrenceLists(off, len);
        for (uint32_t k = var_pos[v]; k < var_occ[v]; ++k) mark(occ_list[k]);
      }
      for (size_t k = 0; k < outside.size();) {
        LocalVar u = outside[k];
        if (var_co[u] == co_pass) {
          ++k;
          continue;
        }
        var_side[u] = side_pass;
        side_queue.push_back(u);
        outside[k] = outside.back();
        outside.pop_back();
      }
      if (outside.empty()) return false;
    }
    return true;
  }

  // CSR of clause positions per touched variable: occ_list[var_pos[v] ..
  // var_occ[v]). Expects var_occ to hold occurrence counts.
  void BuildOccurrenceLists(uint32_t off, uint32_t len) {
    uint32_t total = 0;
    for (LocalVar v : touched) {
      var_pos[v] = total;
      total += var_occ[v];
      var_occ[v] = var_pos[v];  // fill cursor; ends as the list end
    }
    occ_list.resize(total);
    for (uint32_t i = 0; i < len; ++i) {
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        occ_list[var_occ[a.var]++] = i;
      }
    }
  }

  // ⊙ node over the factor spans ProductSplit appended at `off1`: S1 (the
  // side of the lowest variable) then S2, multiplied in that order.
  Result<uint32_t> CompileProduct(uint32_t off1, uint32_t len1, uint32_t len2,
                                  uint64_t depth) {
    if (stats) ++stats->products;
    size_t mark = EdgeMark();
    double prod = 1.0;
    for (auto [foff, flen] : {std::pair<uint32_t, uint32_t>{off1, len1},
                              std::pair<uint32_t, uint32_t>{off1 + len1, len2}}) {
      MAYBMS_ASSIGN_OR_RETURN(uint32_t child, CompileSpan(foff, flen, depth + 1));
      prod *= NodeValue(child);
      AddEdge(1.0, child);
    }
    return AddNode(DTree::Kind::kProduct, 0, false, mark, prod);
  }

  // Connected span: ⊙ when it factorises, Shannon otherwise.
  Result<uint32_t> CompileConnected(uint32_t off, uint32_t len, uint64_t depth) {
    uint32_t off1 = static_cast<uint32_t>(arena.size());
    uint32_t len1 = 0, len2 = 0;
    if (!ProductSplit(off, len, &len1, &len2)) {
      return CompileShannon(off, len, depth);
    }
    Result<uint32_t> node = CompileProduct(off1, len1, len2, depth);
    arena.resize(off1);
    return node;
  }

  // -- elimination heuristic ------------------------------------------------

  size_t ProbSlot(LocalVar v, AsgId a) const {
    return static_cast<size_t>(dnf.VarProbs(v) - dnf.VarProbs(0)) + a;
  }

  LocalVar ChooseVariable(uint32_t off, uint32_t len) {
    ++epoch;
    touched.clear();
    for (uint32_t i = 0; i < len; ++i) {
      for (const Atom& a : dnf.Clause(arena[off + i])) {
        if (var_epoch[a.var] != epoch) {
          var_epoch[a.var] = epoch;
          var_occ[a.var] = 0;
          touched.push_back(a.var);
        }
        ++var_occ[a.var];
      }
    }
    switch (options.heuristic) {
      case EliminationHeuristic::kFirstVariable: {
        return *std::min_element(touched.begin(), touched.end());
      }
      case EliminationHeuristic::kMaxOccurrence: {
        LocalVar best = touched[0];
        uint32_t best_n = 0;
        for (LocalVar v : touched) {
          uint32_t n = var_occ[v];
          if (n > best_n || (n == best_n && v < best)) {
            best = v;
            best_n = n;
          }
        }
        return best;
      }
      case EliminationHeuristic::kMinCostEstimate: {
        ++asg_pass;
        asg_count.assign(touched.size(), 0);
        for (size_t i = 0; i < touched.size(); ++i) {
          var_pos[touched[i]] = static_cast<uint32_t>(i);
        }
        for (uint32_t i = 0; i < len; ++i) {
          for (const Atom& a : dnf.Clause(arena[off + i])) {
            size_t slot = ProbSlot(a.var, a.asg);
            if (asg_epoch[slot] != asg_pass) {
              asg_epoch[slot] = asg_pass;
              ++asg_count[var_pos[a.var]];
            }
          }
        }
        LocalVar best = touched[0];
        double best_cost = std::numeric_limits<double>::infinity();
        size_t total = len;
        for (size_t i = 0; i < touched.size(); ++i) {
          LocalVar v = touched[i];
          uint32_t n = var_occ[v];
          double branches = static_cast<double>(asg_count[i]) + 1;
          double survivors = static_cast<double>(total - n) + 1;
          double cost = branches * survivors / (static_cast<double>(n) + 1);
          if (cost < best_cost || (cost == best_cost && v < best)) {
            best = v;
            best_cost = cost;
          }
        }
        return best;
      }
    }
    return touched[0];
  }

  // -- compilation ----------------------------------------------------------

  // Compiles one clause set (must already be sorted, duplicate-free and —
  // when options.remove_subsumed — absorption-reduced; every caller
  // guarantees this, so no per-node rescans). `connected` marks sets that
  // are provably one variable-connected component (children of a
  // decomposition node) — the partition probe would find nothing, so it is
  // skipped.
  Result<uint32_t> CompileSpan(uint32_t off, uint32_t len, uint64_t depth,
                               bool connected = false) {
    if (stats) {
      ++stats->steps;
      stats->max_depth = std::max(stats->max_depth, depth);
    }
    MAYBMS_RETURN_NOT_OK(BumpChecked());
    if (len == 0) return kZeroNode;
    if (len == 1) return LeafNode(arena[off]);

    bool use_cache = options.use_cache && len > 2;
    uint64_t h = 0;
    if (use_cache) {
      h = HashSpan(&arena[off], len);
      uint32_t hit = MemoFind(h, off, len);
      if (hit != kNoNode) {
        ++cache_hits;
        if (stats) ++stats->cache_hits;
        return hit;
      }
    }

    // Fast-path scan: sets of single-atom clauses close without recursion.
    bool all_width1 = true;
    for (uint32_t i = 0; i < len && all_width1; ++i) {
      all_width1 = dnf.ClauseSize(arena[off + i]) == 1;
    }
    uint32_t node = kNoNode;
    if (all_width1) {
      MAYBMS_ASSIGN_OR_RETURN(node, CompileWidth1(off, len));
    }
    if (node == kNoNode && len == 2) {
      // Pair sets resolve without the union-find: either the two clauses
      // share a variable (one component → Shannon) or they are an
      // independent pair of leaves — the same decision Components makes.
      ClauseId a = arena[off], b = arena[off + 1];
      bool overlap = ((dnf.ClauseVarMask(a) & dnf.ClauseVarMask(b)) |
                      (dnf.ClauseVarMaskHi(a) & dnf.ClauseVarMaskHi(b))) != 0;
      bool share =
          overlap && (masks_exact || SpansShareVar(dnf.Clause(a), dnf.Clause(b)));
      if (share) {
        MAYBMS_ASSIGN_OR_RETURN(node, CompileShannon(off, len, depth));
      } else {
        if (stats) ++stats->decompositions;
        size_t mark = EdgeMark();
        double none = 1.0;
        for (uint32_t i = 0; i < 2; ++i) {
          uint32_t leaf = LeafNode(arena[off + i]);
          if (stats) ++stats->steps;
          MAYBMS_RETURN_NOT_OK(BumpChecked());
          none *= (1.0 - NodeValue(leaf));
          AddEdge(1.0, leaf);
        }
        node = AddNode(DTree::Kind::kIndep, 0, false, mark, 1.0 - none);
      }
    }
    if (node == kNoNode) {
      size_t arena_mark = arena.size();
      size_t dmark = comp_desc.size();
      size_t ncomp = connected ? 0 : Components(off, len, dmark);
      if (ncomp > 1) {
        MAYBMS_ASSIGN_OR_RETURN(node, CompileIndep(dmark, depth));
      } else {
        MAYBMS_ASSIGN_OR_RETURN(node, CompileConnected(off, len, depth));
      }
      comp_desc.resize(dmark);
      arena.resize(arena_mark);
    }
    if (use_cache) MemoInsert(h, off, len, node);
    return node;
  }

  // All clauses single-atom. Same variable → a closed 1-OF node (the
  // alternatives are mutually exclusive world-table assignments, every
  // Shannon branch is decided, the residual contributes exactly 0);
  // all-distinct variables → an independent partition of leaf clauses.
  // Both produce the same floating-point operations the general Shannon and
  // partition paths would, without recursing. Mixed repetition falls back
  // (kNoNode).
  Result<uint32_t> CompileWidth1(uint32_t off, uint32_t len) {
    LocalVar first = dnf.Clause(arena[off])[0].var;
    bool same_var = true;
    bool distinct = true;
    ++epoch;
    for (uint32_t i = 0; i < len; ++i) {
      LocalVar v = dnf.Clause(arena[off + i])[0].var;
      if (v != first) same_var = false;
      if (var_epoch[v] == epoch) distinct = false;
      var_epoch[v] = epoch;
    }
    if (same_var) {
      if (stats) ++stats->shannon_expansions;
      mentioned.clear();
      for (uint32_t i = 0; i < len; ++i) {
        mentioned.push_back(dnf.Clause(arena[off + i])[0].asg);
      }
      std::sort(mentioned.begin(), mentioned.end());
      // Interned single-atom clauses are distinct (var, asg) pairs, so
      // `mentioned` is already unique.
      size_t mark = EdgeMark();
      double total = 0;
      for (AsgId a : mentioned) {
        double pa = dnf.AtomProbLocal(first, a);
        if (pa == 0.0) continue;
        // Decided branch: identical arithmetic to CompileShannon's
        // `total += pa * 1.0`.
        total += pa * 1.0;
        AddEdge(pa, kTrueNode);
        if (stats) ++stats->steps;
        MAYBMS_RETURN_NOT_OK(BumpChecked());
      }
      return AddNode(DTree::Kind::kShannon, first, true, mark, total);
    }
    if (distinct) {
      if (stats) ++stats->decompositions;
      size_t mark = EdgeMark();
      double none = 1.0;
      for (uint32_t i = 0; i < len; ++i) {
        uint32_t leaf = LeafNode(arena[off + i]);
        if (stats) ++stats->steps;
        MAYBMS_RETURN_NOT_OK(BumpChecked());
        none *= (1.0 - NodeValue(leaf));
        AddEdge(1.0, leaf);
      }
      return AddNode(DTree::Kind::kIndep, 0, false, mark, 1.0 - none);
    }
    return kNoNode;
  }

  Result<uint32_t> CompileIndep(size_t dmark, uint64_t depth) {
    if (stats) ++stats->decompositions;
    size_t mark = EdgeMark();
    size_t dend = comp_desc.size();
    double none = 1.0;
    for (size_t c = dmark; c < dend; ++c) {
      auto [coff, clen] = comp_desc[c];
      uint32_t child;
      if (clen == 1) {
        // Single-clause component: the child resolves to a leaf without a
        // recursion frame (counted as a step to keep budgets comparable).
        child = LeafNode(arena[coff]);
        if (stats) ++stats->steps;
        MAYBMS_RETURN_NOT_OK(BumpChecked());
      } else {
        MAYBMS_ASSIGN_OR_RETURN(
            child, CompileSpan(coff, clen, depth + 1, /*connected=*/true));
      }
      none *= (1.0 - NodeValue(child));
      AddEdge(1.0, child);
    }
    return AddNode(DTree::Kind::kIndep, 0, false, mark, 1.0 - none);
  }

  Result<uint32_t> CompileShannon(uint32_t off, uint32_t len, uint64_t depth) {
    LocalVar var = ChooseVariable(off, len);
    if (stats) ++stats->shannon_expansions;

    mentioned.clear();
    for (uint32_t i = 0; i < len; ++i) {
      const Atom* atom = FindVar(dnf.Clause(arena[off + i]), var);
      if (atom != nullptr) mentioned.push_back(atom->asg);
    }
    std::sort(mentioned.begin(), mentioned.end());
    mentioned.erase(std::unique(mentioned.begin(), mentioned.end()),
                    mentioned.end());
    // `mentioned` is scratch shared across recursion levels — snapshot the
    // assignments of THIS node before recursing.
    uint32_t asg_begin = static_cast<uint32_t>(arena.size());
    for (AsgId a : mentioned) arena.push_back(a);
    uint32_t num_asgs = static_cast<uint32_t>(arena.size()) - asg_begin;

    size_t mark = EdgeMark();
    double total = 0;
    double mentioned_mass = 0;
    bool exclusive = true;
    for (uint32_t ai = 0; ai < num_asgs; ++ai) {
      AsgId a = static_cast<AsgId>(arena[asg_begin + ai]);
      double pa = dnf.AtomProbLocal(var, a);
      mentioned_mass += pa;
      if (pa == 0.0) continue;
      bool valid = false;
      uint32_t child_off = 0, child_len = 0;
      size_t branch_mark = arena.size();
      AssignVarReduce(off, len, var, a, &valid, &child_off, &child_len);
      if (valid) {
        total += pa * 1.0;
        AddEdge(pa, kTrueNode);
        if (stats) ++stats->steps;
        MAYBMS_RETURN_NOT_OK(BumpChecked());
      } else {
        exclusive = false;
        MAYBMS_ASSIGN_OR_RETURN(uint32_t child,
                                CompileSpan(child_off, child_len, depth + 1));
        total += pa * NodeValue(child);
        AddEdge(pa, child);
      }
      arena.resize(branch_mark);
    }
    // Residual branch: var takes an assignment not mentioned in the DNF;
    // every clause mentioning var is false there.
    double other_mass = 1.0 - mentioned_mass;
    if (other_mass > 1e-15) {
      exclusive = false;
      uint32_t rest_off = static_cast<uint32_t>(arena.size());
      for (uint32_t i = 0; i < len; ++i) {
        ClauseId id = arena[off + i];
        if (FindVar(dnf.Clause(id), var) == nullptr) arena.push_back(id);
      }
      uint32_t rest_len = static_cast<uint32_t>(arena.size()) - rest_off;
      MAYBMS_ASSIGN_OR_RETURN(uint32_t child,
                              CompileSpan(rest_off, rest_len, depth + 1));
      total += other_mass * NodeValue(child);
      AddEdge(other_mass, child);
      arena.resize(rest_off);
    }
    uint32_t node = AddNode(DTree::Kind::kShannon, var, exclusive, mark, total);
    arena.resize(asg_begin);
    return node;
  }

  // -- root -----------------------------------------------------------------

  // Returns the root node id; works in both recording and value-only mode.
  Result<uint32_t> CompileRoot(ThreadPool* pool) {
    std::vector<ClauseId> root = dnf.RootSet();
    for (ClauseId id : root) {
      if (dnf.ClauseSize(id) == 0) {
        if (stats) ++stats->steps;
        Bump();
        return kTrueNode;
      }
    }
    uint32_t off = static_cast<uint32_t>(arena.size());
    arena.insert(arena.end(), root.begin(), root.end());
    uint32_t len = static_cast<uint32_t>(root.size());
    if (len > 0 && options.remove_subsumed) FullReduce(off, &len);
    if (pool != nullptr && len > 1) {
      if (Components(off, len, 0) > 1) {
        return CompileRootParallel(pool);
      }
      comp_desc.clear();
    }
    return CompileSpan(off, len, 0);
  }

  // Component-parallel root: shard the variable-disjoint components into at
  // most 16 contiguous ranges (FIXED count, so per-shard budgets cannot
  // depend on the thread count); each shard compiles with a private
  // compiler over its own clause-store copy. Component probabilities fold
  // as none *= (1 - p_i) in component order — the same arithmetic, in the
  // same order, as the serial compile, so the value is bit-identical at
  // any pool size. The root of the resulting tree is a ⊗ node over
  // per-component kConst summaries.
  Result<uint32_t> CompileRootParallel(ThreadPool* pool) {
    // comp_desc[0..) holds the root components (this compiler does nothing
    // else afterwards, so no frame bookkeeping is needed).
    if (stats) {
      ++stats->steps;
      ++stats->decompositions;
    }
    std::atomic<uint64_t> shared{steps};
    shared_steps = &shared;
    Bump();
    const size_t n = comp_desc.size();
    constexpr size_t kRootShards = 16;
    const size_t grain = std::max<size_t>(1, (n + kRootShards - 1) / kRootShards);
    const size_t num_shards = (n + grain - 1) / grain;
    std::vector<double> probs(n, 0.0);
    std::vector<Status> statuses(n, Status::OK());
    std::vector<ExactStats> shard_stats(stats != nullptr ? num_shards : 0);
    pool->ParallelFor(0, n, grain, [&](size_t chunk_begin, size_t chunk_end) {
      CompiledDnf copy = dnf;
      Impl sub(std::move(copy), options,
               stats != nullptr ? &shard_stats[chunk_begin / grain] : nullptr);
      sub.shared_steps = &shared;
      sub.record = false;  // shards contribute values; the root summarizes
      for (size_t i = chunk_begin; i < chunk_end; ++i) {
        auto [coff, clen] = comp_desc[i];
        uint32_t sub_off = static_cast<uint32_t>(sub.arena.size());
        sub.arena.insert(sub.arena.end(), arena.begin() + coff,
                         arena.begin() + coff + clen);
        Result<uint32_t> r = sub.CompileSpan(sub_off, clen, 1);
        if (r.ok()) {
          probs[i] = sub.NodeValue(*r);
        } else {
          statuses[i] = r.status();
        }
        sub.arena.resize(sub_off);
      }
    });
    shared_steps = nullptr;
    // Fold the cross-shard total back into the serial counter so
    // StepsUsed() reports the same number the budget saw. Compilation is
    // single-use and done bumping at this point, so overwriting is safe.
    steps = shared.load(std::memory_order_relaxed);
    for (const Status& s : statuses) {
      if (!s.ok()) return s;  // first failed component in order
    }
    if (stats) {
      for (const ExactStats& cs : shard_stats) {
        stats->steps += cs.steps;
        stats->decompositions += cs.decompositions;
        stats->shannon_expansions += cs.shannon_expansions;
        stats->products += cs.products;
        stats->max_depth = std::max(stats->max_depth, cs.max_depth);
        stats->cache_hits += cs.cache_hits;
        stats->cache_entries += cs.cache_entries;
      }
    }
    size_t mark = EdgeMark();
    double none = 1.0;
    for (double p : probs) {
      uint32_t child =
          AddNode(DTree::Kind::kConst, 0, false, EdgeMark(), p);
      none *= (1.0 - p);
      AddEdge(1.0, child);
    }
    return AddNode(DTree::Kind::kIndep, 0, false, mark, 1.0 - none);
  }
};

DTreeCompiler::DTreeCompiler(CompiledDnf dnf, const ExactOptions& options,
                             ExactStats* stats)
    : impl_(new Impl(std::move(dnf), options, stats)) {}

DTreeCompiler::~DTreeCompiler() { delete impl_; }

Result<DTree> DTreeCompiler::Compile(ThreadPool* pool) {
  MAYBMS_ASSIGN_OR_RETURN(uint32_t root, impl_->CompileRoot(pool));
  impl_->tree.root_ = root;
  return std::move(impl_->tree);
}

Result<double> DTreeCompiler::CompileValue(ThreadPool* pool) {
  impl_->record = false;
  MAYBMS_ASSIGN_OR_RETURN(uint32_t root, impl_->CompileRoot(pool));
  return impl_->values[root];
}

uint64_t DTreeCompiler::StepsUsed() const { return impl_->steps; }

Result<DTree> CompileDTree(CompiledDnf dnf, const ExactOptions& options,
                           ExactStats* stats) {
  DTreeCompiler compiler(std::move(dnf), options, stats);
  return compiler.Compile(nullptr);
}

}  // namespace maybms
