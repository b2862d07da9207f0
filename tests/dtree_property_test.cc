// Randomized equivalence suite for the d-tree knowledge-compilation layer
// (src/lineage/dtree.h) and the packed Karp-Luby kernels:
//
//   - d-tree exact confidence matches brute-force world enumeration and
//     the golden values recorded from the recursive solver it replaced
//     (tests/dtree_legacy_goldens.inc), both to 1e-12, on random DNFs, and
//     is bit-identical serial and component-parallel (threads {1, 2, 8});
//   - DTree::Evaluate()'s linear bottom-up pass reproduces the compile-time
//     value bit-for-bit, 1-OF mutual-exclusion detection fires on
//     world-table alternative sets, and independent-AND (⊙) nodes fire on
//     cross products of variable-disjoint clause sets — and only there;
//   - posterior conf() under ASSERT evidence — including pruned-store
//     states — matches the oracle and the goldens and is bit-identical at
//     threads {1, 2, 8};
//   - the compiled-evidence cache on ConstraintStore stays consistent
//     through ASSERT / CONDITION ON / CLEAR EVIDENCE / pruning;
//   - packed Karp-Luby trials consume the same RNG draws and return the
//     same outcomes as the plain trial loop (tests/karp_luby_oracle.h), so
//     seeded sampler estimates equal the oracle's;
//   - the conf() budget fallback produces deterministic,
//     thread-independent estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/cond/posterior.h"
#include "src/conf/exact.h"
#include "src/conf/karp_luby.h"
#include "src/conf/montecarlo.h"
#include "src/engine/database.h"
#include "src/lineage/dtree.h"
#include "src/lineage/dtree_cache.h"
#include "src/prob/world_enum.h"
#include "tests/karp_luby_oracle.h"

namespace maybms {
namespace {

#include "tests/dtree_legacy_goldens.inc"

constexpr double kTol = 1e-12;

struct Instance {
  WorldTable wt;
  Dnf dnf;
};

// Random DNF over multi-valued variables; occasionally zero-probability
// atoms and duplicate clauses.
// Capped so the brute-force oracle stays enumerable (domain <= 4 → at
// most 4^10 worlds).
Instance RandomInstance(Rng* rng, int max_vars = 10, int max_clauses = 12) {
  Instance inst;
  std::vector<VarId> ids;
  int nv = 2 + static_cast<int>(rng->NextBounded(max_vars - 1));
  for (int i = 0; i < nv; ++i) {
    int dom = 2 + static_cast<int>(rng->NextBounded(3));
    std::vector<double> probs;
    double rest = 1.0;
    for (int d = 0; d + 1 < dom; ++d) {
      double p = rng->NextBounded(8) == 0 ? 0.0 : rest * rng->NextDouble();
      probs.push_back(p);
      rest -= p;
    }
    probs.push_back(rest);
    ids.push_back(*inst.wt.NewVariable(probs));
  }
  int nc = 1 + static_cast<int>(rng->NextBounded(max_clauses));
  for (int c = 0; c < nc; ++c) {
    std::vector<Atom> atoms;
    int width = 1 + static_cast<int>(rng->NextBounded(3));
    for (int a = 0; a < width; ++a) {
      VarId v = ids[rng->NextBounded(ids.size())];
      atoms.push_back(
          {v, static_cast<AsgId>(rng->NextBounded(inst.wt.DomainSize(v)))});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond) inst.dnf.AddClause(std::move(*cond));
  }
  return inst;
}

double BruteForce(const Instance& inst) {
  std::vector<VarId> vars;
  for (VarId v = 0; v < inst.wt.NumVariables(); ++v) vars.push_back(v);
  double p = 0;
  Status st = EnumerateWorlds(inst.wt, vars, 1u << 21, [&](const World& w) {
    for (const Condition& c : inst.dnf.clauses()) {
      if (w.Satisfies(c)) {
        p += w.probability;
        return;
      }
    }
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return p;
}

TEST(DTreePropertyTest, MatchesLegacyAndBruteForceOnRandomDnfs) {
  Rng rng(20260728);
  ThreadPool pool2(2), pool8(8);
  for (int iter = 0; iter < 120; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    Instance inst = RandomInstance(&rng);

    Result<double> p_dtree = ExactConfidence(inst.dnf, inst.wt, {});
    ASSERT_TRUE(p_dtree.ok());
    EXPECT_NEAR(*p_dtree, kRandomGoldens[iter], kTol);
    EXPECT_NEAR(*p_dtree, BruteForce(inst), kTol);

    // Component-parallel root at 2 and 8 threads: same bits.
    for (ThreadPool* pool : {&pool2, &pool8}) {
      Result<double> p_par =
          ExactConfidence(inst.dnf, inst.wt, {}, nullptr, pool);
      ASSERT_TRUE(p_par.ok());
      EXPECT_EQ(*p_dtree, *p_par);
    }

    // The recorded tree's linear bottom-up pass reproduces the value.
    Result<DTree> tree = CompileDTree(CompiledDnf(inst.dnf, inst.wt));
    ASSERT_TRUE(tree.ok());
    double eval = tree->Evaluate();
    EXPECT_EQ(eval, tree->root_value());
    EXPECT_EQ(std::min(1.0, std::max(0.0, eval)), *p_dtree);
  }
}

TEST(DTreePropertyTest, AblationOptionsPreserveBitIdentity) {
  Rng rng(77);
  const double* golden = kAblationGoldens;
  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    Instance inst = RandomInstance(&rng);
    const double truth = BruteForce(inst);
    for (EliminationHeuristic h :
         {EliminationHeuristic::kMaxOccurrence,
          EliminationHeuristic::kMinCostEstimate,
          EliminationHeuristic::kFirstVariable}) {
      for (bool subsume : {true, false}) {
        double with_cache = -1;
        for (bool cache : {true, false}) {
          ExactOptions options;
          options.heuristic = h;
          options.remove_subsumed = subsume;
          options.use_cache = cache;
          Result<double> a = ExactConfidence(inst.dnf, inst.wt, options);
          ASSERT_TRUE(a.ok());
          EXPECT_NEAR(*a, *golden++, kTol);
          EXPECT_NEAR(*a, truth, kTol);
          // Hash-consing shares structure, never changes a value.
          if (cache) {
            with_cache = *a;
          } else {
            EXPECT_EQ(*a, with_cache);
          }
        }
      }
    }
  }
  EXPECT_EQ(golden, std::end(kAblationGoldens));
}

TEST(DTreePropertyTest, OneOfDetectionOnWorldTableAlternatives) {
  WorldTable wt;
  VarId x = *wt.NewVariable({0.2, 0.3, 0.5});
  Dnf dnf;
  dnf.AddClause(*Condition::FromAtoms({{x, 0}}));
  dnf.AddClause(*Condition::FromAtoms({{x, 2}}));
  Result<DTree> tree = CompileDTree(CompiledDnf(dnf, wt));
  ASSERT_TRUE(tree.ok());
  const DTree::Node& root = tree->node(tree->root());
  EXPECT_EQ(root.kind, DTree::Kind::kShannon);
  EXPECT_TRUE(root.exclusive);  // closed 1-OF: mutually exclusive branches
  EXPECT_EQ(tree->root_value(), 0.2 + 0.5);
  EXPECT_NE(tree->Summary().find("1-of=1"), std::string::npos);
}

// (x ∨ y) ∧ chain, as the DNF x ∧ chain ∨ y ∧ chain. With `extra`, the
// clause x ∧ z joins it, which makes the set no longer a product.
Instance ReconvergingChain(bool extra) {
  Instance inst;
  VarId x = *inst.wt.NewBooleanVariable(0.5);
  VarId y = *inst.wt.NewBooleanVariable(0.5);
  std::vector<VarId> chain;
  for (int i = 0; i < 6; ++i) chain.push_back(*inst.wt.NewBooleanVariable(0.3));
  for (int i = 0; i + 1 < 6; ++i) {
    inst.dnf.AddClause(
        *Condition::FromAtoms({{x, 1}, {chain[i], 1}, {chain[i + 1], 1}}));
    inst.dnf.AddClause(
        *Condition::FromAtoms({{y, 1}, {chain[i], 1}, {chain[i + 1], 1}}));
  }
  if (extra) {
    VarId z = *inst.wt.NewBooleanVariable(0.4);
    inst.dnf.AddClause(*Condition::FromAtoms({{x, 1}, {z, 1}}));
  }
  return inst;
}

TEST(DTreePropertyTest, HashConsingSharesReconvergingBranches) {
  // With x ∧ z added the root is not a product, so Shannon eliminates x:
  // the x branch reduces to chain ∨ z, the residual branch is y ∧ chain
  // (a ⊙ over {y} and the chain). Both reach the same chain clause set,
  // which must be built once (DAG edge), not twice.
  Instance inst = ReconvergingChain(/*extra=*/true);
  ExactStats stats;
  Result<DTree> tree = CompileDTree(CompiledDnf(inst.dnf, inst.wt), {}, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->node(tree->root()).kind, DTree::Kind::kShannon);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(tree->Evaluate(), tree->root_value());
  EXPECT_NEAR(tree->root_value(), BruteForce(inst), kTol);
}

TEST(DTreePropertyTest, CrossProductRootIsIndependentAnd) {
  // (x ∨ y) ∧ chain is itself a product: one ⊙ node over {x, y} and the
  // chain, with nothing left to share.
  Instance inst = ReconvergingChain(/*extra=*/false);
  ExactStats stats;
  Result<DTree> tree = CompileDTree(CompiledDnf(inst.dnf, inst.wt), {}, &stats);
  ASSERT_TRUE(tree.ok());
  const DTree::Node& root = tree->node(tree->root());
  EXPECT_EQ(root.kind, DTree::Kind::kProduct);
  EXPECT_EQ(root.edge_end - root.edge_begin, 2u);
  EXPECT_EQ(stats.products, 1u);
  EXPECT_NE(tree->Summary().find("product=1"), std::string::npos);
  EXPECT_EQ(tree->Evaluate(), tree->root_value());
  EXPECT_NEAR(tree->root_value(), BruteForce(inst), kTol);
}

TEST(DTreePropertyTest, NodeBudgetAborts) {
  Rng rng(11);
  Instance inst = RandomInstance(&rng, 10, 12);
  ExactOptions tight;
  tight.max_steps = 1;
  Result<double> a = ExactConfidence(inst.dnf, inst.wt, tight);
  // Multi-clause random instances cannot resolve in one node.
  ASSERT_GE(inst.dnf.NumClauses(), 1u);
  if (inst.dnf.NumClauses() > 1) {
    EXPECT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kOutOfRange);
  }
}

// ---------------------------------------------------------------------------
// Independent-AND (⊙) products
// ---------------------------------------------------------------------------

// A variable with 2-3 alternatives; about one alternative in eight gets
// probability zero.
VarId RandomVariable(Rng* rng, WorldTable* wt) {
  int dom = 2 + static_cast<int>(rng->NextBounded(2));
  std::vector<double> probs;
  double rest = 1.0;
  for (int d = 0; d + 1 < dom; ++d) {
    double p = rng->NextBounded(8) == 0 ? 0.0 : rest * rng->NextDouble();
    probs.push_back(p);
    rest -= p;
  }
  probs.push_back(rest);
  return *wt->NewVariable(probs);
}

// 1 to `max_clauses` distinct random clauses of width 1-3 (at most
// |vars|) over distinct variables of `vars`.
std::vector<Condition> RandomFactor(Rng* rng, const WorldTable& wt,
                                    std::vector<VarId> vars, int max_clauses) {
  std::vector<Condition> out;
  int nc = 1 + static_cast<int>(rng->NextBounded(max_clauses));
  for (int c = 0; c < nc; ++c) {
    std::vector<Atom> atoms;
    size_t width = std::min<size_t>(vars.size(), 1 + rng->NextBounded(3));
    for (size_t a = 0; a < width; ++a) {
      std::swap(vars[a], vars[a + rng->NextBounded(vars.size() - a)]);
      VarId v = vars[a];
      atoms.push_back({v, static_cast<AsgId>(rng->NextBounded(wt.DomainSize(v)))});
    }
    auto cond = Condition::FromAtoms(std::move(atoms));
    if (cond && std::find(out.begin(), out.end(), *cond) == out.end()) {
      out.push_back(std::move(*cond));
    }
  }
  return out;
}

// The DNF of (∨ f_1) ∧ … ∧ (∨ f_k): one clause per choice of one clause
// from every factor (inconsistent choices dropped).
Dnf CrossProduct(const std::vector<std::vector<Condition>>& factors) {
  std::vector<Condition> acc = {Condition()};
  for (const std::vector<Condition>& f : factors) {
    std::vector<Condition> next;
    for (const Condition& a : acc) {
      for (const Condition& b : f) {
        if (auto m = Condition::Merge(a, b)) next.push_back(std::move(*m));
      }
    }
    acc = std::move(next);
  }
  Dnf dnf;
  for (Condition& c : acc) dnf.AddClause(std::move(c));
  return dnf;
}

// Exact confidence at threads {1, 2, 8} and with the component cache on
// and off; all must agree bit for bit. Returns the serial value.
double CheckModes(const Instance& inst) {
  ThreadPool pool2(2), pool8(8);
  Result<double> serial = ExactConfidence(inst.dnf, inst.wt, {});
  EXPECT_TRUE(serial.ok());
  if (!serial.ok()) return -1;
  for (ThreadPool* pool : {&pool2, &pool8}) {
    Result<double> par = ExactConfidence(inst.dnf, inst.wt, {}, nullptr, pool);
    EXPECT_TRUE(par.ok());
    if (par.ok()) EXPECT_EQ(*par, *serial);
  }
  for (bool component_cache : {true, false}) {
    DTreeCache cache;
    ExactOptions options;
    options.cache = &cache;
    options.component_cache = component_cache;
    for (int round = 0; round < 2; ++round) {  // miss, then hit
      Result<double> cached = ExactConfidence(inst.dnf, inst.wt, options);
      EXPECT_TRUE(cached.ok());
      if (cached.ok()) EXPECT_EQ(*cached, *serial);
    }
  }
  Result<DTree> tree = CompileDTree(CompiledDnf(inst.dnf, inst.wt));
  EXPECT_TRUE(tree.ok());
  if (tree.ok()) {
    EXPECT_EQ(tree->Evaluate(), tree->root_value());
    EXPECT_EQ(std::min(1.0, std::max(0.0, tree->root_value())), *serial);
  }
  return *serial;
}

DTree::Kind RootKind(const Instance& inst) {
  Result<DTree> tree = CompileDTree(CompiledDnf(inst.dnf, inst.wt));
  EXPECT_TRUE(tree.ok());
  return tree.ok() ? tree->node(tree->root()).kind : DTree::Kind::kConst;
}

TEST(DTreePropertyTest, RandomProductsFactorAndMatchBruteForce) {
  Rng rng(1616);
  int factored_instances = 0;
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    Instance inst;
    // 2-3 factors over disjoint variables whose ids interleave, so the
    // lowest variable does not always belong to the first factor.
    int num_factors = 2 + static_cast<int>(rng.NextBounded(2));
    std::vector<std::vector<VarId>> vars(num_factors);
    for (int f = 0; f < num_factors; ++f) {
      vars[f].push_back(RandomVariable(&rng, &inst.wt));
    }
    for (int extra = static_cast<int>(rng.NextBounded(4)); extra > 0; --extra) {
      vars[rng.NextBounded(num_factors)].push_back(
          RandomVariable(&rng, &inst.wt));
    }
    std::vector<std::vector<Condition>> factors;
    for (int f = 0; f < num_factors; ++f) {
      factors.push_back(RandomFactor(&rng, inst.wt, vars[f], 4));
    }
    inst.dnf = CrossProduct(factors);
    // Every other instance gains a variable-disjoint extra component, so
    // the component-cache path compiles the product on its own.
    if (iter % 2 == 1) {
      VarId z = RandomVariable(&rng, &inst.wt);
      VarId w = RandomVariable(&rng, &inst.wt);
      inst.dnf.AddClause(*Condition::FromAtoms({{z, 0}, {w, 1}}));
      inst.dnf.AddClause(*Condition::FromAtoms({{z, 1}}));
    }
    double p = CheckModes(inst);
    EXPECT_NEAR(p, BruteForce(inst), kTol);
    double factored = 1.0;
    for (const std::vector<Condition>& f : factors) {
      Instance part;
      part.wt = inst.wt;
      for (const Condition& c : f) part.dnf.AddClause(c);
      factored *= BruteForce(part);
    }
    if (iter % 2 == 0) EXPECT_NEAR(p, factored, kTol);
    ExactStats stats;
    ASSERT_TRUE(ExactConfidence(inst.dnf, inst.wt, {}, &stats).ok());
    if (stats.products > 0) ++factored_instances;
  }
  // Coverage floor (28 of 60 at this seed). The rest stay correct through
  // Shannon expansion: two-clause sets take the pair fast path, and the
  // probe tries one split only — side 1 is the closure of the lowest
  // variable, so a factor whose variables all share clauses with each
  // other (e.g. {x0 ∧ x3, x0' ∧ x3'}) is not found when it holds the
  // lowest variable together with others.
  EXPECT_GE(factored_instances, 20);
}

// (x_1 ∨ … ∨ x_m) ∧ (y_1 ∨ … ∨ y_n) over fresh variables, as m·n
// two-atom clauses; x and y hold the variables.
Instance SingleAtomProduct(Rng* rng, int m, int n, std::vector<VarId>* x,
                           std::vector<VarId>* y) {
  Instance inst;
  for (int i = 0; i < m + n; ++i) {
    VarId v = RandomVariable(rng, &inst.wt);
    // Interleave the two sides' ids while both still need variables.
    bool left = static_cast<int>(y->size()) == n ||
                (i % 2 == 0 && static_cast<int>(x->size()) < m);
    (left ? x : y)->push_back(v);
  }
  for (VarId a : *x) {
    for (VarId b : *y) {
      inst.dnf.AddClause(*Condition::FromAtoms({{a, 0}, {b, 0}}));
    }
  }
  return inst;
}

TEST(DTreePropertyTest, NearProductsDoNotFactor) {
  Rng rng(2727);
  for (int iter = 0; iter < 30; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    int m = 2 + static_cast<int>(rng.NextBounded(3));
    int n = 2 + static_cast<int>(rng.NextBounded(3));
    std::vector<VarId> x, y;
    Instance exact = SingleAtomProduct(&rng, m, n, &x, &y);
    EXPECT_EQ(RootKind(exact), DTree::Kind::kProduct);
    EXPECT_NEAR(CheckModes(exact), BruteForce(exact), kTol);

    // The cross product minus one clause.
    Instance minus;
    minus.wt = exact.wt;
    size_t drop = rng.NextBounded(exact.dnf.NumClauses());
    for (size_t c = 0; c < exact.dnf.NumClauses(); ++c) {
      if (c != drop) minus.dnf.AddClause(exact.dnf.clauses()[c]);
    }
    EXPECT_NE(RootKind(minus), DTree::Kind::kProduct);
    EXPECT_NEAR(CheckModes(minus), BruteForce(minus), kTol);

    // Plus one straddling clause over another alternative of x_1.
    Instance plus;
    plus.wt = exact.wt;
    plus.dnf = exact.dnf;
    plus.dnf.AddClause(*Condition::FromAtoms({{x[0], 1}, {y[0], 0}}));
    EXPECT_NE(RootKind(plus), DTree::Kind::kProduct);
    EXPECT_NEAR(CheckModes(plus), BruteForce(plus), kTol);

    // One variable shared across the halves: y_1 replaced by x_1 (other
    // alternative), so the "factors" are no longer independent.
    Instance shared;
    shared.wt = exact.wt;
    std::vector<Condition> left, right;
    for (VarId a : x) left.push_back(*Condition::FromAtoms({{a, 0}}));
    right.push_back(*Condition::FromAtoms({{x[0], 1}}));
    for (size_t j = 1; j < y.size(); ++j) {
      right.push_back(*Condition::FromAtoms({{y[j], 0}}));
    }
    shared.dnf = CrossProduct({left, right});
    EXPECT_NE(RootKind(shared), DTree::Kind::kProduct);
    EXPECT_NEAR(CheckModes(shared), BruteForce(shared), kTol);
  }
}

TEST(DTreePropertyTest, WideProductBeyondMaskWidth) {
  // 100 × 100 single-atom product: 200 variables, past the 128 exact mask
  // bits, so the ⊙ probe runs on the epoch-stamped variable scratch.
  Instance inst;
  Rng rng(9);
  std::vector<VarId> a, b;
  for (int i = 0; i < 200; ++i) {
    VarId v = *inst.wt.NewBooleanVariable(0.001 + 0.02 * rng.NextDouble());
    (i % 2 == 0 ? a : b).push_back(v);
  }
  Dnf da, db;
  for (VarId v : a) da.AddClause(*Condition::FromAtoms({{v, 1}}));
  for (VarId v : b) db.AddClause(*Condition::FromAtoms({{v, 1}}));
  for (VarId u : a) {
    for (VarId v : b) {
      inst.dnf.AddClause(*Condition::FromAtoms({{u, 1}, {v, 1}}));
    }
  }
  CompiledDnf compiled(inst.dnf, inst.wt);
  ASSERT_FALSE(compiled.MasksExact());
  ExactStats stats;
  Result<DTree> tree = CompileDTree(std::move(compiled), {}, &stats);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->node(tree->root()).kind, DTree::Kind::kProduct);
  EXPECT_EQ(tree->Evaluate(), tree->root_value());
  Result<double> pa = ExactConfidence(da, inst.wt);
  Result<double> pb = ExactConfidence(db, inst.wt);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_NEAR(tree->root_value(), *pa * *pb, kTol);
  Result<double> p = ExactConfidence(inst.dnf, inst.wt);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, tree->root_value());
}

// ---------------------------------------------------------------------------
// Posterior states (evidence, pruning) across thread counts
// ---------------------------------------------------------------------------

struct EngineConfig {
  unsigned num_threads;
  const char* name;
};

const EngineConfig kConfigs[] = {
    {1, "batch/1"},
    {2, "batch/2"},
    {8, "batch/8"},
};

DatabaseOptions ConfigOptions(const EngineConfig& config) {
  DatabaseOptions options;
  options.exec.num_threads = config.num_threads;
  if (config.num_threads > 1) options.exec.morsel_size = 3;
  return options;
}

std::vector<std::string> BuildScript(Rng* rng) {
  std::vector<std::string> script;
  script.push_back("create table base (id int, k int, v int, w double)");
  int id = 0;
  int groups = 2 + static_cast<int>(rng->NextBounded(3));
  for (int k = 0; k < groups; ++k) {
    int alts = 2 + static_cast<int>(rng->NextBounded(2));
    for (int a = 0; a < alts; ++a) {
      script.push_back(StringFormat("insert into base values (%d, %d, %d, %g)",
                                    id++, k, static_cast<int>(rng->NextBounded(3)),
                                    0.25 + 0.75 * rng->NextDouble()));
    }
  }
  script.push_back("create table u as repair key k in base weight by w");
  return script;
}

// Brute-force posterior P(∃ u row: v = x | evidence) over the pre-assert
// world table.
double OraclePosterior(const WorldTable& wt,
                       const std::vector<std::pair<int64_t, Condition>>& u_rows,
                       const std::vector<Condition>& evidence, int64_t x) {
  std::vector<VarId> vars;
  for (VarId v = 0; v < wt.NumVariables(); ++v) vars.push_back(v);
  double p_c = 0, p_and = 0;
  Status st = EnumerateWorlds(wt, vars, 1u << 20, [&](const World& w) {
    bool sat = evidence.empty();
    for (const Condition& c : evidence) {
      if (w.Satisfies(c)) {
        sat = true;
        break;
      }
    }
    if (!sat) return;
    p_c += w.probability;
    for (const auto& [v, cond] : u_rows) {
      if (v == x && w.Satisfies(cond)) {
        p_and += w.probability;
        return;
      }
    }
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return p_c > 0 ? p_and / p_c : 0;
}

TEST(DTreePropertyTest, PosteriorAndPrunedStatesAcrossEnginesAndThreads) {
  Rng rng(424242);
  int conditioned = 0;
  for (int iter = 0; iter < 6; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    std::vector<std::string> script = BuildScript(&rng);
    int x = static_cast<int>(rng.NextBounded(3));
    // Disjunctive (non-determining) evidence first, then a determining
    // assert that triggers pruning.
    std::string evidence_sql = StringFormat("select * from u where v = %d", x);
    std::string determine_sql = "select * from u where k = 0 and v = ";

    // Reference answers per phase, captured from config 0.
    std::vector<std::vector<double>> reference;  // phase -> per-v conf
    bool reference_set = false;

    for (const EngineConfig& config : kConfigs) {
      SCOPED_TRACE(config.name);
      Database db(ConfigOptions(config));
      for (const std::string& sql : script) {
        ASSERT_TRUE(db.Execute(sql).ok()) << sql;
      }
      // Oracle state before any evidence (config-independent).
      WorldTable wt_before = db.catalog().world_table();
      std::vector<std::pair<int64_t, Condition>> u_rows;
      auto t = db.catalog().GetTable("u");
      ASSERT_TRUE(t.ok());
      for (const Row& row : (*t)->rows()) {
        u_rows.emplace_back(row.values[2].AsInt(), row.condition);
      }
      auto ev = db.Query(evidence_sql);
      ASSERT_TRUE(ev.ok());
      std::vector<Condition> evidence;
      bool certain = !ev->uncertain();
      for (const Row& row : ev->rows()) {
        if (row.condition.IsTrue()) certain = true;
        evidence.push_back(row.condition);
      }

      std::vector<std::vector<double>> phases;
      auto confs = [&]() {
        std::vector<double> out;
        auto r = db.Query("select v, conf() as p from u group by v order by v");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) {
          for (const Row& row : r->rows()) out.push_back(row.values[1].AsDouble());
        }
        return out;
      };
      // Phase 0: prior.
      phases.push_back(confs());
      // Phase 1: posterior under disjunctive evidence (if assertable).
      bool asserted = false;
      if (!certain && !evidence.empty()) {
        Status st = db.Execute("assert " + evidence_sql);
        if (st.ok()) {
          asserted = true;
          phases.push_back(confs());
          // Check against the brute-force oracle (serial configs; the
          // bit-identity sweep covers the rest).
          if (config.num_threads == 1) {
            auto r = db.Query(
                "select v, conf() as p from u group by v order by v");
            ASSERT_TRUE(r.ok());
            for (const Row& row : r->rows()) {
              double oracle = OraclePosterior(wt_before, u_rows, evidence,
                                              row.values[0].AsInt());
              EXPECT_NEAR(row.values[1].AsDouble(), oracle, kTol);
            }
          }
        }
      }
      // Phase 2: determining evidence → pruned store.
      Status det = db.Execute(StringFormat("assert %s%d", determine_sql.c_str(),
                                           x));
      if (det.ok()) phases.push_back(confs());
      // Phase 3: clear evidence. NOT a revert to phase 0: pruning is
      // physical (determined variables collapsed, contradicting rows
      // deleted stay deleted) — but every config must land on the same
      // post-clear state bit-for-bit, which the cross-config sweep below
      // checks.
      ASSERT_TRUE(db.Execute("clear evidence").ok());
      EXPECT_FALSE(db.constraints().active());
      phases.push_back(confs());

      if (!reference_set) {
        reference = phases;
        reference_set = true;
        if (asserted) ++conditioned;
        // Pinned to the recursive solver's answers.
        const auto& golden = kPosteriorGoldens[iter];
        ASSERT_EQ(phases.size(), golden.size());
        for (size_t ph = 0; ph < phases.size(); ++ph) {
          ASSERT_EQ(phases[ph].size(), golden[ph].size());
          for (size_t g = 0; g < phases[ph].size(); ++g) {
            EXPECT_NEAR(phases[ph][g], golden[ph][g], kTol)
                << "phase " << ph << " group " << g;
          }
        }
      } else {
        ASSERT_EQ(phases.size(), reference.size());
        for (size_t ph = 0; ph < phases.size(); ++ph) {
          ASSERT_EQ(phases[ph].size(), reference[ph].size());
          for (size_t g = 0; g < phases[ph].size(); ++g) {
            // Bit-identical across thread counts.
            EXPECT_EQ(phases[ph][g], reference[ph][g])
                << "phase " << ph << " group " << g;
          }
        }
      }
    }
  }
  EXPECT_GT(conditioned, 0);
}

// ---------------------------------------------------------------------------
// Compiled-evidence cache consistency
// ---------------------------------------------------------------------------

TEST(DTreePropertyTest, CompiledEvidenceCacheTracksStoreMutations) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int k = 0; k < 4; ++k) {
    for (int v = 0; v < 2; ++v) {
      ASSERT_TRUE(
          db.Execute(StringFormat("insert into t values (%d, %d)", k, v)).ok());
    }
  }
  ASSERT_TRUE(db.Execute("create table u as repair key k in t").ok());
  const ConstraintStore& cs = db.constraints();
  EXPECT_EQ(cs.compiled(), nullptr);  // inactive: no compiled evidence

  // ASSERT: cache materializes; its d-tree value is exactly P(C) and its
  // CSR clauses mirror the flattened store.
  ASSERT_TRUE(db.Execute("assert select * from u where v = 0").ok());
  ASSERT_NE(cs.compiled(), nullptr);
  const CompiledEvidence* ev1 = cs.compiled();
  EXPECT_EQ(ev1->NumClauses(), cs.NumClauses());
  EXPECT_EQ(std::min(1.0, std::max(0.0, ev1->tree.root_value())),
            cs.probability());
  for (size_t c = 0; c < ev1->NumClauses(); ++c) {
    const Condition& cond = cs.clauses()[c];
    ASSERT_EQ(ev1->ClauseSize(c), cond.NumAtoms());
    for (size_t i = 0; i < cond.NumAtoms(); ++i) {
      EXPECT_EQ(ev1->ClauseAtoms(c)[i], cond.atoms()[i]);
    }
  }
  std::vector<VarRestriction> fresh = cs.Restrictions();
  ASSERT_EQ(fresh.size(), ev1->restrictions.size());

  // CONDITION ON (conjoins more evidence): cache rebuilt in place — or
  // dropped along with the store if pruning absorbed the evidence into the
  // database entirely (the cache must track either way).
  ASSERT_TRUE(db.Execute("condition on select * from u where k = 1 and v = 0")
                  .ok());
  if (cs.active()) {
    ASSERT_NE(cs.compiled(), nullptr);
    EXPECT_EQ(cs.compiled()->NumClauses(), cs.NumClauses());
    EXPECT_EQ(std::min(1.0, std::max(0.0, cs.compiled()->tree.root_value())),
              cs.probability());
  } else {
    EXPECT_EQ(cs.compiled(), nullptr);
  }

  // Determining assert prunes; the store divides determined variables out
  // and the cache follows (possibly deactivating entirely).
  ASSERT_TRUE(db.Execute("assert select * from u where k = 2 and v = 1").ok());
  if (cs.active()) {
    ASSERT_NE(cs.compiled(), nullptr);
    EXPECT_EQ(cs.compiled()->NumClauses(), cs.NumClauses());
  } else {
    EXPECT_EQ(cs.compiled(), nullptr);
  }

  // CLEAR EVIDENCE: cache dropped.
  ASSERT_TRUE(db.Execute("clear evidence").ok());
  EXPECT_EQ(cs.compiled(), nullptr);
  EXPECT_EQ(cs.probability(), 1.0);
}

// ---------------------------------------------------------------------------
// Packed Karp-Luby kernels
// ---------------------------------------------------------------------------

TEST(DTreePropertyTest, PackedKarpLubyKernelMatchesReferenceTrialForTrial) {
  Rng rng(555);
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    Instance inst = RandomInstance(&rng, 10, 14);
    // Half the iterations: constrained estimator (suffix = last clause).
    size_t num_query = inst.dnf.NumClauses();
    if (iter % 2 == 1 && num_query > 1) --num_query;
    KarpLubyEstimator est(CompiledDnf(inst.dnf, inst.wt), num_query);
    if (est.Trivial()) continue;
    ReferenceKarpLuby reference(CompiledDnf(inst.dnf, inst.wt), num_query);
    ASSERT_EQ(est.TotalWeight(), reference.TotalWeight());
    Rng packed_rng(iter), reference_rng(iter);
    KarpLubyScratch packed_scratch;
    std::vector<int64_t> reference_world;
    for (int t = 0; t < 500; ++t) {
      bool a = est.Trial(&packed_rng, &packed_scratch);
      bool b = reference.Trial(&reference_rng, &reference_world);
      ASSERT_EQ(a, b) << "trial " << t;
      // Identical RNG consumption, not just identical outcomes.
      ASSERT_EQ(packed_rng.Next(), reference_rng.Next()) << "trial " << t;
    }
  }
}

// The sampler layer (no exact attempt) equals DKLR AA over the oracle's
// trial stream bit for bit, serially and on pools of 2 and 8 threads.
TEST(DTreePropertyTest, SeededAconfIdenticalUnderReferenceKernelAndThreads) {
  Rng rng(808);
  ThreadPool pool2(2), pool8(8);
  int compared = 0;
  for (int iter = 0; iter < 8; ++iter) {
    SCOPED_TRACE(StringFormat("iteration %d", iter));
    Instance inst = RandomInstance(&rng, 10, 12);
    if (inst.dnf.NumClauses() < 2) continue;
    if (KarpLubyEstimator(inst.dnf, inst.wt).Trivial()) continue;
    uint64_t seed = 1000 + iter;
    auto a = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.2, 0.2,
                                      seed);
    ReferenceKarpLuby reference(CompiledDnf(inst.dnf, inst.wt));
    auto b = OptimalEstimateSeeded(reference.Factory(), 0.2, 0.2, seed);
    if (!a.ok()) {
      EXPECT_FALSE(b.ok());
      continue;
    }
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->estimate, std::min(1.0, b->estimate * reference.TotalWeight()));
    EXPECT_EQ(a->samples, b->samples);
    EXPECT_GT(a->samples, 0u);
    ++compared;
    for (ThreadPool* pool : {&pool2, &pool8}) {
      auto c = KarpLubyConfidenceSeeded(CompiledDnf(inst.dnf, inst.wt), 0.2,
                                        0.2, seed, {}, pool);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(a->estimate, c->estimate);
    }
  }
  EXPECT_GT(compared, 0);
}

// ---------------------------------------------------------------------------
// conf() budget fallback
// ---------------------------------------------------------------------------

TEST(DTreePropertyTest, ConfFallbackIsDeterministicAcrossEnginesAndThreads) {
  std::vector<std::string> script = {
      "create table t (k int, v int)",
  };
  for (int k = 0; k < 8; ++k) {
    for (int v = 0; v < 2; ++v) {
      script.push_back(StringFormat("insert into t values (%d, %d)", k, v));
    }
  }
  script.push_back("create table u as repair key k in t");

  std::vector<double> reference;
  for (const EngineConfig& config : kConfigs) {
    SCOPED_TRACE(config.name);
    DatabaseOptions options = ConfigOptions(config);
    options.exec.exact.max_steps = 1;  // force the budget to trip
    options.exec.conf_fallback = true;
    Database db(options);
    for (const std::string& sql : script) ASSERT_TRUE(db.Execute(sql).ok());
    auto r = db.Query(
        "select a.v, conf() as p from u a, u b where a.v = b.v "
        "group by a.v order by a.v");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r->message().find("warning: conf() exceeded"), std::string::npos);
    std::vector<double> got;
    for (const Row& row : r->rows()) got.push_back(row.values[1].AsDouble());
    ASSERT_EQ(got.size(), 2u);
    // Fallback estimates are (ε,δ)-close to truth and identical across
    // thread counts (content-seeded).
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference);
    }
  }

  // Fallback off: the budget error surfaces.
  DatabaseOptions options;
  options.exec.exact.max_steps = 1;
  Database db(options);
  for (const std::string& sql : script) ASSERT_TRUE(db.Execute(sql).ok());
  auto r = db.Query("select a.v, conf() from u a, u b where a.v = b.v group by a.v");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace maybms
