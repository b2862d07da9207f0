#include "src/opt/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/exec/exec_context.h"
#include "src/index/index_manager.h"

namespace maybms {

namespace {

/// DP subset enumeration bound; greedy insertion beyond.
constexpr size_t kDpMaxLeaves = 8;
/// Region size cap: larger join regions are left in syntactic shape (the
/// leaf bitmask representation holds 63 leaves; greedy handles up to 32).
constexpr size_t kMaxRegionLeaves = 32;
/// Weight of the lineage-width term: an intermediate of R rows with W
/// condition atoms per row costs R * (1 + kLineageLambda * W).
constexpr double kLineageLambda = 0.5;
/// Multiplier on extensions that introduce no equi-key (cross products).
constexpr double kCrossPenalty = 8.0;
constexpr double kMinSelectivity = 1e-6;
constexpr double kDefaultSelectivity = 0.25;
/// A reorder is only applied when it beats the syntactic order by both a
/// relative margin and this absolute cost floor — tiny inputs keep their
/// translated shape (and therefore their exact row order), since reordering
/// them cannot win anything measurable.
constexpr double kReorderBenefitFloor = 64.0;
/// Semijoin reducer gates: estimated survival fraction must be at most
/// this, the reduced input must have at least kReduceMinRows rows, and the
/// key source must not dwarf the input it reduces.
constexpr double kReduceMaxSurvival = 0.6;
constexpr double kReduceMinRows = 32.0;

// ---------------------------------------------------------------------------
// Expression walking
// ---------------------------------------------------------------------------

template <typename Fn>
void VisitColumnRefs(BoundExpr* e, const Fn& fn) {
  switch (e->kind) {
    case BoundExprKind::kColumnRef:
      fn(static_cast<BoundColumnRef*>(e));
      return;
    case BoundExprKind::kUnary:
      VisitColumnRefs(static_cast<BoundUnary*>(e)->operand.get(), fn);
      return;
    case BoundExprKind::kBinary: {
      auto* b = static_cast<BoundBinary*>(e);
      VisitColumnRefs(b->left.get(), fn);
      VisitColumnRefs(b->right.get(), fn);
      return;
    }
    case BoundExprKind::kScalarFunction:
      for (BoundExprPtr& a : static_cast<BoundScalarFunction*>(e)->args) {
        VisitColumnRefs(a.get(), fn);
      }
      return;
    case BoundExprKind::kIsNull:
      VisitColumnRefs(static_cast<BoundIsNull*>(e)->operand.get(), fn);
      return;
    case BoundExprKind::kLiteral:
    case BoundExprKind::kTconf:
      return;
  }
}

void ShiftColumnRefs(BoundExpr* e, size_t delta) {
  VisitColumnRefs(e, [delta](BoundColumnRef* c) { c->index += delta; });
}

void UnshiftColumnRefs(BoundExpr* e, size_t delta) {
  VisitColumnRefs(e, [delta](BoundColumnRef* c) { c->index -= delta; });
}

void MapColumnRefs(BoundExpr* e, const std::vector<size_t>& map) {
  VisitColumnRefs(e, [&map](BoundColumnRef* c) {
    if (c->index < map.size()) c->index = map[c->index];
  });
}

// ---------------------------------------------------------------------------
// Leaf estimation
// ---------------------------------------------------------------------------

/// Estimated properties of one join-region leaf, with (best-effort) column
/// stats threaded through filters and column-ref projections.
struct LeafEstimate {
  double rows = 1000;
  double width = 0;  ///< condition atoms per row
  std::vector<const ColumnStats*> cols;  ///< per output column; may be null
  std::vector<std::shared_ptr<const TableStats>> keep;  ///< keeps cols alive
};

const ColumnStats* SingleColumnStats(const BoundExpr& e, const LeafEstimate& est) {
  if (e.kind != BoundExprKind::kColumnRef) return nullptr;
  size_t idx = static_cast<const BoundColumnRef&>(e).index;
  return idx < est.cols.size() ? est.cols[idx] : nullptr;
}

/// Fraction of a column's [min, max] range a comparison with `lit` keeps.
double RangeFraction(const ColumnStats& cs, BinaryOp op, const Value& lit) {
  if (cs.min_v.is_null() || cs.max_v.is_null() || lit.is_null()) return 1.0 / 3;
  Result<double> lo = cs.min_v.ToDouble();
  Result<double> hi = cs.max_v.ToDouble();
  Result<double> v = lit.ToDouble();
  if (!lo.ok() || !hi.ok() || !v.ok()) return 1.0 / 3;
  double span = *hi - *lo;
  if (span <= 0) {
    // single-valued column: comparison keeps all or nothing
    bool keep = (op == BinaryOp::kLt && *lo < *v) || (op == BinaryOp::kLe && *lo <= *v) ||
                (op == BinaryOp::kGt && *lo > *v) || (op == BinaryOp::kGe && *lo >= *v);
    return keep ? 1.0 : 0.0;
  }
  double below = std::clamp((*v - *lo) / span, 0.0, 1.0);
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return below;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return 1.0 - below;
    default:
      return 1.0 / 3;
  }
}

double FilterSelectivity(const BoundExpr& e, const LeafEstimate& est);

double ComparisonSelectivity(const BoundBinary& b, const LeafEstimate& est) {
  const BoundExpr* col = b.left.get();
  const BoundExpr* other = b.right.get();
  BinaryOp op = b.op;
  if (col->kind != BoundExprKind::kColumnRef &&
      other->kind == BoundExprKind::kColumnRef) {
    std::swap(col, other);
    // flip the comparison direction along with the operands
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  const ColumnStats* cs = SingleColumnStats(*col, est);
  switch (op) {
    case BinaryOp::kEq: {
      if (cs != nullptr) return 1.0 / std::max(1.0, cs->Ndv());
      return 0.1;
    }
    case BinaryOp::kNe: {
      if (cs != nullptr) return 1.0 - 1.0 / std::max(1.0, cs->Ndv());
      return 0.9;
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (cs != nullptr && other->kind == BoundExprKind::kLiteral) {
        return RangeFraction(*cs, op, static_cast<const BoundLiteral*>(other)->value);
      }
      return 1.0 / 3;
    }
    default:
      return kDefaultSelectivity;
  }
}

double FilterSelectivity(const BoundExpr& e, const LeafEstimate& est) {
  double s = kDefaultSelectivity;
  switch (e.kind) {
    case BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      if (b.op == BinaryOp::kAnd) {
        s = FilterSelectivity(*b.left, est) * FilterSelectivity(*b.right, est);
      } else if (b.op == BinaryOp::kOr) {
        double l = FilterSelectivity(*b.left, est);
        double r = FilterSelectivity(*b.right, est);
        s = l + r - l * r;
      } else {
        s = ComparisonSelectivity(b, est);
      }
      break;
    }
    case BoundExprKind::kUnary: {
      const auto& u = static_cast<const BoundUnary&>(e);
      if (u.op == UnaryOp::kNot) s = 1.0 - FilterSelectivity(*u.operand, est);
      break;
    }
    case BoundExprKind::kIsNull: {
      const auto& n = static_cast<const BoundIsNull&>(e);
      const ColumnStats* cs = SingleColumnStats(*n.operand, est);
      if (cs != nullptr && est.rows > 0) {
        double frac = std::min(1.0, static_cast<double>(cs->null_count) / est.rows);
        s = n.negated ? 1.0 - frac : frac;
      } else {
        s = n.negated ? 0.9 : 0.1;
      }
      break;
    }
    case BoundExprKind::kLiteral: {
      const Value& v = static_cast<const BoundLiteral&>(e).value;
      s = IsTruthy(v) ? 1.0 : 0.0;
      break;
    }
    default:
      break;
  }
  return std::clamp(s, kMinSelectivity, 1.0);
}

/// Estimates one leaf chain and annotates every visited node's est_rows.
LeafEstimate EstimateLeaf(PlanNode* node, StatsCache* stats) {
  LeafEstimate out;
  switch (node->kind) {
    case PlanKind::kScan: {
      auto* scan = static_cast<ScanNode*>(node);
      if (stats != nullptr) {
        std::shared_ptr<const TableStats> ts = stats->Get(*scan->table);
        out.rows = static_cast<double>(ts->num_rows);
        out.width = ts->avg_condition_atoms;
        out.cols.resize(ts->columns.size());
        for (size_t i = 0; i < ts->columns.size(); ++i) out.cols[i] = &ts->columns[i];
        out.keep.push_back(std::move(ts));
      } else {
        out.rows = static_cast<double>(scan->table->NumRows());
        out.width = scan->table->uncertain() ? 1.0 : 0.0;
      }
      break;
    }
    case PlanKind::kFilter: {
      out = EstimateLeaf(node->children[0].get(), stats);
      out.rows *= FilterSelectivity(*static_cast<FilterNode*>(node)->predicate, out);
      break;
    }
    case PlanKind::kProject: {
      LeafEstimate child = EstimateLeaf(node->children[0].get(), stats);
      auto* p = static_cast<ProjectNode*>(node);
      out.rows = child.rows;
      out.width = p->has_tconf ? 0.0 : child.width;
      out.keep = std::move(child.keep);
      out.cols.resize(p->exprs.size(), nullptr);
      for (size_t i = 0; i < p->exprs.size(); ++i) {
        if (p->exprs[i]->kind == BoundExprKind::kColumnRef) {
          size_t src = static_cast<const BoundColumnRef&>(*p->exprs[i]).index;
          if (src < child.cols.size()) out.cols[i] = child.cols[src];
        }
      }
      break;
    }
    case PlanKind::kSort:
    case PlanKind::kDistinct: {
      out = EstimateLeaf(node->children[0].get(), stats);
      break;
    }
    case PlanKind::kLimit: {
      out = EstimateLeaf(node->children[0].get(), stats);
      int64_t limit = static_cast<LimitNode*>(node)->limit;
      if (limit >= 0) out.rows = std::min(out.rows, static_cast<double>(limit));
      break;
    }
    default: {
      // Opaque leaf (aggregate, union, possible, subquery semijoin, ...):
      // carry the first child's row estimate, drop column stats.
      if (!node->children.empty()) {
        LeafEstimate child = EstimateLeaf(node->children[0].get(), stats);
        out.rows = child.rows;
        out.keep = std::move(child.keep);
      }
      out.width = node->uncertain ? 1.0 : 0.0;
      break;
    }
  }
  out.cols.resize(node->output_schema.NumColumns(), nullptr);
  node->est_rows = out.rows;
  return out;
}

// ---------------------------------------------------------------------------
// Join-region representation
// ---------------------------------------------------------------------------

struct RegionLeaf {
  PlanNodePtr node;
  size_t offset = 0;    ///< column offset in the ORIGINAL concat order
  size_t num_cols = 0;
  LeafEstimate est;
  bool cheap = false;   ///< side-effect-free Scan/Filter/Project chain
};

struct RegionConjunct {
  BoundExprPtr expr;         ///< full predicate, original-absolute columns
  BoundExprPtr left, right;  ///< equi sides (original-absolute); else null
  uint64_t mask = 0;
  uint64_t left_mask = 0, right_mask = 0;
  double selectivity = kDefaultSelectivity;
  bool equi = false;
  bool attached = false;
};

bool ContainsMinting(const PlanNode& n) {
  if (n.kind == PlanKind::kRepairKey || n.kind == PlanKind::kPickTuples) return true;
  for (const PlanNodePtr& c : n.children) {
    if (ContainsMinting(*c)) return true;
  }
  return false;
}

size_t CountJoinLeaves(const PlanNode& n) {
  if (n.kind != PlanKind::kJoin) return 1;
  return CountJoinLeaves(*n.children[0]) + CountJoinLeaves(*n.children[1]);
}

bool IsCheapChain(const PlanNode& n) {
  switch (n.kind) {
    case PlanKind::kScan:
      return true;
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return IsCheapChain(*n.children[0]);
    default:
      return false;
  }
}

/// Deep-copies a Scan/Filter/Project chain (the only shapes IsCheapChain
/// accepts); returns null for anything else.
PlanNodePtr CloneCheapChain(const PlanNode& n) {
  PlanNodePtr out;
  switch (n.kind) {
    case PlanKind::kScan:
      out = std::make_unique<ScanNode>(static_cast<const ScanNode&>(n).table);
      break;
    case PlanKind::kFilter: {
      PlanNodePtr child = CloneCheapChain(*n.children[0]);
      if (child == nullptr) return nullptr;
      out = std::make_unique<FilterNode>(
          std::move(child), static_cast<const FilterNode&>(n).predicate->Clone());
      break;
    }
    case PlanKind::kProject: {
      PlanNodePtr child = CloneCheapChain(*n.children[0]);
      if (child == nullptr) return nullptr;
      const auto& p = static_cast<const ProjectNode&>(n);
      std::vector<BoundExprPtr> exprs;
      exprs.reserve(p.exprs.size());
      for (const BoundExprPtr& e : p.exprs) exprs.push_back(e->Clone());
      auto proj = std::make_unique<ProjectNode>(std::move(child), std::move(exprs),
                                                p.output_schema, p.uncertain);
      proj->has_tconf = p.has_tconf;
      out = std::move(proj);
      break;
    }
    default:
      return nullptr;
  }
  out->est_rows = n.est_rows;
  return out;
}

void SplitAndConjuncts(BoundExprPtr e, std::vector<RegionConjunct>* conjs) {
  if (e->kind == BoundExprKind::kBinary) {
    auto* b = static_cast<BoundBinary*>(e.get());
    if (b->op == BinaryOp::kAnd) {
      SplitAndConjuncts(std::move(b->left), conjs);
      SplitAndConjuncts(std::move(b->right), conjs);
      return;
    }
    if (b->op == BinaryOp::kEq) {
      // Tentative join edge; demoted unless the sides hit disjoint leaf
      // sets (this is what turns transitively-implied equalities buried in
      // residual predicates into real hash keys).
      RegionConjunct c;
      c.equi = true;
      c.left = b->left->Clone();
      c.right = b->right->Clone();
      c.expr = std::move(e);
      conjs->push_back(std::move(c));
      return;
    }
  }
  RegionConjunct c;
  c.expr = std::move(e);
  conjs->push_back(std::move(c));
}

/// Tears a maximal kJoin region into leaves + conjuncts. Key pairs and
/// residuals are rebased to original-absolute column indexes.
void FlattenJoin(PlanNodePtr node, size_t offset, std::vector<RegionLeaf>* leaves,
                 std::vector<RegionConjunct>* conjs) {
  if (node->kind != PlanKind::kJoin) {
    RegionLeaf leaf;
    leaf.offset = offset;
    leaf.num_cols = node->output_schema.NumColumns();
    leaf.node = std::move(node);
    leaves->push_back(std::move(leaf));
    return;
  }
  auto* join = static_cast<JoinNode*>(node.get());
  const size_t left_cols = join->children[0]->output_schema.NumColumns();
  std::vector<BoundExprPtr> lks = std::move(join->left_keys);
  std::vector<BoundExprPtr> rks = std::move(join->right_keys);
  BoundExprPtr residual = std::move(join->residual);
  PlanNodePtr lchild = std::move(join->children[0]);
  PlanNodePtr rchild = std::move(join->children[1]);
  FlattenJoin(std::move(lchild), offset, leaves, conjs);
  FlattenJoin(std::move(rchild), offset + left_cols, leaves, conjs);
  for (size_t i = 0; i < lks.size(); ++i) {
    ShiftColumnRefs(lks[i].get(), offset);
    ShiftColumnRefs(rks[i].get(), offset + left_cols);
    RegionConjunct c;
    c.equi = true;
    c.expr = std::make_unique<BoundBinary>(BinaryOp::kEq, lks[i]->Clone(),
                                           rks[i]->Clone(), TypeId::kBool);
    c.left = std::move(lks[i]);
    c.right = std::move(rks[i]);
    conjs->push_back(std::move(c));
  }
  if (residual != nullptr) {
    ShiftColumnRefs(residual.get(), offset);
    SplitAndConjuncts(std::move(residual), conjs);
  }
}

uint64_t LeafMaskOf(const BoundExpr& e, const std::vector<size_t>& col_leaf) {
  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  uint64_t m = 0;
  for (size_t c : cols) {
    if (c < col_leaf.size()) m |= uint64_t{1} << col_leaf[c];
  }
  return m;
}

/// NDV of a key-side expression over one leaf (column indexes are
/// original-absolute; `leaf` owns them).
double LeafExprNdv(const BoundExpr& e, const RegionLeaf& leaf) {
  if (e.kind == BoundExprKind::kColumnRef) {
    size_t rel = static_cast<const BoundColumnRef&>(e).index - leaf.offset;
    if (rel < leaf.est.cols.size() && leaf.est.cols[rel] != nullptr) {
      return std::max(1.0, std::min(leaf.est.cols[rel]->Ndv(), leaf.est.rows));
    }
  }
  return std::max(1.0, leaf.est.rows / 10.0);
}

double SideNdv(const BoundExpr& e, uint64_t mask, const std::vector<RegionLeaf>& leaves) {
  if (std::popcount(mask) == 1) {
    return LeafExprNdv(e, leaves[static_cast<size_t>(std::countr_zero(mask))]);
  }
  double rows = 1;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (mask & (uint64_t{1} << i)) rows = std::max(rows, leaves[i].est.rows);
  }
  return std::max(1.0, rows / 10.0);
}

// ---------------------------------------------------------------------------
// Join-order enumeration
// ---------------------------------------------------------------------------

struct EnumInput {
  std::vector<double> rows;
  std::vector<double> width;
  struct Edge {
    uint64_t mask = 0;
    uint64_t lm = 0, rm = 0;  ///< side masks (equi edges only)
    double sel = 1;
    bool equi = false;
  };
  std::vector<Edge> edges;
};

double RowsOf(uint64_t mask, const EnumInput& in) {
  double r = 1;
  for (size_t i = 0; i < in.rows.size(); ++i) {
    if (mask & (uint64_t{1} << i)) r *= in.rows[i];
  }
  for (const EnumInput::Edge& e : in.edges) {
    if (e.mask != 0 && (e.mask & ~mask) == 0) r *= e.sel;
  }
  return r;
}

double WidthOf(uint64_t mask, const EnumInput& in) {
  double w = 0;
  for (size_t i = 0; i < in.width.size(); ++i) {
    if (mask & (uint64_t{1} << i)) w += in.width[i];
  }
  return w;
}

/// True when extending `s` with leaf `j` binds at least one equi edge as a
/// hash key: one side entirely inside `s`, the other entirely on `j`.
bool Connected(uint64_t s, size_t j, const EnumInput& in) {
  const uint64_t jb = uint64_t{1} << j;
  for (const EnumInput::Edge& e : in.edges) {
    if (!e.equi || e.lm == 0 || e.rm == 0) continue;
    if (((e.lm & ~s) == 0 && e.rm == jb) || ((e.rm & ~s) == 0 && e.lm == jb)) {
      return true;
    }
  }
  return false;
}

double LeafCost(size_t i, const EnumInput& in) {
  return in.rows[i] * (1 + kLineageLambda * in.width[i]);
}

double StepCost(uint64_t s, size_t j, const EnumInput& in) {
  const uint64_t ns = s | (uint64_t{1} << j);
  double c = RowsOf(ns, in) * (1 + kLineageLambda * WidthOf(ns, in));
  c += LeafCost(j, in);  // reading the new input is not free
  if (!Connected(s, j, in)) c *= kCrossPenalty;
  return c;
}

double ChainCost(const std::vector<size_t>& order, const EnumInput& in) {
  double cost = LeafCost(order[0], in);
  uint64_t s = uint64_t{1} << order[0];
  for (size_t t = 1; t < order.size(); ++t) {
    cost += StepCost(s, order[t], in);
    s |= uint64_t{1} << order[t];
  }
  return cost;
}

/// Exhaustive left-deep DP over subsets. Deterministic: subsets ascending,
/// extension leaf ascending, strict-improvement replacement — cost ties
/// resolve toward the syntactic order.
std::vector<size_t> DpOrder(const EnumInput& in, uint64_t* considered) {
  const size_t n = in.rows.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best(full + 1, inf);
  std::vector<int> prev(full + 1, -1);
  for (size_t i = 0; i < n; ++i) best[uint64_t{1} << i] = LeafCost(i, in);
  for (uint64_t s = 1; s <= full; ++s) {
    if (best[s] == inf) continue;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t jb = uint64_t{1} << j;
      if (s & jb) continue;
      if (considered != nullptr) ++*considered;
      double c = best[s] + StepCost(s, j, in);
      if (c < best[s | jb]) {
        best[s | jb] = c;
        prev[s | jb] = static_cast<int>(j);
      }
    }
  }
  std::vector<size_t> order(n);
  uint64_t s = full;
  for (size_t t = n; t-- > 1;) {
    size_t j = static_cast<size_t>(prev[s]);
    order[t] = j;
    s ^= uint64_t{1} << j;
  }
  order[0] = static_cast<size_t>(std::countr_zero(s));
  return order;
}

/// Greedy insertion: cheapest starting pair, then cheapest extension.
std::vector<size_t> GreedyOrder(const EnumInput& in, uint64_t* considered) {
  const size_t n = in.rows.size();
  size_t bi = 0, bj = 1;
  double bcost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (considered != nullptr) ++*considered;
      double c = LeafCost(i, in) + StepCost(uint64_t{1} << i, j, in);
      if (c < bcost) {
        bcost = c;
        bi = i;
        bj = j;
      }
    }
  }
  std::vector<size_t> order = {bi, bj};
  uint64_t s = (uint64_t{1} << bi) | (uint64_t{1} << bj);
  while (order.size() < n) {
    size_t pick = n;
    double pc = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < n; ++j) {
      if (s & (uint64_t{1} << j)) continue;
      if (considered != nullptr) ++*considered;
      double c = StepCost(s, j, in);
      if (c < pc) {
        pc = c;
        pick = j;
      }
    }
    order.push_back(pick);
    s |= uint64_t{1} << pick;
  }
  return order;
}

std::vector<size_t> EnumerateOrder(const EnumInput& in, bool force_greedy,
                                   uint64_t* considered) {
  const size_t n = in.rows.size();
  std::vector<size_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = i;
  if (n <= 1 || n > 63) return identity;
  if (!force_greedy && n <= kDpMaxLeaves) return DpOrder(in, considered);
  return GreedyOrder(in, considered);
}

// ---------------------------------------------------------------------------
// Semijoin reduction
// ---------------------------------------------------------------------------

/// Wraps `target` (the join input for leaf `target_leaf`) in a
/// SemiJoinReduce fed by a clone of the best opposing key-source leaf, when
/// the survival estimate justifies it. `target_exprs[i]` / `source_exprs[i]`
/// are the pristine original-absolute key sides; `source_leaf[i]` is the
/// single leaf the source side binds to (SIZE_MAX when it spans several).
PlanNodePtr MaybeReduce(PlanNodePtr target, size_t target_leaf,
                        const std::vector<const BoundExpr*>& target_exprs,
                        const std::vector<const BoundExpr*>& source_exprs,
                        const std::vector<size_t>& source_leaf,
                        const std::vector<RegionLeaf>& leaves,
                        const std::vector<PlanNodePtr>& clones,
                        OptimizerCounters* counters) {
  std::vector<std::vector<size_t>> groups(leaves.size());
  bool any = false;
  for (size_t i = 0; i < target_exprs.size(); ++i) {
    size_t s = source_leaf[i];
    if (s == SIZE_MAX || s == target_leaf || clones[s] == nullptr) continue;
    groups[s].push_back(i);
    any = true;
  }
  if (!any) return target;

  size_t best = SIZE_MAX;
  for (size_t l = 0; l < groups.size(); ++l) {
    if (!groups[l].empty() && (best == SIZE_MAX || groups[l].size() > groups[best].size())) {
      best = l;
    }
  }
  const RegionLeaf& src = leaves[best];
  const RegionLeaf& tgt = leaves[target_leaf];
  double frac = 1.0;
  for (size_t i : groups[best]) {
    double nt = LeafExprNdv(*target_exprs[i], tgt);
    double ns = LeafExprNdv(*source_exprs[i], src);
    frac *= std::min(1.0, std::min(nt, ns) / nt);
  }
  if (!(frac <= kReduceMaxSurvival && tgt.est.rows >= kReduceMinRows &&
        src.est.rows <= 2 * tgt.est.rows + 64.0)) {
    ++counters->semijoins_skipped;
    return target;
  }
  PlanNodePtr source_clone = CloneCheapChain(*clones[best]);
  if (source_clone == nullptr) {
    ++counters->semijoins_skipped;
    return target;
  }

  std::vector<BoundExprPtr> proj_exprs;
  Schema proj_schema;
  for (size_t idx = 0; idx < groups[best].size(); ++idx) {
    BoundExprPtr e = source_exprs[groups[best][idx]]->Clone();
    UnshiftColumnRefs(e.get(), src.offset);
    proj_schema.AddColumn(Column{StringFormat("k%zu", idx), e->type});
    proj_exprs.push_back(std::move(e));
  }
  bool src_uncertain = source_clone->uncertain;
  auto key_source = std::make_unique<ProjectNode>(
      std::move(source_clone), std::move(proj_exprs), std::move(proj_schema),
      src_uncertain);
  key_source->est_rows = src.est.rows;

  double target_rows = target->est_rows >= 0 ? target->est_rows : tgt.est.rows;
  auto red = std::make_unique<SemiJoinReduceNode>(std::move(target), std::move(key_source));
  for (size_t i : groups[best]) {
    BoundExprPtr e = target_exprs[i]->Clone();
    UnshiftColumnRefs(e.get(), tgt.offset);
    red->keys.push_back(std::move(e));
  }
  red->est_rows = target_rows * frac;
  ++counters->semijoins_inserted;
  return red;
}

// ---------------------------------------------------------------------------
// Region driver: flatten, estimate, enumerate, rebuild
// ---------------------------------------------------------------------------

Status OptimizeNode(PlanNodePtr* node, StatsCache* stats, const ExecOptions& options,
                    OptimizerCounters* counters, bool allow_reorder);

Status OptimizeJoinRegion(PlanNodePtr* node, StatsCache* stats,
                          const ExecOptions& options, OptimizerCounters* counters,
                          bool allow_reorder) {
  // Regions containing variable-minting operators keep their exact shape
  // (minting order is engine-observable); oversized regions keep theirs too.
  if (ContainsMinting(**node) || CountJoinLeaves(**node) > kMaxRegionLeaves) {
    for (PlanNodePtr& child : (*node)->children) {
      MAYBMS_RETURN_NOT_OK(OptimizeNode(&child, stats, options, counters, allow_reorder));
    }
    return Status::OK();
  }

  const Schema original_schema = (*node)->output_schema;
  const bool original_uncertain = (*node)->uncertain;

  std::vector<RegionLeaf> leaves;
  std::vector<RegionConjunct> conjs;
  FlattenJoin(std::move(*node), 0, &leaves, &conjs);
  const size_t n = leaves.size();
  if (n == 1) {  // defensive; FlattenJoin on a join yields >= 2 leaves
    *node = std::move(leaves[0].node);
    return OptimizeNode(node, stats, options, counters, allow_reorder);
  }

  // Nested join regions below the leaves optimize independently.
  for (RegionLeaf& leaf : leaves) {
    for (PlanNodePtr& child : leaf.node->children) {
      MAYBMS_RETURN_NOT_OK(OptimizeNode(&child, stats, options, counters, allow_reorder));
    }
  }

  const size_t total_cols = leaves.back().offset + leaves.back().num_cols;
  std::vector<size_t> col_leaf(total_cols);
  for (size_t l = 0; l < n; ++l) {
    for (size_t c = 0; c < leaves[l].num_cols; ++c) col_leaf[leaves[l].offset + c] = l;
  }

  // Classify conjuncts against the leaf partition.
  for (RegionConjunct& c : conjs) {
    c.mask = LeafMaskOf(*c.expr, col_leaf);
    if (c.equi) {
      c.left_mask = LeafMaskOf(*c.left, col_leaf);
      c.right_mask = LeafMaskOf(*c.right, col_leaf);
      if (c.left_mask == 0 || c.right_mask == 0 || (c.left_mask & c.right_mask) != 0) {
        c.equi = false;
      }
    }
  }

  // Predicate pushdown: single-leaf conjuncts become leaf filters.
  {
    std::vector<RegionConjunct> rest;
    rest.reserve(conjs.size());
    for (RegionConjunct& c : conjs) {
      if (std::popcount(c.mask) == 1) {
        size_t l = static_cast<size_t>(std::countr_zero(c.mask));
        BoundExprPtr pred = std::move(c.expr);
        UnshiftColumnRefs(pred.get(), leaves[l].offset);
        leaves[l].node =
            std::make_unique<FilterNode>(std::move(leaves[l].node), std::move(pred));
      } else {
        rest.push_back(std::move(c));
      }
    }
    conjs = std::move(rest);
  }

  for (RegionLeaf& leaf : leaves) {
    leaf.est = EstimateLeaf(leaf.node.get(), stats);
    leaf.cheap = IsCheapChain(*leaf.node);
  }

  EnumInput in;
  in.rows.reserve(n);
  in.width.reserve(n);
  for (const RegionLeaf& leaf : leaves) {
    in.rows.push_back(std::max(leaf.est.rows, 0.0));
    in.width.push_back(std::max(leaf.est.width, 0.0));
  }
  for (RegionConjunct& c : conjs) {
    if (c.mask == 0) {
      c.selectivity = 1;  // constant predicate: cost-neutral
      continue;
    }
    c.selectivity = c.equi
                        ? 1.0 / std::max(1.0, std::max(SideNdv(*c.left, c.left_mask, leaves),
                                                       SideNdv(*c.right, c.right_mask, leaves)))
                        : kDefaultSelectivity;
    c.selectivity = std::clamp(c.selectivity, kMinSelectivity, 1.0);
    EnumInput::Edge edge;
    edge.mask = c.mask;
    edge.lm = c.left_mask;
    edge.rm = c.right_mask;
    edge.sel = c.selectivity;
    edge.equi = c.equi;
    in.edges.push_back(edge);
  }

  std::vector<size_t> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = i;
  std::vector<size_t> order = identity;
  if (allow_reorder) {
    uint64_t considered = 0;
    order = EnumerateOrder(in, /*force_greedy=*/false, &considered);
    counters->plans_considered += considered;
    if (order != identity) {
      // Only reorder for a clear win: tiny inputs keep the translated shape
      // (and its row order); at scale the margin is always met.
      double syntactic = ChainCost(identity, in);
      double chosen = ChainCost(order, in);
      if (!(chosen * 1.1 <= syntactic && syntactic - chosen >= kReorderBenefitFloor)) {
        order = identity;
      }
    }
  }
  if (order != identity) ++counters->reorders_applied;

  // Column position mapping: original-absolute -> rebuilt-absolute.
  std::vector<size_t> new_off(n);
  {
    size_t acc = 0;
    for (size_t t = 0; t < n; ++t) {
      new_off[order[t]] = acc;
      acc += leaves[order[t]].num_cols;
    }
  }
  std::vector<size_t> col_map(total_cols);
  for (size_t l = 0; l < n; ++l) {
    for (size_t c = 0; c < leaves[l].num_cols; ++c) {
      col_map[leaves[l].offset + c] = new_off[l] + c;
    }
  }

  // Pristine clone templates for semijoin key sources (cheap leaves only).
  std::vector<PlanNodePtr> clones(n);
  if (options.optimizer_semijoin) {
    for (size_t l = 0; l < n; ++l) {
      if (leaves[l].cheap) clones[l] = CloneCheapChain(*leaves[l].node);
    }
  }

  // Rebuild the left-deep chain, attaching every conjunct at the earliest
  // level where all its leaves are bound.
  PlanNodePtr cur = std::move(leaves[order[0]].node);
  uint64_t cur_mask = uint64_t{1} << order[0];
  for (size_t t = 1; t < n; ++t) {
    const size_t r = order[t];
    const uint64_t rbit = uint64_t{1} << r;
    const uint64_t ns = cur_mask | rbit;
    PlanNodePtr right = std::move(leaves[r].node);

    std::vector<BoundExprPtr> lkeys, rkeys;
    BoundExprPtr residual;
    std::vector<const BoundExpr*> key_leaf_side, key_acc_side;  // pristine
    std::vector<size_t> key_acc_leaf;  // single acc leaf or SIZE_MAX
    for (RegionConjunct& c : conjs) {
      if (c.attached || (c.mask & ~ns) != 0) continue;
      c.attached = true;
      bool as_key = false;
      if (c.equi) {
        const BoundExpr* acc = nullptr;
        const BoundExpr* leaf_side = nullptr;
        uint64_t acc_mask = 0;
        if ((c.left_mask & ~cur_mask) == 0 && c.right_mask == rbit) {
          acc = c.left.get();
          leaf_side = c.right.get();
          acc_mask = c.left_mask;
        } else if ((c.right_mask & ~cur_mask) == 0 && c.left_mask == rbit) {
          acc = c.right.get();
          leaf_side = c.left.get();
          acc_mask = c.right_mask;
        }
        if (acc != nullptr) {
          BoundExprPtr lk = acc->Clone();
          MapColumnRefs(lk.get(), col_map);
          BoundExprPtr rk = leaf_side->Clone();
          UnshiftColumnRefs(rk.get(), leaves[r].offset);
          lkeys.push_back(std::move(lk));
          rkeys.push_back(std::move(rk));
          key_leaf_side.push_back(leaf_side);
          key_acc_side.push_back(acc);
          key_acc_leaf.push_back(std::popcount(acc_mask) == 1
                                     ? static_cast<size_t>(std::countr_zero(acc_mask))
                                     : SIZE_MAX);
          as_key = true;
        }
      }
      if (!as_key) {
        BoundExprPtr e = std::move(c.expr);
        MapColumnRefs(e.get(), col_map);
        residual = residual == nullptr
                       ? std::move(e)
                       : std::make_unique<BoundBinary>(BinaryOp::kAnd, std::move(residual),
                                                       std::move(e), TypeId::kBool);
      }
    }

    if (options.optimizer_semijoin && !lkeys.empty()) {
      right = MaybeReduce(std::move(right), r, key_leaf_side, key_acc_side,
                          key_acc_leaf, leaves, clones, counters);
      if (t == 1) {
        // Symmetric reduction of the first leaf by the second's keys.
        std::vector<size_t> src(key_leaf_side.size(), r);
        cur = MaybeReduce(std::move(cur), order[0], key_acc_side, key_leaf_side,
                          src, leaves, clones, counters);
      }
    }

    Schema out_schema = Schema::Concat(cur->output_schema, right->output_schema);
    bool out_uncertain = cur->uncertain || right->uncertain;
    auto join = std::make_unique<JoinNode>(std::move(cur), std::move(right),
                                           std::move(out_schema), out_uncertain);
    join->left_keys = std::move(lkeys);
    join->right_keys = std::move(rkeys);
    join->residual = std::move(residual);
    join->est_rows = RowsOf(ns, in);
    cur = std::move(join);
    cur_mask = ns;
  }

  if (order != identity) {
    // Restore the original column order for everything above the region.
    double final_est = cur->est_rows;
    std::vector<BoundExprPtr> exprs;
    exprs.reserve(total_cols);
    for (size_t c = 0; c < total_cols; ++c) {
      const Column& col = original_schema.column(c);
      exprs.push_back(std::make_unique<BoundColumnRef>(col_map[c], col.type, col.name));
    }
    auto proj = std::make_unique<ProjectNode>(std::move(cur), std::move(exprs),
                                              original_schema, original_uncertain);
    proj->est_rows = final_est;
    cur = std::move(proj);
  }
  *node = std::move(cur);
  return Status::OK();
}

Status OptimizeNode(PlanNodePtr* node, StatsCache* stats, const ExecOptions& options,
                    OptimizerCounters* counters, bool allow_reorder) {
  if ((*node)->kind == PlanKind::kJoin) {
    return OptimizeJoinRegion(node, stats, options, counters, allow_reorder);
  }
  for (PlanNodePtr& child : (*node)->children) {
    MAYBMS_RETURN_NOT_OK(OptimizeNode(&child, stats, options, counters, allow_reorder));
  }
  if ((*node)->kind == PlanKind::kScan && (*node)->est_rows < 0 && stats != nullptr) {
    (*node)->est_rows = static_cast<double>(
        stats->Get(*static_cast<ScanNode*>(node->get())->table)->num_rows);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Access-path selection (index scans)
// ---------------------------------------------------------------------------

/// Tables below this size always sequential-scan: the index cannot win
/// anything measurable, and stable tiny-table plans keep EXPLAIN output
/// (and row order) boring.
constexpr double kIndexScanMinRows = 64.0;

/// Splits a predicate into AND-conjuncts (borrowed pointers into the tree).
void CollectAndConjuncts(const BoundExpr* e, std::vector<const BoundExpr*>* out) {
  if (e->kind == BoundExprKind::kBinary) {
    const auto* b = static_cast<const BoundBinary*>(e);
    if (b->op == BinaryOp::kAnd) {
      CollectAndConjuncts(b->left.get(), out);
      CollectAndConjuncts(b->right.get(), out);
      return;
    }
  }
  out->push_back(e);
}

/// Matches `<column> op <literal>` (either side order; the op is flipped
/// when the literal is on the left) for the sargable comparison ops. NULL
/// literals never match — `col = NULL` keeps no rows, and the B+ tree does
/// not store null keys.
bool MatchSargableComparison(const BoundExpr& e, size_t* col, BinaryOp* op,
                             const Value** lit) {
  if (e.kind != BoundExprKind::kBinary) return false;
  const auto& b = static_cast<const BoundBinary&>(e);
  const BoundExpr* c = b.left.get();
  const BoundExpr* o = b.right.get();
  BinaryOp p = b.op;
  if (c->kind != BoundExprKind::kColumnRef && o->kind == BoundExprKind::kColumnRef) {
    std::swap(c, o);
    switch (p) {
      case BinaryOp::kLt: p = BinaryOp::kGt; break;
      case BinaryOp::kLe: p = BinaryOp::kGe; break;
      case BinaryOp::kGt: p = BinaryOp::kLt; break;
      case BinaryOp::kGe: p = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (c->kind != BoundExprKind::kColumnRef || o->kind != BoundExprKind::kLiteral) {
    return false;
  }
  switch (p) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return false;
  }
  const Value& v = static_cast<const BoundLiteral*>(o)->value;
  if (v.is_null()) return false;
  *col = static_cast<const BoundColumnRef*>(c)->index;
  *op = p;
  *lit = &v;
  return true;
}

/// Per-column key range assembled from the filter's sargable conjuncts.
struct ColumnBounds {
  std::optional<Value> lo;
  std::optional<Value> hi;
  std::vector<const BoundExpr*> conjuncts;  ///< the matched conjuncts
};

/// Rewrites a Filter chain over a Scan into the same chain over an
/// IndexScan when an index covers a bounded column and the cost model
/// favors it. The filters' predicates are
/// left untouched — it re-checks every candidate row, which is what makes
/// the rewrite answer-preserving by construction (the index only needs to
/// return a superset in table order; boundary inclusivity, type coercion
/// and string-key truncation all wash out in the recheck).
Status ApplyAccessPaths(PlanNodePtr* node, StatsCache* stats,
                        IndexManager* indexes, OptimizerCounters* counters) {
  // Predicate pushdown stacks one Filter per pushed conjunct, so a range
  // predicate arrives as Filter(k < hi, Filter(k >= lo, Scan)). The whole
  // chain must be seen at once — bounds from every layer tighten the index
  // range — so the chain is claimed at its topmost Filter, before the
  // generic child recursion would rewrite the innermost layer alone.
  std::vector<FilterNode*> chain;
  if ((*node)->kind == PlanKind::kFilter) {
    PlanNode* cursor = node->get();
    while (cursor->kind == PlanKind::kFilter) {
      chain.push_back(static_cast<FilterNode*>(cursor));
      cursor = cursor->children[0].get();
    }
    if (cursor->kind != PlanKind::kScan) chain.clear();
  }
  if (chain.empty()) {
    for (PlanNodePtr& child : (*node)->children) {
      MAYBMS_RETURN_NOT_OK(ApplyAccessPaths(&child, stats, indexes, counters));
    }
    return Status::OK();
  }
  auto* scan = static_cast<ScanNode*>(chain.back()->children[0].get());
  const double nrows = static_cast<double>(scan->table->NumRows());
  if (nrows < kIndexScanMinRows) return Status::OK();

  std::vector<const BoundExpr*> conjuncts;
  for (FilterNode* f : chain) {
    CollectAndConjuncts(f->predicate.get(), &conjuncts);
  }
  // std::map: deterministic candidate order by column index.
  std::map<size_t, ColumnBounds> by_column;
  for (const BoundExpr* conj : conjuncts) {
    size_t col = 0;
    BinaryOp op = BinaryOp::kEq;
    const Value* lit = nullptr;
    if (!MatchSargableComparison(*conj, &col, &op, &lit)) continue;
    ColumnBounds& b = by_column[col];
    // Intersect into the closed interval: eq tightens both sides; strict
    // bounds are kept closed (the recheck excludes the boundary rows).
    if (op == BinaryOp::kEq || op == BinaryOp::kGt || op == BinaryOp::kGe) {
      if (!b.lo.has_value() || lit->Compare(*b.lo) > 0) b.lo = *lit;
    }
    if (op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe) {
      if (!b.hi.has_value() || lit->Compare(*b.hi) < 0) b.hi = *lit;
    }
    b.conjuncts.push_back(conj);
  }
  if (by_column.empty()) return Status::OK();

  // Cost each indexed candidate column: tree height (page reads to reach
  // the first leaf) plus the estimated candidate rows fetched, against the
  // full-scan cost of nrows. The estimate reuses the filter-selectivity
  // machinery over the table's KMV-sketch column stats.
  LeafEstimate est = EstimateLeaf(scan, stats);
  size_t best_col = SIZE_MAX;
  double best_cost = nrows / 4.0;  // rewrite only on a clear win
  double best_rows = nrows;
  SecondaryIndexPtr best_index;
  for (const auto& [col, b] : by_column) {
    SecondaryIndexPtr index = indexes->FindOn(scan->table->name(), col);
    if (index == nullptr) continue;
    double sel = 1.0;
    for (const BoundExpr* conj : b.conjuncts) {
      sel *= FilterSelectivity(*conj, est);
    }
    const double est_rows = nrows * std::clamp(sel, kMinSelectivity, 1.0);
    const double cost = static_cast<double>(index->stats().height) + est_rows;
    if (cost < best_cost) {
      best_cost = cost;
      best_rows = est_rows;
      best_col = col;
      best_index = index;
    }
  }
  if (best_col == SIZE_MAX) return Status::OK();

  const ColumnBounds& b = by_column[best_col];
  auto index_scan = std::make_unique<IndexScanNode>(
      scan->table, best_index->def().name, best_col);
  index_scan->lo = b.lo;
  index_scan->hi = b.hi;
  index_scan->est_rows = best_rows;
  chain.back()->children[0] = std::move(index_scan);
  // The chain's estimates were taken against the whole table; no filter
  // keeps more rows than its (now index-narrowed) input.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const double child_est = (*it)->children[0]->est_rows;
    if ((*it)->est_rows >= 0 && child_est >= 0) {
      (*it)->est_rows = std::min((*it)->est_rows, child_est);
    }
  }
  ++counters->index_scans;
  return Status::OK();
}

}  // namespace

std::vector<size_t> ChooseJoinOrder(const std::vector<JoinLeafInfo>& leaves,
                                    const std::vector<JoinEdgeInfo>& edges,
                                    bool force_greedy, uint64_t* plans_considered) {
  EnumInput in;
  in.rows.reserve(leaves.size());
  in.width.reserve(leaves.size());
  for (const JoinLeafInfo& l : leaves) {
    in.rows.push_back(std::max(l.rows, 0.0));
    in.width.push_back(std::max(l.width, 0.0));
  }
  for (const JoinEdgeInfo& e : edges) {
    if (e.a >= leaves.size() || e.b >= leaves.size() || e.a == e.b) continue;
    EnumInput::Edge edge;
    edge.lm = uint64_t{1} << e.a;
    edge.rm = uint64_t{1} << e.b;
    edge.mask = edge.lm | edge.rm;
    edge.sel = std::clamp(e.selectivity, kMinSelectivity, 1.0);
    edge.equi = true;
    in.edges.push_back(edge);
  }
  return EnumerateOrder(in, force_greedy, plans_considered);
}

Status OptimizePlan(PlanNodePtr* plan, StatsCache* stats, const ExecOptions& options,
                    OptimizerCounters* counters, IndexManager* indexes) {
  if (plan == nullptr || *plan == nullptr || !options.optimizer) return Status::OK();
  OptimizerCounters local;
  if (counters == nullptr) counters = &local;
  // Any variable-minting operator in the statement pins row order everywhere
  // below it (pick-tuples mints one variable per input row, in input order),
  // so such statements keep their join order and only gain pushdown, key
  // promotion, and cardinality annotations.
  const bool allow_reorder = !ContainsMinting(**plan);
  MAYBMS_RETURN_NOT_OK(OptimizeNode(plan, stats, options, counters, allow_reorder));
  // Access paths run last, over the final tree shape: join-region pushdown
  // has already planted single-leaf conjuncts as Filter(Scan), exactly the
  // sites this pass upgrades.
  if (options.use_indexes && indexes != nullptr) {
    MAYBMS_RETURN_NOT_OK(ApplyAccessPaths(plan, stats, indexes, counters));
  }
  return Status::OK();
}

}  // namespace maybms
