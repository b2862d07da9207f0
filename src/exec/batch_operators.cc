#include "src/exec/batch_operators.h"

#include "src/exec/conf_fallback.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>

#include "src/common/row_index.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/cond/posterior.h"
#include "src/conf/karp_luby.h"
#include "src/exec/key_table.h"
#include "src/exec/vector_expression.h"
#include "src/lineage/compiled_dnf.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/columnar.h"

namespace maybms {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

bool TruthyCell(const ColumnVector& mask, size_t k) {
  if (!mask.boxed() && mask.type() == TypeId::kBool) {
    return !mask.IsNull(k) && mask.BoolData()[k] != 0;
  }
  return IsTruthy(mask.GetValue(k));
}

ConditionColumn GatherConditions(const ConditionColumn& in,
                                 const std::vector<uint32_t>& sel) {
  ConditionColumn out;
  if (in.AllTrue()) {
    for (size_t i = 0; i < sel.size(); ++i) out.AppendTrue();
    return out;
  }
  for (uint32_t i : sel) out.AppendFrom(in, i);
  return out;
}

Batch GatherBatch(const Batch& in, const std::vector<uint32_t>& sel) {
  Batch out;
  out.columns.reserve(in.columns.size());
  for (const ColumnVectorPtr& col : in.columns) {
    out.columns.push_back(std::make_shared<ColumnVector>(col->Gather(sel)));
  }
  out.conditions = GatherConditions(in.conditions, sel);
  out.num_rows = sel.size();
  return out;
}

/// Filters a batch by a predicate: evaluates it vectorized, keeps truthy
/// rows. Passes the batch through untouched when every row survives.
Result<Batch> FilterBatch(const BoundExpr& pred, Batch in) {
  MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr mask, EvalVector(pred, in));
  std::vector<uint32_t> sel;
  sel.reserve(in.num_rows);
  for (size_t k = 0; k < in.num_rows; ++k) {
    if (TruthyCell(*mask, k)) sel.push_back(static_cast<uint32_t>(k));
  }
  if (sel.size() == in.num_rows) return in;
  return GatherBatch(in, sel);
}

// ---------------------------------------------------------------------------
// Parallel execution helpers (morsel-driven)
//
// With ExecContext::pool set (ExecOptions::num_threads > 1), operators
// split their input into row morsels and fan pure per-morsel work out on
// the pool. Three invariants keep the parallel engine bit-for-bit equal to
// the serial one at every thread count:
//   1. children are always DRAINED serially (side effects — repair-key /
//      pick-tuples variable registration — keep their order);
//   2. morsel boundaries depend only on the input and morsel_size, never
//      on the thread count;
//   3. per-morsel results land in indexed slots and fold in morsel order.
// ---------------------------------------------------------------------------

size_t MorselRows(const ExecContext* ctx) {
  size_t m = ctx->options->morsel_size;
  return m == 0 ? std::numeric_limits<size_t>::max() : m;
}

/// Gathers rows [begin, end) of a batch into a fresh one. Only reached for
/// strict sub-ranges (DrainMorsels moves whole batches through untouched),
/// i.e. when morsel_size undercuts the scan chunk size — a testing/tuning
/// knob that pays a copy.
Batch SliceBatch(const Batch& in, size_t begin, size_t end) {
  std::vector<uint32_t> sel;
  sel.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) sel.push_back(static_cast<uint32_t>(i));
  return GatherBatch(in, sel);
}

// ---------------------------------------------------------------------------
// Operator interface
// ---------------------------------------------------------------------------

class BatchOperator {
 public:
  virtual ~BatchOperator() = default;
  /// Fills *out with the next batch; returns false when exhausted.
  virtual Result<bool> Next(Batch* out) = 0;
};

using BatchOperatorPtr = std::unique_ptr<BatchOperator>;

Result<BatchOperatorPtr> BuildOperator(const PlanNode& plan, ExecContext* ctx);

/// Base for pipeline breakers: Compute() materializes everything on the
/// first pull, then batches are handed out one by one.
class MaterializedOperator : public BatchOperator {
 public:
  Result<bool> Next(Batch* out) override {
    if (!computed_) {
      MAYBMS_RETURN_NOT_OK(Compute());
      computed_ = true;
    }
    if (cursor_ >= ready_.size()) return false;
    *out = std::move(ready_[cursor_++]);
    return true;
  }

 protected:
  virtual Status Compute() = 0;

  std::vector<Batch> ready_;

 private:
  bool computed_ = false;
  size_t cursor_ = 0;
};

/// A fully drained child: its batches plus flat row -> (batch, index) maps
/// and the concatenated condition column (pipeline breakers work over it).
struct Drained {
  std::vector<Batch> batches;
  std::vector<uint32_t> row_batch;
  std::vector<uint32_t> row_idx;
  ConditionColumn conds;
  size_t num_rows = 0;

  Value GetValue(size_t col, size_t row) const {
    return batches[row_batch[row]].columns[col]->GetValue(row_idx[row]);
  }
};

/// `concat_conds` controls whether the per-batch conditions are also
/// concatenated into Drained::conds — callers that read conditions from the
/// batches directly (the hash join) skip the copy.
Result<Drained> DrainAll(BatchOperator* child, bool concat_conds = true) {
  Drained d;
  Batch b;
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(bool more, child->Next(&b));
    if (!more) break;
    uint32_t bi = static_cast<uint32_t>(d.batches.size());
    for (size_t i = 0; i < b.num_rows; ++i) {
      d.row_batch.push_back(bi);
      d.row_idx.push_back(static_cast<uint32_t>(i));
      if (concat_conds) d.conds.AppendFrom(b.conditions, i);
    }
    d.num_rows += b.num_rows;
    d.batches.push_back(std::move(b));
    b = Batch();
  }
  return d;
}

/// Drains the child (serially — side-effect order) and splits its batches
/// into morsels of at most `morsel_rows` rows, preserving row order.
Result<std::vector<Batch>> DrainMorsels(BatchOperator* child, size_t morsel_rows) {
  std::vector<Batch> morsels;
  Batch b;
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(bool more, child->Next(&b));
    if (!more) break;
    if (b.num_rows <= morsel_rows) {
      morsels.push_back(std::move(b));
    } else {
      for (size_t begin = 0; begin < b.num_rows; begin += morsel_rows) {
        morsels.push_back(
            SliceBatch(b, begin, std::min(b.num_rows, begin + morsel_rows)));
      }
    }
    b = Batch();
  }
  return morsels;
}

/// Evaluates an expression over every drained batch; with a pool the
/// batches evaluate concurrently (expression evaluation is pure), results
/// land in per-batch slots either way.
Result<std::vector<ColumnVectorPtr>> EvalPerBatch(const BoundExpr& expr,
                                                  const Drained& d,
                                                  ThreadPool* pool = nullptr) {
  std::vector<ColumnVectorPtr> out(d.batches.size());
  if (pool == nullptr) {
    for (size_t i = 0; i < d.batches.size(); ++i) {
      MAYBMS_ASSIGN_OR_RETURN(out[i], EvalVector(expr, d.batches[i]));
    }
    return out;
  }
  MAYBMS_RETURN_NOT_OK(pool->ParallelForStatus(0, d.batches.size(), [&](size_t i) {
    MAYBMS_ASSIGN_OR_RETURN(out[i], EvalVector(expr, d.batches[i]));
    return Status::OK();
  }));
  return out;
}

/// An output batch under construction: columns typed per the output schema,
/// values appended row-wise by scatter-style operators (joins etc.).
Batch AllocateOutput(const Schema& schema) { return Batch::Allocate(schema, 0); }

// ---------------------------------------------------------------------------
// Scan: hands out the table's cached columnar chunks, sharing columns.
// ---------------------------------------------------------------------------

class ScanOp : public BatchOperator {
 public:
  explicit ScanOp(const ScanNode& node) : columnar_(node.table->Columnar()) {}

  Result<bool> Next(Batch* out) override {
    if (chunk_ >= columnar_->chunks.size()) return false;
    const Batch& src = *columnar_->chunks[chunk_++];
    out->columns = src.columns;  // shared; downstream operators never mutate
    out->conditions = src.conditions;
    out->num_rows = src.num_rows;
    return true;
  }

 private:
  std::shared_ptr<const ColumnarTable> columnar_;
  size_t chunk_ = 0;
};

// ---------------------------------------------------------------------------
// IndexScan: pulls the candidate row ids from the B+ tree (ascending, so
// emission order matches ScanOp's) and gathers the rows into fresh batches.
// The parent Filter re-checks its full predicate over these candidates,
// which is what keeps Filter(IndexScan) bit-identical to Filter(Scan).
// ---------------------------------------------------------------------------

class IndexScanOp : public BatchOperator {
 public:
  IndexScanOp(const IndexScanNode& node, ExecContext* ctx)
      : node_(node), ctx_(ctx) {}

  Result<bool> Next(Batch* out) override {
    if (!initialized_) {
      initialized_ = true;
      SecondaryIndexPtr index =
          ctx_->catalog->index_manager().Find(node_.index_name);
      if (index != nullptr) {
        MAYBMS_RETURN_NOT_OK(
            index->Lookup(*node_.table, node_.lo, node_.hi, &ids_, ctx_->metrics));
      } else {
        // Index dropped between planning and execution: degrade to a full
        // scan's candidate set (the filter still produces exact answers).
        ids_.resize(node_.table->NumRows());
        for (size_t i = 0; i < ids_.size(); ++i) ids_[i] = i;
      }
    }
    const std::vector<Row>& rows = node_.table->rows();
    if (pos_ >= ids_.size()) return false;
    const size_t n = std::min(Batch::kDefaultCapacity, ids_.size() - pos_);
    Batch b = Batch::Allocate(node_.table->schema(), n);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t id = ids_[pos_ + i];
      if (id < rows.size()) b.AppendRow(rows[static_cast<size_t>(id)]);
    }
    pos_ += n;
    if (b.num_rows == 0) return Next(out);  // all ids stale; try next slice
    *out = std::move(b);
    return true;
  }

 private:
  const IndexScanNode& node_;
  ExecContext* ctx_;
  bool initialized_ = false;
  std::vector<uint64_t> ids_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

class FilterOp : public BatchOperator {
 public:
  FilterOp(BatchOperatorPtr child, const BoundExpr* pred)
      : child_(std::move(child)), pred_(pred) {}

  Result<bool> Next(Batch* out) override {
    Batch in;
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) return false;
      MAYBMS_ASSIGN_OR_RETURN(Batch filtered, FilterBatch(*pred_, std::move(in)));
      if (filtered.num_rows == 0) {
        in = Batch();
        continue;
      }
      *out = std::move(filtered);
      return true;
    }
  }

 private:
  BatchOperatorPtr child_;
  const BoundExpr* pred_;
};

// ---------------------------------------------------------------------------
// Morsel-driven parallel map: the parallel engine's Filter and Project.
// Drains the child, splits into morsels, applies the (pure, thread-safe)
// transform per morsel on the pool, and emits the surviving results in
// morsel order — bit-for-bit the serial operators' output order. Trades
// streaming for parallelism: the morsels (and their transforms) are
// resident at once, like the engine's other pipeline breakers.
// ---------------------------------------------------------------------------

class MorselMapOp : public MaterializedOperator {
 public:
  // trace_node_ is captured at build time: ctx->trace_parent points at THIS
  // operator's trace node while its plan node is being built, but the field
  // is rewound as the build recursion unwinds — Compute() runs much later.
  MorselMapOp(BatchOperatorPtr child, ExecContext* ctx)
      : child_(std::move(child)), ctx_(ctx), trace_node_(ctx->trace_parent) {}

 protected:
  // Morsels are single-use: taken by value so transforms move instead of
  // copying the condition column.
  virtual Result<Batch> Transform(Batch morsel) const = 0;

  Status Compute() override {
    MAYBMS_ASSIGN_OR_RETURN(std::vector<Batch> morsels,
                            DrainMorsels(child_.get(), MorselRows(ctx_)));
    size_t n = morsels.size();
    if (ctx_->metrics != nullptr) {
      ctx_->metrics->Add(Counter::kBatchMorsels, n);
    }
    if (trace_node_ != nullptr) trace_node_->morsels += n;
    std::vector<Batch> outs(n);
    MAYBMS_RETURN_NOT_OK(ctx_->pool->ParallelForStatus(0, n, [&](size_t i) {
      MAYBMS_ASSIGN_OR_RETURN(outs[i], Transform(std::move(morsels[i])));
      return Status::OK();
    }));
    for (Batch& out : outs) {
      if (out.num_rows > 0) ready_.push_back(std::move(out));
    }
    return Status::OK();
  }

  BatchOperatorPtr child_;
  ExecContext* ctx_;
  TraceNode* trace_node_;
};

class ParallelFilterOp final : public MorselMapOp {
 public:
  ParallelFilterOp(BatchOperatorPtr child, const BoundExpr* pred, ExecContext* ctx)
      : MorselMapOp(std::move(child), ctx), pred_(pred) {}

 protected:
  Result<Batch> Transform(Batch morsel) const override {
    return FilterBatch(*pred_, std::move(morsel));
  }

 private:
  const BoundExpr* pred_;
};

// ---------------------------------------------------------------------------
// Project (including tconf(): per-row marginal probability from the
// condition column, output t-certain)
// ---------------------------------------------------------------------------

// One batch through a projection: shared by the serial (streaming) and
// parallel (morsel-map) operators. Reads the world table and constraint
// store only through const lookups, so it is safe to run concurrently on
// distinct batches.
Result<Batch> ProjectBatch(const ProjectNode& node, const ExecContext& ctx,
                           Batch in) {
  const WorldTable& wt = ctx.worlds();
  const ConstraintStore& cs = ctx.constraints();
  Batch out;
  out.columns.reserve(node.exprs.size());
  for (const BoundExprPtr& e : node.exprs) {
    if (e->kind == BoundExprKind::kTconf) {
      // tconf(): the marginal probability of this tuple in isolation —
      // the product of its condition's atom probabilities (§2.2),
      // computed straight off the packed condition spans. Under asserted
      // evidence this becomes the posterior marginal P(cond | C).
      auto col = std::make_shared<ColumnVector>(TypeId::kDouble);
      col->Reserve(in.num_rows);
      for (size_t k = 0; k < in.num_rows; ++k) {
        AtomSpan span = in.conditions.Span(k);
        MAYBMS_ASSIGN_OR_RETURN(
            double p, PosteriorConditionProb(span.data, span.size, cs, wt,
                                             ctx.options->exact));
        col->AppendDouble(p);
      }
      out.columns.push_back(std::move(col));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*e, in));
      out.columns.push_back(std::move(col));
    }
  }
  out.num_rows = in.num_rows;
  if (node.has_tconf) {
    // tconf() maps uncertain to t-certain: conditions are consumed.
    for (size_t k = 0; k < in.num_rows; ++k) out.conditions.AppendTrue();
  } else {
    out.conditions = std::move(in.conditions);
  }
  return out;
}

class ProjectOp : public BatchOperator {
 public:
  ProjectOp(BatchOperatorPtr child, const ProjectNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

  Result<bool> Next(Batch* out) override {
    Batch in;
    MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    MAYBMS_ASSIGN_OR_RETURN(*out, ProjectBatch(node_, *ctx_, std::move(in)));
    return true;
  }

 private:
  BatchOperatorPtr child_;
  const ProjectNode& node_;
  ExecContext* ctx_;
};

class ParallelProjectOp final : public MorselMapOp {
 public:
  ParallelProjectOp(BatchOperatorPtr child, const ProjectNode& node,
                    ExecContext* ctx)
      : MorselMapOp(std::move(child), ctx), node_(node) {}

 protected:
  Result<Batch> Transform(Batch morsel) const override {
    return ProjectBatch(node_, *ctx_, std::move(morsel));
  }

 private:
  const ProjectNode& node_;
};

// ---------------------------------------------------------------------------
// Join: hash join (equi-keys) or cross product, with the parsimonious
// condition merge and an optional residual predicate.
// ---------------------------------------------------------------------------

/// Evaluates key expressions over a batch.
Result<KeyColumns> EvalKeys(const std::vector<BoundExprPtr>& exprs, const Batch& b) {
  KeyColumns keys;
  keys.reserve(exprs.size());
  for (const BoundExprPtr& e : exprs) {
    MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*e, b));
    keys.push_back(std::move(col));
  }
  return keys;
}

/// Appends the columns of `src` at sel[0..n) to out's columns from `first`
/// on (selection-vector gather; the caller owns conditions and num_rows).
void AppendColumns(const Batch& src, const uint32_t* sel, size_t n, size_t first,
                   Batch* out) {
  for (size_t c = 0; c < src.columns.size(); ++c) {
    out->columns[first + c]->AppendSelected(*src.columns[c], sel, n);
  }
}

/// Probe rows the key table's range filter dropped: shown on the keyed
/// operator's EXPLAIN ANALYZE line and counted in the registry.
void ReportRangeSkipped(ExecContext* ctx, TraceNode* node, uint64_t n) {
  if (n == 0) return;
  if (ctx->metrics != nullptr) ctx->metrics->Add(Counter::kJoinRangeSkippedRows, n);
  if (node != nullptr) node->range_skipped += static_cast<int64_t>(n);
}

/// Marks `node` as a keyed operator's, so EXPLAIN ANALYZE shows its
/// range_skipped count even when it is zero.
TraceNode* KeyedTraceNode(ExecContext* ctx) {
  TraceNode* node = ctx->trace_parent;
  if (node != nullptr) node->range_skipped = 0;
  return node;
}

class JoinOp : public BatchOperator {
 public:
  // trace_node_ is captured at build time (see MorselMapOp).
  JoinOp(BatchOperatorPtr left, BatchOperatorPtr right, const JoinNode& node,
         ExecContext* ctx)
      : left_(std::move(left)),
        right_(std::move(right)),
        node_(node),
        ctx_(ctx),
        trace_node_(node.left_keys.empty() ? nullptr : KeyedTraceNode(ctx)) {}

  Result<bool> Next(Batch* out) override {
    if (!built_) {
      MAYBMS_RETURN_NOT_OK(Build());
      built_ = true;
    }
    Batch in;
    while (true) {
      // Parallel probes yield one output batch per left-row morsel; hand
      // them out in morsel order (batch boundaries are semantically
      // invisible — row order is what parity pins down).
      if (!pending_.empty()) {
        *out = std::move(pending_.front());
        pending_.pop_front();
        return true;
      }
      MAYBMS_ASSIGN_OR_RETURN(bool more, left_->Next(&in));
      if (!more) return false;
      MAYBMS_ASSIGN_OR_RETURN(std::vector<Batch> joined, JoinLeftBatch(in));
      for (Batch& b : joined) {
        if (node_.residual != nullptr && b.num_rows > 0) {
          MAYBMS_ASSIGN_OR_RETURN(b, FilterBatch(*node_.residual, std::move(b)));
        }
        if (b.num_rows > 0) pending_.push_back(std::move(b));
      }
      in = Batch();
    }
  }

 private:
  // Joined (left row, global right row) pairs whose conditions merged
  // consistently; their merged conditions are already in the output. At
  // most kEmitChunk pairs wait for their values, so a cross product's
  // pair lists stay small.
  static constexpr size_t kEmitChunk = 4096;
  struct Pairs {
    std::vector<uint32_t> left;
    std::vector<uint32_t> right;
  };

  Status Build() {
    // EmitPairs reads conditions from the per-batch columns; skip the
    // concatenated copy.
    MAYBMS_ASSIGN_OR_RETURN(right_data_,
                            DrainAll(right_.get(), /*concat_conds=*/false));
    if (node_.left_keys.empty()) return Status::OK();  // cross product
    // Key columns evaluate per batch (on the pool when there is one).
    const std::vector<Batch>& batches = right_data_.batches;
    std::vector<KeyColumns> keys(batches.size());
    auto eval = [&](size_t i) -> Status {
      MAYBMS_ASSIGN_OR_RETURN(keys[i], EvalKeys(node_.right_keys, batches[i]));
      return Status::OK();
    };
    if (ctx_->pool != nullptr) {
      MAYBMS_RETURN_NOT_OK(ctx_->pool->ParallelForStatus(0, batches.size(), eval));
    } else {
      for (size_t i = 0; i < batches.size(); ++i) MAYBMS_RETURN_NOT_OK(eval(i));
    }
    keys_ = KeyTable(node_.right_keys.size(), std::move(keys));
    keys_.BuildAllRows(ctx_->pool);
    return Status::OK();
  }

  // Merges the conditions of left row `li` of `lb` and global right row
  // `row` into *out; inconsistent pairs drop out [ICDE'08] before any value
  // is copied.
  void MergePair(const Batch& lb, size_t li, uint32_t row, Batch* out,
                 Pairs* pairs) const {
    const Batch& rb = right_data_.batches[right_data_.row_batch[row]];
    if (!out->conditions.AppendMerged(lb.conditions.Span(li),
                                      rb.conditions.Span(right_data_.row_idx[row]))) {
      return;
    }
    pairs->left.push_back(static_cast<uint32_t>(li));
    pairs->right.push_back(row);
    if (pairs->left.size() == kEmitChunk) EmitPairs(lb, pairs, out);
  }

  // Gathers the values of the merged pairs column-wise: the left columns
  // from one selection vector, the right columns run by run of pairs from
  // the same right batch; then empties the pair lists.
  void EmitPairs(const Batch& lb, Pairs* pairs, Batch* out) const {
    const size_t n = pairs->left.size();
    AppendColumns(lb, pairs->left.data(), n, 0, out);
    std::vector<uint32_t> idx;
    for (size_t s = 0; s < n;) {
      const uint32_t b = right_data_.row_batch[pairs->right[s]];
      idx.clear();
      size_t e = s;
      for (; e < n && right_data_.row_batch[pairs->right[e]] == b; ++e) {
        idx.push_back(right_data_.row_idx[pairs->right[e]]);
      }
      AppendColumns(right_data_.batches[b], idx.data(), idx.size(),
                    lb.columns.size(), out);
      s = e;
    }
    out->num_rows += n;
    pairs->left.clear();
    pairs->right.clear();
  }

  // Probes left rows [begin, end): thread-safe (only touches *out,
  // *range_skipped and read-only build state). Matches come in build-input
  // (= right input) order.
  Result<Batch> ProbeRange(const Batch& lb, const KeyColumns& left_keys,
                           size_t begin, size_t end,
                           std::atomic<uint64_t>* range_skipped) const {
    Batch out = AllocateOutput(node_.output_schema);
    ProbeRows probe;
    keys_.Prepare(left_keys, begin, end, &probe);
    range_skipped->fetch_add(probe.range_skipped, std::memory_order_relaxed);
    Pairs pairs;
    std::vector<uint32_t> matches;
    for (size_t k = 0; k < probe.rows.size(); ++k) {
      const uint32_t li = probe.rows[k];
      keys_.Matches(left_keys, li, probe.hashes[k], &matches);
      for (uint32_t row : matches) MergePair(lb, li, row, &out, &pairs);
    }
    EmitPairs(lb, &pairs, &out);
    return out;
  }

  Batch CrossRange(const Batch& lb, size_t begin, size_t end) const {
    Batch out = AllocateOutput(node_.output_schema);
    Pairs pairs;
    for (size_t li = begin; li < end; ++li) {
      for (size_t row = 0; row < right_data_.num_rows; ++row) {
        MergePair(lb, li, static_cast<uint32_t>(row), &out, &pairs);
      }
    }
    EmitPairs(lb, &pairs, &out);
    return out;
  }

  // Probes one left batch across left-row morsels on the pool. Each
  // morsel's output stays its own batch, returned in morsel order — the
  // serial row order, with no second copy to merge them. A left batch is
  // at most one scan chunk (<= the default morsel_size), so probe morsels
  // split each batch kProbeSplit ways — a FIXED fan-out, independent of
  // the thread count, or probes would never parallelize at defaults.
  template <typename RangeFn>
  Result<std::vector<Batch>> ParallelOverLeftRows(const Batch& lb,
                                                  RangeFn&& range_fn) {
    constexpr size_t kProbeSplit = 8;
    size_t morsel = std::max<size_t>(
        1, std::min(MorselRows(ctx_),
                    (lb.num_rows + kProbeSplit - 1) / kProbeSplit));
    size_t num_morsels = (lb.num_rows + morsel - 1) / morsel;
    std::vector<Batch> outs(num_morsels);
    std::vector<Status> statuses(num_morsels, Status::OK());
    ctx_->pool->ParallelFor(0, lb.num_rows, morsel, [&](size_t begin, size_t end) {
      size_t m = begin / morsel;
      Result<Batch> r = range_fn(begin, end);
      if (r.ok()) {
        outs[m] = std::move(*r);
      } else {
        statuses[m] = r.status();
      }
    });
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return outs;
  }

  Result<std::vector<Batch>> JoinLeftBatch(const Batch& lb) {
    std::vector<Batch> out;
    if (node_.left_keys.empty()) {
      if (ctx_->pool == nullptr) {
        out.push_back(CrossRange(lb, 0, lb.num_rows));
        return out;
      }
      return ParallelOverLeftRows(lb, [&](size_t begin, size_t end) {
        return Result<Batch>(CrossRange(lb, begin, end));
      });
    }
    MAYBMS_ASSIGN_OR_RETURN(KeyColumns left_keys, EvalKeys(node_.left_keys, lb));
    std::atomic<uint64_t> range_skipped{0};
    if (ctx_->pool == nullptr) {
      MAYBMS_ASSIGN_OR_RETURN(
          Batch joined, ProbeRange(lb, left_keys, 0, lb.num_rows, &range_skipped));
      out.push_back(std::move(joined));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(
          out, ParallelOverLeftRows(lb, [&](size_t begin, size_t end) {
            return ProbeRange(lb, left_keys, begin, end, &range_skipped);
          }));
    }
    ReportRangeSkipped(ctx_, trace_node_, range_skipped.load());
    return out;
  }

  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  const JoinNode& node_;
  ExecContext* ctx_;
  TraceNode* trace_node_;
  bool built_ = false;
  std::deque<Batch> pending_;  // parallel probe outputs awaiting hand-out
  Drained right_data_;
  KeyTable keys_;  // over right_keys, one per right batch
};

// ---------------------------------------------------------------------------
// Semijoins: IN / NOT IN (subquery) and the optimizer's reducer share one
// build — key tuple -> the conditions under which it appears on the build
// side; identical conditions deduplicate, a true condition subsumes all.
// ---------------------------------------------------------------------------

struct KeyConditions {
  KeyTable keys;
  std::vector<std::vector<Condition>> conds;  // per key-table entry
};

/// Drains `child`, whose first `num_keys` columns are the key tuple.
Result<KeyConditions> BuildKeyConditions(BatchOperator* child, size_t num_keys) {
  MAYBMS_ASSIGN_OR_RETURN(Drained d, DrainAll(child));
  std::vector<KeyColumns> cols;
  cols.reserve(d.batches.size());
  for (const Batch& b : d.batches) {
    cols.emplace_back(b.columns.begin(), b.columns.begin() + num_keys);
  }
  KeyConditions out;
  out.keys = KeyTable(num_keys, std::move(cols));
  const std::vector<uint32_t> entry_of = out.keys.BuildDistinct();
  out.conds.resize(out.keys.num_entries());
  for (size_t row = 0; row < d.num_rows; ++row) {
    if (entry_of[row] == KeyTable::kNoEntry) continue;  // null key
    std::vector<Condition>& conds = out.conds[entry_of[row]];
    if (!conds.empty() && conds.front().IsTrue()) continue;
    Condition cond = d.conds.ToCondition(row);
    if (cond.IsTrue()) {
      conds.clear();
      conds.push_back(Condition());
      continue;
    }
    if (std::find(conds.begin(), conds.end(), cond) == conds.end()) {
      conds.push_back(std::move(cond));
    }
  }
  return out;
}

/// Base of the two semijoins: builds the key conditions from child 1 on
/// the first pull, then streams child 0 through Probe().
class SemiJoinOp : public BatchOperator {
 public:
  SemiJoinOp(BatchOperatorPtr source, BatchOperatorPtr key_source,
             size_t num_keys, ExecContext* ctx)
      : source_(std::move(source)),
        key_source_(std::move(key_source)),
        num_keys_(num_keys),
        ctx_(ctx),
        trace_node_(KeyedTraceNode(ctx)) {}

  Result<bool> Next(Batch* out) override {
    if (!built_) {
      MAYBMS_ASSIGN_OR_RETURN(build_, BuildKeyConditions(key_source_.get(), num_keys_));
      built_ = true;
    }
    Batch in;
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(bool more, source_->Next(&in));
      if (!more) return false;
      MAYBMS_ASSIGN_OR_RETURN(Batch result, Probe(in));
      if (result.num_rows == 0) {
        in = Batch();
        continue;
      }
      *out = std::move(result);
      return true;
    }
  }

 protected:
  virtual Result<Batch> Probe(const Batch& in) = 0;

  /// Null check, range filter and hashing of one source batch's keys.
  ProbeRows Prepare(const KeyColumns& keys, size_t num_rows) {
    ProbeRows probe;
    build_.keys.Prepare(keys, 0, num_rows, &probe);
    ReportRangeSkipped(ctx_, trace_node_, probe.range_skipped);
    return probe;
  }

  KeyConditions build_;

 private:
  BatchOperatorPtr source_;
  BatchOperatorPtr key_source_;
  size_t num_keys_;
  ExecContext* ctx_;
  TraceNode* trace_node_;
  bool built_ = false;
};

class SemiJoinInOp final : public SemiJoinOp {
 public:
  SemiJoinInOp(BatchOperatorPtr left, BatchOperatorPtr right,
               const SemiJoinInNode& node, ExecContext* ctx)
      : SemiJoinOp(std::move(left), std::move(right), 1, ctx), node_(node) {}

 protected:
  Result<Batch> Probe(const Batch& lb) override {
    Batch out = AllocateOutput(node_.output_schema);
    MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr key_col,
                            EvalVector(*node_.left_key, lb));
    const KeyColumns keys{key_col};
    const ProbeRows probe = Prepare(keys, lb.num_rows);
    std::vector<uint32_t> sel;
    if (node_.anti) {
      // NOT IN: binder guarantees the right side is t-certain. Every
      // non-null key that is not found survives — range-skipped ones too.
      size_t k = 0;
      for (size_t li = 0; li < lb.num_rows; ++li) {
        if (key_col->IsNull(li)) continue;  // null never matches NOT IN
        if (k < probe.rows.size() && probe.rows[k] == li) {
          const bool found = build_.keys.Find(keys, li, probe.hashes[k++]) !=
                             KeyTable::kNoEntry;
          if (found) continue;
        }
        out.conditions.AppendFrom(lb.conditions, li);
        sel.push_back(static_cast<uint32_t>(li));
      }
    } else {
      for (size_t k = 0; k < probe.rows.size(); ++k) {
        const uint32_t li = probe.rows[k];
        const uint32_t entry = build_.keys.Find(keys, li, probe.hashes[k]);
        if (entry == KeyTable::kNoEntry) continue;
        for (const Condition& cond : build_.conds[entry]) {
          AtomSpan right_span{cond.atoms().data(), cond.atoms().size()};
          if (out.conditions.AppendMerged(lb.conditions.Span(li), right_span)) {
            sel.push_back(li);
          }
        }
      }
    }
    AppendColumns(lb, sel.data(), sel.size(), 0, &out);
    out.num_rows = sel.size();
    return out;
  }

 private:
  const SemiJoinInNode& node_;
};

// ---------------------------------------------------------------------------
// SemiJoinReduce: optimizer-inserted annotated semijoin reducer (src/opt/).
// Keeps exactly the source rows (child 0) some key tuple of the key source
// (child 1) matches under a consistent condition merge. Survivors keep
// their ORIGINAL values, conditions, and relative order, so the later full
// hash join's output is unchanged.
// ---------------------------------------------------------------------------

class SemiJoinReduceOp final : public SemiJoinOp {
 public:
  SemiJoinReduceOp(BatchOperatorPtr source, BatchOperatorPtr key_source,
                   const SemiJoinReduceNode& node, ExecContext* ctx)
      : SemiJoinOp(std::move(source), std::move(key_source), node.keys.size(), ctx),
        node_(node) {}

 protected:
  Result<Batch> Probe(const Batch& in) override {
    Batch out = AllocateOutput(node_.output_schema);
    MAYBMS_ASSIGN_OR_RETURN(KeyColumns keys, EvalKeys(node_.keys, in));
    const ProbeRows probe = Prepare(keys, in.num_rows);
    std::vector<uint32_t> sel;
    for (size_t k = 0; k < probe.rows.size(); ++k) {
      const uint32_t i = probe.rows[k];
      const uint32_t entry = build_.keys.Find(keys, i, probe.hashes[k]);
      if (entry == KeyTable::kNoEntry) continue;
      const AtomSpan span = in.conditions.Span(i);
      bool consistent = false;
      for (const Condition& cond : build_.conds[entry]) {
        if (MergeConsistent(span, cond)) {
          consistent = true;
          break;
        }
      }
      if (!consistent) continue;
      out.conditions.AppendAtoms(span);
      sel.push_back(i);
    }
    AppendColumns(in, sel.data(), sel.size(), 0, &out);
    out.num_rows = sel.size();
    return out;
  }

 private:
  /// Would merging the span with the condition be consistent? Both atom
  /// lists are sorted by variable with at most one atom per variable.
  static bool MergeConsistent(AtomSpan a, const Condition& cond) {
    const std::vector<Atom>& b = cond.atoms();
    size_t bi = 0;
    for (size_t ai = 0; ai < a.size; ++ai) {
      while (bi < b.size() && b[bi].var < a[ai].var) ++bi;
      if (bi < b.size() && b[bi].var == a[ai].var && b[bi].asg != a[ai].asg) {
        return false;
      }
    }
    return true;
  }

  const SemiJoinReduceNode& node_;
};

// ---------------------------------------------------------------------------
// Duplicate elimination (Distinct / deduplicating Union / Possible): an
// accumulated value-row set over an open-addressed index.
// ---------------------------------------------------------------------------

class DedupAccumulator {
 public:
  explicit DedupAccumulator(const Schema& schema) : acc_(AllocateOutput(schema)) {}

  /// True if the value row was new (and was appended).
  bool Add(const Batch& in, size_t row) {
    size_t ncols = in.columns.size();
    key_.resize(ncols);
    for (size_t c = 0; c < ncols; ++c) key_[c] = in.columns[c]->GetValue(row);
    uint64_t h = HashValueSpan(key_.data(), key_.size());
    bool dup = false;
    index_.ForEach(h, [&](uint32_t prev) {
      for (size_t c = 0; c < ncols; ++c) {
        if (!acc_.columns[c]->GetValue(prev).Equals(key_[c])) return true;
      }
      dup = true;
      return false;
    });
    if (dup) return false;
    index_.Insert(h, static_cast<uint32_t>(acc_.num_rows));
    for (size_t c = 0; c < ncols; ++c) acc_.columns[c]->Append(key_[c]);
    ++acc_.num_rows;
    return true;
  }

  /// The accumulated distinct value rows (conditions owed by the caller).
  Batch& batch() { return acc_; }

 private:
  Batch acc_;
  HashRowIndex index_;
  std::vector<Value> key_;
};

class DistinctOp : public MaterializedOperator {
 public:
  DistinctOp(BatchOperatorPtr child, const DistinctNode& node)
      : child_(std::move(child)), node_(node) {}

 protected:
  Status Compute() override {
    DedupAccumulator acc(node_.output_schema);
    ConditionColumn conds;
    Batch in;
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) break;
      for (size_t i = 0; i < in.num_rows; ++i) {
        // First-occurrence row (values AND its condition) survives.
        if (acc.Add(in, i)) conds.AppendFrom(in.conditions, i);
      }
      in = Batch();
    }
    acc.batch().conditions = std::move(conds);
    ready_.push_back(std::move(acc.batch()));
    return Status::OK();
  }

 private:
  BatchOperatorPtr child_;
  const DistinctNode& node_;
};

class UnionOp : public MaterializedOperator {
 public:
  UnionOp(BatchOperatorPtr left, BatchOperatorPtr right, const UnionNode& node)
      : left_(std::move(left)), right_(std::move(right)), node_(node) {}

 protected:
  Status Compute() override {
    if (!node_.deduplicate) {
      Batch in;
      for (BatchOperator* side : {left_.get(), right_.get()}) {
        while (true) {
          MAYBMS_ASSIGN_OR_RETURN(bool more, side->Next(&in));
          if (!more) break;
          ready_.push_back(std::move(in));
          in = Batch();
        }
      }
      return Status::OK();
    }
    DedupAccumulator acc(node_.output_schema);
    ConditionColumn conds;
    Batch in;
    for (BatchOperator* side : {left_.get(), right_.get()}) {
      while (true) {
        MAYBMS_ASSIGN_OR_RETURN(bool more, side->Next(&in));
        if (!more) break;
        for (size_t i = 0; i < in.num_rows; ++i) {
          if (acc.Add(in, i)) conds.AppendFrom(in.conditions, i);
        }
        in = Batch();
      }
    }
    acc.batch().conditions = std::move(conds);
    ready_.push_back(std::move(acc.batch()));
    return Status::OK();
  }

 private:
  BatchOperatorPtr left_;
  BatchOperatorPtr right_;
  const UnionNode& node_;
};

// possible: filter probability-zero tuples, eliminate duplicates, output
// t-certain (§2.2).
class PossibleOp : public MaterializedOperator {
 public:
  PossibleOp(BatchOperatorPtr child, const PossibleNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

 protected:
  Status Compute() override {
    DedupAccumulator acc(node_.output_schema);
    const WorldTable& wt = ctx_->worlds();
    // Under evidence a tuple is possible iff P(cond ∧ C) > 0; with no
    // evidence CompatiblePositive is exactly the P(cond) > 0 check.
    const ConstraintStore& cs = ctx_->constraints();
    if (ctx_->pool != nullptr) {
      // The per-row probability check is pure — run it over morsels; the
      // order-sensitive dedup then folds the keep-mask serially.
      MAYBMS_ASSIGN_OR_RETURN(Drained in, DrainAll(child_.get()));
      std::vector<uint8_t> keep(in.num_rows, 0);
      if (in.num_rows > 0) {
        ctx_->pool->ParallelFor(
            0, in.num_rows, std::min(MorselRows(ctx_), in.num_rows),
            [&](size_t begin, size_t end) {
              for (size_t row = begin; row < end; ++row) {
                AtomSpan span = in.conds.Span(row);
                keep[row] = cs.CompatiblePositive(span.data, span.size, wt) ? 1 : 0;
              }
            });
      }
      for (size_t row = 0; row < in.num_rows; ++row) {
        if (!keep[row]) continue;
        acc.Add(in.batches[in.row_batch[row]], in.row_idx[row]);
      }
    } else {
      Batch in;
      while (true) {
        MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
        if (!more) break;
        for (size_t i = 0; i < in.num_rows; ++i) {
          AtomSpan span = in.conditions.Span(i);
          if (!cs.CompatiblePositive(span.data, span.size, wt)) continue;
          acc.Add(in, i);
        }
        in = Batch();
      }
    }
    Batch& b = acc.batch();
    for (size_t i = 0; i < b.num_rows; ++i) b.conditions.AppendTrue();
    ready_.push_back(std::move(b));
    return Status::OK();
  }

 private:
  BatchOperatorPtr child_;
  const PossibleNode& node_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Sort / Limit
// ---------------------------------------------------------------------------

class SortOp : public MaterializedOperator {
 public:
  SortOp(BatchOperatorPtr child, const SortNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

 protected:
  Status Compute() override {
    MAYBMS_ASSIGN_OR_RETURN(Drained in, DrainAll(child_.get()));
    // Precompute sort keys, column-at-a-time per batch (parallel across
    // batches; the stable sort itself stays serial — a barrier).
    std::vector<std::vector<ColumnVectorPtr>> key_cols;  // [key][batch]
    key_cols.reserve(node_.keys.size());
    for (const SortNode::Key& k : node_.keys) {
      MAYBMS_ASSIGN_OR_RETURN(std::vector<ColumnVectorPtr> cols,
                              EvalPerBatch(*k.expr, in, ctx_->pool));
      key_cols.push_back(std::move(cols));
    }
    std::vector<uint32_t> order(in.num_rows);
    for (size_t i = 0; i < in.num_rows; ++i) order[i] = static_cast<uint32_t>(i);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < node_.keys.size(); ++k) {
        Value va = key_cols[k][in.row_batch[a]]->GetValue(in.row_idx[a]);
        Value vb = key_cols[k][in.row_batch[b]]->GetValue(in.row_idx[b]);
        int c = va.Compare(vb);
        if (c != 0) return node_.keys[k].descending ? c > 0 : c < 0;
      }
      return false;
    });
    Batch out = AllocateOutput(node_.output_schema);
    for (uint32_t row : order) {
      const Batch& b = in.batches[in.row_batch[row]];
      uint32_t i = in.row_idx[row];
      for (size_t c = 0; c < b.columns.size(); ++c) {
        out.columns[c]->Append(b.columns[c]->GetValue(i));
      }
      out.conditions.AppendFrom(in.conds, row);
      ++out.num_rows;
    }
    ready_.push_back(std::move(out));
    return Status::OK();
  }

 private:
  BatchOperatorPtr child_;
  const SortNode& node_;
  ExecContext* ctx_;
};

class LimitOp : public BatchOperator {
 public:
  LimitOp(BatchOperatorPtr child, const LimitNode& node)
      : child_(std::move(child)), remaining_(node.limit) {}

  Result<bool> Next(Batch* out) override {
    if (remaining_ == 0) return Drain();
    Batch in;
    MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    if (remaining_ < 0 || static_cast<size_t>(remaining_) >= in.num_rows) {
      if (remaining_ >= 0) remaining_ -= static_cast<int64_t>(in.num_rows);
      *out = std::move(in);
      return true;
    }
    std::vector<uint32_t> sel(static_cast<size_t>(remaining_));
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
    *out = GatherBatch(in, sel);
    remaining_ = 0;
    return true;
  }

 private:
  // A limit has materializing semantics: the child runs to the end, so its
  // side effects (pick-tuples/repair-key variable registration) and errors
  // past the cutoff still happen. Drain the rest.
  Result<bool> Drain() {
    Batch in;
    while (true) {
      MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
      if (!more) return false;
      in = Batch();
    }
  }

  BatchOperatorPtr child_;
  int64_t remaining_;  // negative = unlimited
};

// ---------------------------------------------------------------------------
// repair-key: group by the key attributes and introduce one finite random
// variable per multi-alternative group (paper §2.2 / Fig. 1).
// ---------------------------------------------------------------------------

class RepairKeyOp : public MaterializedOperator {
 public:
  RepairKeyOp(BatchOperatorPtr child, const RepairKeyNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

 protected:
  Status Compute() override {
    MAYBMS_ASSIGN_OR_RETURN(Drained in, DrainAll(child_.get()));

    // Group rows by the raw key attribute values, first-seen order.
    HashRowIndex group_index;
    std::vector<std::vector<uint32_t>> groups;
    std::vector<Value> key(node_.key_indices.size());
    for (size_t row = 0; row < in.num_rows; ++row) {
      for (size_t k = 0; k < node_.key_indices.size(); ++k) {
        key[k] = in.GetValue(node_.key_indices[k], row);
      }
      uint64_t h = HashValueSpan(key.data(), key.size());
      uint32_t found = HashRowIndex::kNoRow;
      group_index.ForEach(h, [&](uint32_t g) {
        uint32_t rep = groups[g][0];
        for (size_t k = 0; k < node_.key_indices.size(); ++k) {
          if (!in.GetValue(node_.key_indices[k], rep).Equals(key[k])) return true;
        }
        found = g;
        return false;
      });
      if (found != HashRowIndex::kNoRow) {
        groups[found].push_back(static_cast<uint32_t>(row));
      } else {
        group_index.Insert(h, static_cast<uint32_t>(groups.size()));
        groups.push_back({static_cast<uint32_t>(row)});
      }
    }

    // Evaluate weights column-at-a-time (default weight 1: uniform).
    // Grouping and variable registration stay serial: NewVariable order is
    // engine-observable state.
    std::vector<ColumnVectorPtr> weight_cols;
    if (node_.weight != nullptr) {
      MAYBMS_ASSIGN_OR_RETURN(weight_cols,
                              EvalPerBatch(*node_.weight, in, ctx_->pool));
    }
    auto weight_of = [&](uint32_t row) -> Result<double> {
      if (node_.weight == nullptr) return 1.0;
      Value v = weight_cols[in.row_batch[row]]->GetValue(in.row_idx[row]);
      if (v.is_null()) return 0.0;  // null weight: tuple cannot be chosen
      return v.ToDouble();
    };

    Batch out = AllocateOutput(node_.output_schema);
    WorldTable& wt = ctx_->worlds();
    for (const std::vector<uint32_t>& members : groups) {
      std::vector<double> weights;
      std::vector<uint32_t> alive;
      double total = 0;
      for (uint32_t row : members) {
        MAYBMS_ASSIGN_OR_RETURN(double w, weight_of(row));
        if (std::isnan(w) || w < 0) {
          return Status::ExecutionError(StringFormat(
              "repair-key weight %g is negative or NaN (weights must be "
              "non-negative)", w));
        }
        if (w == 0) continue;  // zero-weight alternatives are dropped (Fig. 1)
        alive.push_back(row);
        weights.push_back(w);
        total += w;
      }
      if (alive.empty()) continue;  // whole group zero weight: no repair tuple
      if (alive.size() == 1) {
        // A single alternative is chosen with probability 1: no variable is
        // needed — the tuple is certain (semantically identical encoding).
        EmitRow(in, alive[0], in.conds.Span(alive[0]), &out);
        continue;
      }
      std::vector<double> probs;
      probs.reserve(weights.size());
      for (double w : weights) probs.push_back(w / total);
      MAYBMS_ASSIGN_OR_RETURN(VarId var, wt.NewVariable(std::move(probs), node_.label));
      for (size_t j = 0; j < alive.size(); ++j) {
        Atom atom{var, static_cast<AsgId>(j)};
        EmitRow(in, alive[j], AtomSpan{&atom, 1}, &out);
      }
    }
    ready_.push_back(std::move(out));
    return Status::OK();
  }

 private:
  void EmitRow(const Drained& in, uint32_t row, AtomSpan cond, Batch* out) {
    const Batch& b = in.batches[in.row_batch[row]];
    uint32_t i = in.row_idx[row];
    for (size_t c = 0; c < b.columns.size(); ++c) {
      out->columns[c]->Append(b.columns[c]->GetValue(i));
    }
    out->conditions.AppendAtoms(cond);
    ++out->num_rows;
  }

  BatchOperatorPtr child_;
  const RepairKeyNode& node_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// pick-tuples: a fresh Boolean variable per row (probability < 1).
// ---------------------------------------------------------------------------

class PickTuplesOp : public BatchOperator {
 public:
  PickTuplesOp(BatchOperatorPtr child, const PickTuplesNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

  Result<bool> Next(Batch* out) override {
    Batch in;
    MAYBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) return false;
    ColumnVectorPtr prob_col;
    if (node_.probability != nullptr) {
      MAYBMS_ASSIGN_OR_RETURN(prob_col, EvalVector(*node_.probability, in));
    }
    WorldTable& wt = ctx_->worlds();
    ConditionColumn conds;
    for (size_t k = 0; k < in.num_rows; ++k) {
      double p = 0.5;  // default: all subsets, uniformly
      if (prob_col != nullptr) {
        Value v = prob_col->GetValue(k);
        if (v.is_null()) {
          p = 0;
        } else {
          MAYBMS_ASSIGN_OR_RETURN(p, v.ToDouble());
        }
      }
      if (std::isnan(p) || p < 0 || p > 1) {
        return Status::ExecutionError(
            StringFormat("pick-tuples probability %g outside [0,1]", p));
      }
      if (p == 1.0) {
        conds.AppendFrom(in.conditions, k);  // certain tuple, no variable
        continue;
      }
      MAYBMS_ASSIGN_OR_RETURN(VarId var, wt.NewBooleanVariable(p, node_.label));
      Atom atom{var, 1};
      conds.AppendAtoms(AtomSpan{&atom, 1});
    }
    out->columns = std::move(in.columns);
    out->conditions = std::move(conds);
    out->num_rows = in.num_rows;
    return true;
  }

 private:
  BatchOperatorPtr child_;
  const PickTuplesNode& node_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Aggregate: group-by over materialized input; conf()/aconf() lineage is
// compiled per group straight from the concatenated condition column.
// ---------------------------------------------------------------------------

class AggregateOp : public MaterializedOperator {
 public:
  AggregateOp(BatchOperatorPtr child, const AggregateNode& node, ExecContext* ctx)
      : child_(std::move(child)), node_(node), ctx_(ctx) {}

 protected:
  Status Compute() override {
    MAYBMS_ASSIGN_OR_RETURN(Drained in, DrainAll(child_.get()));
    ThreadPool* pool = ctx_->pool;

    // Group rows, first-seen order.
    std::vector<std::vector<ColumnVectorPtr>> group_cols;  // [expr][batch]
    group_cols.reserve(node_.group_exprs.size());
    for (const BoundExprPtr& e : node_.group_exprs) {
      MAYBMS_ASSIGN_OR_RETURN(std::vector<ColumnVectorPtr> cols,
                              EvalPerBatch(*e, in, pool));
      group_cols.push_back(std::move(cols));
    }
    HashRowIndex group_index;
    std::vector<std::vector<uint32_t>> groups;
    std::vector<Value> group_keys;  // flattened, arity = #group_exprs
    size_t arity = node_.group_exprs.size();
    auto load_key = [&](size_t row, std::vector<Value>* key) {
      for (size_t k = 0; k < arity; ++k) {
        (*key)[k] = group_cols[k][in.row_batch[row]]->GetValue(in.row_idx[row]);
      }
    };
    // Appends rows to the group of `key` (creating it), serially. Returns
    // the group id.
    auto find_or_create = [&](const std::vector<Value>& key, uint64_t h) {
      uint32_t found = HashRowIndex::kNoRow;
      group_index.ForEach(h, [&](uint32_t g) {
        const Value* stored = group_keys.data() + static_cast<size_t>(g) * arity;
        for (size_t k = 0; k < arity; ++k) {
          if (!stored[k].Equals(key[k])) return true;
        }
        found = g;
        return false;
      });
      if (found == HashRowIndex::kNoRow) {
        found = static_cast<uint32_t>(groups.size());
        group_index.Insert(h, found);
        groups.emplace_back();
        group_keys.insert(group_keys.end(), key.begin(), key.end());
      }
      return found;
    };
    if (pool == nullptr) {
      std::vector<Value> key(arity);
      for (size_t row = 0; row < in.num_rows; ++row) {
        load_key(row, &key);
        uint32_t g = find_or_create(key, HashValueSpan(key.data(), arity));
        groups[g].push_back(static_cast<uint32_t>(row));
      }
    } else if (in.num_rows > 0) {
      // Per-thread partial grouping: each morsel groups its rows locally
      // (first-seen inside the morsel, members in row order); the partials
      // then merge at the barrier in morsel order. First occurrences meet
      // the global table in ascending row order, so group ids, key values,
      // and member lists come out exactly as in the serial loop.
      size_t morsel = std::min(MorselRows(ctx_), in.num_rows);
      size_t num_morsels = (in.num_rows + morsel - 1) / morsel;
      struct LocalGroups {
        std::vector<std::vector<uint32_t>> groups;  // local first-seen order
        std::vector<uint64_t> hashes;               // per local group
      };
      std::vector<LocalGroups> partials(num_morsels);
      pool->ParallelFor(0, in.num_rows, morsel, [&](size_t begin, size_t end) {
        LocalGroups& local = partials[begin / morsel];
        HashRowIndex local_index;
        std::vector<Value> key(arity);
        std::vector<Value> other(arity);
        for (size_t row = begin; row < end; ++row) {
          load_key(row, &key);
          uint64_t h = HashValueSpan(key.data(), arity);
          uint32_t found = HashRowIndex::kNoRow;
          local_index.ForEach(h, [&](uint32_t g) {
            load_key(local.groups[g][0], &other);
            for (size_t k = 0; k < arity; ++k) {
              if (!other[k].Equals(key[k])) return true;
            }
            found = g;
            return false;
          });
          if (found == HashRowIndex::kNoRow) {
            found = static_cast<uint32_t>(local.groups.size());
            local_index.Insert(h, found);
            local.groups.emplace_back();
            local.hashes.push_back(h);
          }
          local.groups[found].push_back(static_cast<uint32_t>(row));
        }
      });
      std::vector<Value> key(arity);
      for (const LocalGroups& local : partials) {
        for (size_t lg = 0; lg < local.groups.size(); ++lg) {
          load_key(local.groups[lg][0], &key);
          uint32_t g = find_or_create(key, local.hashes[lg]);
          groups[g].insert(groups[g].end(), local.groups[lg].begin(),
                           local.groups[lg].end());
        }
      }
    }
    // Global aggregate over an empty input still yields one (empty) group.
    if (groups.empty() && node_.group_exprs.empty()) groups.emplace_back();

    // Evaluate aggregate arguments column-at-a-time, once per batch.
    std::vector<std::vector<ColumnVectorPtr>> arg_cols(node_.aggregates.size());
    std::vector<std::vector<ColumnVectorPtr>> arg2_cols(node_.aggregates.size());
    for (size_t a = 0; a < node_.aggregates.size(); ++a) {
      if (node_.aggregates[a].arg != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(arg_cols[a],
                                EvalPerBatch(*node_.aggregates[a].arg, in, pool));
      }
      if (node_.aggregates[a].arg2 != nullptr) {
        MAYBMS_ASSIGN_OR_RETURN(arg2_cols[a],
                                EvalPerBatch(*node_.aggregates[a].arg2, in, pool));
      }
    }
    auto arg_value = [&](size_t a, uint32_t row) {
      return arg_cols[a][in.row_batch[row]]->GetValue(in.row_idx[row]);
    };
    auto arg2_value = [&](size_t a, uint32_t row) {
      return arg2_cols[a][in.row_batch[row]]->GetValue(in.row_idx[row]);
    };

    // esum/ecount consume the per-row marginal probability; compute the
    // whole column at most once, straight off the condition spans.
    std::vector<double> cond_probs;
    bool need_probs = false;
    for (const BoundAggregate& agg : node_.aggregates) {
      need_probs |= agg.kind == AggKind::kEsum || agg.kind == AggKind::kEcount;
    }
    const WorldTable& wt = ctx_->worlds();
    if (need_probs) {
      // Under asserted evidence the per-row marginal is the posterior
      // P(cond | C); PosteriorConditionProb is the prior product when the
      // store is inactive or the row's variables are untouched by it.
      const ConstraintStore& cs = ctx_->constraints();
      cond_probs.assign(in.num_rows, 0.0);
      auto fill = [&](size_t begin, size_t end) -> Status {
        for (size_t row = begin; row < end; ++row) {
          AtomSpan span = in.conds.Span(row);
          MAYBMS_ASSIGN_OR_RETURN(
              cond_probs[row],
              PosteriorConditionProb(span.data, span.size, cs, wt,
                                     ctx_->options->exact));
        }
        return Status::OK();
      };
      if (pool != nullptr && in.num_rows > 0) {
        size_t morsel = std::min(MorselRows(ctx_), in.num_rows);
        size_t num_morsels = (in.num_rows + morsel - 1) / morsel;
        MAYBMS_RETURN_NOT_OK(pool->ParallelForStatus(0, num_morsels, [&](size_t m) {
          return fill(m * morsel, std::min(in.num_rows, (m + 1) * morsel));
        }));
      } else {
        MAYBMS_RETURN_NOT_OK(fill(0, in.num_rows));
      }
    }

    // Per-group aggregate computation: the conf()/aconf() solvers dominate
    // here, and groups are independent — fan them out. Parallel aconf()
    // derives each group's base seed from its lineage content (no session
    // RNG involvement), so groups need no pre-drawn seed order.
    std::vector<std::vector<std::vector<Value>>> group_rows(groups.size());
    if (pool == nullptr) {
      for (size_t g = 0; g < groups.size(); ++g) {
        MAYBMS_ASSIGN_OR_RETURN(
            group_rows[g],
            GroupAggregates(in, groups[g], arg_value, arg2_value, cond_probs));
      }
    } else {
      MAYBMS_RETURN_NOT_OK(pool->ParallelForStatus(0, groups.size(), [&](size_t g) {
        MAYBMS_ASSIGN_OR_RETURN(
            group_rows[g],
            GroupAggregates(in, groups[g], arg_value, arg2_value, cond_probs));
        return Status::OK();
      }));
    }

    Batch out = AllocateOutput(node_.output_schema);
    for (size_t g = 0; g < groups.size(); ++g) {
      for (std::vector<Value>& agg_vals : group_rows[g]) {
        for (size_t k = 0; k < arity; ++k) {
          out.columns[k]->Append(group_keys[g * arity + k]);
        }
        for (size_t a = 0; a < agg_vals.size(); ++a) {
          out.columns[arity + a]->Append(agg_vals[a]);
        }
        out.conditions.AppendTrue();
        ++out.num_rows;
      }
    }
    ready_.push_back(std::move(out));
    return Status::OK();
  }

 private:
  // Accumulator for one standard SQL aggregate.
  struct StandardAcc {
    int64_t count = 0;
    double dsum = 0;
    int64_t isum = 0;
    bool all_int = true;
    bool any = false;
    Value min_v;
    Value max_v;

    void Add(const Value& v) {
      if (v.is_null()) return;
      any = true;
      ++count;
      if (v.type() == TypeId::kInt) {
        isum += v.AsInt();
        dsum += static_cast<double>(v.AsInt());
      } else if (v.type() == TypeId::kDouble || v.type() == TypeId::kBool) {
        all_int = false;
        dsum += *v.ToDouble();
      } else {
        all_int = false;  // strings: sum/avg invalid, min/max fine
      }
      if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
      if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
    }
  };

  // aconf() sampling always derives the group's base seed from its lineage
  // content (LineageSeed) and samples on counter-based substreams: the
  // estimate is a pure function of the lineage, so it is identical at every
  // thread count (a null pool runs the substreams serially), across
  // optimizer join orders, and across repeated statements
  // over unchanged lineage (which makes it cacheable).
  template <typename ArgFn, typename Arg2Fn>
  Result<std::vector<std::vector<Value>>> GroupAggregates(
      const Drained& in, const std::vector<uint32_t>& members, ArgFn&& arg_value,
      Arg2Fn&& arg2_value, const std::vector<double>& cond_probs) {
    const std::vector<BoundAggregate>& aggs = node_.aggregates;
    const WorldTable& wt = ctx_->worlds();

    std::vector<Value> values(aggs.size(), Value::Null());
    int argmax_index = -1;
    std::vector<Value> argmax_ties;

    for (size_t a = 0; a < aggs.size(); ++a) {
      const BoundAggregate& agg = aggs[a];
      switch (agg.kind) {
        case AggKind::kCountStar: {
          values[a] = Value::Int(static_cast<int64_t>(members.size()));
          break;
        }
        case AggKind::kCount: {
          int64_t n = 0;
          for (uint32_t row : members) {
            if (!arg_value(a, row).is_null()) ++n;
          }
          values[a] = Value::Int(n);
          break;
        }
        case AggKind::kSum:
        case AggKind::kAvg:
        case AggKind::kMin:
        case AggKind::kMax: {
          StandardAcc acc;
          for (uint32_t row : members) {
            Value v = arg_value(a, row);
            if (!v.is_null() &&
                (agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) &&
                v.type() == TypeId::kString) {
              return Status::TypeError("sum/avg over non-numeric values");
            }
            acc.Add(v);
          }
          if (!acc.any) {
            values[a] = Value::Null();
          } else if (agg.kind == AggKind::kSum) {
            values[a] = acc.all_int ? Value::Int(acc.isum) : Value::Double(acc.dsum);
          } else if (agg.kind == AggKind::kAvg) {
            values[a] = Value::Double(acc.dsum / static_cast<double>(acc.count));
          } else if (agg.kind == AggKind::kMin) {
            values[a] = acc.min_v;
          } else {
            values[a] = acc.max_v;
          }
          break;
        }
        case AggKind::kConf:
        case AggKind::kAconf: {
          const ConstraintStore& cs = ctx_->constraints();
          // Canonical clause order: sort a COPY of the member list by
          // condition content (a joined row's condition content is
          // merge-order invariant; only the duplicates' arrival order can
          // differ between join orders). The lineage handed to every solver
          // below is then a pure function of the group's condition set, so
          // optimizer-on, optimizer-off, every thread count and join order
          // produce bit-identical conf()/aconf() values.
          std::vector<uint32_t> ordered(members.begin(), members.end());
          std::stable_sort(ordered.begin(), ordered.end(),
                           [&in](uint32_t x, uint32_t y) {
                             AtomSpan sx = in.conds.Span(x);
                             AtomSpan sy = in.conds.Span(y);
                             return std::lexicographical_compare(
                                 sx.begin(), sx.end(), sy.begin(), sy.end());
                           });
          if (cs.active()) {
            // Conditioned path: posterior P(lineage | C). The clause list
            // materializes as heap Conditions for the posterior solver; the
            // unconditioned span-compiled fast path below is untouched.
            Dnf dnf;
            for (uint32_t row : ordered) dnf.AddClause(in.conds.ToCondition(row));
            if (agg.kind == AggKind::kConf) {
              MAYBMS_ASSIGN_OR_RETURN(double p, GroupConfidence(dnf, ctx_));
              values[a] = Value::Double(p);
            } else {
              MAYBMS_ASSIGN_OR_RETURN(
                  MonteCarloResult mc,
                  PosteriorApproxConfidenceSeeded(
                      dnf, cs, wt, agg.epsilon, agg.delta,
                      LineageSeed(dnf), ctx_->options->montecarlo,
                      ctx_->pool));
              values[a] = Value::Double(mc.estimate);
            }
            break;
          }
          // The group's lineage — the disjunction of the duplicate tuples'
          // conjunctive conditions (paper §2.3) — compiles directly from
          // the packed condition-column spans: no Condition objects, no
          // per-row re-parsing.
          if (agg.kind == AggKind::kConf) {
            MAYBMS_ASSIGN_OR_RETURN(
                double p, GroupConfidence(in.conds, ordered.data(),
                                          ordered.size(), ctx_));
            values[a] = Value::Double(p);
            break;
          }
          CompiledDnf lineage(in.conds, ordered.data(), ordered.size(), wt);
          const uint64_t base_seed = LineageSeed(lineage);
          MAYBMS_ASSIGN_OR_RETURN(
              MonteCarloResult mc,
              ApproxConfidenceSeeded(std::move(lineage), agg.epsilon,
                                     agg.delta, base_seed,
                                     ctx_->options->montecarlo, ctx_->pool));
          values[a] = Value::Double(mc.estimate);
          break;
        }
        case AggKind::kEsum: {
          // Expected sum by linearity of expectation: Σ value·P(condition)
          // — linear time, no #P confidence computation (§2.2 item 4).
          double total = 0;
          for (uint32_t row : members) {
            Value v = arg_value(a, row);
            if (v.is_null()) continue;
            MAYBMS_ASSIGN_OR_RETURN(double d, v.ToDouble());
            total += d * cond_probs[row];
          }
          values[a] = Value::Double(total);
          break;
        }
        case AggKind::kEcount: {
          double total = 0;
          for (uint32_t row : members) {
            if (agg.arg != nullptr && arg_value(a, row).is_null()) continue;
            total += cond_probs[row];
          }
          values[a] = Value::Double(total);
          break;
        }
        case AggKind::kArgmax: {
          if (argmax_index >= 0) {
            return Status::ExecutionError(
                "at most one argmax aggregate is supported per select");
          }
          argmax_index = static_cast<int>(a);
          Value best;
          for (uint32_t row : members) {
            Value v = arg2_value(a, row);
            if (v.is_null()) continue;
            if (best.is_null() || v.Compare(best) > 0) best = v;
          }
          if (!best.is_null()) {
            for (uint32_t row : members) {
              Value v = arg2_value(a, row);
              if (v.is_null() || !v.Equals(best)) continue;
              Value arg_v = arg_value(a, row);
              bool seen = false;
              for (const Value& t : argmax_ties) {
                if (t.Equals(arg_v)) {
                  seen = true;
                  break;
                }
              }
              if (!seen) argmax_ties.push_back(std::move(arg_v));
            }
          }
          break;
        }
      }
    }

    std::vector<std::vector<Value>> out;
    if (argmax_index < 0) {
      out.push_back(std::move(values));
      return out;
    }
    if (argmax_ties.empty()) argmax_ties.push_back(Value::Null());
    for (Value& tie : argmax_ties) {
      std::vector<Value> row = values;
      row[static_cast<size_t>(argmax_index)] = std::move(tie);
      out.push_back(std::move(row));
    }
    return out;
  }

  BatchOperatorPtr child_;
  const AggregateNode& node_;
  ExecContext* ctx_;
};

// ---------------------------------------------------------------------------
// Plan -> operator tree
// ---------------------------------------------------------------------------

// The public builder below wraps every node for observability; the Impl's
// recursive child builds go through it so interior nodes are traced too.
Result<BatchOperatorPtr> BuildOperator(const PlanNode& plan, ExecContext* ctx);

Result<BatchOperatorPtr> BuildOperatorImpl(const PlanNode& plan, ExecContext* ctx) {
  switch (plan.kind) {
    case PlanKind::kScan:
      return BatchOperatorPtr(new ScanOp(static_cast<const ScanNode&>(plan)));
    case PlanKind::kIndexScan:
      return BatchOperatorPtr(
          new IndexScanOp(static_cast<const IndexScanNode&>(plan), ctx));
    case PlanKind::kFilter: {
      const auto& node = static_cast<const FilterNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      if (ctx->pool != nullptr) {
        return BatchOperatorPtr(
            new ParallelFilterOp(std::move(child), node.predicate.get(), ctx));
      }
      return BatchOperatorPtr(new FilterOp(std::move(child), node.predicate.get()));
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      if (ctx->pool != nullptr) {
        return BatchOperatorPtr(
            new ParallelProjectOp(std::move(child), node, ctx));
      }
      return BatchOperatorPtr(new ProjectOp(std::move(child), node, ctx));
    }
    case PlanKind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr left,
                              BuildOperator(*node.children[0], ctx));
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr right,
                              BuildOperator(*node.children[1], ctx));
      return BatchOperatorPtr(
          new JoinOp(std::move(left), std::move(right), node, ctx));
    }
    case PlanKind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new AggregateOp(std::move(child), node, ctx));
    }
    case PlanKind::kRepairKey: {
      const auto& node = static_cast<const RepairKeyNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new RepairKeyOp(std::move(child), node, ctx));
    }
    case PlanKind::kPickTuples: {
      const auto& node = static_cast<const PickTuplesNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new PickTuplesOp(std::move(child), node, ctx));
    }
    case PlanKind::kPossible: {
      const auto& node = static_cast<const PossibleNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new PossibleOp(std::move(child), node, ctx));
    }
    case PlanKind::kSemiJoinIn: {
      const auto& node = static_cast<const SemiJoinInNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr left,
                              BuildOperator(*node.children[0], ctx));
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr right,
                              BuildOperator(*node.children[1], ctx));
      return BatchOperatorPtr(
          new SemiJoinInOp(std::move(left), std::move(right), node, ctx));
    }
    case PlanKind::kUnion: {
      const auto& node = static_cast<const UnionNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr left,
                              BuildOperator(*node.children[0], ctx));
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr right,
                              BuildOperator(*node.children[1], ctx));
      return BatchOperatorPtr(new UnionOp(std::move(left), std::move(right), node));
    }
    case PlanKind::kDistinct: {
      const auto& node = static_cast<const DistinctNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new DistinctOp(std::move(child), node));
    }
    case PlanKind::kSort: {
      const auto& node = static_cast<const SortNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new SortOp(std::move(child), node, ctx));
    }
    case PlanKind::kLimit: {
      const auto& node = static_cast<const LimitNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr child,
                              BuildOperator(*node.children[0], ctx));
      return BatchOperatorPtr(new LimitOp(std::move(child), node));
    }
    case PlanKind::kSemiJoinReduce: {
      const auto& node = static_cast<const SemiJoinReduceNode&>(plan);
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr source,
                              BuildOperator(*node.children[0], ctx));
      MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr key_source,
                              BuildOperator(*node.children[1], ctx));
      return BatchOperatorPtr(
          new SemiJoinReduceOp(std::move(source), std::move(key_source), node, ctx));
    }
  }
  return Status::Internal("unhandled plan kind");
}

// EXPLAIN ANALYZE decorator: times every Next() pull into the node's
// inclusive span and folds the statement-wide confidence-counter deltas
// observed during the pull into the node (so conf work done by an
// aggregate — including its parallel morsels, which report through the
// same atomics — lands on the operator that triggered it). Pulls are
// single-threaded (one root drain; pipeline breakers drain children from
// the pulling thread), so the plain TraceNode fields need no locking.
class TraceOp final : public BatchOperator {
 public:
  TraceOp(BatchOperatorPtr inner, TraceNode* node, const ConfPhaseCounters* conf)
      : inner_(std::move(inner)), node_(node), conf_(conf) {}

  Result<bool> Next(Batch* out) override {
    const ConfPhaseSample before =
        conf_ != nullptr ? conf_->Sample() : ConfPhaseSample{};
    const uint64_t t0 = MonotonicNs();
    Result<bool> more = inner_->Next(out);
    node_->inclusive_ns += MonotonicNs() - t0;
    ++node_->calls;
    if (conf_ != nullptr) node_->conf.Accumulate(conf_->Sample() - before);
    if (more.ok() && *more) {
      ++node_->batches_out;
      node_->rows_out += out->num_rows;
    }
    return more;
  }

 private:
  BatchOperatorPtr inner_;
  TraceNode* node_;
  const ConfPhaseCounters* conf_;
};

Result<BatchOperatorPtr> BuildOperator(const PlanNode& plan, ExecContext* ctx) {
  if (ctx->metrics != nullptr) ctx->metrics->Add(Counter::kBatchOperators);
  if (ctx->trace == nullptr) return BuildOperatorImpl(plan, ctx);
  // Create the node BEFORE building so morsel-driven operators can capture
  // it from trace_parent at construction time; rewind afterwards.
  TraceNode* node = ctx->trace->NewNode(ctx->trace_parent, plan.Describe());
  node->est_rows = plan.est_rows;
  TraceNode* saved = ctx->trace_parent;
  ctx->trace_parent = node;
  Result<BatchOperatorPtr> built = BuildOperatorImpl(plan, ctx);
  ctx->trace_parent = saved;
  MAYBMS_RETURN_NOT_OK(built.status());
  return BatchOperatorPtr(
      new TraceOp(std::move(*built), node, ctx->options->exact.counters));
}

// The uncertain flag of the materialized result, mirroring the row
// engine's per-operator propagation.
bool RuntimeUncertain(const PlanNode& plan) {
  switch (plan.kind) {
    case PlanKind::kScan:
      return static_cast<const ScanNode&>(plan).table->uncertain();
    case PlanKind::kIndexScan:
      return static_cast<const IndexScanNode&>(plan).table->uncertain();
    case PlanKind::kFilter:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kSemiJoinReduce:
      return RuntimeUncertain(*plan.children[0]);
    case PlanKind::kAggregate:
    case PlanKind::kPossible:
      return false;
    case PlanKind::kRepairKey:
    case PlanKind::kPickTuples:
      return true;
    default:
      return plan.uncertain;
  }
}

}  // namespace

Result<TableData> ExecutePlan(const PlanNode& plan, ExecContext* ctx) {
  // Callers may hand over a context without options; the conf()/aconf()
  // aggregates read them, so substitute defaults (outlives the operator
  // tree — it is executed before this function returns).
  static const ExecOptions kDefaultOptions;
  ExecContext local = *ctx;
  if (local.options == nullptr) local.options = &kDefaultOptions;
  ctx = &local;
  MAYBMS_ASSIGN_OR_RETURN(BatchOperatorPtr root, BuildOperator(plan, ctx));
  TableData out;
  out.schema = plan.output_schema;
  out.uncertain = RuntimeUncertain(plan);
  Batch batch;
  uint64_t batches = 0;
  while (true) {
    MAYBMS_ASSIGN_OR_RETURN(bool more, root->Next(&batch));
    if (!more) break;
    ++batches;
    batch.AppendTo(&out.rows);
    batch = Batch();
  }
  if (ctx->metrics != nullptr) {
    ctx->metrics->Add(Counter::kBatchBatches, batches);
    ctx->metrics->Add(Counter::kBatchRows, out.rows.size());
  }
  return out;
}

}  // namespace maybms
