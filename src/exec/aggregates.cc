#include "src/exec/aggregates.h"

#include <algorithm>
#include <cmath>

#include "src/common/str_util.h"
#include "src/cond/posterior.h"
#include "src/exec/conf_fallback.h"
#include "src/lineage/dnf.h"

namespace maybms {

namespace {

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

}  // namespace

Result<std::vector<std::vector<Value>>> ComputeGroupAggregates(
    const std::vector<const Row*>& group_rows,
    const std::vector<BoundAggregate>& aggs, ExecContext* ctx) {
  const WorldTable& wt = ctx->worlds();

  // Value of each non-argmax aggregate; argmax handled separately.
  std::vector<Value> values(aggs.size(), Value::Null());
  int argmax_index = -1;
  std::vector<Value> argmax_ties;

  for (size_t a = 0; a < aggs.size(); ++a) {
    const BoundAggregate& agg = aggs[a];
    switch (agg.kind) {
      case AggKind::kCountStar: {
        values[a] = Value::Int(static_cast<int64_t>(group_rows.size()));
        break;
      }
      case AggKind::kCount: {
        int64_t n = 0;
        for (const Row* row : group_rows) {
          MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(row->values));
          if (!v.is_null()) ++n;
        }
        values[a] = Value::Int(n);
        break;
      }
      case AggKind::kSum:
      case AggKind::kAvg:
      case AggKind::kMin:
      case AggKind::kMax: {
        StandardAcc acc;
        for (const Row* row : group_rows) {
          MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(row->values));
          if (!v.is_null() && (agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) &&
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
        // The group's lineage: disjunction of the duplicate tuples'
        // conjunctive conditions (paper §2.3). Under asserted evidence the
        // answer is the posterior P(lineage | C) (src/cond/posterior.h).
        //
        // Clause order is canonicalized (conditions compare lexicographically
        // over their sorted atom lists) so the lineage handed to the solvers
        // is a pure function of the group's condition CONTENT: the optimizer
        // may reorder joins, which permutes duplicate arrival order but can
        // never change what the merged conditions contain.
        const ConstraintStore& cs = ctx->constraints();
        std::vector<const Row*> ordered(group_rows);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const Row* x, const Row* y) {
                           return x->condition < y->condition;
                         });
        Dnf dnf;
        for (const Row* row : ordered) dnf.AddClause(row->condition);
        if (agg.kind == AggKind::kConf) {
          MAYBMS_ASSIGN_OR_RETURN(double p, GroupConfidence(dnf, ctx));
          values[a] = Value::Double(p);
        } else {
          // Sampling seeds derive from the group's lineage content (same
          // scheme as the conf() fallback and the batch engine), sampling
          // on counter-based substreams — identical estimates at every
          // thread count (a null pool runs the substreams serially), across
          // engines, across join orders, and across repeated statements
          // over unchanged lineage (which makes the estimate cacheable).
          uint64_t base_seed = LineageSeed(dnf);
          MonteCarloResult mc;
          if (cs.active()) {
            MAYBMS_ASSIGN_OR_RETURN(
                mc, PosteriorApproxConfidenceSeeded(dnf, cs, wt, agg.epsilon,
                                                    agg.delta, base_seed,
                                                    ctx->options->montecarlo,
                                                    ctx->pool));
          } else {
            MAYBMS_ASSIGN_OR_RETURN(
                mc, ApproxConfidenceSeeded(CompiledDnf(dnf, wt), agg.epsilon,
                                           agg.delta, base_seed,
                                           ctx->options->montecarlo, ctx->pool));
          }
          values[a] = Value::Double(mc.estimate);
        }
        break;
      }
      case AggKind::kEsum: {
        // Expected sum by linearity of expectation: Σ value·P(condition) —
        // linear time, no #P confidence computation (paper §2.2 item 4).
        // Under evidence the per-row marginal is the posterior.
        const ConstraintStore& cs = ctx->constraints();
        double total = 0;
        for (const Row* row : group_rows) {
          MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(row->values));
          if (v.is_null()) continue;
          MAYBMS_ASSIGN_OR_RETURN(double d, v.ToDouble());
          MAYBMS_ASSIGN_OR_RETURN(
              double p, PosteriorConditionProb(row->condition, cs, wt,
                                               ctx->options->exact));
          total += d * p;
        }
        values[a] = Value::Double(total);
        break;
      }
      case AggKind::kEcount: {
        const ConstraintStore& cs = ctx->constraints();
        double total = 0;
        for (const Row* row : group_rows) {
          if (agg.arg) {
            MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(row->values));
            if (v.is_null()) continue;
          }
          MAYBMS_ASSIGN_OR_RETURN(
              double p, PosteriorConditionProb(row->condition, cs, wt,
                                               ctx->options->exact));
          total += p;
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
        for (const Row* row : group_rows) {
          MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg2->Eval(row->values));
          if (v.is_null()) continue;
          if (best.is_null() || v.Compare(best) > 0) best = v;
        }
        if (!best.is_null()) {
          for (const Row* row : group_rows) {
            MAYBMS_ASSIGN_OR_RETURN(Value v, agg.arg2->Eval(row->values));
            if (v.is_null() || !v.Equals(best)) continue;
            MAYBMS_ASSIGN_OR_RETURN(Value arg_v, agg.arg->Eval(row->values));
            // Deduplicate tie values.
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

}  // namespace maybms
