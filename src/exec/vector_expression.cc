#include "src/exec/vector_expression.h"

#include <cmath>

#include "src/common/str_util.h"

namespace maybms {

namespace {

ColumnVectorPtr MakeColumn(TypeId t, size_t n) {
  auto c = std::make_shared<ColumnVector>(t);
  c->Reserve(n);
  return c;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

// Unified read access to a non-boxed numeric column.
struct NumView {
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* valid = nullptr;  // nullptr = all valid

  bool IsNull(size_t k) const { return valid != nullptr && valid[k] == 0; }
  bool is_int() const { return ints != nullptr; }
  int64_t I(size_t k) const { return ints[k]; }
  double D(size_t k) const {
    return ints != nullptr ? static_cast<double>(ints[k]) : doubles[k];
  }
};

bool GetNumView(const ColumnVector& c, NumView* v) {
  if (c.boxed()) return false;
  if (c.type() == TypeId::kInt) {
    v->ints = c.IntData();
  } else if (c.type() == TypeId::kDouble) {
    v->doubles = c.DoubleData();
  } else {
    return false;
  }
  v->valid = c.valid().empty() ? nullptr : c.valid().data();
  return true;
}

template <typename T>
bool CompareOp(BinaryOp op, T a, T b) {
  switch (op) {
    case BinaryOp::kEq:
      return a == b;
    case BinaryOp::kNe:
      return a != b;
    case BinaryOp::kLt:
      return a < b;
    case BinaryOp::kLe:
      return a <= b;
    case BinaryOp::kGt:
      return a > b;
    case BinaryOp::kGe:
      return a >= b;
    default:
      return false;
  }
}

// Typed fast path for comparisons and arithmetic over numeric columns.
// Matches the scalar kernel bit-for-bit: int⋄int stays in int64 (except
// division), mixed operands promote to double, division/modulo by zero on
// a non-null row is an execution error.
Result<ColumnVectorPtr> FastNumericBinary(BinaryOp op, const ColumnVector& l,
                                          const ColumnVector& r, size_t n) {
  NumView lv, rv;
  if (!GetNumView(l, &lv) || !GetNumView(r, &rv)) return ColumnVectorPtr{};
  bool both_int = lv.is_int() && rv.is_int();

  if (IsComparison(op)) {
    auto out = MakeColumn(TypeId::kBool, n);
    for (size_t k = 0; k < n; ++k) {
      if (lv.IsNull(k) || rv.IsNull(k)) {
        out->AppendNull();
      } else if (both_int) {
        out->AppendBool(CompareOp<int64_t>(op, lv.I(k), rv.I(k)));
      } else {
        out->AppendBool(CompareOp<double>(op, lv.D(k), rv.D(k)));
      }
    }
    return out;
  }

  if (both_int && op != BinaryOp::kDiv) {
    auto out = MakeColumn(TypeId::kInt, n);
    for (size_t k = 0; k < n; ++k) {
      if (lv.IsNull(k) || rv.IsNull(k)) {
        out->AppendNull();
        continue;
      }
      int64_t a = lv.I(k), b = rv.I(k);
      switch (op) {
        case BinaryOp::kAdd:
          out->AppendInt(a + b);
          break;
        case BinaryOp::kSub:
          out->AppendInt(a - b);
          break;
        case BinaryOp::kMul:
          out->AppendInt(a * b);
          break;
        case BinaryOp::kMod:
          if (b == 0) return Status::ExecutionError("modulo by zero");
          out->AppendInt(a % b);
          break;
        default:
          return Status::Internal("unexpected integer arithmetic operator");
      }
    }
    return out;
  }

  auto out = MakeColumn(TypeId::kDouble, n);
  for (size_t k = 0; k < n; ++k) {
    if (lv.IsNull(k) || rv.IsNull(k)) {
      out->AppendNull();
      continue;
    }
    double a = lv.D(k), b = rv.D(k);
    switch (op) {
      case BinaryOp::kAdd:
        out->AppendDouble(a + b);
        break;
      case BinaryOp::kSub:
        out->AppendDouble(a - b);
        break;
      case BinaryOp::kMul:
        out->AppendDouble(a * b);
        break;
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        out->AppendDouble(a / b);
        break;
      case BinaryOp::kMod:
        if (b == 0) return Status::ExecutionError("modulo by zero");
        out->AppendDouble(std::fmod(a, b));
        break;
      default:
        return Status::Internal("unexpected arithmetic operator");
    }
  }
  return out;
}

// String comparisons (both sides string columns, no boxing).
Result<ColumnVectorPtr> FastStringCompare(BinaryOp op, const ColumnVector& l,
                                          const ColumnVector& r, size_t n) {
  if (l.boxed() || r.boxed() || l.type() != TypeId::kString ||
      r.type() != TypeId::kString || !IsComparison(op)) {
    return ColumnVectorPtr{};
  }
  const std::string* ls = l.StringData();
  const std::string* rs = r.StringData();
  const uint8_t* lm = l.valid().empty() ? nullptr : l.valid().data();
  const uint8_t* rm = r.valid().empty() ? nullptr : r.valid().data();
  auto out = MakeColumn(TypeId::kBool, n);
  for (size_t k = 0; k < n; ++k) {
    if ((lm != nullptr && lm[k] == 0) || (rm != nullptr && rm[k] == 0)) {
      out->AppendNull();
      continue;
    }
    int c = ls[k].compare(rs[k]);
    out->AppendBool(CompareOp<int>(op, c, 0));
  }
  return out;
}

Result<ColumnVectorPtr> EvalBinaryVector(const BoundBinary& expr, const Batch& in);

Result<ColumnVectorPtr> EvalUnaryVector(const BoundUnary& expr, const Batch& in) {
  MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr operand, EvalVector(*expr.operand, in));
  size_t n = in.num_rows;
  // Fast negate over numeric columns.
  if (expr.op == UnaryOp::kNegate) {
    NumView v;
    if (GetNumView(*operand, &v)) {
      if (v.is_int()) {
        auto out = MakeColumn(TypeId::kInt, n);
        for (size_t k = 0; k < n; ++k) {
          if (v.IsNull(k)) {
            out->AppendNull();
          } else {
            out->AppendInt(-v.I(k));
          }
        }
        return out;
      }
      auto out = MakeColumn(TypeId::kDouble, n);
      for (size_t k = 0; k < n; ++k) {
        if (v.IsNull(k)) {
          out->AppendNull();
        } else {
          out->AppendDouble(-v.D(k));
        }
      }
      return out;
    }
  }
  auto out = std::make_shared<ColumnVector>(expr.type);
  out->Reserve(n);
  for (size_t k = 0; k < n; ++k) {
    MAYBMS_ASSIGN_OR_RETURN(Value v, EvalUnaryValue(expr.op, operand->GetValue(k)));
    out->Append(v);
  }
  return out;
}

// Re-evaluates an AND/OR per row with short-circuiting — the error
// recovery path when eager vector evaluation of one side failed on a row
// whose other side already decides the result.
Result<ColumnVectorPtr> ShortCircuitRowFallback(const BoundBinary& expr,
                                                const Batch& in) {
  size_t n = in.num_rows;
  auto out = MakeColumn(TypeId::kBool, n);
  std::vector<Value> row(in.NumColumns());
  for (size_t k = 0; k < n; ++k) {
    for (size_t c = 0; c < in.NumColumns(); ++c) row[c] = in.columns[c]->GetValue(k);
    MAYBMS_ASSIGN_OR_RETURN(Value v, expr.Eval(row));
    out->Append(v);
  }
  return out;
}

Result<ColumnVectorPtr> EvalBinaryVector(const BoundBinary& expr, const Batch& in) {
  size_t n = in.num_rows;

  if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
    // Evaluate both sides eagerly: the Kleene combination is identical to
    // the short-circuited result whenever both sides evaluate cleanly.
    Result<ColumnVectorPtr> left = EvalVector(*expr.left, in);
    Result<ColumnVectorPtr> right =
        left.ok() ? EvalVector(*expr.right, in) : Result<ColumnVectorPtr>(ColumnVectorPtr{});
    if (!left.ok() || !right.ok()) return ShortCircuitRowFallback(expr, in);
    const ColumnVector& l = **left;
    const ColumnVector& r = **right;
    auto out = MakeColumn(TypeId::kBool, n);
    for (size_t k = 0; k < n; ++k) {
      MAYBMS_ASSIGN_OR_RETURN(
          Value v, EvalBinaryValue(expr.op, l.GetValue(k), r.GetValue(k)));
      out->Append(v);
    }
    return out;
  }

  MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr left, EvalVector(*expr.left, in));
  MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr right, EvalVector(*expr.right, in));

  if (IsComparison(expr.op) || IsArithmetic(expr.op)) {
    MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr fast,
                            FastNumericBinary(expr.op, *left, *right, n));
    if (fast != nullptr) return fast;
    MAYBMS_ASSIGN_OR_RETURN(fast, FastStringCompare(expr.op, *left, *right, n));
    if (fast != nullptr) return fast;
  }

  auto out = std::make_shared<ColumnVector>(expr.type);
  out->Reserve(n);
  for (size_t k = 0; k < n; ++k) {
    MAYBMS_ASSIGN_OR_RETURN(
        Value v, EvalBinaryValue(expr.op, left->GetValue(k), right->GetValue(k)));
    out->Append(v);
  }
  return out;
}

Result<ColumnVectorPtr> EvalScalarFunctionVector(const BoundScalarFunction& expr,
                                                 const Batch& in) {
  size_t n = in.num_rows;
  std::vector<ColumnVectorPtr> arg_cols;
  arg_cols.reserve(expr.args.size());
  for (const BoundExprPtr& a : expr.args) {
    MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr col, EvalVector(*a, in));
    arg_cols.push_back(std::move(col));
  }
  auto out = std::make_shared<ColumnVector>(expr.type);
  out->Reserve(n);
  std::vector<Value> vals(arg_cols.size());
  for (size_t k = 0; k < n; ++k) {
    bool any_null = false;
    for (size_t a = 0; a < arg_cols.size(); ++a) {
      vals[a] = arg_cols[a]->GetValue(k);
      any_null |= vals[a].is_null();
    }
    if (any_null) {
      out->AppendNull();
      continue;
    }
    MAYBMS_ASSIGN_OR_RETURN(Value v, EvalScalarFunctionValue(expr.name, vals));
    out->Append(v);
  }
  return out;
}

}  // namespace

Result<ColumnVectorPtr> EvalVector(const BoundExpr& expr, const Batch& in) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral: {
      const auto& lit = static_cast<const BoundLiteral&>(expr);
      return std::make_shared<ColumnVector>(
          ColumnVector::Constant(lit.value, in.num_rows));
    }
    case BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(expr);
      if (ref.index >= in.columns.size()) {
        return Status::Internal("column index out of range during evaluation");
      }
      return in.columns[ref.index];
    }
    case BoundExprKind::kUnary:
      return EvalUnaryVector(static_cast<const BoundUnary&>(expr), in);
    case BoundExprKind::kBinary:
      return EvalBinaryVector(static_cast<const BoundBinary&>(expr), in);
    case BoundExprKind::kScalarFunction:
      return EvalScalarFunctionVector(static_cast<const BoundScalarFunction&>(expr),
                                      in);
    case BoundExprKind::kIsNull: {
      const auto& isnull = static_cast<const BoundIsNull&>(expr);
      MAYBMS_ASSIGN_OR_RETURN(ColumnVectorPtr operand,
                              EvalVector(*isnull.operand, in));
      auto out = MakeColumn(TypeId::kBool, in.num_rows);
      for (size_t k = 0; k < in.num_rows; ++k) {
        out->AppendBool(operand->IsNull(k) != isnull.negated);
      }
      return out;
    }
    case BoundExprKind::kTconf:
      return Status::Internal("tconf() evaluated outside a projection");
  }
  return Status::Internal("unhandled bound expression kind");
}

}  // namespace maybms
