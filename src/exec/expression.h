// Bound expressions: AST expressions resolved against an input schema
// (column references become indexes) and type-checked. Evaluated by tree
// walking over row value vectors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/sql/ast.h"
#include "src/types/row.h"
#include "src/types/schema.h"

namespace maybms {

enum class BoundExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kScalarFunction,
  kIsNull,
  /// Placeholder for tconf(): evaluated by the projection operator, which
  /// has access to the row condition (Eval() on it is an internal error).
  kTconf,
};

struct BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundExpr {
  BoundExpr(BoundExprKind k, TypeId t) : kind(k), type(t) {}
  virtual ~BoundExpr() = default;

  /// Evaluates over a row of the bound input schema. SQL null semantics:
  /// null operands propagate (comparisons yield null, which filters treat
  /// as false).
  virtual Result<Value> Eval(const std::vector<Value>& row) const = 0;

  /// Display string for naming output columns / error messages.
  virtual std::string ToString() const = 0;

  /// Collects referenced column indexes (for join-key analysis).
  virtual void CollectColumns(std::vector<size_t>* out) const = 0;

  /// Structural deep copy.
  virtual BoundExprPtr Clone() const = 0;

  const BoundExprKind kind;
  const TypeId type;  ///< static result type (kNull = unknown/any)
};

struct BoundLiteral : BoundExpr {
  explicit BoundLiteral(Value v)
      : BoundExpr(BoundExprKind::kLiteral, v.type()), value(std::move(v)) {}
  Result<Value> Eval(const std::vector<Value>&) const override { return value; }
  std::string ToString() const override { return value.ToString(); }
  void CollectColumns(std::vector<size_t>*) const override {}
  BoundExprPtr Clone() const override { return std::make_unique<BoundLiteral>(value); }

  Value value;
};

struct BoundColumnRef : BoundExpr {
  BoundColumnRef(size_t i, TypeId t, std::string n)
      : BoundExpr(BoundExprKind::kColumnRef, t), index(i), name(std::move(n)) {}
  Result<Value> Eval(const std::vector<Value>& row) const override {
    if (index >= row.size()) {
      return Status::Internal("column index out of range during evaluation");
    }
    return row[index];
  }
  std::string ToString() const override { return name; }
  void CollectColumns(std::vector<size_t>* out) const override {
    out->push_back(index);
  }
  BoundExprPtr Clone() const override {
    return std::make_unique<BoundColumnRef>(index, type, name);
  }

  size_t index;
  std::string name;
};

struct BoundUnary : BoundExpr {
  BoundUnary(UnaryOp o, BoundExprPtr e, TypeId t)
      : BoundExpr(BoundExprKind::kUnary, t), op(o), operand(std::move(e)) {}
  Result<Value> Eval(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    operand->CollectColumns(out);
  }
  BoundExprPtr Clone() const override {
    return std::make_unique<BoundUnary>(op, operand->Clone(), type);
  }

  UnaryOp op;
  BoundExprPtr operand;
};

struct BoundBinary : BoundExpr {
  BoundBinary(BinaryOp o, BoundExprPtr l, BoundExprPtr r, TypeId t)
      : BoundExpr(BoundExprKind::kBinary, t), op(o), left(std::move(l)),
        right(std::move(r)) {}
  Result<Value> Eval(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    left->CollectColumns(out);
    right->CollectColumns(out);
  }
  BoundExprPtr Clone() const override {
    return std::make_unique<BoundBinary>(op, left->Clone(), right->Clone(), type);
  }

  BinaryOp op;
  BoundExprPtr left;
  BoundExprPtr right;
};

/// Scalar math/string functions usable anywhere an expression is (abs,
/// sqrt, exp, ln, pow, round, floor, ceil, least, greatest, length, lower,
/// upper).
struct BoundScalarFunction : BoundExpr {
  BoundScalarFunction(std::string n, std::vector<BoundExprPtr> a, TypeId t)
      : BoundExpr(BoundExprKind::kScalarFunction, t), name(std::move(n)),
        args(std::move(a)) {}
  Result<Value> Eval(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<size_t>* out) const override {
    for (const BoundExprPtr& a : args) a->CollectColumns(out);
  }
  BoundExprPtr Clone() const override;

  std::string name;
  std::vector<BoundExprPtr> args;
};

/// `expr IS [NOT] NULL` — does not propagate nulls.
struct BoundIsNull : BoundExpr {
  BoundIsNull(BoundExprPtr e, bool neg)
      : BoundExpr(BoundExprKind::kIsNull, TypeId::kBool), operand(std::move(e)),
        negated(neg) {}
  Result<Value> Eval(const std::vector<Value>& row) const override {
    MAYBMS_ASSIGN_OR_RETURN(Value v, operand->Eval(row));
    return Value::Bool(v.is_null() != negated);
  }
  std::string ToString() const override {
    return operand->ToString() + (negated ? " is not null" : " is null");
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    operand->CollectColumns(out);
  }
  BoundExprPtr Clone() const override {
    return std::make_unique<BoundIsNull>(operand->Clone(), negated);
  }

  BoundExprPtr operand;
  bool negated;
};

/// tconf() placeholder (see BoundExprKind::kTconf).
struct BoundTconf : BoundExpr {
  BoundTconf() : BoundExpr(BoundExprKind::kTconf, TypeId::kDouble) {}
  Result<Value> Eval(const std::vector<Value>&) const override {
    return Status::Internal("tconf() evaluated outside a projection");
  }
  std::string ToString() const override { return "tconf()"; }
  void CollectColumns(std::vector<size_t>*) const override {}
  BoundExprPtr Clone() const override { return std::make_unique<BoundTconf>(); }
};

/// Scalar kernels shared by the per-row tree walk (BoundExpr::Eval, used
/// by UPDATE/DELETE and the per-row fallbacks) and the vectorized
/// evaluator (src/exec/vector_expression.h), so both agree on SQL
/// semantics to the bit.
///
/// EvalUnaryValue/EvalBinaryValue accept null operands and propagate them
/// per SQL rules (AND/OR use Kleene three-valued logic over the two given
/// values). EvalScalarFunctionValue requires non-null arguments (callers
/// return null when any argument is null).
Result<Value> EvalUnaryValue(UnaryOp op, const Value& v);
Result<Value> EvalBinaryValue(BinaryOp op, const Value& l, const Value& r);
Result<Value> EvalScalarFunctionValue(const std::string& name,
                                      const std::vector<Value>& vals);

/// True if `name` is one of the scalar function names BoundScalarFunction
/// understands.
bool IsScalarFunction(const std::string& name);

/// Result type of a scalar function given argument types.
Result<TypeId> ScalarFunctionResultType(const std::string& name,
                                        const std::vector<TypeId>& arg_types);

/// SQL truthiness: true values only; null and false both reject.
bool IsTruthy(const Value& v);

}  // namespace maybms
