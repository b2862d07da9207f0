// Vectorized expression evaluation: a BoundExpr evaluated over a whole
// Batch at once, producing a ColumnVector.
//
// Hot shapes (column/literal comparisons and arithmetic over int64/double
// columns) run as tight typed loops over the raw column arrays. Everything
// else falls back to a per-row loop over the *same scalar kernels
// BoundExpr::Eval uses* (EvalUnaryValue/EvalBinaryValue/
// EvalScalarFunctionValue), so the two paths cannot disagree on SQL
// semantics.
//
// Short-circuit AND/OR re-evaluates per row: AND/OR are not short-circuited
// when vector-evaluating (the Kleene result is identical); if the
// eagerly-evaluated side fails — e.g. a division by zero on a row whose
// other side already decides the result — evaluation re-runs per row with
// proper short-circuiting, so the error surfaces only where a row-at-a-time
// evaluation would raise it.
#pragma once

#include "src/common/result.h"
#include "src/exec/expression.h"
#include "src/types/batch.h"

namespace maybms {

/// Evaluates `expr` over every row of `in`. kTconf placeholders are the
/// projection operator's job and yield an internal error here, mirroring
/// BoundTconf::Eval.
Result<ColumnVectorPtr> EvalVector(const BoundExpr& expr, const Batch& in);

}  // namespace maybms
