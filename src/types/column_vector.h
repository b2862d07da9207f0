// Typed columnar value storage: one vector per batch column. Cells of one
// SQL type live in a contiguous typed array with a separate validity mask,
// so hot operator loops (filters, arithmetic, hashing) run over plain
// int64/double arrays instead of dispatching on variant Values per cell.
//
// Columns whose declared type is kNull (untyped), or that receive a value
// of a type other than the declared one (legal through untyped columns),
// fall back to boxed row-at-a-time Value storage — the slow but fully
// general representation. All appends preserve exactly the Value that was
// appended: GetValue(Append(v)) == v.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace maybms {

class ColumnVector {
 public:
  explicit ColumnVector(TypeId type = TypeId::kNull) : type_(type) {}

  /// Declared cell type. Boxed columns keep their declared type; individual
  /// cells may disagree (check boxed()).
  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when the column stores variant Values instead of a typed array.
  bool boxed() const { return boxed_; }

  void Reserve(size_t n);

  /// Appends a value, demoting to boxed storage when the value's type does
  /// not match the declared type (ints are widened into double columns).
  void Append(const Value& v);
  void AppendNull();

  /// Typed fast-path appends (caller guarantees the matching non-boxed
  /// type; used by vectorized kernels).
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string v);

  /// Cell accessors.
  Value GetValue(size_t i) const;
  bool IsNull(size_t i) const {
    return boxed_ ? boxed_values_[i].is_null() : (!valid_.empty() && valid_[i] == 0);
  }

  /// True when no cell is null (fast path guard for kernels).
  bool no_nulls() const { return null_count_ == 0; }
  size_t null_count() const { return null_count_; }

  /// Raw typed data (valid only when !boxed() and type matches; null cells
  /// hold unspecified data — consult valid()).
  const int64_t* IntData() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  const uint8_t* BoolData() const { return bools_.data(); }
  const std::string* StringData() const { return strings_.data(); }
  int64_t* MutableIntData() { return ints_.data(); }
  double* MutableDoubleData() { return doubles_.data(); }
  uint8_t* MutableBoolData() { return bools_.data(); }

  /// Validity mask: empty means "all valid"; otherwise 1 = non-null.
  const std::vector<uint8_t>& valid() const { return valid_; }

  /// Appends the cells of `src` at sel[0..n), in order: exactly
  /// Append(src.GetValue(sel[k])) for each k, without boxing a Value when
  /// both columns hold the same non-boxed type.
  void AppendSelected(const ColumnVector& src, const uint32_t* sel, size_t n);

  /// New column with the rows at `idxs`, in order (filter/gather).
  ColumnVector Gather(const std::vector<uint32_t>& idxs) const;

  /// A column of `n` copies of `v`.
  static ColumnVector Constant(const Value& v, size_t n);

 private:
  void DemoteToBoxed();
  void MarkValid();
  void MarkNull();

  TypeId type_;
  size_t size_ = 0;
  size_t null_count_ = 0;
  bool boxed_ = false;

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<Value> boxed_values_;
  std::vector<uint8_t> valid_;  // lazily materialized: empty = all valid
};

using ColumnVectorPtr = std::shared_ptr<ColumnVector>;

}  // namespace maybms
