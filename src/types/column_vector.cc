#include "src/types/column_vector.h"

namespace maybms {

void ColumnVector::Reserve(size_t n) {
  if (boxed_) {
    boxed_values_.reserve(n);
    return;
  }
  switch (type_) {
    case TypeId::kInt:
      ints_.reserve(n);
      break;
    case TypeId::kDouble:
      doubles_.reserve(n);
      break;
    case TypeId::kBool:
      bools_.reserve(n);
      break;
    case TypeId::kString:
      strings_.reserve(n);
      break;
    case TypeId::kNull:
      break;
  }
}

void ColumnVector::MarkValid() {
  if (!valid_.empty()) valid_.push_back(1);
}

void ColumnVector::MarkNull() {
  if (valid_.empty()) valid_.assign(size_, 1);
  valid_.push_back(0);
  ++null_count_;
}

void ColumnVector::DemoteToBoxed() {
  boxed_values_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed_values_.push_back(GetValue(i));
  boxed_ = true;
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  valid_.clear();
}

void ColumnVector::Append(const Value& v) {
  if (boxed_) {
    if (v.is_null()) ++null_count_;
    boxed_values_.push_back(v);
    ++size_;
    return;
  }
  if (v.is_null()) {
    AppendNull();
    return;
  }
  TypeId vt = v.type();
  if (vt != type_) {
    // Ints widen losslessly into double columns; anything else boxes.
    if (type_ == TypeId::kDouble && vt == TypeId::kInt) {
      AppendDouble(static_cast<double>(v.AsInt()));
      return;
    }
    DemoteToBoxed();
    boxed_values_.push_back(v);
    ++size_;
    return;
  }
  switch (type_) {
    case TypeId::kInt:
      AppendInt(v.AsInt());
      return;
    case TypeId::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case TypeId::kBool:
      AppendBool(v.AsBool());
      return;
    case TypeId::kString:
      AppendString(v.AsString());
      return;
    case TypeId::kNull:
      AppendNull();
      return;
  }
}

void ColumnVector::AppendNull() {
  if (boxed_) {
    boxed_values_.push_back(Value::Null());
    ++null_count_;
    ++size_;
    return;
  }
  switch (type_) {
    case TypeId::kInt:
      ints_.push_back(0);
      break;
    case TypeId::kDouble:
      doubles_.push_back(0);
      break;
    case TypeId::kBool:
      bools_.push_back(0);
      break;
    case TypeId::kString:
      strings_.emplace_back();
      break;
    case TypeId::kNull:
      break;
  }
  MarkNull();
  ++size_;
}

void ColumnVector::AppendInt(int64_t v) {
  ints_.push_back(v);
  MarkValid();
  ++size_;
}

void ColumnVector::AppendDouble(double v) {
  doubles_.push_back(v);
  MarkValid();
  ++size_;
}

void ColumnVector::AppendBool(bool v) {
  bools_.push_back(v ? 1 : 0);
  MarkValid();
  ++size_;
}

void ColumnVector::AppendString(std::string v) {
  strings_.push_back(std::move(v));
  MarkValid();
  ++size_;
}

Value ColumnVector::GetValue(size_t i) const {
  if (boxed_) return boxed_values_[i];
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case TypeId::kInt:
      return Value::Int(ints_[i]);
    case TypeId::kDouble:
      return Value::Double(doubles_[i]);
    case TypeId::kBool:
      return Value::Bool(bools_[i] != 0);
    case TypeId::kString:
      return Value::String(strings_[i]);
    case TypeId::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnVector::AppendSelected(const ColumnVector& src, const uint32_t* sel,
                                  size_t n) {
  if (boxed_ || src.boxed_ || src.type_ != type_ || type_ == TypeId::kNull) {
    for (size_t k = 0; k < n; ++k) Append(src.GetValue(sel[k]));
    return;
  }
  const bool nulls = !src.no_nulls();
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = sel[k];
    if (nulls && src.IsNull(i)) {
      AppendNull();
      continue;
    }
    switch (type_) {
      case TypeId::kInt:
        ints_.push_back(src.ints_[i]);
        break;
      case TypeId::kDouble:
        doubles_.push_back(src.doubles_[i]);
        break;
      case TypeId::kBool:
        bools_.push_back(src.bools_[i]);
        break;
      case TypeId::kString:
        strings_.push_back(src.strings_[i]);
        break;
      case TypeId::kNull:
        break;
    }
    MarkValid();
    ++size_;
  }
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& idxs) const {
  ColumnVector out(type_);
  if (boxed_) {
    out.boxed_ = true;
    out.boxed_values_.reserve(idxs.size());
    for (uint32_t i : idxs) {
      out.boxed_values_.push_back(boxed_values_[i]);
      if (boxed_values_[i].is_null()) ++out.null_count_;
    }
    out.size_ = idxs.size();
    return out;
  }
  out.Reserve(idxs.size());
  switch (type_) {
    case TypeId::kInt:
      for (uint32_t i : idxs) out.ints_.push_back(ints_[i]);
      break;
    case TypeId::kDouble:
      for (uint32_t i : idxs) out.doubles_.push_back(doubles_[i]);
      break;
    case TypeId::kBool:
      for (uint32_t i : idxs) out.bools_.push_back(bools_[i]);
      break;
    case TypeId::kString:
      for (uint32_t i : idxs) out.strings_.push_back(strings_[i]);
      break;
    case TypeId::kNull:
      break;
  }
  out.size_ = idxs.size();
  if (null_count_ > 0 && !valid_.empty()) {
    out.valid_.reserve(idxs.size());
    for (uint32_t i : idxs) {
      out.valid_.push_back(valid_[i]);
      if (valid_[i] == 0) ++out.null_count_;
    }
    if (out.null_count_ == 0) out.valid_.clear();
  } else if (type_ == TypeId::kNull) {
    out.null_count_ = idxs.size();
    out.valid_.assign(idxs.size(), 0);
  }
  return out;
}

ColumnVector ColumnVector::Constant(const Value& v, size_t n) {
  ColumnVector out(v.type());
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.Append(v);
  return out;
}

}  // namespace maybms
