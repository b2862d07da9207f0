// Rows of U-relations: data values plus the condition columns.
#pragma once

#include <string>
#include <vector>

#include "src/common/row_index.h"
#include "src/prob/condition.h"
#include "src/types/value.h"

namespace maybms {

/// One row: the data attribute values plus the (possibly empty) condition.
/// A t-certain row has the empty (true) condition.
struct Row {
  std::vector<Value> values;
  Condition condition;

  Row() = default;
  explicit Row(std::vector<Value> v) : values(std::move(v)) {}
  Row(std::vector<Value> v, Condition c)
      : values(std::move(v)), condition(std::move(c)) {}

  /// "(v1, v2 | {x1->0})"
  std::string ToString() const;
};

/// Element-wise Value::Equals over two value vectors of equal length.
bool ValuesEqual(const std::vector<Value>& a, const std::vector<Value>& b);

/// Finalized (fmix64) hashes over flat value spans and projections: the
/// single implementation backing every power-of-two-masked HashRowIndex
/// (src/common/row_index.h) — build and probe sides must share it. Inline
/// because they sit in join/group-by inner loops.
inline uint64_t HashValueSpan(const Value* vals, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= vals[i].Hash();
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

inline uint64_t HashValueProjection(const Value* row, const uint32_t* idxs,
                                    size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= row[idxs[i]].Hash();
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace maybms
