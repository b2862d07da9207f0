// A batch: ~1024 rows of a U-relation in columnar form — one ColumnVector
// per data attribute plus one ConditionColumn for the rows' conditions.
// Batches are the unit of work of the vectorized executor; columns are
// shared_ptrs so operators that pass a column through unchanged (scans,
// projections of plain column references) share it instead of copying.
//
// Convention: a ColumnVector is immutable once it is reachable from more
// than one batch — operators only mutate columns they created themselves.
#pragma once

#include <memory>
#include <vector>

#include "src/types/column_vector.h"
#include "src/types/condition_column.h"
#include "src/types/row.h"
#include "src/types/schema.h"

namespace maybms {

struct Batch {
  /// Target row count per batch: big enough to amortize per-batch work,
  /// small enough that a batch's working set stays cache-resident.
  static constexpr size_t kDefaultCapacity = 1024;

  std::vector<ColumnVectorPtr> columns;
  ConditionColumn conditions;
  size_t num_rows = 0;

  size_t NumColumns() const { return columns.size(); }

  /// Empty batch with one column per schema attribute (declared types).
  static Batch Allocate(const Schema& schema, size_t capacity = kDefaultCapacity);

  /// Columnarizes `n` rows (table snapshots).
  static Batch FromRows(const Schema& schema, const Row* rows, size_t n);

  /// Appends one row across all columns and the condition column.
  void AppendRow(const Row& row);

  /// Materializes row `i` (values + condition).
  Row RowAt(size_t i) const;

  /// Appends all rows to `out` (drain into a materialized TableData).
  void AppendTo(std::vector<Row>* out) const;
};

}  // namespace maybms
