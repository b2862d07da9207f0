// Typed join keys: the one hash-keyed build/probe structure behind the
// batch engine's hash join, IN-subquery semijoin and semijoin reducer.
//
// Keys are read straight from the typed arrays of the evaluated key
// columns (IntData()/DoubleData()/StringData()); boxed columns fall back to
// Value::Hash/Value::Equals inside this file, never in the operators. The
// hashes equal HashValueSpan over the boxed values (ints hash through
// double, so int 5 and double 5.0 still meet), and CellsEqual is exactly
// Value::Equals, so every operator built on the table sees the same
// matches, in the same order, as the per-row Value path it replaced.
//
// Range filter: when the key is one column and every build cell is a
// non-boxed int, the build records the exact min/max of its non-null keys.
// A non-null int or double probe key outside [min, max] cannot equal any
// build key (an int equals an int exactly; a double equals an int b only if
// it equals (double)b, and int -> double is monotone), so such rows are
// dropped before they are hashed. The filter has no knob and no error.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/row_index.h"
#include "src/types/column_vector.h"

namespace maybms {

class ThreadPool;

/// The evaluated key columns of one batch, one per key expression.
using KeyColumns = std::vector<ColumnVectorPtr>;

/// hashes[k] = HashValueSpan over the boxed key cells of row rows[k], read
/// from the typed arrays (boxed columns through Value::Hash).
void HashKeyRows(const KeyColumns& cols, const uint32_t* rows, size_t n,
                 uint64_t* hashes);

/// Value::Equals over two non-null cells, typed where both are typed.
bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b, size_t j);

/// The probe rows of one batch range that survive the null check and the
/// range filter, with their key hashes (parallel to `rows`).
struct ProbeRows {
  std::vector<uint32_t> rows;
  std::vector<uint64_t> hashes;
  uint64_t range_skipped = 0;  // non-null keys dropped by the range filter
};

class KeyTable {
 public:
  static constexpr uint32_t kNoEntry = HashRowIndex::kNoRow;

  KeyTable() = default;

  /// Build input: each build batch's `num_keys` key columns, in build-input
  /// order. Build rows are numbered globally in that order.
  KeyTable(size_t num_keys, std::vector<KeyColumns> batches);

  /// Indexes every build row with a non-null key (the hash join). With a
  /// pool the batches hash concurrently and the index is radix-partitioned;
  /// the candidates of a probe are the same either way (see Matches).
  void BuildAllRows(ThreadPool* pool);

  /// Indexes the first row of each distinct non-null key tuple (the
  /// semijoins). Returns, per build row, its entry — entries number in
  /// first-seen order — or kNoEntry for a row with a null key.
  std::vector<uint32_t> BuildDistinct();
  size_t num_entries() const { return entry_rows_.size(); }

  /// Null check, range filter and hashing for probe rows [begin, end).
  void Prepare(const KeyColumns& probe, size_t begin, size_t end,
               ProbeRows* out) const;

  /// BuildAllRows tables: the build rows whose key equals probe row `i`
  /// (hash `h`), ascending — build-input order.
  void Matches(const KeyColumns& probe, size_t i, uint64_t h,
               std::vector<uint32_t>* rows) const;

  /// BuildDistinct tables: the entry whose key equals probe row `i`
  /// (hash `h`), or kNoEntry.
  uint32_t Find(const KeyColumns& probe, size_t i, uint64_t h) const;

 private:
  // Hash partitioning (parallel build): partition by the hash's HIGH bits
  // — HashRowIndex buckets by the low bits, so the two stay independent.
  // The partition count is fixed; a row's partition never depends on the
  // thread count.
  static constexpr size_t kPartitionBits = 6;
  static constexpr size_t kPartitions = size_t{1} << kPartitionBits;
  static size_t PartitionOf(uint64_t h) { return h >> (64 - kPartitionBits); }

  bool KeyEquals(const KeyColumns& probe, size_t i, uint32_t row) const;
  const HashRowIndex& IndexFor(uint64_t h) const {
    return part_index_.empty() ? index_ : part_index_[PartitionOf(h)];
  }
  // Hashes build batch `b` into hashes_ and marks its non-null-key rows
  // in live_.
  void HashBatch(size_t b);

  std::vector<KeyColumns> batches_;
  std::vector<size_t> batch_begin_;  // first global row of each batch, + end
  std::vector<uint32_t> row_batch_;  // global build row -> batch
  std::vector<uint32_t> row_idx_;    // global build row -> index in batch
  std::vector<uint64_t> hashes_;     // per build row
  std::vector<uint8_t> live_;        // 1 = non-null key
  HashRowIndex index_;               // serial build
  std::vector<HashRowIndex> part_index_;  // parallel build: kPartitions
  std::vector<uint32_t> entry_rows_;      // distinct entry -> first row
  bool has_range_ = false;
  int64_t range_lo_ = 0;
  int64_t range_hi_ = 0;
};

}  // namespace maybms
