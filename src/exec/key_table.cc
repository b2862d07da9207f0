#include "src/exec/key_table.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "src/common/thread_pool.h"

namespace maybms {

namespace {

// HashValueSpan's fold (src/types/row.h), applied column-at-a-time.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// h[k] = (h[k] ^ Value::Hash(cell rows[k])) * prime, read from the typed
// arrays. The per-type cell hashes are Value::Hash's.
void FoldColumn(const ColumnVector& col, const uint32_t* rows, size_t n,
                uint64_t* h) {
  auto fold = [&](auto cell_hash) {
    for (size_t k = 0; k < n; ++k) {
      h[k] = (h[k] ^ static_cast<uint64_t>(cell_hash(rows[k]))) * kFnvPrime;
    }
  };
  if (col.boxed()) {
    fold([&](uint32_t r) { return col.GetValue(r).Hash(); });
    return;
  }
  switch (col.type()) {
    case TypeId::kInt: {
      const int64_t* d = col.IntData();
      fold([d](uint32_t r) { return std::hash<double>{}(static_cast<double>(d[r])); });
      return;
    }
    case TypeId::kDouble: {
      const double* d = col.DoubleData();
      fold([d](uint32_t r) { return std::hash<double>{}(d[r]); });
      return;
    }
    case TypeId::kBool: {
      const uint8_t* d = col.BoolData();
      fold([d](uint32_t r) { return d[r] != 0 ? size_t{0x1234567} : size_t{0x89abcde}; });
      return;
    }
    case TypeId::kString: {
      const std::string* d = col.StringData();
      fold([d](uint32_t r) { return std::hash<std::string>{}(d[r]); });
      return;
    }
    case TypeId::kNull:
      fold([](uint32_t) { return Value::Null().Hash(); });
      return;
  }
}

// Appends the rows of [begin, end) whose key cells are all non-null (SQL
// equality: a null key joins nothing).
void NonNullRows(const KeyColumns& cols, size_t begin, size_t end,
                 std::vector<uint32_t>* rows) {
  bool any_nulls = false;
  for (const ColumnVectorPtr& c : cols) any_nulls |= !c->no_nulls();
  for (size_t i = begin; i < end; ++i) {
    if (any_nulls) {
      bool has_null = false;
      for (const ColumnVectorPtr& c : cols) has_null |= c->IsNull(i);
      if (has_null) continue;
    }
    rows->push_back(static_cast<uint32_t>(i));
  }
}

}  // namespace

void HashKeyRows(const KeyColumns& cols, const uint32_t* rows, size_t n,
                 uint64_t* hashes) {
  std::fill(hashes, hashes + n, kFnvBasis);
  for (const ColumnVectorPtr& c : cols) FoldColumn(*c, rows, n, hashes);
  for (size_t k = 0; k < n; ++k) hashes[k] = Mix64(hashes[k]);
}

bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b, size_t j) {
  if (!a.boxed() && !b.boxed() && a.type() != TypeId::kNull &&
      b.type() != TypeId::kNull) {
    const TypeId ta = a.type();
    const TypeId tb = b.type();
    if (ta == tb) {
      switch (ta) {
        case TypeId::kInt:
          return a.IntData()[i] == b.IntData()[j];
        case TypeId::kDouble:
          return a.DoubleData()[i] == b.DoubleData()[j];
        case TypeId::kBool:
          return a.BoolData()[i] == b.BoolData()[j];
        case TypeId::kString:
          return a.StringData()[i] == b.StringData()[j];
        case TypeId::kNull:
          break;
      }
    } else if (ta == TypeId::kInt && tb == TypeId::kDouble) {
      return static_cast<double>(a.IntData()[i]) == b.DoubleData()[j];
    } else if (ta == TypeId::kDouble && tb == TypeId::kInt) {
      return a.DoubleData()[i] == static_cast<double>(b.IntData()[j]);
    } else {
      return false;  // distinct types, not both numeric
    }
  }
  return a.GetValue(i).Equals(b.GetValue(j));
}

KeyTable::KeyTable(size_t num_keys, std::vector<KeyColumns> batches)
    : batches_(std::move(batches)), batch_begin_(batches_.size() + 1, 0) {
  for (size_t b = 0; b < batches_.size(); ++b) {
    const size_t n = batches_[b][0]->size();
    batch_begin_[b + 1] = batch_begin_[b] + n;
    for (size_t i = 0; i < n; ++i) {
      row_batch_.push_back(static_cast<uint32_t>(b));
      row_idx_.push_back(static_cast<uint32_t>(i));
    }
  }
  const size_t num_rows = row_batch_.size();
  hashes_.assign(num_rows, 0);
  live_.assign(num_rows, 0);

  // The range filter: one key whose build cells are all non-boxed ints (or
  // null). No build key at all leaves the empty range, which every int or
  // double probe falls outside of.
  has_range_ = num_keys == 1;
  range_lo_ = std::numeric_limits<int64_t>::max();
  range_hi_ = std::numeric_limits<int64_t>::min();
  for (const KeyColumns& cols : batches_) {
    if (!has_range_) break;
    const ColumnVector& c = *cols[0];
    if (c.boxed() || (c.type() != TypeId::kInt && c.type() != TypeId::kNull)) {
      has_range_ = false;
      break;
    }
    if (c.type() == TypeId::kNull) continue;  // all null
    const int64_t* d = c.IntData();
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) continue;
      range_lo_ = std::min(range_lo_, d[i]);
      range_hi_ = std::max(range_hi_, d[i]);
    }
  }
}

void KeyTable::HashBatch(size_t b) {
  const KeyColumns& cols = batches_[b];
  const size_t base = batch_begin_[b];
  std::vector<uint32_t> rows;
  NonNullRows(cols, 0, cols[0]->size(), &rows);
  std::vector<uint64_t> h(rows.size());
  HashKeyRows(cols, rows.data(), rows.size(), h.data());
  for (size_t k = 0; k < rows.size(); ++k) {
    hashes_[base + rows[k]] = h[k];
    live_[base + rows[k]] = 1;
  }
}

void KeyTable::BuildAllRows(ThreadPool* pool) {
  const size_t num_rows = row_batch_.size();
  if (pool == nullptr) {
    for (size_t b = 0; b < batches_.size(); ++b) HashBatch(b);
    index_ = HashRowIndex(num_rows);
    for (size_t row = 0; row < num_rows; ++row) {
      if (live_[row]) index_.Insert(hashes_[row], static_cast<uint32_t>(row));
    }
    return;
  }
  // Partitioned parallel build: batches hash on the pool, rows
  // radix-partition by hash per batch, and each partition's index builds
  // independently from the batch buckets in batch order — inserting in
  // global row order, so every partition reproduces the serial index's
  // per-key candidate set.
  std::vector<std::vector<std::vector<uint32_t>>> buckets(batches_.size());
  pool->ParallelFor(0, batches_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      HashBatch(b);
      std::vector<std::vector<uint32_t>>& local = buckets[b];
      local.resize(kPartitions);
      for (size_t row = batch_begin_[b]; row < batch_begin_[b + 1]; ++row) {
        if (live_[row]) {
          local[PartitionOf(hashes_[row])].push_back(static_cast<uint32_t>(row));
        }
      }
    }
  });
  part_index_.assign(kPartitions, HashRowIndex());
  pool->ParallelFor(0, kPartitions, 1, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      size_t total = 0;
      for (const auto& local : buckets) total += local[p].size();
      HashRowIndex index(total);
      for (const auto& local : buckets) {
        for (uint32_t row : local[p]) index.Insert(hashes_[row], row);
      }
      part_index_[p] = std::move(index);
    }
  });
}

std::vector<uint32_t> KeyTable::BuildDistinct() {
  std::vector<uint32_t> entry_of(row_batch_.size(), kNoEntry);
  for (size_t b = 0; b < batches_.size(); ++b) {
    HashBatch(b);
    const size_t base = batch_begin_[b];
    for (size_t i = 0; i < batch_begin_[b + 1] - base; ++i) {
      const size_t row = base + i;
      if (!live_[row]) continue;
      uint32_t entry = Find(batches_[b], i, hashes_[row]);
      if (entry == kNoEntry) {
        entry = static_cast<uint32_t>(entry_rows_.size());
        entry_rows_.push_back(static_cast<uint32_t>(row));
        index_.Insert(hashes_[row], entry);
      }
      entry_of[row] = entry;
    }
  }
  return entry_of;
}

void KeyTable::Prepare(const KeyColumns& probe, size_t begin, size_t end,
                       ProbeRows* out) const {
  out->rows.clear();
  const ColumnVector& c = *probe[0];
  const bool int_probe = !c.boxed() && c.type() == TypeId::kInt;
  const bool double_probe = !c.boxed() && c.type() == TypeId::kDouble;
  if (has_range_ && probe.size() == 1 && (int_probe || double_probe)) {
    // Branch-free selection: every candidate row is written, and the
    // cursor advances past it only when the key lies in the range.
    out->rows.resize(end - begin);
    uint32_t* sel = out->rows.data();
    size_t n = 0;
    size_t nulls = 0;
    auto select = [&](auto in_range) {
      for (size_t i = begin; i < end; ++i) {
        if (!c.no_nulls() && c.IsNull(i)) {
          ++nulls;
          continue;
        }
        sel[n] = static_cast<uint32_t>(i);
        n += in_range(i) ? 1 : 0;
      }
    };
    if (int_probe) {
      const int64_t* d = c.IntData();
      select([&](size_t i) { return d[i] >= range_lo_ && d[i] <= range_hi_; });
    } else {
      const double* d = c.DoubleData();
      const double lo = static_cast<double>(range_lo_);
      const double hi = static_cast<double>(range_hi_);
      select([&](size_t i) { return d[i] >= lo && d[i] <= hi; });
    }
    out->rows.resize(n);
    out->range_skipped += (end - begin) - nulls - n;
  } else {
    NonNullRows(probe, begin, end, &out->rows);
  }
  out->hashes.resize(out->rows.size());
  HashKeyRows(probe, out->rows.data(), out->rows.size(), out->hashes.data());
}

bool KeyTable::KeyEquals(const KeyColumns& probe, size_t i, uint32_t row) const {
  const KeyColumns& build = batches_[row_batch_[row]];
  const uint32_t j = row_idx_[row];
  for (size_t k = 0; k < probe.size(); ++k) {
    if (!CellsEqual(*probe[k], i, *build[k], j)) return false;
  }
  return true;
}

void KeyTable::Matches(const KeyColumns& probe, size_t i, uint64_t h,
                       std::vector<uint32_t>* rows) const {
  rows->clear();
  IndexFor(h).ForEach(h, [&](uint32_t row) {
    if (KeyEquals(probe, i, row)) rows->push_back(row);
    return true;
  });
  // Linear probing after a rehash need not keep insertion order.
  std::sort(rows->begin(), rows->end());
}

uint32_t KeyTable::Find(const KeyColumns& probe, size_t i, uint64_t h) const {
  uint32_t entry = kNoEntry;
  index_.ForEach(h, [&](uint32_t e) {
    if (!KeyEquals(probe, i, entry_rows_[e])) return true;
    entry = e;
    return false;
  });
  return entry;
}

}  // namespace maybms
