// Open-addressed (hash, row-number) multimap used by hash joins, group-by,
// and duplicate elimination: one flat array instead of a heap-allocated
// bucket vector per key. Callers keep the actual keys in their own row
// storage and re-check equality on hash matches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace maybms {

/// fmix64 finalizer (murmur3). Every table here masks hashes with a power
/// of two, so low bits must depend on all input bits; apply this to any
/// hand-rolled FNV-style hash before insertion.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

class HashRowIndex {
 public:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  explicit HashRowIndex(size_t expected = 0) { Rehash(CapacityFor(expected)); }

  void Insert(uint64_t h, uint32_t row) {
    if ((count_ + 1) * 4 >= hash_.size() * 3) Rehash(hash_.size() * 2);
    size_t mask = hash_.size() - 1;
    size_t slot = static_cast<size_t>(h) & mask;
    while (row_[slot] != kNoRow) slot = (slot + 1) & mask;
    hash_[slot] = h;
    row_[slot] = row;
    ++count_;
  }

  /// Calls f(row) for every entry with this hash, in insertion order;
  /// f returns false to stop early.
  template <typename F>
  void ForEach(uint64_t h, F&& f) const {
    size_t mask = hash_.size() - 1;
    size_t slot = static_cast<size_t>(h) & mask;
    while (row_[slot] != kNoRow) {
      if (hash_[slot] == h && !f(row_[slot])) return;
      slot = (slot + 1) & mask;
    }
  }

  size_t size() const { return count_; }

 private:
  static size_t CapacityFor(size_t expected) {
    size_t cap = 64;
    while (cap * 3 < expected * 4) cap *= 2;
    return cap;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old_hash = std::move(hash_);
    std::vector<uint32_t> old_row = std::move(row_);
    hash_.assign(new_cap, 0);
    row_.assign(new_cap, kNoRow);
    size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_row.size(); ++i) {
      if (old_row[i] == kNoRow) continue;
      size_t slot = static_cast<size_t>(old_hash[i]) & mask;
      while (row_[slot] != kNoRow) slot = (slot + 1) & mask;
      hash_[slot] = old_hash[i];
      row_[slot] = old_row[i];
    }
  }

  std::vector<uint64_t> hash_;
  std::vector<uint32_t> row_;
  size_t count_ = 0;
};

}  // namespace maybms
