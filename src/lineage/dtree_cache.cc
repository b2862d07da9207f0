#include "src/lineage/dtree_cache.h"

#include <algorithm>

#include "src/common/row_index.h"
#include "src/conf/montecarlo.h"
#include "src/lineage/compiled_dnf.h"
#include "src/lineage/dtree.h"

namespace maybms {

namespace {

/// Entry kinds (words[0]); see the file comment in the header.
constexpr uint64_t kKindValue = 0;
constexpr uint64_t kKindComponent = 1;
constexpr uint64_t kKindEstimate = 2;

/// Entry overhead beyond the key words: list node, index slot, payload.
constexpr size_t kEntryOverheadBytes = 96;

uint64_t HashWords(const std::vector<uint64_t>& words) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint64_t w : words) {
    h ^= Mix64(w + 0x9e3779b97f4a7c15ULL);
    h = Mix64(h);
  }
  return h;
}

/// Everything that changes which decisions the compiler makes, or whether
/// it is allowed to finish: a different fingerprint is a different key, so
/// a value compiled under one budget/heuristic can never answer for
/// another (the "tightened budget" leak of ISSUE 5's satellite list).
/// component_cache is deliberately absent: it selects HOW a value is
/// computed, and the component path is provably bit-identical to the whole
/// compile, so values are mode-independent.
uint64_t OptionsFingerprint(const ExactOptions& options) {
  uint64_t h = static_cast<uint64_t>(options.heuristic);
  h |= static_cast<uint64_t>(options.remove_subsumed) << 8;
  h |= static_cast<uint64_t>(options.use_cache) << 9;
  h = Mix64(h);
  h = Mix64(h ^ static_cast<uint64_t>(options.max_cache_entries));
  h = Mix64(h ^ options.max_steps);
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Appends the length-prefixed clause content of `clauses[0..n)` over
/// GLOBAL variable ids. Length prefixes make the flat vector
/// self-delimiting — no separator value can collide with an atom word.
/// Atoms are emitted over GLOBAL ids: local ids are a per-CompiledDnf
/// dense remap, so two different groups could share local shapes while
/// meaning different variables (with different distributions).
void AppendClauseWords(const CompiledDnf& dnf, const ClauseId* clauses,
                       size_t n, std::vector<uint64_t>* words) {
  words->push_back(n);
  for (size_t i = 0; i < n; ++i) {
    AtomSpan span = dnf.Clause(clauses[i]);
    words->push_back(span.size);
    for (const Atom& a : span) {
      words->push_back(
          (static_cast<uint64_t>(dnf.GlobalVar(a.var)) << 32) | a.asg);
    }
  }
}

size_t TotalAtoms(const CompiledDnf& dnf, const ClauseId* clauses, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += dnf.ClauseSize(clauses[i]);
  return total;
}

}  // namespace

size_t LineageKey::ResidentBytes() const {
  return words.size() * sizeof(uint64_t) + kEntryOverheadBytes;
}

LineageKey BuildLineageKey(const CompiledDnf& dnf, uint64_t world_version,
                           const ExactOptions& options) {
  LineageKey key;
  const std::vector<ClauseId>& original = dnf.original_clauses();
  key.words.reserve(4 + original.size() +
                    TotalAtoms(dnf, original.data(), original.size()));
  key.words.push_back(kKindValue);
  key.words.push_back(OptionsFingerprint(options));
  key.words.push_back(world_version);
  AppendClauseWords(dnf, original.data(), original.size(), &key.words);
  key.hash = HashWords(key.words);
  return key;
}

LineageKey BuildComponentKey(const CompiledDnf& dnf, const ClauseId* clauses,
                             size_t n, uint64_t world_version,
                             const ExactOptions& options) {
  LineageKey key;
  key.words.reserve(4 + n + TotalAtoms(dnf, clauses, n));
  key.words.push_back(kKindComponent);
  key.words.push_back(OptionsFingerprint(options));
  key.words.push_back(world_version);
  AppendClauseWords(dnf, clauses, n, &key.words);
  key.hash = HashWords(key.words);
  return key;
}

LineageKey BuildEstimateKey(const CompiledDnf& dnf, uint64_t world_version,
                            uint64_t base_seed, double epsilon, double delta,
                            uint64_t num_query_clauses,
                            const MonteCarloOptions& options) {
  LineageKey key;
  const std::vector<ClauseId>& original = dnf.original_clauses();
  key.words.reserve(10 + original.size() +
                    TotalAtoms(dnf, original.data(), original.size()));
  key.words.push_back(kKindEstimate);
  key.words.push_back(base_seed);
  key.words.push_back(world_version);
  key.words.push_back(DoubleBits(epsilon));
  key.words.push_back(DoubleBits(delta));
  key.words.push_back(num_query_clauses);
  // The sampling knobs the seeded estimate is a function of.
  // batches_per_wave is a pure scheduling knob and deliberately absent.
  key.words.push_back(options.max_samples);
  key.words.push_back(options.sample_batch_size);
  AppendClauseWords(dnf, original.data(), original.size(), &key.words);
  key.hash = HashWords(key.words);
  return key;
}

bool DTreeCache::LookupEntry(const LineageKey& key, Entry* out, uint64_t* hits,
                             uint64_t* misses) {
  std::lock_guard<std::mutex> lock(mu_);
  // key.words[2] is the world version the caller observed. The counter is
  // monotonic, so once a newer version appears, entries keyed to older
  // versions are dead weight — drop them eagerly instead of waiting for
  // LRU pressure.
  PurgeStaleLocked(key.words[2]);
  auto bucket = index_.find(key.hash);
  if (bucket != index_.end()) {
    for (EntryList::iterator it : bucket->second) {
      if (it->key == key) {
        *out = *it;
        lru_.splice(lru_.begin(), lru_, it);
        ++*hits;
        return true;
      }
    }
  }
  ++*misses;
  return false;
}

void DTreeCache::InsertEntry(Entry entry, uint64_t* insertions) {
  std::lock_guard<std::mutex> lock(mu_);
  PurgeStaleLocked(entry.key.words[2]);
  entry.bytes = entry.key.ResidentBytes();
  if (entry.tree != nullptr) {
    entry.bytes += entry.tree->NumNodes() * sizeof(DTree::Node) +
                   entry.tree->NumEdges() * sizeof(DTree::Edge);
  }
  if (budget_bytes_ != 0 && entry.bytes > budget_bytes_ / 4) return;
  auto bucket = index_.find(entry.key.hash);
  if (bucket != index_.end()) {
    for (EntryList::iterator it : bucket->second) {
      if (it->key == entry.key) {  // racing insert of the same lineage: refresh
        bytes_ -= std::min(bytes_, it->bytes);
        bytes_ += entry.bytes;
        *it = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it);
        return;
      }
    }
  }
  bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  index_[lru_.front().key.hash].push_back(lru_.begin());
  ++*insertions;
  EvictToBudgetLocked();
}

bool DTreeCache::Lookup(const LineageKey& key, double* value) {
  Entry e;
  if (!LookupEntry(key, &e, &stats_.hits, &stats_.misses)) return false;
  *value = e.value;
  return true;
}

void DTreeCache::Insert(const LineageKey& key, double value) {
  Entry e;
  e.key = key;
  e.value = value;
  InsertEntry(std::move(e), &stats_.insertions);
}

bool DTreeCache::LookupComponent(const LineageKey& key, double* value,
                                 std::shared_ptr<const DTree>* tree) {
  Entry e;
  if (!LookupEntry(key, &e, &stats_.component_hits, &stats_.component_misses)) {
    return false;
  }
  *value = e.value;
  if (tree != nullptr) *tree = e.tree;
  return true;
}

void DTreeCache::InsertComponent(const LineageKey& key, double value,
                                 std::shared_ptr<const DTree> tree) {
  Entry e;
  e.key = key;
  e.value = value;
  e.tree = std::move(tree);
  InsertEntry(std::move(e), &stats_.component_insertions);
}

bool DTreeCache::LookupEstimate(const LineageKey& key, double* estimate,
                                uint64_t* samples) {
  Entry e;
  if (!LookupEntry(key, &e, &stats_.estimate_hits, &stats_.estimate_misses)) {
    return false;
  }
  *estimate = e.value;
  *samples = e.samples;
  return true;
}

void DTreeCache::InsertEstimate(const LineageKey& key, double estimate,
                                uint64_t samples) {
  Entry e;
  e.key = key;
  e.value = estimate;
  e.samples = samples;
  InsertEntry(std::move(e), &stats_.estimate_insertions);
}

void DTreeCache::SetBudgetBytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
  EvictToBudgetLocked();
}

size_t DTreeCache::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_bytes_;
}

void DTreeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

DTreeCache::Stats DTreeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  return s;
}

void DTreeCache::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats{};
}

void DTreeCache::EraseLocked(EntryList::iterator it, uint64_t* counter) {
  auto bucket = index_.find(it->key.hash);
  if (bucket != index_.end()) {
    std::vector<EntryList::iterator>& chain = bucket->second;
    chain.erase(std::remove(chain.begin(), chain.end(), it), chain.end());
    if (chain.empty()) index_.erase(bucket);
  }
  bytes_ -= std::min(bytes_, it->bytes);
  lru_.erase(it);
  ++*counter;
}

void DTreeCache::EvictToBudgetLocked() {
  if (budget_bytes_ == 0) return;
  while (bytes_ > budget_bytes_ && !lru_.empty()) {
    EraseLocked(std::prev(lru_.end()), &stats_.evictions);
  }
}

void DTreeCache::PurgeStaleLocked(uint64_t world_version) {
  if (world_version <= latest_world_version_) return;
  latest_world_version_ = world_version;
  for (EntryList::iterator it = lru_.begin(); it != lru_.end();) {
    EntryList::iterator next = std::next(it);
    if (it->key.words[2] < world_version) {
      EraseLocked(it, &stats_.stale_purged);
    }
    it = next;
  }
}

}  // namespace maybms
