#pragma once

#include <cstdint>
#include <vector>

namespace microtools::sim {

/// A set-associative cache with true-LRU replacement, operating on line
/// addresses (byte address >> log2(lineBytes)).
///
/// The simulator uses this for L1/L2 (per core) and L3 (per socket). Only
/// presence is tracked — data values never matter for timing.
class CacheLevel {
 public:
  /// sizeBytes must be a multiple of ways*lineBytes; throws McError
  /// otherwise. The set count may be any positive integer (real LLCs are
  /// frequently non-power-of-two); indexing is modulo the set count.
  CacheLevel(std::uint64_t sizeBytes, int ways, int lineBytes);

  /// Looks up a line and updates LRU on hit. Returns true on hit.
  /// Does NOT insert on miss (the memory system decides when the fill
  /// arrives).
  bool lookup(std::uint64_t lineAddr);

  /// True when present, without touching LRU state.
  bool contains(std::uint64_t lineAddr) const;

  /// Inserts a line, evicting the LRU way if the set is full.
  /// Returns the evicted line address, or kNoEviction when a free way was
  /// available or the line was already present.
  std::uint64_t insert(std::uint64_t lineAddr);

  /// Removes a line if present; returns whether it was.
  bool invalidate(std::uint64_t lineAddr);

  /// Drops all content and statistics. Costs in proportion to the sets
  /// touched since the last clear, not to the cache size.
  void clear();

  std::uint64_t sizeBytes() const { return sizeBytes_; }
  int ways() const { return ways_; }
  int lineBytes() const { return lineBytes_; }
  std::uint64_t sets() const { return sets_; }

  /// Statistics (cumulative since construction/clear).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// Digest of the replacement-relevant state: the sum, over non-empty
  /// sets, of a hash of the set index and its valid tags in recency order.
  /// The absolute LRU clock is deliberately excluded — two caches whose
  /// contents and recency *ordering* agree behave identically forever,
  /// which is what warm-invoke memoization needs to compare across
  /// invocations. Incremental: only the sets changed since the previous
  /// call are rehashed.
  std::uint64_t digest();

  /// The value digest() returns, recomputed from every set. Kept as the
  /// reference the incremental digest is tested against.
  std::uint64_t hashState() const;

  /// Appends every set changed since the last digest() to `image`: its
  /// index, its valid-way count and its tags, oldest first. Sets outside
  /// the image are unchanged since that digest.
  void saveChanged(std::vector<std::uint64_t>& image) const;

  /// Overwrites the sets of an image made by saveChanged() in place. LRU
  /// stamps are reissued from this cache's own clock, which keeps the
  /// recorded recency order and keeps use stamps monotone.
  void restore(const std::vector<std::uint64_t>& image);

  static constexpr std::uint64_t kNoEviction = ~0ull;

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lastUse = 0;
    bool valid = false;
  };

  std::uint64_t setIndex(std::uint64_t lineAddr) const {
    return lineAddr % sets_;
  }
  // The full line address is stored as the tag, so evicted-line reporting
  // needs no reconstruction.
  static std::uint64_t tagOf(std::uint64_t lineAddr) { return lineAddr; }

  Way* setBase(std::uint64_t set) {
    return &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  }
  const Way* setBase(std::uint64_t set) const {
    return &ways_storage_[set * static_cast<std::uint64_t>(ways_)];
  }

  /// Collects the valid ways of `set` oldest first.
  void byRecency(std::uint64_t set, std::vector<const Way*>& out) const;
  std::uint64_t hashSet(std::uint64_t set,
                        std::vector<const Way*>& scratch) const;

  /// Journals a set whose contents or recency order just changed.
  void mark(std::uint64_t set) {
    std::uint8_t& flags = journalFlags_[set];
    if (flags == 0) journal_.push_back(set);
    flags = kJournaled | kChanged;
  }

  std::uint64_t sizeBytes_;
  int ways_;
  int lineBytes_;
  std::uint64_t sets_;
  std::vector<Way> ways_storage_;  // sets_ * ways_ entries
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;

  // Touched-set journal: journal_ lists, once each, the sets a hit, insert,
  // invalidate or restore touched since the last clear(); kChanged marks
  // those among them changed since the last digest().
  static constexpr std::uint8_t kJournaled = 1;
  static constexpr std::uint8_t kChanged = 2;
  std::vector<std::uint8_t> journalFlags_;  // per set
  std::vector<std::uint64_t> journal_;
  std::vector<std::uint64_t> setHash_;  // per set, as of the last digest()
  std::uint64_t digest_ = 0;            // sum of setHash_
};

}  // namespace microtools::sim
