#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace microtools::sim {

CacheLevel::CacheLevel(std::uint64_t sizeBytes, int ways, int lineBytes)
    : sizeBytes_(sizeBytes), ways_(ways), lineBytes_(lineBytes) {
  if (ways <= 0 || lineBytes <= 0 ||
      !std::has_single_bit(static_cast<unsigned>(lineBytes))) {
    throw McError("cache requires positive ways and power-of-two line size");
  }
  std::uint64_t lines = sizeBytes / static_cast<std::uint64_t>(lineBytes);
  if (lines == 0 || lines % static_cast<std::uint64_t>(ways) != 0) {
    throw McError("cache size must be a multiple of ways * lineBytes");
  }
  sets_ = lines / static_cast<std::uint64_t>(ways);
  ways_storage_.resize(sets_ * static_cast<std::uint64_t>(ways));
  journalFlags_.resize(sets_);
  setHash_.resize(sets_);
}

bool CacheLevel::lookup(std::uint64_t lineAddr) {
  ++clock_;
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lastUse = clock_;
      ++hits_;
      mark(set);
      return true;
    }
  }
  ++misses_;
  return false;
}

bool CacheLevel::contains(std::uint64_t lineAddr) const {
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  const Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

std::uint64_t CacheLevel::insert(std::uint64_t lineAddr) {
  ++clock_;
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  mark(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].lastUse = clock_;  // already present: refresh
      return kNoEviction;
    }
  }
  // Prefer an invalid way; otherwise evict the LRU valid way.
  int victim = -1;
  for (int w = 0; w < ways_; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
  }
  if (victim == -1) {
    victim = 0;
    for (int w = 1; w < ways_; ++w) {
      if (base[w].lastUse < base[victim].lastUse) victim = w;
    }
  }
  std::uint64_t evicted = kNoEviction;
  if (base[victim].valid) {
    evicted = base[victim].tag;
  }
  base[victim].tag = tag;
  base[victim].valid = true;
  base[victim].lastUse = clock_;
  return evicted;
}

bool CacheLevel::invalidate(std::uint64_t lineAddr) {
  std::uint64_t set = setIndex(lineAddr);
  std::uint64_t tag = tagOf(lineAddr);
  Way* base = setBase(set);
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      mark(set);
      return true;
    }
  }
  return false;
}

void CacheLevel::clear() {
  for (std::uint64_t set : journal_) {
    std::fill_n(setBase(set), ways_, Way{});
    journalFlags_[set] = 0;
    setHash_[set] = 0;
  }
  journal_.clear();
  digest_ = 0;
  clock_ = 0;
  hits_ = 0;
  misses_ = 0;
}

void CacheLevel::byRecency(std::uint64_t set,
                           std::vector<const Way*>& out) const {
  const Way* base = setBase(set);
  out.clear();
  for (int w = 0; w < ways_; ++w) {
    if (base[w].valid) out.push_back(&base[w]);
  }
  // Oldest first: the victim scan and every future hit depend only on this
  // ordering, never on the absolute lastUse values.
  std::sort(out.begin(), out.end(), [](const Way* a, const Way* b) {
    return a->lastUse < b->lastUse;
  });
}

std::uint64_t CacheLevel::hashSet(std::uint64_t set,
                                  std::vector<const Way*>& scratch) const {
  byRecency(set, scratch);
  if (scratch.empty()) return 0;  // empty sets hash as absent
  hash::Fnv1a h;
  h.u64(set).u64(scratch.size());
  for (const Way* w : scratch) h.u64(w->tag);
  // Finalize (murmur3 fmix64) so that the per-set hashes, which digests
  // combine by addition, carry no FNV structure into the sum.
  std::uint64_t v = h.value();
  v ^= v >> 33;
  v *= 0xff51afd7ed558ccdull;
  v ^= v >> 33;
  v *= 0xc4ceb9fe1a85ec53ull;
  v ^= v >> 33;
  return v;
}

std::uint64_t CacheLevel::digest() {
  std::vector<const Way*> scratch;
  for (std::uint64_t set : journal_) {
    if (!(journalFlags_[set] & kChanged)) continue;
    digest_ -= setHash_[set];
    setHash_[set] = hashSet(set, scratch);
    digest_ += setHash_[set];
    journalFlags_[set] = kJournaled;
  }
  return digest_;
}

std::uint64_t CacheLevel::hashState() const {
  std::vector<const Way*> scratch;
  std::uint64_t sum = 0;
  for (std::uint64_t set = 0; set < sets_; ++set) {
    sum += hashSet(set, scratch);
  }
  return sum;
}

void CacheLevel::saveChanged(std::vector<std::uint64_t>& image) const {
  std::vector<const Way*> valid;
  for (std::uint64_t set : journal_) {
    if (!(journalFlags_[set] & kChanged)) continue;
    byRecency(set, valid);
    image.push_back(set);
    image.push_back(valid.size());
    for (const Way* w : valid) image.push_back(w->tag);
  }
}

void CacheLevel::restore(const std::vector<std::uint64_t>& image) {
  for (std::size_t i = 0; i < image.size();) {
    std::uint64_t set = image[i];
    std::uint64_t valid = image[i + 1];
    i += 2;
    Way* base = setBase(set);
    for (std::uint64_t w = 0; w < static_cast<std::uint64_t>(ways_); ++w) {
      base[w] = w < valid ? Way{image[i++], ++clock_, true} : Way{};
    }
    mark(set);
  }
}

}  // namespace microtools::sim
