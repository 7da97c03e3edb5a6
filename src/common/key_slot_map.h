// KeySlotMap: an open-addressing map from 64-bit keys to a uint32_t slot,
// for the passes that fold a batch of changes by key (the HTAP scan's delta
// overlay, the sync pipeline's merge fold). Keys live inline in the bucket
// array, so a lookup is one random access and a pass over hundreds of
// thousands of entries allocates no per-key nodes; the distinct keys are
// also kept in first-seen order.

#ifndef HTAP_COMMON_KEY_SLOT_MAP_H_
#define HTAP_COMMON_KEY_SLOT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace htap {

class KeySlotMap {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  /// Sized so `expected` distinct keys fit without growing.
  explicit KeySlotMap(size_t expected = 0) {
    size_t n = kMinBuckets;
    while (n < 2 * expected) n <<= 1;
    buckets_.resize(n);
  }

  /// The slot of `key`, inserted as kNoSlot when the key is new. The
  /// reference is valid until the next Upsert.
  uint32_t& Upsert(int64_t key) {
    if ((keys_.size() + 1) * 2 > buckets_.size()) Grow();
    const size_t mask = buckets_.size() - 1;
    for (size_t i = Hash(key) & mask;; i = (i + 1) & mask) {
      Bucket& b = buckets_[i];
      if (!b.used) {
        b = Bucket{key, kNoSlot, true};
        keys_.push_back(key);
        return b.slot;
      }
      if (b.key == key) return b.slot;
    }
  }

  /// Distinct keys in first-seen order.
  const std::vector<int64_t>& keys() const { return keys_; }

 private:
  static constexpr size_t kMinBuckets = 1024;

  struct Bucket {
    int64_t key = 0;
    uint32_t slot = 0;
    bool used = false;
  };

  static size_t Hash(int64_t key) {
    // Fibonacci hashing, folded so the low bits the mask keeps are mixed.
    const uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Grow() {
    std::vector<Bucket> old(buckets_.size() * 2);
    old.swap(buckets_);
    const size_t mask = buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (!b.used) continue;
      size_t i = Hash(b.key) & mask;
      while (buckets_[i].used) i = (i + 1) & mask;
      buckets_[i] = b;
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<int64_t> keys_;
};

}  // namespace htap

#endif  // HTAP_COMMON_KEY_SLOT_MAP_H_
