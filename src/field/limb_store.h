// Fixed-width limb storage backing one prime-field element.
//
// A LimbStore holds exactly k little-endian 64-bit limbs, where k is the
// field's limb count fixed at construction; arithmetic writes in place
// through data(). Every named parameter set (toy64 through the paper's
// 512-bit sec80) fits the inline buffer, so value-semantic Fp
// temporaries on the curve/pairing hot path never touch the heap; wider
// moduli fall back to heap storage transparently.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace medcrypt::field {

class LimbStore {
 public:
  /// Largest limb count stored inline: 512-bit fields, i.e. all named
  /// parameter sets.
  static constexpr std::size_t kInlineLimbs = 8;

  /// Empty store (size 0); produced by default construction and wipe().
  LimbStore() = default;

  /// `size` zeroed limbs.
  explicit LimbStore(std::size_t size) { reset(size); }

  LimbStore(const LimbStore& o) { assign(o); }
  LimbStore(LimbStore&& o) noexcept { steal(o); }
  LimbStore& operator=(const LimbStore& o) {
    if (this != &o) {
      release();
      assign(o);
    }
    return *this;
  }
  LimbStore& operator=(LimbStore&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~LimbStore() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint64_t* data() {
    return size_ <= kInlineLimbs ? inline_.data() : heap_;
  }
  const std::uint64_t* data() const {
    return size_ <= kInlineLimbs ? inline_.data() : heap_;
  }

  /// Re-sizes to `size` zeroed limbs.
  void reset(std::size_t size) {
    release();
    size_ = size;
    if (size_ > kInlineLimbs) heap_ = new std::uint64_t[size_];
    std::fill_n(data(), size_, std::uint64_t{0});
  }

  bool is_zero() const {
    const std::uint64_t* d = data();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < size_; ++i) acc |= d[i];
    return acc == 0;
  }

  /// Constant-time over the limb contents: the accumulator sweeps every
  /// limb so mismatch position never shows in the timing. Only the limb
  /// *count* (public, it tracks the field size) can exit early.
  bool equals(const LimbStore& o) const {
    if (size_ != o.size_) return false;
    const std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < size_; ++i) acc |= a[i] ^ b[i];
    return acc == 0;
  }

  /// Exchanges the limbs with o's when `mask` is all ones and leaves
  /// both when it is zero, by a masked XOR over every limb: the same
  /// loads and stores either way. Sizes must match.
  void cswap(LimbStore& o, std::uint64_t mask) {
    std::uint64_t* a = data();
    std::uint64_t* b = o.data();
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint64_t t = (a[i] ^ b[i]) & mask;
      a[i] ^= t;
      b[i] ^= t;
    }
  }

  /// Scrubs the limbs through volatile stores and returns to the empty
  /// state. NOTE: moved-from and plain-destroyed stores are NOT
  /// scrubbed, matching BigInt (see docs/SECRET_HYGIENE.md) — secret
  /// holders wipe from their destructors.
  void wipe() {
    volatile std::uint64_t* d = data();
    for (std::size_t i = 0; i < size_; ++i) d[i] = 0;
    release();
  }

 private:
  void release() {
    if (size_ > kInlineLimbs) delete[] heap_;
    heap_ = nullptr;
    size_ = 0;
  }
  void assign(const LimbStore& o) {
    size_ = o.size_;
    if (size_ > kInlineLimbs) heap_ = new std::uint64_t[size_];
    std::copy_n(o.data(), size_, data());
  }
  void steal(LimbStore& o) noexcept {
    size_ = o.size_;
    if (size_ > kInlineLimbs) {
      heap_ = o.heap_;
      o.heap_ = nullptr;
    } else {
      inline_ = o.inline_;
    }
    o.size_ = 0;
  }

  std::size_t size_ = 0;
  std::array<std::uint64_t, kInlineLimbs> inline_{};
  std::uint64_t* heap_ = nullptr;
};

}  // namespace medcrypt::field
