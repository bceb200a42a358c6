#include "bigint/montgomery.h"

#include <algorithm>
#include <vector>

#include "bigint/kernels/cios_portable.h"
#include "common/error.h"

namespace medcrypt::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using kernels::cios_fixed;

namespace {
// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 x = n;  // correct mod 2^3
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;  // doubles precision each step
  return ~x + 1;  // -(n^{-1})
}
}  // namespace

Montgomery::Montgomery(BigInt n) : n_(std::move(n)) {
  if (n_ <= BigInt(std::uint64_t{1}) || !n_.is_odd()) {
    throw InvalidArgument("Montgomery: modulus must be odd and > 1");
  }
  k_ = n_.limbs().size();
  n0inv_ = neg_inv64(n_.limbs()[0]);
  kt_ = &kernels::active();
  // R = 2^(64k); R mod n and R^2 mod n via generic reduction (setup only).
  const BigInt r = BigInt(std::uint64_t{1}) << (64 * k_);
  one_ = r % n_;
  r2_ = (one_ * one_) % n_;
  one_padded_ = padded(one_);
  r2_padded_ = padded(r2_);
}

std::vector<u64> Montgomery::padded(const BigInt& a) const {
  std::vector<u64> out = a.limbs_;
  out.resize(k_, 0);
  return out;
}

void Montgomery::pad_limbs(const BigInt& a, u64* out) const {
  const std::size_t have = a.limbs_.size();
  if (a.negative_ || have > k_) {
    throw InvalidArgument("Montgomery::pad_limbs: value out of range");
  }
  std::copy_n(a.limbs_.data(), have, out);
  std::fill_n(out + have, k_ - have, u64{0});
}

BigInt Montgomery::bigint_from_limbs(const u64* a) const {
  BigInt r;
  r.limbs_.assign(a, a + k_);
  r.trim();
  return r;
}

void Montgomery::to_mont_limbs(const BigInt& a, u64* out) const {
  pad_limbs(a, out);
  mul_limbs(out, r2_padded_.data(), out);
}

void Montgomery::mul_limbs(const u64* a, const u64* b, u64* out) const {
  // The widths the named parameter sets lean on hardest (mid128 = 4,
  // sec80 = 8) go through the dispatched kernel table; the remaining
  // fixed widths (toy64 = 2, sweep384 = 6, RSA-1024 = 16) use the
  // portable unrolled template directly.
  {
    const u64* n = n_.limbs_.data();
    switch (k_) {
      case 2: return cios_fixed<2>(a, b, n, n0inv_, out);
      case 4: return kt_->mul4(a, b, n, n0inv_, out);
      case 6: return cios_fixed<6>(a, b, n, n0inv_, out);
      case 8: return kt_->mul8(a, b, n, n0inv_, out);
      case 16: return cios_fixed<16>(a, b, n, n0inv_, out);
      default: break;
    }
  }
  // CIOS: t has k+2 limbs. The scratch lives on the stack so the field
  // hot path never allocates; only absurdly wide moduli (> 4096 bits,
  // none in the tree) take the heap fallback.
  constexpr std::size_t kStackLimbs = 66;
  u64 stack_t[kStackLimbs];
  std::vector<u64> heap_t;
  u64* t = stack_t;
  if (k_ + 2 > kStackLimbs) {
    heap_t.resize(k_ + 2);
    t = heap_t.data();
  }
  std::fill_n(t, k_ + 2, u64{0});

  const u64* n = n_.limbs_.data();
  for (std::size_t i = 0; i < k_; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (std::size_t j = 0; j < k_; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<u64>(s);
    t[k_ + 1] = static_cast<u64>(s >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    const u64 m = t[0] * n0inv_;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < k_; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<u64>(s);
    t[k_] = t[k_ + 1] + static_cast<u64>(s >> 64);
    t[k_ + 1] = 0;
  }
  // Conditional subtraction: t may be in [0, 2n).
  bool ge = t[k_] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = k_; i-- > 0;) {
      if (t[i] != n[i]) {
        ge = t[i] > n[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < k_; ++i) out[i] = t[i];
  }
  kernels::scrub_scratch(t, k_ + 2);
}

void Montgomery::add_limbs(const u64* a, const u64* b, u64* out) const {
  kt_->add(a, b, n_.limbs_.data(), k_, out);
}

void Montgomery::sub_limbs(const u64* a, const u64* b, u64* out) const {
  kt_->sub(a, b, n_.limbs_.data(), k_, out);
}

void Montgomery::neg_limbs(const u64* a, u64* out) const {
  kt_->neg(a, n_.limbs_.data(), k_, out);
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  const std::vector<u64> pa = padded(a);
  const std::vector<u64> pb = padded(b);
  std::vector<u64> out(k_, 0);
  mul_limbs(pa.data(), pb.data(), out.data());
  BigInt r;
  r.limbs_ = std::move(out);
  r.trim();
  return r;
}

BigInt Montgomery::to_mont(const BigInt& a) const { return mul(a, r2_); }

BigInt Montgomery::from_mont(const BigInt& a) const {
  return mul(a, BigInt(std::uint64_t{1}));
}

BigInt Montgomery::pow_mont(const BigInt& base_mont, const BigInt& e) const {
  if (e.is_negative()) throw InvalidArgument("Montgomery::pow: negative exponent");
  if (e.is_zero()) return one_;

  // Fixed 4-bit window.
  constexpr int kWindow = 4;
  std::vector<BigInt> table(1 << kWindow);
  table[0] = one_;
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i] = mul(table[i - 1], base_mont);
  }

  const std::size_t nbits = e.bit_length();
  const std::size_t nwindows = (nbits + kWindow - 1) / kWindow;
  BigInt acc = one_;
  bool started = false;
  for (std::size_t w = nwindows; w-- > 0;) {
    if (started) {
      for (int i = 0; i < kWindow; ++i) acc = mul(acc, acc);
    }
    unsigned idx = 0;
    for (int i = kWindow - 1; i >= 0; --i) {
      idx = (idx << 1) | (e.bit(w * kWindow + i) ? 1u : 0u);
    }
    if (idx != 0) {
      acc = mul(acc, table[idx]);
      started = true;
    } else if (!started) {
      continue;
    }
  }
  // The table holds powers of the base, which is secret-bearing for
  // RSA-CRT and blinded-exponent callers; scrub before the frames die.
  for (BigInt& entry : table) entry.wipe();
  if (!started) return one_;
  return acc;
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& e) const {
  return from_mont(pow_mont(to_mont(base), e));
}

}  // namespace medcrypt::bigint
