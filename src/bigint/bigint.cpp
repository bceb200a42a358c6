#include "bigint/bigint.h"

#include <algorithm>
#include <ostream>

#include "bigint/montgomery.h"
#include "common/error.h"

namespace medcrypt::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// ---------------------------------------------------------------------------
// construction / conversion
// ---------------------------------------------------------------------------

BigInt::BigInt(std::int64_t v) {
  if (v < 0) {
    negative_ = true;
    // Avoid overflow on INT64_MIN.
    limbs_.push_back(static_cast<u64>(-(v + 1)) + 1);
  } else if (v > 0) {
    limbs_.push_back(static_cast<u64>(v));
  }
}

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

BigInt BigInt::from_limbs(std::vector<u64> limbs, bool negative) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  out.negative_ = negative && !out.limbs_.empty();
  return out;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::from_hex(std::string_view hex) {
  bool neg = false;
  if (!hex.empty() && hex.front() == '-') {
    neg = true;
    hex.remove_prefix(1);
  }
  if (hex.empty()) throw InvalidArgument("BigInt::from_hex: empty string");
  BigInt out;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw InvalidArgument("BigInt::from_hex: invalid digit");
    out = (out << 4) + BigInt(static_cast<std::uint64_t>(d));
  }
  out.negative_ = neg && !out.limbs_.empty();
  return out;
}

BigInt BigInt::from_dec(std::string_view dec) {
  bool neg = false;
  if (!dec.empty() && dec.front() == '-') {
    neg = true;
    dec.remove_prefix(1);
  }
  if (dec.empty()) throw InvalidArgument("BigInt::from_dec: empty string");
  BigInt out;
  const BigInt ten(std::uint64_t{10});
  for (char c : dec) {
    if (c < '0' || c > '9') throw InvalidArgument("BigInt::from_dec: invalid digit");
    out = out * ten + BigInt(static_cast<std::uint64_t>(c - '0'));
  }
  out.negative_ = neg && !out.limbs_.empty();
  return out;
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt out;
  const std::size_t n = bytes.size();
  out.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // byte i (from the end) goes into limb i/8, position i%8
    const std::size_t from_end = n - 1 - i;
    out.limbs_[i / 8] |= static_cast<u64>(bytes[from_end]) << (8 * (i % 8));
  }
  out.trim();
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  out.erase(0, first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  // Split the magnitude into base-10^19 chunks, most significant last.
  BigInt v = abs();
  const BigInt chunk(std::uint64_t{10'000'000'000'000'000'000ULL});  // 10^19
  std::vector<u64> parts;
  while (!v.is_zero()) {
    BigInt q, r;
    divmod(v, chunk, q, r);
    parts.push_back(r.low_u64());
    v = std::move(q);
  }
  std::string out = negative_ ? "-" : "";
  out += std::to_string(parts.back());
  for (std::size_t i = parts.size() - 1; i-- > 0;) {
    std::string piece = std::to_string(parts[i]);
    out += std::string(19 - piece.size(), '0');
    out += piece;
  }
  return out;
}

Bytes BigInt::to_bytes_be() const {
  if (negative_) throw InvalidArgument("BigInt::to_bytes_be: negative value");
  if (is_zero()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be_padded(nbytes);
}

Bytes BigInt::to_bytes_be_padded(std::size_t len) const {
  if (negative_) throw InvalidArgument("BigInt::to_bytes_be_padded: negative value");
  if (bit_length() > len * 8) {
    throw InvalidArgument("BigInt::to_bytes_be_padded: value too large");
  }
  Bytes out(len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t limb = i / 8;
    if (limb >= limbs_.size()) break;
    out[len - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (i % 8)));
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  const u64 top = limbs_.back();
  return (limbs_.size() - 1) * 64 + (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigInt::to_u64() const {
  if (negative_ || limbs_.size() > 1) {
    throw InvalidArgument("BigInt::to_u64: out of range");
  }
  return low_u64();
}

// ---------------------------------------------------------------------------
// magnitude helpers
// ---------------------------------------------------------------------------

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::vector<u64> BigInt::add_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<u64> out(big.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    u128 sum = static_cast<u128>(big[i]) + (i < small.size() ? small[i] : 0) + carry;
    out[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out[big.size()] = carry;
  return out;
}

std::vector<u64> BigInt::sub_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  std::vector<u64> out(a.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const u64 bi = i < b.size() ? b[i] : 0;
    const u128 diff = static_cast<u128>(a[i]) - bi - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  return out;
}

std::vector<u64> BigInt::mul_mag(const std::vector<u64>& a, const std::vector<u64>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<u64> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + b.size()] += carry;
  }
  return out;
}

// Knuth Algorithm D (vol 2, 4.3.1) on 64-bit limbs.
void BigInt::divmod_mag(const std::vector<u64>& a, const std::vector<u64>& b,
                        std::vector<u64>& q, std::vector<u64>& r) {
  if (b.empty()) throw InvalidArgument("BigInt: division by zero");

  // Trivial cases.
  BigInt am = from_limbs(a, false), bm = from_limbs(b, false);
  if (cmp_mag(am, bm) < 0) {
    q.clear();
    r = a;
    return;
  }
  if (b.size() == 1) {
    const u64 d = b[0];
    q.assign(a.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a[i];
      q[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    r.assign(1, static_cast<u64>(rem));
    return;
  }

  // Normalize: shift so the top limb of b has its high bit set.
  const int shift = __builtin_clzll(b.back());
  const std::size_t n = b.size();
  const std::size_t m = a.size() - n;

  std::vector<u64> u(a.size() + 1, 0), v(n, 0);
  if (shift == 0) {
    std::copy(a.begin(), a.end(), u.begin());
    v = b;
  } else {
    for (std::size_t i = a.size(); i-- > 0;) {
      u[i + 1] |= a[i] >> (64 - shift);
      u[i] = a[i] << shift;
    }
    // (note: u[a.size()] gets high bits of a.back())
    for (std::size_t i = n; i-- > 0;) {
      v[i] = b[i] << shift;
      if (i > 0) v[i] |= b[i - 1] >> (64 - shift);
    }
  }

  q.assign(m + 1, 0);
  const u64 vtop = v[n - 1];
  const u64 vsecond = v[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (u[j+n]*B + u[j+n-1]) / vtop, clamped below B so the
    // correction test below cannot overflow 128 bits.
    const u128 numerator = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 q_hat = numerator / vtop;
    u128 r_hat = numerator % vtop;
    if (q_hat >> 64) {
      q_hat = ~u64{0};
      r_hat = numerator - q_hat * vtop;
    }
    while (r_hat <= ~u64{0} &&
           q_hat * vsecond > ((r_hat << 64) | u[j + n - 2])) {
      --q_hat;
      r_hat += vtop;
    }

    // Multiply-subtract: u[j..j+n] -= q_hat * v.
    u128 borrow = 0, carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 prod = q_hat * v[i] + carry;
      carry = prod >> 64;
      const u64 plo = static_cast<u64>(prod);
      u128 sub = static_cast<u128>(u[j + i]) - plo - borrow;
      u[j + i] = static_cast<u64>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    u128 sub = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<u64>(sub);

    if (sub >> 64) {
      // q_hat was one too large: add back.
      --q_hat;
      u128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[j + i]) + v[i] + c;
        u[j + i] = static_cast<u64>(sum);
        c = sum >> 64;
      }
      u[j + n] += static_cast<u64>(c);
    }
    q[j] = static_cast<u64>(q_hat);
  }

  // Denormalize remainder.
  r.assign(n, 0);
  if (shift == 0) {
    std::copy(u.begin(), u.begin() + n, r.begin());
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = u[i] >> shift;
      if (i + 1 < n + 1) r[i] |= u[i + 1] << (64 - shift);
    }
  }
}

// ---------------------------------------------------------------------------
// signed arithmetic
// ---------------------------------------------------------------------------

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.negative_ == b.negative_) {
    return BigInt::from_limbs(BigInt::add_mag(a.limbs_, b.limbs_), a.negative_);
  }
  const int c = BigInt::cmp_mag(a, b);
  if (c == 0) return BigInt{};
  if (c > 0) {
    return BigInt::from_limbs(BigInt::sub_mag(a.limbs_, b.limbs_), a.negative_);
  }
  return BigInt::from_limbs(BigInt::sub_mag(b.limbs_, a.limbs_), b.negative_);
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  return BigInt::from_limbs(BigInt::mul_mag(a.limbs_, b.limbs_),
                            a.negative_ != b.negative_);
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  std::vector<u64> qm, rm;
  divmod_mag(a.limbs_, b.limbs_, qm, rm);
  q = from_limbs(std::move(qm), a.negative_ != b.negative_);
  r = from_limbs(std::move(rm), a.negative_);
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  return r;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    if (bits == 0) return *this;
    return *this;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  return from_limbs(std::move(out), negative_);
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigInt{};
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  return from_limbs(std::move(out), negative_);
}

std::strong_ordering BigInt::operator<=>(const BigInt& b) const {
  if (negative_ != b.negative_) {
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  const int c = cmp_mag(*this, b);
  const int signed_c = negative_ ? -c : c;
  if (signed_c < 0) return std::strong_ordering::less;
  if (signed_c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

// ---------------------------------------------------------------------------
// number theory
// ---------------------------------------------------------------------------

BigInt BigInt::mod(const BigInt& m) const {
  if (m <= BigInt{}) throw InvalidArgument("BigInt::mod: modulus must be positive");
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::add_mod(const BigInt& b, const BigInt& m) const {
  BigInt s = *this + b;
  if (s >= m) s -= m;
  return s;
}

BigInt BigInt::sub_mod(const BigInt& b, const BigInt& m) const {
  BigInt s = *this - b;
  if (s.is_negative()) s += m;
  return s;
}

BigInt BigInt::mul_mod(const BigInt& b, const BigInt& m) const {
  return (*this * b).mod(m);
}

BigInt BigInt::pow_mod(const BigInt& e, const BigInt& m) const {
  if (e.is_negative()) throw InvalidArgument("BigInt::pow_mod: negative exponent");
  if (m <= BigInt{}) throw InvalidArgument("BigInt::pow_mod: modulus must be positive");
  if (m == BigInt(std::uint64_t{1})) return BigInt{};
  if (!m.is_odd()) throw InvalidArgument("BigInt::pow_mod: modulus must be odd");
  const Montgomery mont(m);
  u64 x[Montgomery::kMaxLimbs] = {};
  mont.to_mont_limbs(this->mod(m), x);
  mont.pow_limbs(x, e, x);
  BigInt r = mont.from_mont_limbs(x);
  kernels::scrub_scratch(x, mont.limbs());
  return r;
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.abs(), y = b.abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt BigInt::extended_gcd(const BigInt& a, const BigInt& b, BigInt& x, BigInt& y) {
  BigInt old_r = a, r = b;
  BigInt old_s(std::int64_t{1}), s{};
  BigInt old_t{}, t(std::int64_t{1});
  while (!r.is_zero()) {
    BigInt q = old_r / r;
    BigInt tmp = old_r - q * r;
    old_r = std::move(r);
    r = std::move(tmp);
    tmp = old_s - q * s;
    old_s = std::move(s);
    s = std::move(tmp);
    tmp = old_t - q * t;
    old_t = std::move(t);
    t = std::move(tmp);
  }
  if (old_r.is_negative()) {
    old_r = -old_r;
    old_s = -old_s;
    old_t = -old_t;
  }
  x = std::move(old_s);
  y = std::move(old_t);
  return old_r;
}

BigInt BigInt::mod_inverse(const BigInt& m) const {
  BigInt x, y;
  const BigInt g = extended_gcd(this->mod(m), m, x, y);
  if (g != BigInt(std::uint64_t{1})) {
    throw InvalidArgument("BigInt::mod_inverse: not invertible");
  }
  return x.mod(m);
}

// ---------------------------------------------------------------------------
// secret hygiene
// ---------------------------------------------------------------------------

void BigInt::wipe() {
  if (!limbs_.empty()) {
    // Volatile stores so the scrub survives dead-store elimination even
    // though the vector is cleared immediately after.
    volatile std::uint64_t* p = limbs_.data();
    for (std::size_t i = 0; i < limbs_.size(); ++i) p[i] = 0;
  }
  limbs_.clear();
  negative_ = false;
}

// ---------------------------------------------------------------------------
// randomness
// ---------------------------------------------------------------------------

BigInt BigInt::random_bits(RandomSource& rng, std::size_t bits) {
  if (bits == 0) return BigInt{};
  const std::size_t nbytes = (bits + 7) / 8;
  Bytes buf(nbytes);
  rng.fill(buf);
  const std::size_t excess = nbytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xff >> excess);
  return from_bytes_be(buf);
}

BigInt BigInt::random_below(RandomSource& rng, const BigInt& bound) {
  if (bound <= BigInt{}) throw InvalidArgument("BigInt::random_below: bound must be positive");
  const std::size_t bits = bound.bit_length();
  // Rejection sampling: the trip count depends only on candidates that
  // are *discarded*, never on the returned value.
  // medlint: allow(ct-variable-time)
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_unit(RandomSource& rng, const BigInt& bound) {
  if (bound <= BigInt(std::uint64_t{1})) {
    throw InvalidArgument("BigInt::random_unit: bound must exceed 1");
  }
  // Rejection sampling over discarded candidates (see random_below).
  // medlint: allow(ct-variable-time)
  for (;;) {
    BigInt candidate = random_below(rng, bound);
    if (!candidate.is_zero()) return candidate;
  }
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_dec();
}

}  // namespace medcrypt::bigint
