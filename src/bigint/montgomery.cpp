#include "bigint/montgomery.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error.h"

namespace medcrypt::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;
using i128 = __int128;

namespace {
// -n^{-1} mod 2^64 by Newton iteration (n odd).
u64 neg_inv64(u64 n) {
  u64 x = n;  // correct mod 2^3
  for (int i = 0; i < 5; ++i) x *= 2 - n * x;  // doubles precision each step
  return ~x + 1;  // -(n^{-1})
}

// --- safegcd inversion (Bernstein–Yang, "Fast constant-time gcd
// computation and modular inversion", TCHES 2019; the batching and the
// signed 62-bit limbs follow Pornin, ePrint 2020/972, and libsecp256k1's
// modinv64). Values are little-endian arrays of signed 62-bit limbs:
// limbs below the top one hold [0, 2^62), the top limb carries the sign.

constexpr int kBatch = 62;  // divsteps per batch = bits per limb
constexpr u64 kMask62 = (u64{1} << 62) - 1;
constexpr std::size_t kMaxS62 = 64 * Montgomery::kMaxLimbs / 62 + 1;

// Repacks k 64-bit limbs (nonnegative) into len signed 62-bit limbs.
void to_s62(const u64* a, std::size_t k, i64* out, std::size_t len) {
  u128 acc = 0;
  int have = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (have < kBatch) {
      if (w < k) acc |= static_cast<u128>(a[w]) << have;
      ++w;
      have += 64;
    }
    out[i] = static_cast<i64>(static_cast<u64>(acc) & kMask62);
    acc >>= kBatch;
    have -= kBatch;
  }
}

// Repacks len normalized (nonnegative) signed 62-bit limbs into k
// 64-bit limbs.
void from_s62(const i64* a, std::size_t len, u64* out, std::size_t k) {
  u128 acc = 0;
  int have = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < k; ++j) {
    while (have < 64) {
      if (i < len) acc |= static_cast<u128>(static_cast<u64>(a[i])) << have;
      ++i;
      have += kBatch;
    }
    out[j] = static_cast<u64>(acc);
    acc >>= 64;
    have -= 64;
  }
}

// Runs 62 divsteps on the low 64 bits of f (odd) and g, which fix every
// decision, and returns the new delta. t = {u, v, q, r} receives the
// transition matrix scaled by 2^62: u·f + v·g = 2^62·f' and
// q·f + r·g = 2^62·g', with |u| + |v| <= 2^62 and |q| + |r| <= 2^62.
// One divstep (delta, f, g) becomes (1 - delta, g, (g - f)/2) when
// delta > 0 and g is odd, else (1 + delta, f, (g + (g mod 2)·f)/2);
// both arms run every time, selected by masks.
i64 divsteps_62(i64 delta, u64 f, u64 g, i64* t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  for (int i = 0; i < kBatch; ++i) {
    const u64 odd = -(g & 1);
    const u64 swap = odd & static_cast<u64>(-delta >> 63);  // delta > 0
    // g += f (or -f on a swap) when g is odd; the g row follows.
    g += ((f ^ swap) - swap) & odd;
    q += ((u ^ swap) - swap) & odd;
    r += ((v ^ swap) - swap) & odd;
    // On a swap f takes the old g, which is now g + f.
    f += g & swap;
    u += q & swap;
    v += r & swap;
    const i64 s = static_cast<i64>(swap);
    delta = ((delta ^ s) - s) + 1;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t[0] = static_cast<i64>(u);
  t[1] = static_cast<i64>(v);
  t[2] = static_cast<i64>(q);
  t[3] = static_cast<i64>(r);
  return delta;
}

// [f, g] <- t·[f, g] / 2^62; the division is exact.
void update_fg(i64* f, i64* g, std::size_t len, const i64* t) {
  i128 cf = static_cast<i128>(t[0]) * f[0] + static_cast<i128>(t[1]) * g[0];
  i128 cg = static_cast<i128>(t[2]) * f[0] + static_cast<i128>(t[3]) * g[0];
  cf >>= kBatch;
  cg >>= kBatch;
  for (std::size_t i = 1; i < len; ++i) {
    cf += static_cast<i128>(t[0]) * f[i] + static_cast<i128>(t[1]) * g[i];
    cg += static_cast<i128>(t[2]) * f[i] + static_cast<i128>(t[3]) * g[i];
    f[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kMask62);
    g[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kMask62);
    cf >>= kBatch;
    cg >>= kBatch;
  }
  f[len - 1] = static_cast<i64>(cf);
  g[len - 1] = static_cast<i64>(cg);
}

// [d, e] <- t·[d, e] / 2^62 mod n, keeping both in (-2n, n): a negative
// input first gains n, then the multiple of n that clears the low 62
// bits is added before the shift.
void update_de(i64* d, i64* e, std::size_t len, const i64* t, const i64* n,
               u64 n_inv62) {
  const i64 sd = d[len - 1] >> 63, se = e[len - 1] >> 63;
  i64 md = (t[0] & sd) + (t[1] & se);
  i64 me = (t[2] & sd) + (t[3] & se);
  i128 cd = static_cast<i128>(t[0]) * d[0] + static_cast<i128>(t[1]) * e[0];
  i128 ce = static_cast<i128>(t[2]) * d[0] + static_cast<i128>(t[3]) * e[0];
  md -= static_cast<i64>(
      (n_inv62 * static_cast<u64>(cd) + static_cast<u64>(md)) & kMask62);
  me -= static_cast<i64>(
      (n_inv62 * static_cast<u64>(ce) + static_cast<u64>(me)) & kMask62);
  cd += static_cast<i128>(n[0]) * md;
  ce += static_cast<i128>(n[0]) * me;
  cd >>= kBatch;
  ce >>= kBatch;
  for (std::size_t i = 1; i < len; ++i) {
    cd += static_cast<i128>(t[0]) * d[i] + static_cast<i128>(t[1]) * e[i] +
          static_cast<i128>(n[i]) * md;
    ce += static_cast<i128>(t[2]) * d[i] + static_cast<i128>(t[3]) * e[i] +
          static_cast<i128>(n[i]) * me;
    d[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kMask62);
    e[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kMask62);
    cd >>= kBatch;
    ce >>= kBatch;
  }
  d[len - 1] = static_cast<i64>(cd);
  e[len - 1] = static_cast<i64>(ce);
}

// Brings every limb below the top one back into [0, 2^62).
void carry_s62(i64* a, std::size_t len) {
  for (std::size_t i = 0; i + 1 < len; ++i) {
    a[i + 1] += a[i] >> kBatch;
    a[i] &= static_cast<i64>(kMask62);
  }
}

// a += n when a < 0.
void add_n_if_negative(i64* a, const i64* n, std::size_t len) {
  const i64 neg = a[len - 1] >> 63;
  for (std::size_t i = 0; i < len; ++i) a[i] += n[i] & neg;
  carry_s62(a, len);
}

// Runs 62 posdivsteps on the low 64 bits of f (odd) and g and returns
// the new eta = −delta; t receives the transition matrix as
// divsteps_62's does. A posdivstep is a divstep with g + f in place of
// g − f, so f and g stay nonnegative and the Jacobi symbol (g | f) keeps
// its meaning; bit 0 of `jac` flips each time that symbol changes sign.
// Variable time: a run of halvings is one shift, and a step on odd g
// adds the multiple w·f that clears up to 4 (or, after a swap, 6) low
// bits of g at once (Pornin, ePrint 2020/972; libsecp256k1's
// jacobi64). The low 64 bits of f and g, not 62, keep f mod 8 and
// g mod 4 known through the batch's last steps.
i64 posdivsteps_62(i64 eta, u64 f, u64 g, i64* t, u64& jac) {
  u64 u = 1, v = 0, q = 0, r = 1;
  int left = kBatch;
  // Halves g up to `left` times (the sentinel bits cap the count).
  const auto halve = [&] {
    const int zeros = __builtin_ctzll(g | (~u64{0} << left));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    left -= zeros;
    // (2 | f) = −1 iff f ≡ 3 or 5 (mod 8).
    jac ^= static_cast<u64>(zeros) & ((f >> 1) ^ (f >> 2));
  };
  // Every pass clears at least the low bit of the odd g, so `left`
  // falls by at least one per pass.
  for (halve(); left > 0; halve()) {
    u64 w;  // −g/f modulo 2^6 after a swap, 2^4 otherwise
    if (eta < 0) {
      eta = -eta;
      std::swap(f, g);
      std::swap(u, q);
      std::swap(v, r);
      // Reciprocity: (f | g) = −(g | f) iff both are 3 (mod 4).
      jac ^= (f & g) >> 1;
      w = f * g * (f * f - 2) & 63;  // f(f² − 2) = −1/f (mod 64)
    } else {
      w = (0 - (f + (((f + 1) & 4) << 1)) * g) & 15;  // 1/f (mod 16)
    }
    // At most eta + 1 steps pass before the next swap, and `left` remain.
    w &= ~u64{0} >> (64 - std::min<i64>(eta + 1, left));
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t[0] = static_cast<i64>(u);
  t[1] = static_cast<i64>(v);
  t[2] = static_cast<i64>(q);
  t[3] = static_cast<i64>(r);
  return eta;
}
}  // namespace

Montgomery::Montgomery(BigInt n) : n_(std::move(n)) {
  if (n_ <= BigInt(std::uint64_t{1}) || !n_.is_odd()) {
    throw InvalidArgument("Montgomery: modulus must be odd and > 1");
  }
  k_ = n_.limbs().size();
  if (k_ > kMaxLimbs) {
    throw InvalidArgument("Montgomery: modulus wider than 4096 bits");
  }
  n0inv_ = neg_inv64(n_.limbs()[0]);
  kt_ = &kernels::active();
  // R = 2^(64k); R mod n and R^2 mod n via generic reduction (setup only).
  const BigInt one = (BigInt(std::uint64_t{1}) << (64 * k_)) % n_;
  const BigInt r2 = (one * one) % n_;
  one_padded_.resize(k_);
  r2_padded_.resize(k_);
  pad_limbs(one, one_padded_.data());
  pad_limbs(r2, r2_padded_.data());

  // inv_limbs constants. Bernstein–Yang, Theorem 11.2: for odd f and
  // f^2 + 4g^2 <= 5·2^(2d), floor((49d + 57)/17) divsteps (d >= 46) or
  // floor((49d + 80)/17) divsteps (d < 46) reach g = 0. With f = n and
  // 0 <= g < n, d is the bit length of n.
  const std::size_t bits = n_.bit_length();
  const std::size_t divsteps = (49 * bits + (bits >= 46 ? 57 : 80)) / 17;
  divstep_batches_ = (divsteps + kBatch - 1) / kBatch;
  s62_len_ = bits / kBatch + 1;  // room for the sign and for (-2n, n)
  n_s62_.resize(s62_len_);
  r2_s62_.resize(s62_len_);
  to_s62(n_.limbs_.data(), k_, n_s62_.data(), s62_len_);
  to_s62(r2_padded_.data(), k_, r2_s62_.data(), s62_len_);
  n_inv62_ = (~n0inv_ + 1) & kMask62;  // n^{-1} mod 2^62
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

BigInt Montgomery::from_mont_limbs(const u64* a) const {
  u64 unit[kMaxLimbs] = {1};
  u64 r[kMaxLimbs] = {};
  mul_limbs(a, unit, r);
  BigInt out = bigint_from_limbs(r);
  kernels::scrub_scratch(r, k_);
  return out;
}

void Montgomery::mul_limbs(const u64* a, const u64* b, u64* out) const {
  kt_->mul(a, b, n_.limbs_.data(), n0inv_, k_, out);
}

void Montgomery::inv_limbs(const u64* a, u64* out) const {
  const std::size_t len = s62_len_;
  // Invariants d·a = f·R^2 and e·a = g·R^2 (mod n), from f = n, d = 0,
  // g = a, e = R^2. At the end g = 0 and f = ±1, so ±d = R^2/a: with
  // a = xR that is x^{-1}R, the Montgomery form of the inverse.
  i64 state[4 * kMaxS62 + 4];
  i64* f = state;
  i64* g = f + len;
  i64* d = g + len;
  i64* e = d + len;
  i64* t = e + len;
  std::copy_n(n_s62_.data(), len, f);
  to_s62(a, k_, g, len);
  std::fill_n(d, len, i64{0});
  std::copy_n(r2_s62_.data(), len, e);

  i64 delta = 1;
  for (std::size_t b = 0; b < divstep_batches_; ++b) {
    delta = divsteps_62(delta, static_cast<u64>(f[0]), static_cast<u64>(g[0]),
                        t);
    update_fg(f, g, len, t);
    update_de(d, e, len, t, n_s62_.data(), n_inv62_);
  }

  // d in (-2n, n) -> (-n, n) -> times the sign of f -> [0, n).
  add_n_if_negative(d, n_s62_.data(), len);
  const i64 f_neg = f[len - 1] >> 63;
  for (std::size_t i = 0; i < len; ++i) d[i] = (d[i] ^ f_neg) - f_neg;
  carry_s62(d, len);
  add_n_if_negative(d, n_s62_.data(), len);
  from_s62(d, len, out, k_);
  // f, g, d, e and the matrices all derive from the operand.
  kernels::scrub_scratch(reinterpret_cast<u64*>(state), 4 * len + 4);
}

std::optional<int> Montgomery::jacobi_limbs(const u64* a) const {
  if (std::all_of(a, a + k_, [](u64 l) { return l == 0; })) return 0;
  // (g | f) from f = n, g = a. Posdivsteps keep f odd and g >= 0 and
  // end at f = g = gcd(a, n), a fixed point of the steps. f and g get
  // one spare zero limb, so their low 64 bits read in bounds after `len`
  // shrinks to one limb.
  std::size_t len = s62_len_;
  i64 state[2 * kMaxS62 + 6];
  i64* f = state;
  i64* g = f + len + 1;
  i64* t = g + len + 1;
  std::copy_n(n_s62_.data(), len, f);
  to_s62(a, k_, g, len);
  f[len] = g[len] = 0;
  const auto low64 = [](const i64* x) {
    return static_cast<u64>(x[0]) | static_cast<u64>(x[1]) << kBatch;
  };
  i64 eta = -1;
  u64 jac = 0;
  // No bound on the posdivstep count is proved; twice the divsteps that
  // provably end a safegcd inversion (~5.8 per bit of n) is ample.
  for (std::size_t b = 0; b < 2 * divstep_batches_; ++b) {
    eta = posdivsteps_62(eta, low64(f), low64(g), t, jac);
    update_fg(f, g, len, t);
    if (f[0] == 1 &&
        std::all_of(f + 1, f + len, [](i64 l) { return l == 0; })) {
      return (jac & 1) != 0 ? -1 : 1;  // (g | 1) = 1
    }
    if (std::equal(f, f + len, g)) return 0;  // f = g = gcd(a, n) > 1
    if (len > 1 && f[len - 1] == 0 && g[len - 1] == 0) --len;
  }
  return std::nullopt;
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

void Montgomery::pow_limbs(const u64* base_mont, const BigInt& e,
                           u64* out) const {
  if (e.is_negative()) {
    throw InvalidArgument("Montgomery::pow_limbs: negative exponent");
  }
  constexpr int kWindow = 4;
  // table[d] = base^d, k limbs each; table[1] is copied before `out`
  // (which may alias the base) is written.
  u64 table[(1u << kWindow) * kMaxLimbs] = {};
  std::copy_n(one_padded_.data(), k_, table);
  std::copy_n(base_mont, k_, table + k_);
  for (std::size_t d = 2; d < (1u << kWindow); ++d) {
    mul_limbs(table + (d - 1) * k_, table + k_, table + d * k_);
  }
  // Window w of e is bits [4w, 4w + 4), which never straddle a limb.
  const auto entry = [&](std::size_t w) {
    const std::size_t bit = w * kWindow;
    return table + ((e.limbs_[bit / 64] >> (bit % 64)) & 0xf) * k_;
  };
  std::size_t w = (e.bit_length() + kWindow - 1) / kWindow;
  std::copy_n(w == 0 ? table : entry(--w), k_, out);
  while (w-- > 0) {
    for (int i = 0; i < kWindow; ++i) mul_limbs(out, out, out);
    mul_limbs(out, entry(w), out);
  }
  // The table holds powers of the base, which is secret-bearing for RSA
  // and for a SEM token's field elements.
  kernels::scrub_scratch(table, (1u << kWindow) * k_);
}

}  // namespace medcrypt::bigint
