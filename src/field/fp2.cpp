#include "field/fp2.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"

namespace medcrypt::field {

Fp2::Fp2(Fp a, Fp b) : a_(std::move(a)), b_(std::move(b)) {}

Fp2::Fp2(Fp a) : a_(std::move(a)) {
  b_ = a_.field()->zero();
}

void Fp2::mul_pair(const Fp& c, const Fp& d) {
  // (a + bi)(c + di) = (ac - bd) + ((a+b)(c+d) - ac - bd) i
  Fp ac = a_;
  ac *= c;
  Fp bd = b_;
  bd *= d;
  Fp cross = a_;
  cross += b_;
  Fp sum2 = c;
  sum2 += d;
  cross *= sum2;
  cross -= ac;
  cross -= bd;
  a_ = std::move(ac);
  a_ -= bd;
  b_ = std::move(cross);
}

void Fp2::mul_inplace(const Fp2& o) { mul_pair(o.a_, o.b_); }

void Fp2::mul_line_inplace(const Fp& c, const Fp& d) { mul_pair(c, d); }

void Fp2::square_inplace() {
  // (a + bi)^2 = (a+b)(a-b) + 2ab i
  Fp sum = a_;
  sum += b_;
  Fp diff = a_;
  diff -= b_;
  sum *= diff;   // (a+b)(a-b)
  b_ *= a_;      // ab
  b_.dbl_inplace();
  a_ = std::move(sum);
}

Fp2 Fp2::operator*(const Fp2& o) const {
  Fp2 r = *this;
  r.mul_inplace(o);
  return r;
}

Fp2 Fp2::square() const {
  Fp2 r = *this;
  r.square_inplace();
  return r;
}

Fp2 Fp2::inverse() const {
  if (is_zero()) throw InvalidArgument("Fp2: inverse of zero");
  const Fp n_inv = norm().inverse();
  Fp ra = a_;
  ra *= n_inv;
  Fp rb = b_;
  rb *= n_inv;
  rb.negate_inplace();
  return Fp2(std::move(ra), std::move(rb));
}

Fp2 Fp2::pow(const BigInt& e) const {
  if (e.is_negative()) throw InvalidArgument("Fp2::pow: negative exponent");
  Fp2 result = one(a_.field());
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result.square_inplace();
    if (e.bit(i)) result.mul_inplace(*this);
  }
  return result;
}

namespace {

// The ladder behind pow_unitary and pow_unitary_re: on return
// r0 = Re(base^k) and r1 = Re(base^(k+1)). A set bit maps (R_j, R_j+1)
// to (R_2j+1, R_2j+2), the mirror image of a clear bit's
// (R_2j, R_2j+1); so the pair is swapped in, stepped by the clear-bit
// formulas and swapped back out, and consecutive swaps merge into one
// by the XOR of adjacent bits.
void lucas_ladder(const Fp2& base, const BigInt& k, std::size_t bits,
                  Fp& r0, Fp& r1) {
  if (!base.norm().is_one()) {
    throw InvalidArgument("pow_unitary: base norm is not 1");
  }
  if (k.is_negative()) throw InvalidArgument("pow_unitary: negative exponent");
  const Fp& a = base.re();
  const Fp one = a.field()->one();
  r0 = one;
  r1 = a;
  std::uint64_t swapped = 0;
  for (std::size_t i = bits; i-- > 0;) {
    const std::uint64_t bit = k.bit(i);
    r0.cswap(r1, swapped ^ bit);
    swapped = bit;
    r1 *= r0;  // R_2j+1 = 2R_j·R_j+1 − a
    r1.dbl_inplace();
    r1 -= a;
    r0.square_inplace();  // R_2j = 2R_j² − 1
    r0.dbl_inplace();
    r0 -= one;
  }
  r0.cswap(r1, swapped);
}

}  // namespace

Fp2 pow_unitary(const Fp2& base, const BigInt& k, std::size_t bits,
                const Fp* im_inv) {
  Fp r0, r1;
  lucas_ladder(base, k, bits, r0, r1);
  // base^(k+1) = base^k·base gives R_k+1 = a·R_k − b·Im(base^k).
  Fp im;
  if (base.im().is_zero()) {
    im = base.re().field()->zero();  // base = ±1: every power is real
  } else {
    im = base.re();
    im *= r0;
    im -= r1;
    im *= im_inv != nullptr ? *im_inv : base.im().inverse();
  }
  Fp2 out(r0, std::move(im));
  r0.wipe();
  r1.wipe();
  return out;
}

Fp pow_unitary_re(const Fp2& base, const BigInt& k, std::size_t bits) {
  Fp r0, r1;
  lucas_ladder(base, k, bits, r0, r1);
  r1.wipe();
  return r0;
}

OrderChain::OrderChain(const BigInt& q, const BigInt& h)
    : n(q.bit_length()), ladder((BigInt(1) << n) - q - BigInt(1)), head(0) {
  const std::size_t top = ladder.bit_length();
  if (top > 1 && ladder == BigInt(1) << (top - 1)) head = top - 1;
  g = BigInt::gcd((BigInt(1) << (n + 1)) - q, h);  // 2^n + c = 2^(n+1) − q
}

bool in_gt(const Fp2& x, const OrderChain& chain) {
  if (!x.norm().is_one()) return false;
  Fp r0, r1;  // Re(x^(c−1)), Re(x^c)
  lucas_ladder(x, chain.ladder, chain.ladder.bit_length(), r0, r1);
  if (chain.head == 0) r0 = x.re();  // else r0 = Re(x^(2^head)) already
  const Fp one = r0.field()->one();
  for (std::size_t i = chain.head; i < chain.n; ++i) {
    r0.square_inplace();  // R_2j = 2R_j² − 1
    r0.dbl_inplace();
    r0 -= one;
  }
  return r0 == r1 &&
         (x.is_one() ||
          !pow_unitary_re(x, chain.g, chain.g.bit_length()).is_one());
}

Bytes gt_to_bytes(const Fp2& x) {
  if (!x.norm().is_one()) {
    throw InvalidArgument("gt_to_bytes: not a norm-1 element");
  }
  const auto& field = x.re().field();
  if (x.im().is_zero()) {  // x = ±1
    if (!x.is_one()) throw InvalidArgument("gt_to_bytes: -1 has no encoding");
    return field->zero().to_bytes();
  }
  Fp m = x.re();
  m += field->one();
  m *= x.im().inverse();
  return m.to_bytes();
}

Fp2 gt_from_bytes(const PrimeField* field, BytesView bytes) {
  if (bytes.size() != field->byte_size()) {
    throw InvalidArgument("gt_from_bytes: wrong length");
  }
  const Fp m = field->from_bytes(bytes);
  if (m.is_zero()) return Fp2::one(field);
  // (m + i)/(m − i) = (m² − 1 + 2m·i)/(m² + 1).
  Fp re = m.square();
  Fp den = re;
  den += field->one();
  const Fp den_inv = den.inverse();
  re -= field->one();
  re *= den_inv;
  Fp im = m.dbl();
  im *= den_inv;
  return Fp2(std::move(re), std::move(im));
}

namespace {

// Sliding-window width for a public exponent of `bits` bits. A width-w
// table costs one squaring and 2^(w-1) - 1 multiplications (x, x^3, ...,
// x^(2^w - 1)), and the windows cost one multiplication per w + 1 bits
// on average, so each width wins from where its saved multiplications
// pay for its table.
unsigned window_width(std::size_t bits) {
  if (bits < 12) return 1;
  if (bits < 24) return 2;
  if (bits < 80) return 3;
  if (bits < 240) return 4;
  return 5;
}

}  // namespace

Fp2 multi_pow(std::span<const Fp2> bases, std::span<const BigInt> exps) {
  if (bases.empty() || bases.size() != exps.size()) {
    throw InvalidArgument("multi_pow: need equally long, non-empty spans");
  }
  // Cut each exponent, from its top bit down, into windows of at most w
  // bits that begin and end with a set bit. A window of value v whose low
  // bit is i multiplies the shared accumulator by base^v right after the
  // squaring for bit i, so only odd powers are tabled.
  struct Term {
    std::vector<std::uint8_t> windows;  // v at its low bit, else 0
    std::vector<Fp2> odd_powers;        // base, base^3, ..., base^(2^w - 1)
  };
  std::vector<Term> terms(bases.size());
  std::size_t top = 0;
  for (std::size_t j = 0; j < bases.size(); ++j) {
    const BigInt& e = exps[j];
    if (e.is_negative()) throw InvalidArgument("multi_pow: negative exponent");
    const std::size_t len = e.bit_length();
    if (len == 0) continue;
    const unsigned w = window_width(len);
    Term& t = terms[j];
    t.windows.assign(len, 0);
    for (std::size_t i = len; i-- > 0;) {
      if (!e.bit(i)) continue;
      std::size_t low = i + 1 >= w ? i + 1 - w : 0;
      while (!e.bit(low)) ++low;
      std::uint8_t v = 0;
      for (std::size_t b = i + 1; b-- > low;) {
        v = static_cast<std::uint8_t>(2 * v + (e.bit(b) ? 1 : 0));
      }
      t.windows[low] = v;
      i = low;
    }
    t.odd_powers.assign(std::size_t{1} << (w - 1), bases[j]);
    if (t.odd_powers.size() > 1) {
      const Fp2 sq = bases[j].square();
      for (std::size_t k = 1; k < t.odd_powers.size(); ++k) {
        t.odd_powers[k] = t.odd_powers[k - 1] * sq;
      }
    }
    top = std::max(top, len);
  }

  Fp2 acc = Fp2::one(bases.front().re().field());
  for (std::size_t i = top; i-- > 0;) {
    acc.square_inplace();
    for (const Term& t : terms) {
      if (i < t.windows.size() && t.windows[i] != 0) {
        acc.mul_inplace(t.odd_powers[t.windows[i] / 2]);
      }
    }
  }
  return acc;
}

Bytes Fp2::to_bytes() const {
  return concat(a_.to_bytes(), b_.to_bytes());
}

Fp2 Fp2::from_bytes(const PrimeField* field, BytesView bytes) {
  const std::size_t half_len = field->byte_size();
  if (bytes.size() != 2 * half_len) {
    throw InvalidArgument("Fp2::from_bytes: wrong length");
  }
  return Fp2(field->from_bytes(bytes.subspan(0, half_len)),
             field->from_bytes(bytes.subspan(half_len)));
}

Fp2 Fp2::random(const PrimeField* field, RandomSource& rng) {
  return Fp2(field->random(rng), field->random(rng));
}

Fp2 Fp2::one(const PrimeField* field) {
  return Fp2(field->one(), field->zero());
}

}  // namespace medcrypt::field
