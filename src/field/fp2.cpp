#include "field/fp2.h"

#include <algorithm>
#include <utility>

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

Fp2 multi_pow(std::span<const Fp2> bases, std::span<const BigInt> exps) {
  std::size_t bits = 0;
  for (const BigInt& e : exps) bits = std::max(bits, e.bit_length());
  Fp2 acc = Fp2::one(bases.front().re().field());
  for (std::size_t i = bits; i-- > 0;) {
    acc.square_inplace();
    for (std::size_t j = 0; j < bases.size(); ++j) {
      if (exps[j].bit(i)) acc.mul_inplace(bases[j]);
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
