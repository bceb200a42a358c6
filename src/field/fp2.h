// Quadratic extension field F_{p^2} = F_p[i] / (i^2 + 1), for p ≡ 3 (mod 4).
//
// This is the pairing target-group field: the modified Tate pairing on the
// supersingular curve y^2 = x^3 + x lands in the order-q subgroup of
// F*_{p^2}. The distortion map also needs i: φ(x, y) = (-x, i·y).
#pragma once

#include <span>

#include "field/fp.h"

namespace medcrypt::field {

/// Element a + b·i of F_{p^2}, with i^2 = -1.
class Fp2 {
 public:
  /// Default-constructed elements belong to no field (assignment only).
  Fp2() = default;

  /// Builds a + b·i. Both components must share one field.
  Fp2(Fp a, Fp b);

  /// Embeds an F_p element as a + 0·i.
  explicit Fp2(Fp a);

  const Fp& re() const { return a_; }
  const Fp& im() const { return b_; }

  bool is_zero() const { return a_.is_zero() && b_.is_zero(); }
  bool is_one() const { return a_.is_one() && b_.is_zero(); }

  Fp2 operator+(const Fp2& o) const { return Fp2(a_ + o.a_, b_ + o.b_); }
  Fp2 operator-(const Fp2& o) const { return Fp2(a_ - o.a_, b_ - o.b_); }
  Fp2 operator-() const { return Fp2(-a_, -b_); }
  Fp2 operator*(const Fp2& o) const;
  Fp2& operator*=(const Fp2& o) {
    mul_inplace(o);
    return *this;
  }
  bool operator==(const Fp2& o) const { return a_ == o.a_ && b_ == o.b_; }

  Fp2 square() const;

  // In-place hot-path variants: all temporaries live in fixed-limb
  // stack storage, so the pairing's Miller loop and final
  // exponentiation never allocate. `o` may alias *this.
  void mul_inplace(const Fp2& o);
  void square_inplace();

  /// *this *= (c + d·i) given as bare components — the Miller loop's
  /// line multiply, skipping the Fp2 temporary (and its two shared_ptr
  /// copies) a mul_inplace(Fp2(c, d)) would cost.
  void mul_line_inplace(const Fp& c, const Fp& d);

  /// Complex conjugate a - b·i; equals the Frobenius x -> x^p here.
  Fp2 conjugate() const { return Fp2(a_, -b_); }

  /// Norm a^2 + b^2 ∈ F_p.
  Fp norm() const { return a_.square() + b_.square(); }

  /// Multiplicative inverse; throws InvalidArgument on zero.
  Fp2 inverse() const;

  /// this^e for e >= 0 (square-and-multiply). Variable time: e must be
  /// public; secret exponents go through pow_fixed_window.
  Fp2 pow(const BigInt& e) const;

  /// Serialization: re || im, fixed width.
  Bytes to_bytes() const;

  /// Parses re || im over the given base field.
  static Fp2 from_bytes(const std::shared_ptr<const PrimeField>& field,
                        BytesView bytes);

  /// Uniformly random element.
  static Fp2 random(const std::shared_ptr<const PrimeField>& field,
                    RandomSource& rng);

  /// Multiplicative identity of F_{p^2} over `field`.
  static Fp2 one(const std::shared_ptr<const PrimeField>& field);

 private:
  // *this *= (c + d·i) by Karatsuba on reduced Fp values; every read of
  // c and d happens before a_ or b_ is written, so either may alias a
  // component of *this.
  void mul_pair(const Fp& c, const Fp& d);

  Fp a_, b_;
};

/// base^k for a secret k < 2^bits: fixed 4-bit windows. The accumulator
/// starts at the top window's table entry, then every window squares
/// four times and multiplies once (digit 0 multiplies by 1), so the
/// sequence of field operations depends only on `bits`, never on k.
/// The window digit still indexes a 16-entry table in memory.
Fp2 pow_fixed_window(const Fp2& base, const BigInt& k, std::size_t bits);

/// Π bases[j]^exps[j] over one shared squaring chain (Straus).
/// Variable time like Fp2::pow: public exponents only. `bases` must be
/// non-empty and as long as `exps`.
Fp2 multi_pow(std::span<const Fp2> bases, std::span<const BigInt> exps);

/// In-place simultaneous inversion (Montgomery's trick): one inversion
/// plus 3(n-1) multiplications replace n inversions — each Fp2
/// inversion costs one ~8–11 µs safegcd Fp inversion plus a norm at the
/// paper's parameters, which is what the batched pairing final
/// exponentiation amortizes. Throws
/// InvalidArgument if any element is zero (none are inverted then).
void batch_inverse(std::span<Fp2> xs);

}  // namespace medcrypt::field
