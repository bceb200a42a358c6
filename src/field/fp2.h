// Quadratic extension field F_{p^2} = F_p[i] / (i^2 + 1), for p ≡ 3 (mod 4).
//
// This is the pairing target-group field: the modified Tate pairing on the
// supersingular curve y^2 = x^3 + x lands in the order-q subgroup of
// F*_{p^2}. The distortion map also needs i: φ(x, y) = (-x, i·y).
//
// q divides p + 1, so every G_T value x = a + b·i is unitary: norm
// a² + b² = 1 and x^-1 = conj(x). The free functions below use that: one
// F_p element carries x on the wire (gt_to_bytes), and powers of x need
// only its real part (pow_unitary).
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
  /// line multiply, skipping the Fp2 temporary (two Fp copies) a
  /// mul_inplace(Fp2(c, d)) would cost.
  void mul_line_inplace(const Fp& c, const Fp& d);

  /// Complex conjugate a - b·i; equals the Frobenius x -> x^p here.
  Fp2 conjugate() const { return Fp2(a_, -b_); }

  /// Norm a^2 + b^2 ∈ F_p.
  Fp norm() const { return a_.square() + b_.square(); }

  /// Multiplicative inverse; throws InvalidArgument on zero.
  Fp2 inverse() const;

  /// this^e for e >= 0 (square-and-multiply). Variable time: e must be
  /// public. The library raises G_T values with pow_unitary; this stays
  /// as the tests' oracle.
  Fp2 pow(const BigInt& e) const;

  /// Serialization: re || im, fixed width.
  Bytes to_bytes() const;

  /// Parses re || im over the given base field.
  static Fp2 from_bytes(const PrimeField* field, BytesView bytes);

  /// Uniformly random element.
  static Fp2 random(const PrimeField* field, RandomSource& rng);

  /// Multiplicative identity of F_{p^2} over `field`.
  static Fp2 one(const PrimeField* field);

 private:
  // *this *= (c + d·i) by Karatsuba on reduced Fp values; every read of
  // c and d happens before a_ or b_ is written, so either may alias a
  // component of *this.
  void mul_pair(const Fp& c, const Fp& d);

  Fp a_, b_;
};

/// base^k for a unitary base (norm a² + b² = 1, as every G_T element
/// has) and a secret 0 <= k < 2^bits, by a Lucas ladder on the real part
/// (Scott–Barreto, "Compressed Pairings", CRYPTO 2004). With
/// R_j = Re(base^j) and base^-1 = conj(base), R_2j = 2R_j² − 1 and
/// R_2j+1 = 2R_j·R_j+1 − a, so each bit costs one F_p multiply and one
/// F_p squaring, the pair (R_j, R_j+1) ordered by a masked swap: no
/// table, no secret index, and a sequence of field operations set by
/// `bits` alone. The imaginary part is recovered at the end as
/// Im(base^k) = (a·R_k − R_k+1)/b, with one inversion of b unless
/// `im_inv` supplies 1/b (the final exponentiation folds it into its own
/// inversion). The only branch on the base is b = 0 (base = ±1, whose
/// powers are real). The ladder state is scrubbed before returning.
/// Throws InvalidArgument on a norm other than 1 or a negative k.
Fp2 pow_unitary(const Fp2& base, const BigInt& k, std::size_t bits,
                const Fp* im_inv = nullptr);

/// Re(base^k) for a unitary base and 0 <= k < 2^bits: pow_unitary's
/// ladder without the recovery, so no inversion. Same contract.
Fp pow_unitary_re(const Fp2& base, const BigInt& k, std::size_t bits);

/// The shape q = 2^n − c of a group order q that divides p + 1, which
/// the membership tests of G1 (ec::Point::in_subgroup) and G_T (in_gt)
/// run on. Written additively, an x of order dividing p + 1 has q·x = 0
/// iff 2^n·x = c·x. Equal x-coordinates (G1) or real parts (G_T) mean
/// 2^n·x = ±c·x, so they also admit the x with (2^n + c)·x = 0. For an
/// odd prime q, as in every named set, q does not divide 2^n + c, so
/// those x are the ones whose order divides g = gcd(2^n + c, h), and
/// only x = 0 among them lies in the subgroup: the tests reject the
/// x ≠ 0 with g·x = 0. A ladder over c − 1 yields (c − 1)·x and c·x
/// together; for a Solinas q = 2^n − 2^b − 1, c − 1 = 2^b, so it also
/// yields the chain's first b doublings. Built once per curve by
/// ec::Curve::make.
struct OrderChain {
  OrderChain(const BigInt& q, const BigInt& h);

  std::size_t n;     // bits(q)
  BigInt ladder;     // c − 1, with c = 2^n − q in [1, 2^(n−1)]
  std::size_t head;  // b when c − 1 = 2^b with b >= 1, else 0
  BigInt g;          // gcd(2^n + c, h)
};

/// True iff x^q = 1 for the order q of `chain`: norm 1, then
/// Re(x^(2^n)) = Re(x^c) from the trace ladder over c − 1 and
/// n − head trace doublings R ← 2R² − 1 (one squaring each), then
/// x = 1 or Re(x^g) ≠ 1. About 2·bits(c − 1) + n − head multiplies,
/// where the ladder over q costs 2n. Variable time: for public values
/// (threshold shares and their proofs).
bool in_gt(const Fp2& x, const OrderChain& chain);

/// Wire form of a G_T value: the single F_p element m = (1 + a)/b of a
/// unitary x = a + b·i (T2 torus compression; Rubin–Silverberg, CRYPTO
/// 2003), byte_size() bytes, half of to_bytes(). x = 1 (b = 0) encodes
/// as m = 0, the value the formula gives x = −1; so x = −1, which no
/// pairing output equals, has no encoding. Costs one inversion. Throws
/// InvalidArgument on x = −1 and unless x has norm 1.
Bytes gt_to_bytes(const Fp2& x);

/// Inverse of gt_to_bytes: x = (m² − 1 + 2m·i)/(m² + 1), and 1 for m = 0.
/// m² + 1 never vanishes because −1 is not a square mod p ≡ 3 (mod 4).
/// Every m < p decodes to a norm-1 element; order q is not checked.
/// Costs one inversion. Throws InvalidArgument on a wrong length or on
/// m ≥ p.
Fp2 gt_from_bytes(const PrimeField* field, BytesView bytes);

/// Π bases[j]^exps[j] over one shared squaring chain (Straus), each
/// exponent cut into sliding windows of odd value, so a base costs its
/// odd powers base, base^3, ..., base^(2^w - 1) plus one multiplication
/// per window; w grows with the exponent's length. Variable time like
/// Fp2::pow: public exponents only. Throws InvalidArgument unless
/// `bases` is non-empty and as long as `exps`, or on a negative
/// exponent.
Fp2 multi_pow(std::span<const Fp2> bases, std::span<const BigInt> exps);

}  // namespace medcrypt::field
