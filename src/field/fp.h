// Prime field F_p.
//
// PrimeField is an immutable interned context (modulus + Montgomery
// state + cached exponents): PrimeField::make keeps one per modulus for
// the life of the process. Fp is a value-semantic element kept
// permanently in Montgomery form, stored as exactly k padded limbs
// (LimbStore) so every field operation runs at the Montgomery limb level
// without heap allocation. Elements hold a plain pointer to their field,
// so copies touch no shared counter, a mixed-field operation is one
// pointer compare, and, as contexts are never freed, none can dangle.
//
// The compound operators (+=, -=, *=) and the *_inplace methods mutate
// in place and are the hot-path spelling: the curve and pairing layers
// thread them through so a full Tate pairing allocates nothing.
#pragma once

#include <optional>
#include <span>

#include "bigint/bigint.h"
#include "bigint/montgomery.h"
#include "common/bytes.h"
#include "common/random_source.h"
#include "field/limb_store.h"

namespace medcrypt::field {

using bigint::BigInt;

class Fp;

/// Immutable prime-field context, interned: obtain via PrimeField::make.
class PrimeField {
 public:
  /// The field context for odd prime p: built and validated on the first
  /// call for p, then the same pointer for every later call with p (from
  /// any thread). Contexts are never freed. Primality is the caller's
  /// responsibility (parameter generation checks it); oddness is enforced.
  static const PrimeField* make(BigInt p);

  PrimeField(const PrimeField&) = delete;
  PrimeField& operator=(const PrimeField&) = delete;

  const BigInt& modulus() const { return mont_.modulus(); }

  /// Serialized size of one element (big-endian, fixed width).
  std::size_t byte_size() const { return byte_size_; }

  /// Limb width of one element (the Montgomery k).
  std::size_t limb_count() const { return mont_.limbs(); }

  Fp zero() const;
  Fp one() const;

  /// Element from an arbitrary integer (reduced mod p).
  Fp from_bigint(const BigInt& v) const;

  /// Element from a small unsigned constant.
  Fp from_u64(std::uint64_t v) const;

  /// Parses a fixed-width big-endian element; throws if >= p or wrong size.
  Fp from_bytes(BytesView bytes) const;

  /// Uniformly random element.
  Fp random(RandomSource& rng) const;

  const bigint::Montgomery& mont() const { return mont_; }

  /// (p-1)/2, the Euler-criterion exponent (cached; Fp::is_square).
  const BigInt& legendre_exponent() const { return legendre_exp_; }

  /// (p+1)/4 when p ≡ 3 (mod 4), zero otherwise (cached; Fp::sqrt).
  const BigInt& sqrt_exponent() const { return sqrt_exp_; }

 private:
  explicit PrimeField(BigInt p);

  bigint::Montgomery mont_;
  std::size_t byte_size_;
  BigInt legendre_exp_;  // (p-1)/2
  BigInt sqrt_exp_;      // (p+1)/4 for p ≡ 3 (mod 4), else zero
};

/// Element of a prime field, internally in Montgomery form.
class Fp {
 public:
  /// Default-constructed elements belong to no field; only assignment and
  /// destruction are valid on them.
  Fp() = default;

  const PrimeField* field() const { return field_; }

  bool is_zero() const { return store_.is_zero(); }
  bool is_one() const;

  Fp operator+(const Fp& o) const;
  Fp operator-(const Fp& o) const;
  Fp operator*(const Fp& o) const;
  Fp operator-() const;
  Fp& operator+=(const Fp& o);
  Fp& operator-=(const Fp& o);
  Fp& operator*=(const Fp& o);

  bool operator==(const Fp& o) const;

  Fp square() const;

  /// Doubles (cheaper than generic add for EC formulas readability only).
  Fp dbl() const;

  // In-place variants of square/double/negate for the hot path.
  void square_inplace();
  void dbl_inplace();
  void negate_inplace();

  /// Exchanges *this and o when `swap` is 1 and leaves both when it is
  /// 0, by masking every limb, so a secret ladder bit shows in neither
  /// the timing nor the memory accesses. Both must share one field.
  void cswap(Fp& o, std::uint64_t swap);

  /// Multiplicative inverse by Bernstein–Yang safegcd
  /// (Montgomery::inv_limbs), staying in the Montgomery domain. Constant
  /// time in the value: the divstep count depends only on the bit length
  /// of p and every step is masked, so secret elements (a SEM token's
  /// Miller value) may be inverted. Throws InvalidArgument on zero.
  Fp inverse() const;

  /// this^e for e >= 0 by Montgomery::pow_limbs: fixed 4-bit windows
  /// whose operation sequence depends only on the bit length of e.
  /// Throws InvalidArgument on a negative exponent.
  Fp pow(const BigInt& e) const;

  /// Euler criterion; zero counts as a square.
  bool is_square() const;

  /// The Legendre symbol (this | p): 1 for a nonzero square, −1 for a
  /// non-square, 0 for zero, by Montgomery::jacobi_limbs on the
  /// Montgomery form, with no power (Euler's criterion should it give
  /// up). Variable time: for public values only (hash-to-curve
  /// candidates).
  int legendre() const;

  /// A square root (the caller picks the sign via canonical_sqrt or
  /// negation); throws InvalidArgument if not a square. Same contract
  /// as try_sqrt.
  Fp sqrt() const;

  /// A square root, or nullopt if this is not a square, for
  /// p ≡ 3 (mod 4), as every field the library builds is (each named p
  /// and q). It costs one exponentiation: s = x^((p+1)/4) is a root iff
  /// x is a square, so the s^2 == x check replaces the separate
  /// Euler-criterion power. Throws InvalidArgument when p ≡ 1 (mod 4).
  std::optional<Fp> try_sqrt() const;

  /// Canonical integer representative in [0, p).
  BigInt to_bigint() const;

  /// Fixed-width big-endian serialization.
  Bytes to_bytes() const;

  /// "Sign" bit for point compression: parity of the canonical
  /// representative.
  bool parity() const { return to_bigint().is_odd(); }

  /// The element's k Montgomery-form limbs, little-endian (k =
  /// field()->limb_count()). With assign_limbs, this lets a holder of
  /// many elements of one field store bare limbs without a context per
  /// element (the pairing's prepared Miller programs).
  const std::uint64_t* limbs() const { return store_.data(); }

  /// Overwrites the value with k Montgomery-form limbs of this element's
  /// field, reduced below p, as limbs() hands them out.
  void assign_limbs(const std::uint64_t* limbs);

  /// Scrubs the element and detaches it from its field (the element
  /// becomes default-constructed). Called by secret holders' destructors.
  void wipe() {
    store_.wipe();
    field_ = nullptr;
  }

 private:
  friend class PrimeField;
  Fp(const PrimeField* field, LimbStore store)
      : field_(field), store_(std::move(store)) {}

  void check_same_field(const Fp& o) const;
  void check_bound(const char* op) const;

  const PrimeField* field_ = nullptr;
  LimbStore store_;
};

/// In-place simultaneous inversion (Montgomery's trick): one inversion
/// plus 3n multiplications replace n inversions. Zero elements stay zero
/// and do not disturb the others. Constant time in the values: zeros are
/// set aside by masked swaps, not branches, and the one inversion is
/// Fp::inverse, so the elements may be secret (the pairing inverts
/// d_sem-derived line coefficients with it). All elements must share
/// one field.
void batch_inverse(std::span<Fp> xs);

}  // namespace medcrypt::field
