// Arbitrary-precision signed integers.
//
// BigInt is the arithmetic substrate for every scheme in medcrypt: the
// prime fields under the pairing curve, Z_q exponent arithmetic, Shamir
// shares, and RSA. The representation is sign + magnitude with 64-bit
// little-endian limbs; the magnitude never has trailing zero limbs and
// zero is the empty limb vector with a non-negative sign.
//
// Division truncates toward zero (C++ semantics); `mod(m)` additionally
// provides the canonical representative in [0, m).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/random_source.h"

namespace medcrypt::bigint {

/// Arbitrary-precision signed integer.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// From native integers.
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor)
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}

  /// Parses a lowercase/uppercase hex magnitude, optional leading '-'.
  static BigInt from_hex(std::string_view hex);

  /// Parses a decimal string, optional leading '-'.
  static BigInt from_dec(std::string_view dec);

  /// Interprets big-endian bytes as a non-negative integer.
  static BigInt from_bytes_be(BytesView bytes);

  /// Hex magnitude with optional '-' prefix, no leading zeros ("0" for zero).
  std::string to_hex() const;

  /// Decimal representation.
  std::string to_dec() const;

  /// Big-endian bytes, minimal length (empty for zero). Requires *this >= 0.
  Bytes to_bytes_be() const;

  /// Big-endian bytes left-padded to exactly `len` bytes.
  /// Throws InvalidArgument if the value does not fit or is negative.
  Bytes to_bytes_be_padded(std::size_t len) const;

  // --- predicates / accessors -------------------------------------------

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits of the magnitude (0 for zero).
  std::size_t bit_length() const;

  /// Bit `i` of the magnitude (LSB = bit 0).
  bool bit(std::size_t i) const;

  /// Low 64 bits of the magnitude.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  /// Converts to uint64_t; throws InvalidArgument if out of range or negative.
  std::uint64_t to_u64() const;

  /// Magnitude limbs, little-endian (internal view for Montgomery).
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

  // --- arithmetic ---------------------------------------------------------

  BigInt operator-() const;
  BigInt abs() const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncating division. Throws InvalidArgument on division by zero.
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  /// Remainder with the sign of the dividend (C++ semantics).
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }

  /// Quotient and remainder in one pass (remainder has dividend's sign).
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  std::strong_ordering operator<=>(const BigInt& b) const;
  bool operator==(const BigInt& b) const = default;

  // --- number theory -------------------------------------------------------

  /// Canonical residue in [0, m). Requires m > 0.
  BigInt mod(const BigInt& m) const;

  /// (this + b) mod m, inputs assumed already reduced.
  BigInt add_mod(const BigInt& b, const BigInt& m) const;

  /// (this - b) mod m, inputs assumed already reduced.
  BigInt sub_mod(const BigInt& b, const BigInt& m) const;

  /// (this * b) mod m.
  BigInt mul_mod(const BigInt& b, const BigInt& m) const;

  /// this^e mod m through Montgomery::pow_limbs. Requires e >= 0 and an
  /// odd modulus m of at most 4096 bits; m = 1 gives zero. Throws
  /// InvalidArgument otherwise (an even modulus included).
  BigInt pow_mod(const BigInt& e, const BigInt& m) const;

  /// Greatest common divisor of magnitudes.
  static BigInt gcd(const BigInt& a, const BigInt& b);

  /// Extended GCD: returns g and sets x, y with a*x + b*y = g (g >= 0).
  static BigInt extended_gcd(const BigInt& a, const BigInt& b, BigInt& x,
                             BigInt& y);

  /// Modular inverse in [0, m). Throws InvalidArgument if gcd(this, m) != 1.
  BigInt mod_inverse(const BigInt& m) const;

  // --- secret hygiene -------------------------------------------------------

  /// Scrubs the limbs through volatile stores and resets to zero. Secret
  /// holders (key structs, DRBG state, Shamir dealers) call this from
  /// their destructors so freed limb vectors never retain key material.
  /// Note this wipes only *this* value: arithmetic temporaries still pass
  /// through ordinary heap allocations (see docs/SECRET_HYGIENE.md).
  void wipe();

  // --- randomness -----------------------------------------------------------

  /// Uniform integer with exactly `bits` random bits (top bit may be zero).
  static BigInt random_bits(RandomSource& rng, std::size_t bits);

  /// Uniform integer in [0, bound) by rejection sampling. Requires bound > 0.
  static BigInt random_below(RandomSource& rng, const BigInt& bound);

  /// Uniform integer in [1, bound). Requires bound > 1.
  static BigInt random_unit(RandomSource& rng, const BigInt& bound);

 private:
  static BigInt from_limbs(std::vector<std::uint64_t> limbs, bool negative);
  void trim();

  // magnitude comparison / arithmetic helpers (ignore sign)
  static int cmp_mag(const BigInt& a, const BigInt& b);
  static std::vector<std::uint64_t> add_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  // requires |a| >= |b|
  static std::vector<std::uint64_t> sub_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  static std::vector<std::uint64_t> mul_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b);
  static void divmod_mag(const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b,
                         std::vector<std::uint64_t>& q,
                         std::vector<std::uint64_t>& r);

  std::vector<std::uint64_t> limbs_;  // little-endian, trimmed
  bool negative_ = false;             // false when zero

  friend class Montgomery;
};

/// Streams the decimal representation.
std::ostream& operator<<(std::ostream& os, const BigInt& v);

/// Wipes a secret held in a named local when its scope ends, by return
/// or by throw.
class ScopedWipe {
 public:
  explicit ScopedWipe(BigInt& value) : value_(value) {}
  ScopedWipe(const ScopedWipe&) = delete;
  ScopedWipe& operator=(const ScopedWipe&) = delete;
  ~ScopedWipe() { value_.wipe(); }

 private:
  BigInt& value_;
};

}  // namespace medcrypt::bigint
