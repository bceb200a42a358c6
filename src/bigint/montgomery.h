// Montgomery-form modular arithmetic for odd moduli.
//
// A Montgomery context precomputes R = 2^(64k), R^2 mod N and
// -N^{-1} mod 2^64 for a fixed odd modulus N of k limbs (at most 4096
// bits), and offers CIOS multiplication, fixed-window exponentiation, a
// constant-time safegcd inversion and a variable-time Jacobi symbol. The
// prime-field layer keeps its elements permanently in Montgomery form
// and reuses one shared context per field, which is what makes the
// 512-bit Tate pairing usable; BigInt::pow_mod (RSA, mRSA, IB-mRSA) and
// Miller–Rabin build a context per call.
//
// Every routine operates on fixed k-limb little-endian arrays owned by
// the caller, tolerates `out` aliasing an input and never allocates,
// which is what keeps the field/curve/pairing hot path off the heap.
// BigInt enters only through pad_limbs/to_mont_limbs and leaves only
// through bigint_from_limbs/from_mont_limbs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/kernels/kernels.h"

namespace medcrypt::bigint {

/// Montgomery arithmetic context for an odd modulus.
class Montgomery {
 public:
  /// Widest modulus a context accepts, in limbs (4096 bits).
  static constexpr std::size_t kMaxLimbs = kernels::kMaxLimbs;

  /// Builds the context. Throws InvalidArgument unless n is odd, > 1 and
  /// at most kMaxLimbs limbs wide.
  explicit Montgomery(BigInt n);

  const BigInt& modulus() const { return n_; }

  /// Number of 64-bit limbs of the modulus.
  std::size_t limbs() const { return k_; }

  /// CIOS Montgomery product a*b*R^{-1} mod n on k-limb little-endian
  /// arrays: one call to the kernel table's `mul` entry, at every width.
  /// `out` may alias `a` and/or `b`. The scratch lives on the stack.
  void mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (a + b) mod n on reduced k-limb operands; `out` may alias.
  void add_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (a - b) mod n on reduced k-limb operands; `out` may alias.
  void sub_limbs(const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out) const;

  /// (-a) mod n on a reduced k-limb operand; `out` may alias `a`.
  void neg_limbs(const std::uint64_t* a, std::uint64_t* out) const;

  /// Zero-pads the magnitude of `a` to exactly k limbs. Requires
  /// 0 <= a < R (i.e. at most k limbs).
  void pad_limbs(const BigInt& a, std::uint64_t* out) const;

  /// BigInt from a k-limb little-endian array.
  BigInt bigint_from_limbs(const std::uint64_t* a) const;

  /// Montgomery form a*R mod n of an ordinary residue 0 <= a < n,
  /// written into k limbs (`out` must hold k limbs).
  void to_mont_limbs(const BigInt& a, std::uint64_t* out) const;

  /// The ordinary residue a*R^{-1} mod n of a Montgomery-form k-limb
  /// value.
  BigInt from_mont_limbs(const std::uint64_t* a) const;

  /// base^e in the Montgomery domain: for base_mont = xR mod n writes
  /// x^e R mod n. Fixed 4-bit windows, most significant first: the
  /// accumulator starts at the top window's table entry, then every
  /// window squares four times and multiplies by table[digit], digit 0
  /// by one, so the operation sequence depends only on the bit length of
  /// e. The 16-entry table lives on the stack. `out` may alias
  /// `base_mont`. Throws InvalidArgument on a negative exponent.
  void pow_limbs(const std::uint64_t* base_mont, const BigInt& e,
                 std::uint64_t* out) const;

  /// Montgomery-domain inverse: for a = xR mod n writes x^{-1}R mod n
  /// (zero maps to zero). Requires 0 <= a < n and gcd(a, n) = 1, which a
  /// prime modulus gives for every nonzero a; `out` may alias `a`.
  /// Bernstein–Yang safegcd: a fixed count of divsteps set by the bit
  /// length of n alone, updated with masks only, so `a` may be secret.
  void inv_limbs(const std::uint64_t* a, std::uint64_t* out) const;

  /// The Jacobi symbol (a | n) of a k-limb value 0 <= a < n: 1 or −1,
  /// and 0 when gcd(a, n) > 1. R = 2^(64k) is a square, so a
  /// Montgomery-form a = xR gives (x | n) with no conversion. Runs
  /// posdivsteps (Pornin; libsecp256k1's jacobi64): the safegcd
  /// batches with f and g kept nonnegative, so the symbol's sign can be
  /// tracked. No bound on their count is proved, so after twice the
  /// inversion's divsteps it gives up with nullopt, which random inputs
  /// do not reach. Variable time: it branches on `a`, which must be
  /// public.
  std::optional<int> jacobi_limbs(const std::uint64_t* a) const;

  /// R mod n zero-padded to k limbs (the Montgomery form of 1).
  const std::uint64_t* one_limbs() const { return one_padded_.data(); }

  /// -n^{-1} mod 2^64 (kernel/test plumbing).
  std::uint64_t n0inv() const { return n0inv_; }

  /// The modulus as a k-limb little-endian array.
  const std::uint64_t* modulus_limbs() const { return n_.limbs().data(); }

  /// The kernel table this context dispatches through (the process-wide
  /// active() table, cached at construction).
  const kernels::Table& kernel() const { return *kt_; }

 private:
  BigInt n_;
  std::size_t k_ = 0;
  std::uint64_t n0inv_ = 0;  // -n^{-1} mod 2^64
  const kernels::Table* kt_ = nullptr;  // dispatched limb kernels
  std::vector<std::uint64_t> one_padded_;  // R mod n, k limbs
  std::vector<std::uint64_t> r2_padded_;   // R^2 mod n, k limbs
  // inv_limbs state: n and R^2 mod n in signed 62-bit limbs (n also
  // starts jacobi_limbs).
  std::size_t s62_len_ = 0;                // signed 62-bit limb count
  std::size_t divstep_batches_ = 0;        // batches of 62 divsteps
  std::uint64_t n_inv62_ = 0;              // n^{-1} mod 2^62
  std::vector<std::int64_t> n_s62_;
  std::vector<std::int64_t> r2_s62_;
};

}  // namespace medcrypt::bigint
