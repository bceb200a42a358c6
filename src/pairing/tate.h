// The modified Tate pairing ê : G1 × G1 -> G2 on the supersingular curve
// E : y^2 = x^3 + x over F_p with p ≡ 3 (mod 4).
//
// ê(P, Q) = e_q(P, φ(Q)) where φ(x, y) = (-x, i·y) is the distortion map
// into E(F_{p^2}) and e_q is the reduced Tate pairing: Miller's algorithm
// followed by the final exponentiation (p^2 - 1)/q. Because the
// distortion map keeps x-coordinates in F_p, all vertical-line factors
// live in the subfield and are erased by the final exponentiation
// (standard denominator elimination for embedding degree 2). So Miller's
// loop may walk the non-adjacent form of q, adding −P on a digit −1: the
// extra vertical-line factors that brings lie in F_p as well. The final
// exponentiation is conj(f)/f, a unitary value, then its (p+1)/q power
// by the trace ladder field::pow_unitary, the two sharing one F_p
// inversion.
//
// The pairing satisfies, for all P, Q in the order-q subgroup:
//   bilinearity      ê(aP, bQ) = ê(P, Q)^(ab)
//   non-degeneracy   ê(P, P) != 1 for P != O
//   symmetry         ê(P, Q) = ê(Q, P)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ec/point.h"
#include "field/fp2.h"

namespace medcrypt::pairing {

using bigint::BigInt;
using ec::Curve;
using ec::Point;
using field::Fp;
using field::Fp2;

/// Precomputed Miller-loop program for a *fixed first argument* P.
///
/// The Miller loop's Jacobian point chain and line-function coefficients
/// depend only on P; the second argument Q enters each step as a linear
/// evaluation L(Q') = (c0 - c1·x') + i·y' with x' = -x(Q), y' = y(Q).
/// Preparing P once bakes the chain into a flat coefficient program, so
/// every subsequent pairing against P skips the point arithmetic
/// entirely — the SEM's per-identity d_sem is exactly such a fixed
/// argument. Each line is scaled so that its imaginary coefficient is 1
/// and stored as the bare Montgomery limbs of c0 and c1, 2k limbs in
/// one flat buffer with no per-coefficient field context.
///
/// The coefficients are derived from P, so when P is secret (a SEM key
/// half) the prepared form is secret too: wipe() scrubs every
/// coefficient, and secret holders must call it from their destructors.
class PreparedPairing {
 public:
  PreparedPairing() = default;

  /// True until TatePairing::prepare() has bound this object.
  bool empty() const { return curve_ == nullptr; }

  /// The curve the program was prepared on (null when empty). Cache
  /// layers use this to reject a program cached under a colliding tag
  /// from another curve.
  const Curve* curve() const { return curve_; }

  /// Number of Miller-loop steps in the program, squarings and lines
  /// (0 for O).
  std::size_t step_count() const;

  /// Heap bytes the program holds: its coefficient limbs and its
  /// per-digit line counts (0 once wiped).
  std::size_t heap_bytes() const {
    return limbs_.capacity() * sizeof(std::uint64_t) +
           lines_per_digit_.capacity();
  }

  /// Scrubs all line coefficients, releases their storage and unbinds;
  /// the object returns to the default-constructed (empty) state.
  void wipe();

 private:
  friend class TatePairing;

  const Curve* curve_ = nullptr;
  // The lines in Miller-loop order, line j at limbs_[2kj]: c0 in k
  // limbs, then c1 in k limbs, both in Montgomery form; each stands for
  // f <- f · ((c0 - c1·x') + i·y'). For each digit of the NAF of q
  // below the top, lines_per_digit_ holds how many lines (0 to 2) follow
  // that digit's f <- f^2. Squarings carry no coefficients, so only
  // their count is stored.
  std::vector<std::uint64_t> limbs_;
  std::vector<std::uint8_t> lines_per_digit_;
  bool infinity_ = false;
};

/// Modified-Tate-pairing engine bound to one supersingular curve.
class TatePairing {
 public:
  /// Binds to a curve (always y^2 = x^3 + x with p ≡ 3 (mod 4), the
  /// supersingular family with the φ(x,y) = (-x, iy) distortion).
  /// Throws InvalidArgument unless the curve's order q divides p + 1.
  explicit TatePairing(const Curve* curve);

  const Curve* curve() const { return curve_; }

  /// Computes ê(P, Q). Both points must lie on the bound curve; P must
  /// have order dividing q. Returns an element of the order-q subgroup of
  /// F*_{p^2} (the multiplicative identity when either input is O).
  Fp2 pair(const Point& p, const Point& q) const;

  /// Precomputes the Miller-loop program of a fixed first argument:
  /// pair_with(prepare(p), q) == pair(p, q) for every q, with the
  /// Jacobian chain evaluated once here instead of per pairing. Worth it
  /// from the second pairing onwards; the SEM prepares each d_sem at
  /// install time.
  PreparedPairing prepare(const Point& p) const;

  /// Pairing against a prepared first argument. Throws InvalidArgument
  /// if `prepared` is empty/wiped or bound to another curve.
  Fp2 pair_with(const PreparedPairing& prepared, const Point& q) const;

  /// One factor of a pair_many() product: the second argument `q` plus
  /// exactly one of {raw first argument `p`, `prepared` program}.
  struct PairTerm {
    const Point* p = nullptr;
    const PreparedPairing* prepared = nullptr;
    const Point* q = nullptr;
  };

  /// Product multi-pairing ∏ ê(P_i, Q_i): all Miller loops run
  /// interleaved over ONE shared accumulator (one f² squaring chain for
  /// the whole product instead of one per factor) and a single final
  /// exponentiation finishes the product — the standard trick for
  /// verification equations like ê(P, σ)·ê(−R, h) == 1, which this
  /// makes ~2.6× cheaper than two independent pairings when both first
  /// arguments are prepared. Terms whose `q` (or first argument) is the
  /// identity contribute the factor 1. Returns 1 for an empty span.
  Fp2 pair_many(std::span<const PairTerm> terms) const;

  /// The raw Miller value of a prepared replay, WITHOUT the final
  /// exponentiation — NOT a pairing output. pair_with(p, q) ==
  /// final_exponentiation(miller_with(p, q)) by construction; tests and
  /// the operation benchmarks time the two halves apart.
  Fp2 miller_with(const PreparedPairing& prepared, const Point& q) const;

  /// f^((p²−1)/q) for a nonzero Miller value f: the (p−1) step
  /// conj(f)/f, then the (p+1)/q tail by field::pow_unitary, the two
  /// sharing one F_p inversion.
  Fp2 final_exponentiation(const Fp2& f) const;

 private:
  // One factor of a Miller loop: a raw first argument drives a live
  // Jacobian chain, a prepared one replays its recorded lines.
  struct RawTerm;
  struct PrepTerm;

  // Throws InvalidArgument unless the first argument (raw `p` or a
  // non-empty `prepared`, exactly one non-null) and `q` are bound to
  // this curve; returns false when either argument is O.
  bool check_term(const Point* p, const PreparedPairing* prepared,
                  const Point& q) const;

  // The Miller loop behind every entry point: the Miller value of
  // ∏ ê(P_i, Q_i) over all terms, WITHOUT the final exponentiation.
  // Requires at least one term.
  Fp2 miller_loop(std::span<RawTerm> raws, std::span<PrepTerm> preps) const;

  const Curve* curve_ = nullptr;
  // The non-adjacent form of q, most significant digit (always 1)
  // first. Both Miller loops walk it: a digit ±1 adds ±P.
  std::vector<std::int8_t> naf_;
  BigInt exp_tail_;  // (p + 1) / q, the second factor of the final expo
};

}  // namespace medcrypt::pairing
