// Shamir (t, n) secret sharing over Z_q.
//
// This is the dealer machinery behind every threshold scheme in the
// paper: the PKG shares its master key s through a degree-(t-1)
// polynomial f with f(0) = s, player i receives f(i), and any t shares
// recombine through Lagrange coefficients. The same coefficients evaluated
// at abscissae other than 0 reconstruct a *cheater's* share from t honest
// ones (§3.2) and power the share-simulation step of the §3.3 proof.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.h"
#include "common/random_source.h"

namespace medcrypt::shamir {

using bigint::BigInt;

/// One party's share: f(index) for a 1-based index.
struct Share {
  std::uint32_t index = 0;
  BigInt value;
};

/// A full dealing: the shares plus the polynomial coefficients
/// (coefficients[0] is the secret; the rest are the blinding terms the
/// dealer publishes in the exponent as verification keys).
///
/// Everything here is secret: coefficients[0] IS the dealt secret, the
/// other coefficients let anyone recompute every share, and any t share
/// values reconstruct the secret — so the destructor wipes both vectors.
struct Sharing {
  Sharing() = default;
  Sharing(const Sharing&) = default;
  Sharing(Sharing&&) = default;
  Sharing& operator=(const Sharing&) = default;
  Sharing& operator=(Sharing&&) = default;
  ~Sharing() {
    for (Share& s : shares) s.value.wipe();
    for (BigInt& c : coefficients) c.wipe();
  }

  std::vector<Share> shares;
  std::vector<BigInt> coefficients;
};

/// Deals `secret` into n shares with threshold t over Z_q.
/// Requires 1 <= t <= n and n < q.
Sharing share_secret(const BigInt& secret, std::size_t t, std::size_t n,
                     const BigInt& q, RandomSource& rng);

/// Evaluates the sharing polynomial at x (used by tests and the dealer).
BigInt evaluate_polynomial(std::span<const BigInt> coefficients,
                           const BigInt& x, const BigInt& q);

/// Lagrange coefficients for interpolating at abscissa `x` from the
/// abscissae `nodes`, one per node and in its order:
/// λ_k(x) = Π_{j≠k} (x - x_j)/(x_k - x_j) mod q, so f(x) = Σ λ_k·f(x_k)
/// for every f of degree < |nodes|. A node may be 0 (the §3.3 simulator
/// interpolates from the secret's abscissa); nodes must be distinct mod
/// q. Throws InvalidArgument on an empty or repeating node set.
std::vector<BigInt> lagrange_coefficients(std::span<const std::uint32_t> nodes,
                                          const BigInt& x, const BigInt& q);

/// The share-index rules every combiner applies: exactly `count`
/// indices, each in [1, n], no two equal. Throws InvalidArgument
/// otherwise.
void check_indices(std::span<const std::uint32_t> indices, std::size_t count,
                   std::size_t n);

/// Interpolates the polynomial at abscissa `x` from >= t shares with
/// distinct indices. With x = 0 this reconstructs the secret; with x = k
/// it reconstructs player k's share (cheater recovery).
BigInt interpolate(std::span<const Share> shares, const BigInt& x,
                   const BigInt& q);

/// Convenience: interpolate(shares, 0, q).
BigInt reconstruct_secret(std::span<const Share> shares, const BigInt& q);

}  // namespace medcrypt::shamir
