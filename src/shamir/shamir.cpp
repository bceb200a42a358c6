#include "shamir/shamir.h"

#include <algorithm>

#include "common/error.h"

namespace medcrypt::shamir {

Sharing share_secret(const BigInt& secret, std::size_t t, std::size_t n,
                     const BigInt& q, RandomSource& rng) {
  if (t < 1 || t > n) {
    throw InvalidArgument("share_secret: need 1 <= t <= n");
  }
  if (BigInt(static_cast<std::uint64_t>(n)) >= q) {
    throw InvalidArgument("share_secret: n must be < q");
  }
  Sharing out;
  out.coefficients.reserve(t);
  out.coefficients.push_back(secret.mod(q));
  for (std::size_t i = 1; i < t; ++i) {
    out.coefficients.push_back(BigInt::random_below(rng, q));
  }
  out.shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const BigInt x(static_cast<std::uint64_t>(i));
    out.shares.push_back(
        Share{static_cast<std::uint32_t>(i),
              evaluate_polynomial(out.coefficients, x, q)});
  }
  return out;
}

BigInt evaluate_polynomial(std::span<const BigInt> coefficients,
                           const BigInt& x, const BigInt& q) {
  // Horner's rule.
  BigInt acc;
  for (std::size_t i = coefficients.size(); i-- > 0;) {
    acc = acc.mul_mod(x, q).add_mod(coefficients[i].mod(q), q);
  }
  return acc;
}

std::vector<BigInt> lagrange_coefficients(std::span<const std::uint32_t> nodes,
                                          const BigInt& x, const BigInt& q) {
  if (nodes.empty()) throw InvalidArgument("lagrange_coefficients: no nodes");
  const BigInt xr = x.mod(q);
  std::vector<BigInt> xs;
  xs.reserve(nodes.size());
  for (std::uint32_t node : nodes) {
    xs.push_back(BigInt(static_cast<std::uint64_t>(node)).mod(q));
  }
  std::vector<BigInt> lambdas;
  lambdas.reserve(nodes.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    BigInt num(std::uint64_t{1}), den(std::uint64_t{1});
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (j == k) continue;
      num = num.mul_mod(xr.sub_mod(xs[j], q), q);
      den = den.mul_mod(xs[k].sub_mod(xs[j], q), q);
    }
    // q is prime, so den = 0 iff another node equals x_k mod q.
    if (den.is_zero()) {
      throw InvalidArgument("lagrange_coefficients: repeated node");
    }
    lambdas.push_back(num.mul_mod(den.mod_inverse(q), q));
  }
  return lambdas;
}

void check_indices(std::span<const std::uint32_t> indices, std::size_t count,
                   std::size_t n) {
  std::vector<std::uint32_t> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() != count ||
      (!sorted.empty() && (sorted.front() == 0 || sorted.back() > n)) ||
      std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw InvalidArgument(
        "share indices: need exactly t distinct indices in [1, n]");
  }
}

BigInt interpolate(std::span<const Share> shares, const BigInt& x,
                   const BigInt& q) {
  std::vector<std::uint32_t> nodes;
  nodes.reserve(shares.size());
  for (const Share& s : shares) nodes.push_back(s.index);
  const std::vector<BigInt> lambdas = lagrange_coefficients(nodes, x, q);

  BigInt acc;
  for (std::size_t k = 0; k < shares.size(); ++k) {
    acc = acc.add_mod(lambdas[k].mul_mod(shares[k].value.mod(q), q), q);
  }
  return acc;
}

BigInt reconstruct_secret(std::span<const Share> shares, const BigInt& q) {
  return interpolate(shares, BigInt{}, q);
}

}  // namespace medcrypt::shamir
