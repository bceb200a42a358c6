// Tests for Shamir secret sharing: reconstruction, threshold boundary,
// Lagrange interpolation at arbitrary abscissae (cheater-share recovery).
#include <gtest/gtest.h>

#include "common/error.h"
#include "hash/drbg.h"
#include "shamir/shamir.h"

namespace medcrypt::shamir {
namespace {

using hash::HmacDrbg;

const BigInt kQ = BigInt::from_dec("730750818665451459101842416358141509827966271787");

TEST(Shamir, ReconstructFromExactlyT) {
  HmacDrbg rng(50);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 3, 5, kQ, rng);
  ASSERT_EQ(sharing.shares.size(), 5u);
  ASSERT_EQ(sharing.coefficients.size(), 3u);
  EXPECT_EQ(sharing.coefficients[0], secret);

  const std::vector<Share> subset(sharing.shares.begin(),
                                  sharing.shares.begin() + 3);
  EXPECT_EQ(reconstruct_secret(subset, kQ), secret);
}

TEST(Shamir, AnyTSubsetWorks) {
  HmacDrbg rng(51);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 2, 4, kQ, rng);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      const std::vector<Share> subset = {sharing.shares[i], sharing.shares[j]};
      EXPECT_EQ(reconstruct_secret(subset, kQ), secret)
          << "subset {" << i << "," << j << "}";
    }
  }
}

TEST(Shamir, MoreThanTSharesAlsoWork) {
  HmacDrbg rng(52);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 3, 6, kQ, rng);
  EXPECT_EQ(reconstruct_secret(sharing.shares, kQ), secret);
}

TEST(Shamir, TMinusOneSharesRevealNothingStructural) {
  // With t-1 shares, every candidate secret is consistent with some
  // polynomial: verify that interpolating (t-1 shares + a forced secret)
  // yields a valid degree-(t-1) polynomial through those shares.
  HmacDrbg rng(53);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 3, 5, kQ, rng);

  // Take 2 shares plus a *wrong* secret as a fake share at index 0...
  // interpolate a new polynomial through them and check it matches the 2
  // real shares (consistency => t-1 shares cannot pin the secret).
  const BigInt fake_secret = secret.add_mod(BigInt(1), kQ);
  // Points: (1, s1), (2, s2), (0, fake). Interpolate value at index 3:
  std::vector<Share> pts = {sharing.shares[0], sharing.shares[1]};
  // Evaluate the unique parabola through the three points at x=1 and x=2 —
  // by construction it passes through the two true shares.
  // (Interpolation with a synthetic zero-index point is exercised via
  // interpolate() at x=0 below.)
  EXPECT_EQ(interpolate(pts, BigInt(1), kQ), sharing.shares[0].value);
  EXPECT_EQ(interpolate(pts, BigInt(2), kQ), sharing.shares[1].value);
  EXPECT_NE(reconstruct_secret(pts, kQ), fake_secret);
}

TEST(Shamir, InterpolateRecoversOtherShares) {
  // §3.2: t honest players can reconstruct a cheater's share.
  HmacDrbg rng(54);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 3, 7, kQ, rng);
  const std::vector<Share> honest = {sharing.shares[0], sharing.shares[2],
                                     sharing.shares[5]};
  // Reconstruct share 4 (index 4) from shares 1, 3, 6.
  EXPECT_EQ(interpolate(honest, BigInt(4), kQ), sharing.shares[3].value);
  EXPECT_EQ(interpolate(honest, BigInt(7), kQ), sharing.shares[6].value);
}

TEST(Shamir, LagrangeCoefficientsSumApplication) {
  // Directly verify Σ λ_i(0) f(i) = f(0) with explicit coefficients.
  HmacDrbg rng(55);
  const Sharing sharing = share_secret(BigInt(1234), 4, 6, kQ, rng);
  const std::vector<std::uint32_t> idx = {2, 3, 5, 6};
  const std::vector<BigInt> lambdas = lagrange_coefficients(idx, BigInt{}, kQ);
  ASSERT_EQ(lambdas.size(), idx.size());
  BigInt acc;
  for (std::size_t k = 0; k < idx.size(); ++k) {
    acc = acc.add_mod(
        lambdas[k].mul_mod(sharing.shares[idx[k] - 1].value, kQ), kQ);
  }
  EXPECT_EQ(acc, BigInt(1234));
}

TEST(Shamir, PolynomialEvaluationHorner) {
  // f(x) = 7 + 3x + 2x^2 over Z_97
  const BigInt q(97);
  const std::vector<BigInt> coeffs = {BigInt(7), BigInt(3), BigInt(2)};
  EXPECT_EQ(evaluate_polynomial(coeffs, BigInt(0), q), BigInt(7));
  EXPECT_EQ(evaluate_polynomial(coeffs, BigInt(1), q), BigInt(12));
  EXPECT_EQ(evaluate_polynomial(coeffs, BigInt(5), q), BigInt(72));  // 7+15+50
  EXPECT_EQ(evaluate_polynomial(coeffs, BigInt(10), q), BigInt((7 + 30 + 200) % 97));
}

TEST(Shamir, OneOfOneDegenerate) {
  HmacDrbg rng(56);
  const BigInt secret(42);
  const Sharing sharing = share_secret(secret, 1, 1, kQ, rng);
  EXPECT_EQ(sharing.shares[0].value, secret);  // constant polynomial
  EXPECT_EQ(reconstruct_secret(sharing.shares, kQ), secret);
}

TEST(Shamir, TwoOfTwoIsTheSemSplit) {
  // The mediated schemes are the (2,2) case.
  HmacDrbg rng(57);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 2, 2, kQ, rng);
  EXPECT_EQ(reconstruct_secret(sharing.shares, kQ), secret);
  // One share alone interpolates to its own value, not the secret.
  const std::vector<Share> one = {sharing.shares[0]};
  EXPECT_EQ(interpolate(one, BigInt(1), kQ), sharing.shares[0].value);
}

TEST(Shamir, RejectsBadParameters) {
  HmacDrbg rng(58);
  EXPECT_THROW(share_secret(BigInt(1), 0, 3, kQ, rng), InvalidArgument);
  EXPECT_THROW(share_secret(BigInt(1), 4, 3, kQ, rng), InvalidArgument);
  EXPECT_THROW(share_secret(BigInt(1), 2, 200, BigInt(101), rng),
               InvalidArgument);
  EXPECT_THROW(reconstruct_secret({}, kQ), InvalidArgument);
}

TEST(Shamir, RejectsBadLagrangeInputs) {
  const std::vector<std::uint32_t> dup = {1, 1, 2};
  EXPECT_THROW(lagrange_coefficients(dup, BigInt{}, kQ), InvalidArgument);
  EXPECT_THROW(lagrange_coefficients({}, BigInt{}, kQ), InvalidArgument);
  // 1 and 98 are one abscissa mod 97.
  const std::vector<std::uint32_t> wrap = {1, 98};
  EXPECT_THROW(lagrange_coefficients(wrap, BigInt{}, BigInt(97)),
               InvalidArgument);
  // Node 0 is a valid abscissa; the share-index rules reject it.
  const std::vector<std::uint32_t> zero = {0, 1};
  EXPECT_EQ(lagrange_coefficients(zero, BigInt{}, kQ).size(), 2u);
  EXPECT_THROW(check_indices(zero, 2, 3), InvalidArgument);
}

TEST(Shamir, IndexRules) {
  const std::vector<std::uint32_t> idx = {3, 1, 2};
  EXPECT_NO_THROW(check_indices(idx, 3, 3));
  EXPECT_THROW(check_indices(idx, 2, 3), InvalidArgument);  // not exactly t
  EXPECT_THROW(check_indices(idx, 3, 2), InvalidArgument);  // 3 > n
  const std::vector<std::uint32_t> dup = {1, 2, 2};
  EXPECT_THROW(check_indices(dup, 3, 5), InvalidArgument);
  EXPECT_NO_THROW(check_indices({}, 0, 5));
}

TEST(Shamir, InterpolatesOffNodesWithZeroAmongThem) {
  // The §3.3 simulator's use: nodes {0} ∪ S, evaluated at x outside them.
  HmacDrbg rng(59);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, 3, 7, kQ, rng);
  const std::vector<std::uint32_t> nodes = {0, 2, 5};
  const std::vector<BigInt> values = {secret, sharing.shares[1].value,
                                      sharing.shares[4].value};
  for (std::uint32_t x : {1u, 4u, 7u}) {
    const std::vector<BigInt> lambdas =
        lagrange_coefficients(nodes, BigInt(std::uint64_t{x}), kQ);
    BigInt acc;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      acc = acc.add_mod(lambdas[k].mul_mod(values[k], kQ), kQ);
    }
    EXPECT_EQ(acc, sharing.shares[x - 1].value) << "x = " << x;
  }
  // At a node the coefficients are that node's unit vector.
  const std::vector<BigInt> at_node = lagrange_coefficients(nodes, BigInt(2), kQ);
  EXPECT_EQ(at_node, (std::vector<BigInt>{BigInt{}, BigInt(1), BigInt{}}));
}

// Threshold sweep: reconstruction works for every (t, n) in a grid.
class ShamirGrid
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ShamirGrid, ReconstructsAcrossGrid) {
  const auto [t, n] = GetParam();
  HmacDrbg rng(60 + t * 16 + n);
  const BigInt secret = BigInt::random_below(rng, kQ);
  const Sharing sharing = share_secret(secret, t, n, kQ, rng);
  const std::vector<Share> subset(sharing.shares.end() - t,
                                  sharing.shares.end());
  EXPECT_EQ(reconstruct_secret(subset, kQ), secret);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShamirGrid,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 3},
                      std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{3, 3},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{4, 7},
                      std::pair<std::size_t, std::size_t>{8, 15},
                      std::pair<std::size_t, std::size_t>{10, 20}));

}  // namespace
}  // namespace medcrypt::shamir
