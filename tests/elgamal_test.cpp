// Tests for hashed EC-ElGamal (CPA) and its Fujisaki–Okamoto transform,
// and one tamper-and-codec suite over both schemes that share the
// hashed-ElGamal core (Boneh–Franklin and EC-ElGamal).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "common/error.h"
#include "elgamal/ec_elgamal.h"
#include "elgamal/fo_transform.h"
#include "hash/drbg.h"
#include "hash/kdf.h"
#include "ibe/boneh_franklin.h"
#include "ibe/pkg.h"
#include "pairing/params.h"

namespace medcrypt::elgamal {
namespace {

using hash::HmacDrbg;

class ElGamalTest : public ::testing::Test {
 protected:
  ElGamalTest() : rng_(100) {
    params_.group = pairing::toy_params();
    params_.message_len = 32;
  }

  Bytes random_message() {
    Bytes m(params_.message_len);
    rng_.fill(m);
    return m;
  }

  HmacDrbg rng_;
  Params params_;
};

TEST_F(ElGamalTest, CpaRoundTrip) {
  const KeyPair kp = keygen(params_, rng_);
  const Bytes m = random_message();
  const auto ct = cpa_encrypt(params_, kp.pub, m, rng_);
  EXPECT_EQ(cpa_decrypt(params_, kp.secret, ct), m);
}

TEST_F(ElGamalTest, CpaWrongKeyGarbage) {
  const KeyPair kp1 = keygen(params_, rng_);
  const KeyPair kp2 = keygen(params_, rng_);
  const Bytes m = random_message();
  const auto ct = cpa_encrypt(params_, kp1.pub, m, rng_);
  EXPECT_NE(cpa_decrypt(params_, kp2.secret, ct), m);
}

TEST_F(ElGamalTest, CpaIsMalleable) {
  // The reason CPA ElGamal alone cannot be mediated securely (§4).
  const KeyPair kp = keygen(params_, rng_);
  const Bytes m = random_message();
  auto ct = cpa_encrypt(params_, kp.pub, m, rng_);
  ct.v[0] ^= 0xff;
  Bytes expected = m;
  expected[0] ^= 0xff;
  EXPECT_EQ(cpa_decrypt(params_, kp.secret, ct), expected);
}

TEST_F(ElGamalTest, FoRoundTrip) {
  const KeyPair kp = keygen(params_, rng_);
  const Bytes m = random_message();
  const auto ct = fo_encrypt(params_, kp.pub, m, rng_);
  EXPECT_EQ(fo_decrypt(params_, kp.secret, ct), m);
}

TEST_F(ElGamalTest, FoWrongKeyRejects) {
  const KeyPair kp1 = keygen(params_, rng_);
  const KeyPair kp2 = keygen(params_, rng_);
  const Bytes m = random_message();
  const auto ct = fo_encrypt(params_, kp1.pub, m, rng_);
  EXPECT_THROW(fo_decrypt(params_, kp2.secret, ct), DecryptionError);
}

TEST_F(ElGamalTest, FoDecryptWithSharedPoint) {
  // The threshold/mediated entry point: S = x·C1 recombined externally.
  const KeyPair kp = keygen(params_, rng_);
  const Bytes m = random_message();
  const auto ct = fo_encrypt(params_, kp.pub, m, rng_);

  // 2-of-2 additive split of x.
  const BigInt x1 = BigInt::random_unit(rng_, params_.order());
  const BigInt x2 = kp.secret.sub_mod(x1, params_.order());
  const Point s = ct.u.mul(x1) + ct.u.mul(x2);
  EXPECT_EQ(fo_decrypt_with_shared(params_, s, ct), m);

  // A single half is useless.
  EXPECT_THROW(fo_decrypt_with_shared(params_, ct.u.mul(x1), ct),
               DecryptionError);
}

// Byte-exact seeded CPA and FO ciphertexts on toy64, whole wire form
// <U, V[, W]>. The encryption code may be restructured, but these bytes
// may not move: they pin the "EG.*" domain strings and the RNG draw order
// (x; r for CPA; σ for FO).
TEST_F(ElGamalTest, GoldenVectors) {
  HmacDrbg twin = rng_;
  const KeyPair kp = keygen(params_, rng_);
  const Bytes m = str_bytes("golden hashed-elgamal message 32");
  const auto cpa = cpa_encrypt(params_, kp.pub, m, rng_);
  const auto fo = fo_encrypt(params_, kp.pub, m, rng_);

  // The same bytes from the textbook scheme on a twin DRBG, every
  // multiple from the affine double-and-add oracle.
  const Point& P = params_.group.generator;
  const std::size_t n = params_.message_len;
  const BigInt x = BigInt::random_unit(twin, params_.order());
  const Point pub = P.mul_affine(x);
  const auto mask = [&](const BigInt& r) {
    return hash::expand("EG.H", pub.mul_affine(r).to_bytes(), n);
  };
  const BigInt r_cpa = BigInt::random_unit(twin, params_.order());
  Bytes sigma(n);
  twin.fill(sigma);
  const BigInt r_fo = derive_r(kEgDomains, sigma, m, params_.order());
  EXPECT_EQ(pub.to_bytes(), kp.pub.to_bytes());
  EXPECT_EQ(concat(P.mul_affine(r_cpa).to_bytes(), xor_bytes(m, mask(r_cpa))),
            concat(cpa.u.to_bytes(), cpa.v));
  EXPECT_EQ(concat(P.mul_affine(r_fo).to_bytes(), xor_bytes(sigma, mask(r_fo)),
                   xor_bytes(m, sigma_mask(kEgDomains, sigma, n))),
            fo.to_bytes());

  EXPECT_EQ(to_hex(kp.pub.to_bytes()),
            "02937b339f09b8cae97e2c357a4d65f5cb");
  EXPECT_EQ(to_hex(concat(cpa.u.to_bytes(), cpa.v)),
            "031825a2ddcf3e6b540c7b5d53fed7626253f3736aeedeb906fb16b45ef8328c"
            "2c84c27e7bdf942703372ec84b245a2441");
  EXPECT_EQ(to_hex(fo.to_bytes()),
            "022cbb3cc6666a127987e356ae42ec40f7ccc72a9b442c1f17e733dcdaa957dd"
            "67f2b1d7b87aeecffb0a7fa72b6a86fa5fc91f5915f192725a6607496b0d02be"
            "338905672dc01e2139b8bbf08f31dee6a2");
  EXPECT_EQ(cpa_decrypt(params_, kp.secret, cpa), m);
  EXPECT_EQ(fo_decrypt(params_, kp.secret, fo), m);
}

TEST_F(ElGamalTest, RejectsWrongMessageSize) {
  const KeyPair kp = keygen(params_, rng_);
  EXPECT_THROW(fo_encrypt(params_, kp.pub, Bytes(5, 0), rng_),
               InvalidArgument);
  EXPECT_THROW(cpa_encrypt(params_, kp.pub, Bytes(99, 0), rng_),
               InvalidArgument);
}

// The schemes over the hashed-ElGamal core, under one toy64 group and
// n = 32: BF to "alice" (BasicIdent, FullIdent) and EC-ElGamal (CPA, FO).
// Both read the same core parameters, since ibe::SystemParams is a Params.
enum class CoreScheme { kBonehFranklin, kElGamal };

const char* scheme_name(CoreScheme s) {
  return s == CoreScheme::kBonehFranklin ? "BonehFranklin" : "ElGamal";
}

void PrintTo(CoreScheme s, std::ostream* os) { *os << scheme_name(s); }

class HashedElGamalCoreTest : public ::testing::TestWithParam<CoreScheme> {
 protected:
  HashedElGamalCoreTest()
      : rng_(120),
        pkg_(pairing::toy_params(), 32, rng_),
        d_alice_(pkg_.extract("alice")),
        kp_(keygen(params(), rng_)),
        m_(32) {
    rng_.fill(m_);
  }

  const Params& params() const { return pkg_.params(); }
  bool bf() const { return GetParam() == CoreScheme::kBonehFranklin; }

  CpaCiphertext cpa_encrypt_m() {
    return bf() ? ibe::basic_encrypt(pkg_.params(), "alice", m_, rng_)
                : cpa_encrypt(params(), kp_.pub, m_, rng_);
  }
  Bytes cpa_decrypt_ct(const CpaCiphertext& ct) const {
    return bf() ? ibe::basic_decrypt(pkg_.params(), d_alice_, ct)
                : cpa_decrypt(params(), kp_.secret, ct);
  }
  FoCiphertext fo_encrypt_m() {
    return bf() ? ibe::full_encrypt(pkg_.params(), "alice", m_, rng_)
                : fo_encrypt(params(), kp_.pub, m_, rng_);
  }
  Bytes fo_decrypt_ct(const FoCiphertext& ct) const {
    return bf() ? ibe::full_decrypt(pkg_.params(), d_alice_, ct)
                : fo_decrypt(params(), kp_.secret, ct);
  }

  // A compressed U whose x has no curve point: x³ + x is a non-square.
  Bytes off_curve_u() const {
    const ec::Curve& curve = *params().group.curve;
    for (std::uint64_t x = 1;; ++x) {
      const field::Fp fx = curve.field()->from_u64(x);
      if (!curve.rhs(fx).is_square()) {
        return concat(Bytes{0x02}, fx.to_bytes());
      }
    }
  }

  HmacDrbg rng_;
  ibe::Pkg pkg_;
  Point d_alice_;
  KeyPair kp_;
  Bytes m_;
};

TEST_P(HashedElGamalCoreTest, FoRejectsFlippedU) {
  const FoCiphertext ct = fo_encrypt_m();
  // The compressed tag's parity bit: the wire now carries −U.
  Bytes wire = ct.to_bytes();
  wire[0] ^= 0x01;
  EXPECT_THROW(fo_decrypt_ct(FoCiphertext::from_bytes(params(), wire)),
               DecryptionError);
  FoCiphertext doubled = ct;
  doubled.u = ct.u.dbl();
  EXPECT_THROW(fo_decrypt_ct(doubled), DecryptionError);
}

TEST_P(HashedElGamalCoreTest, FoRejectsFlippedV) {
  for (const std::size_t i : {0, 3, 5}) {
    for (const std::uint8_t bit : {0x01, 0x40}) {
      FoCiphertext ct = fo_encrypt_m();
      ct.v[i] ^= bit;
      EXPECT_THROW(fo_decrypt_ct(ct), DecryptionError) << i;
    }
  }
}

TEST_P(HashedElGamalCoreTest, FoRejectsFlippedW) {
  // Unlike the CPA seal, the FO seal is NOT malleable: the check
  // U = H3(σ, M)·P catches a flipped message bit.
  for (const std::size_t i : {0, 3, 5}) {
    for (const std::uint8_t bit : {0x01, 0x40}) {
      FoCiphertext ct = fo_encrypt_m();
      ct.w[i] ^= bit;
      EXPECT_THROW(fo_decrypt_ct(ct), DecryptionError) << i;
    }
  }
}

TEST_P(HashedElGamalCoreTest, CodecsRoundTrip) {
  const CpaCiphertext cpa = cpa_encrypt_m();
  const CpaCiphertext cpa2 =
      CpaCiphertext::from_bytes(params(), cpa.to_bytes());
  EXPECT_EQ(cpa2.u, cpa.u);
  EXPECT_EQ(cpa2.v, cpa.v);
  EXPECT_EQ(cpa_decrypt_ct(cpa2), m_);

  const FoCiphertext fo = fo_encrypt_m();
  const FoCiphertext fo2 = FoCiphertext::from_bytes(params(), fo.to_bytes());
  EXPECT_EQ(fo2.u, fo.u);
  EXPECT_EQ(fo2.v, fo.v);
  EXPECT_EQ(fo2.w, fo.w);
  EXPECT_EQ(fo_decrypt_ct(fo2), m_);
}

TEST_P(HashedElGamalCoreTest, CodecsRejectMalformed) {
  const Bytes cpa = cpa_encrypt_m().to_bytes();
  const FoCiphertext fo_ct = fo_encrypt_m();
  const Bytes fo = fo_ct.to_bytes();
  // Lengths ±1 and short garbage, through both codecs (the CPA and FO
  // wire lengths differ by n, so neither accepts the other's ±1).
  for (const Bytes& wire : {cpa, fo}) {
    const Bytes longer = concat(wire, Bytes{0});
    const Bytes shorter(wire.begin(), wire.end() - 1);
    for (const Bytes& bad : {longer, shorter, Bytes(3, 0), Bytes(7, 1)}) {
      EXPECT_THROW(CpaCiphertext::from_bytes(params(), bad), InvalidArgument);
      EXPECT_THROW(FoCiphertext::from_bytes(params(), bad), InvalidArgument);
    }
  }
  // Right length, but U's x has no curve point.
  const Bytes bad_u = off_curve_u();
  EXPECT_THROW(CpaCiphertext::from_bytes(params(), concat(bad_u, m_)),
               InvalidArgument);
  EXPECT_THROW(FoCiphertext::from_bytes(params(),
                                        concat(bad_u, fo_ct.v, fo_ct.w)),
               InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, HashedElGamalCoreTest,
    ::testing::Values(CoreScheme::kBonehFranklin, CoreScheme::kElGamal),
    [](const auto& info) { return std::string(scheme_name(info.param)); });

}  // namespace
}  // namespace medcrypt::elgamal
