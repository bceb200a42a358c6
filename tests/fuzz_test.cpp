// Deterministic pseudo-fuzz: every deserializer and every decryption
// path must reject arbitrary input with a typed exception — never crash,
// never accept. Also hammers the thread-safe SEM from multiple threads
// while revocation flips underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "hash/drbg.h"
#include "ibe/hybrid.h"
#include "ibs/hess.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "rsa/oaep.h"

namespace medcrypt {
namespace {

using hash::HmacDrbg;

// Feeds `fn` random buffers of assorted sizes; `fn` must either succeed
// or throw a medcrypt::Error subclass.
template <typename Fn>
void fuzz_bytes(std::uint64_t seed, Fn&& fn) {
  HmacDrbg rng(seed);
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = static_cast<std::size_t>(rng.next_u64() % 300);
    Bytes buf(len);
    rng.fill(buf);
    try {
      fn(buf);
    } catch (const Error&) {
      // expected for malformed input
    }
  }
}

TEST(Fuzz, PointDecompressNeverCrashes) {
  const auto& params = pairing::toy_params();
  int accepted = 0;
  fuzz_bytes(700, [&](const Bytes& b) {
    const auto p = params.curve->decompress(b);
    // Anything accepted must satisfy the curve equation.
    if (!p.is_infinity()) {
      EXPECT_TRUE(params.curve->contains(p.x(), p.y()));
    }
    ++accepted;
  });
  // Random bytes essentially never form a valid encoding of the right
  // length with an on-curve x; a handful of accepts would still be fine.
  EXPECT_LT(accepted, 10);
}

TEST(Fuzz, FieldElementParsingNeverCrashes) {
  const auto& params = pairing::toy_params();
  fuzz_bytes(701, [&](const Bytes& b) {
    (void)params.curve->field()->from_bytes(b);
  });
  fuzz_bytes(702, [&](const Bytes& b) {
    (void)field::Fp2::from_bytes(params.curve->field(), b);
  });
}

TEST(Fuzz, GtTokenDecoderNeverCrashes) {
  // The SEM token / IBS commitment decoder: assorted lengths, then
  // exactly one field element's worth, where values >= p must throw and
  // everything accepted must be a norm-1 element.
  const auto& field = pairing::toy_params().curve->field();
  fuzz_bytes(712, [&](const Bytes& b) {
    (void)field::gt_from_bytes(field, b);
  });
  HmacDrbg rng(713);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes b(field->byte_size());
    rng.fill(b);
    if (i % 3 == 0) b[0] = 0xff;  // above toy64's p (top byte 0xce)
    try {
      EXPECT_TRUE(field::gt_from_bytes(field, b).norm().is_one());
      ++accepted;
    } catch (const Error&) {
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 300);
}

TEST(Fuzz, CiphertextParsersNeverCrash) {
  HmacDrbg rng(703);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  fuzz_bytes(704, [&](const Bytes& b) {
    (void)ibe::BasicCiphertext::from_bytes(pkg.params(), b);
  });
  fuzz_bytes(705, [&](const Bytes& b) {
    (void)ibe::FullCiphertext::from_bytes(pkg.params(), b);
  });
  fuzz_bytes(706, [&](const Bytes& b) {
    (void)ibe::HybridCiphertext::from_bytes(pkg.params(), b);
  });
  fuzz_bytes(707, [&](const Bytes& b) {
    (void)ibs::HessSignature::from_bytes(pkg.params(), b);
  });
}

TEST(Fuzz, RandomCiphertextsNeverDecrypt) {
  // Random well-FORMED FullIdent ciphertexts must still fail the FO
  // check (forging one that passes is the CCA security).
  HmacDrbg rng(708);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  const auto d = pkg.extract("alice");
  int survived = 0;
  for (int i = 0; i < 50; ++i) {
    ibe::FullCiphertext ct;
    ct.u = pkg.params().generator().mul(
        bigint::BigInt::random_unit(rng, pkg.params().order()));
    ct.v.resize(32);
    ct.w.resize(32);
    rng.fill(ct.v);
    rng.fill(ct.w);
    try {
      (void)ibe::full_decrypt(pkg.params(), d, ct);
      ++survived;
    } catch (const DecryptionError&) {
    }
  }
  EXPECT_EQ(survived, 0);
}

TEST(Fuzz, OaepRandomBlocksRejected) {
  HmacDrbg rng(709);
  int survived = 0;
  for (int i = 0; i < 100; ++i) {
    const auto junk = bigint::BigInt::random_bits(rng, 8 * 95);
    try {
      (void)rsa::oaep_decode(junk, 96);
      ++survived;
    } catch (const DecryptionError&) {
    }
  }
  EXPECT_EQ(survived, 0);
}

TEST(Fuzz, BigIntParsersRejectGarbage) {
  EXPECT_THROW(bigint::BigInt::from_hex(""), InvalidArgument);
  EXPECT_THROW(bigint::BigInt::from_hex("xyz"), InvalidArgument);
  EXPECT_THROW(bigint::BigInt::from_hex("-"), InvalidArgument);
  EXPECT_THROW(bigint::BigInt::from_dec("12a"), InvalidArgument);
  EXPECT_THROW(bigint::BigInt::from_dec(""), InvalidArgument);
  // from_bytes_be accepts anything (any byte string IS an integer).
  HmacDrbg rng(710);
  Bytes b(33);
  rng.fill(b);
  EXPECT_NO_THROW(bigint::BigInt::from_bytes_be(b));
}

TEST(Concurrency, SemServesManyThreadsWhileRevocationFlips) {
  HmacDrbg rng(711);
  ibe::Pkg pkg(pairing::toy_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);

  constexpr int kUsers = 4;
  std::vector<ec::Point> us;
  for (int i = 0; i < kUsers; ++i) {
    const std::string id = "user" + std::to_string(i);
    (void)enroll_ibe_user(pkg, sem, id, rng);
    us.push_back(pkg.params().generator().mul(
        bigint::BigInt::random_unit(rng, pkg.params().order())));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> tokens{0}, denials{0}, errors{0};

  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const int u = (t + i) % kUsers;
        try {
          (void)sem.issue_token("user" + std::to_string(u), us[u]);
          tokens.fetch_add(1);
        } catch (const RevokedError&) {
          denials.fetch_add(1);
        } catch (...) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::thread flipper([&] {
    for (int i = 0; i < 200 && !stop.load(); ++i) {
      revocations->revoke("user" + std::to_string(i % kUsers));
      revocations->unrevoke("user" + std::to_string((i + 1) % kUsers));
    }
  });
  for (auto& c : clients) c.join();
  stop.store(true);
  flipper.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(tokens.load() + denials.load(), 400);
  const auto stats = sem.stats();
  EXPECT_EQ(stats.tokens_issued, static_cast<std::uint64_t>(tokens.load()));
  EXPECT_EQ(stats.denials, static_cast<std::uint64_t>(denials.load()));
}

}  // namespace
}  // namespace medcrypt
