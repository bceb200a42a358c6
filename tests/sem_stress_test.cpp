// Concurrency stress test for the sharded SEM registry and the
// epoch-published revocation snapshot (docs/SEM_SERVICE.md).
//
// >= 8 threads hammer one GdhMediator: issuers request tokens, an
// installer churns key halves for a disjoint set of identities, and a
// revoker flips revocation state back and forth. The assertions pin:
//   - no torn reads: identities whose halves are never reinstalled
//     always produce the same (correct) token;
//   - the audit counters exactly account for every attempt;
//   - after a final revocation epoch flip, every identity is denied.
//
// BatchIssueAgainstConcurrentRevocation runs the batch issuers
// (IbeMediator and GdhMediator::issue_tokens, one shared revocation
// snapshot per batch) against a revoker.
//
// SemStressSharedParams drives the other shared state every SEM thread
// reads: one ParamSet's pairing context (engine, programs of P and P~,
// ê(P, P)), used at once by GDH verifiers, Hess signers and verifiers,
// and threshold provers and share selectors. SemStressInterning races
// the process-wide field and curve intern tables.
//
// Run it under TSan with -DMEDCRYPT_SANITIZE=thread (CI's tsan job does;
// the test itself has no sanitizer dependency).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "gdh/bls.h"
#include "hash/drbg.h"
#include "ibs/hess.h"
#include "ibe/pkg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "threshold/threshold_ibe.h"

namespace medcrypt::mediated {
namespace {

using hash::HmacDrbg;

TEST(SemStress, ConcurrentInstallRevokeIssue) {
  const auto& group = pairing::toy_params();
  auto revocations = std::make_shared<RevocationList>();
  GdhMediator sem(group, revocations);

  constexpr int kStableIds = 4;   // never reinstalled after setup
  constexpr int kChurnedIds = 4;  // installer rewrites these in a loop
  constexpr int kIssuerThreads = 8;
  constexpr int kOpsPerIssuer = 200;

  HmacDrbg rng(777);
  std::vector<std::string> ids;
  std::vector<ec::Point> expected;  // stable ids' reference tokens
  const Bytes msg = str_bytes("stress probe");
  for (int i = 0; i < kStableIds + kChurnedIds; ++i) {
    ids.push_back("user" + std::to_string(i));
    bigint::BigInt x_sem =
        bigint::BigInt::random_unit(rng, group.order());
    if (i < kStableIds) {
      expected.push_back(gdh::hash_message(group, msg).mul(x_sem));
    }
    sem.install_key(ids.back(), std::move(x_sem));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> issued{0}, denied{0}, unknown{0};
  std::atomic<bool> torn_read{false};
  std::vector<std::thread> pool;

  // Issuers: round-robin over all identities plus one unknown.
  for (int t = 0; t < kIssuerThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerIssuer; ++i) {
        const int pick = (t + i) % (kStableIds + kChurnedIds + 1);
        const std::string_view id =
            pick < kStableIds + kChurnedIds ? std::string_view(ids[pick])
                                            : std::string_view("mallory");
        try {
          const ec::Point token = sem.issue_token(id, msg);
          issued.fetch_add(1);
          // Stable identities are installed once and never revoked:
          // any deviation from the reference token is a torn read.
          if (pick < kStableIds && !(token == expected[pick])) {
            torn_read.store(true);
          }
        } catch (const RevokedError&) {
          denied.fetch_add(1);
        } catch (const InvalidArgument&) {
          unknown.fetch_add(1);
        }
      }
    });
  }

  // Installer: churns the non-stable identities with fresh halves.
  pool.emplace_back([&] {
    HmacDrbg install_rng(778);
    while (!stop.load()) {
      for (int i = kStableIds; i < kStableIds + kChurnedIds; ++i) {
        sem.install_key(ids[i],
                        bigint::BigInt::random_unit(install_rng, group.order()));
      }
    }
  });

  // Revoker: flips churned identities revoked/unrevoked.
  pool.emplace_back([&] {
    while (!stop.load()) {
      for (int i = kStableIds; i < kStableIds + kChurnedIds; ++i) {
        revocations->revoke(ids[i]);
      }
      for (int i = kStableIds; i < kStableIds + kChurnedIds; ++i) {
        revocations->unrevoke(ids[i]);
      }
    }
  });

  for (int t = 0; t < kIssuerThreads; ++t) pool[t].join();
  stop.store(true);
  pool[kIssuerThreads].join();
  pool[kIssuerThreads + 1].join();

  EXPECT_FALSE(torn_read.load());

  // Every attempt landed in exactly one bucket, and the mediator's audit
  // counters agree with the issuers' own accounting.
  const std::uint64_t attempts =
      static_cast<std::uint64_t>(kIssuerThreads) * kOpsPerIssuer;
  EXPECT_EQ(issued.load() + denied.load() + unknown.load(), attempts);
  const SemStats stats = sem.stats();
  EXPECT_EQ(stats.tokens_issued, issued.load());
  EXPECT_EQ(stats.denials, denied.load());
  EXPECT_EQ(stats.unknown_identities, unknown.load());

  // Epoch flip: after the final revocations publish, every in-registry
  // identity is denied — the paper's instantaneous revocation, now with
  // a precise visibility point (the snapshot publication).
  const std::uint64_t epoch_before = revocations->epoch();
  for (const std::string& id : ids) revocations->revoke(id);
  EXPECT_GE(revocations->epoch(),
            epoch_before + kStableIds);  // churned ids may already be revoked
  for (const std::string& id : ids) {
    EXPECT_THROW((void)sem.issue_token(id, msg), RevokedError) << id;
  }
}

// Batch issuers against a live revocation list: IBE and GDH threads call
// issue_tokens while a revoker flips the churned identities. Each batch
// lists one churned identity twice; one batch reads one snapshot, so
// both slots must agree. Stable identities are never revoked and must
// always get issue_token's token.
TEST(SemStress, BatchIssueAgainstConcurrentRevocation) {
  const auto& group = pairing::toy_params();
  auto revocations = std::make_shared<RevocationList>();
  HmacDrbg rng(780);
  const ibe::Pkg pkg(group, 32, rng);
  IbeMediator ibe_sem(pkg.params(), revocations);
  GdhMediator gdh_sem(group, revocations);

  constexpr int kIds = 4;  // 0 and 1 stable, 2 and 3 churned
  constexpr int kThreadsPerScheme = 2;
  constexpr int kBatchesPerThread = 100;
  const std::vector<std::string> ids = {"stable0", "stable1", "churned0",
                                        "churned1"};
  for (const std::string& id : ids) {
    ibe_sem.install_key(id, pkg.extract_split(id, rng).sem);
    gdh_sem.install_key(id, bigint::BigInt::random_unit(rng, group.order()));
  }
  const ec::Point u =
      group.mul_g(bigint::BigInt::random_unit(rng, group.order()));
  const Bytes msg = str_bytes("batch probe");
  std::vector<field::Fp2> ibe_expected;
  std::vector<ec::Point> gdh_expected;
  for (const std::string& id : ids) {
    ibe_expected.push_back(ibe_sem.issue_token(id, u));
    gdh_expected.push_back(gdh_sem.issue_token(id, msg));
  }
  const SemStats ibe_before = ibe_sem.stats();
  const SemStats gdh_before = gdh_sem.stats();

  // Request i of a batch names ids[kPick[i]]: both stable identities and
  // churned0 twice, around churned1.
  constexpr int kPick[] = {0, 2, 3, 1, 2};
  constexpr int kSlots = std::size(kPick);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ibe_issued{0}, gdh_issued{0};
  std::atomic<std::uint64_t> ibe_denied{0}, gdh_denied{0};
  std::atomic<int> wrong{0};
  // Checks one batch's slots; returns {issued, denied}.
  const auto check = [&](const auto& out, const auto& expected) {
    std::uint64_t issued = 0;
    for (int i = 0; i < kSlots; ++i) {
      if (!out[i].has_value()) continue;
      ++issued;
      if (!(*out[i] == expected[kPick[i]])) wrong.fetch_add(1);
    }
    if (!out[0] || !out[3]) wrong.fetch_add(1);  // stable
    if (out[1].has_value() != out[4].has_value()) wrong.fetch_add(1);
    return std::pair{issued, kSlots - issued};
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreadsPerScheme; ++t) {
    pool.emplace_back([&] {
      std::vector<IbeMediator::TokenRequest> batch;
      for (const int pick : kPick) batch.push_back({ids[pick], &u});
      for (int b = 0; b < kBatchesPerThread; ++b) {
        const auto [issued, denied] =
            check(ibe_sem.issue_tokens(batch), ibe_expected);
        ibe_issued.fetch_add(issued);
        ibe_denied.fetch_add(denied);
      }
    });
    pool.emplace_back([&] {
      std::vector<GdhMediator::SignRequest> batch;
      for (const int pick : kPick) batch.push_back({ids[pick], msg});
      for (int b = 0; b < kBatchesPerThread; ++b) {
        const auto [issued, denied] =
            check(gdh_sem.issue_tokens(batch), gdh_expected);
        gdh_issued.fetch_add(issued);
        gdh_denied.fetch_add(denied);
      }
    });
  }
  std::thread revoker([&] {
    while (!stop.load()) {
      for (int i = 2; i < kIds; ++i) revocations->revoke(ids[i]);
      for (int i = 2; i < kIds; ++i) revocations->unrevoke(ids[i]);
    }
  });
  for (auto& th : pool) th.join();
  stop.store(true);
  revoker.join();

  EXPECT_EQ(wrong.load(), 0);
  // Every slot is one issued token or one denial in the audit counters.
  const std::uint64_t slots =
      std::uint64_t{kThreadsPerScheme} * kBatchesPerThread * kSlots;
  EXPECT_EQ(ibe_issued.load() + ibe_denied.load(), slots);
  EXPECT_EQ(gdh_issued.load() + gdh_denied.load(), slots);
  EXPECT_EQ(ibe_sem.stats().tokens_issued - ibe_before.tokens_issued,
            ibe_issued.load());
  EXPECT_EQ(ibe_sem.stats().denials - ibe_before.denials, ibe_denied.load());
  EXPECT_EQ(gdh_sem.stats().tokens_issued - gdh_before.tokens_issued,
            gdh_issued.load());
  EXPECT_EQ(gdh_sem.stats().denials - gdh_before.denials, gdh_denied.load());
}

TEST(SemStress, ParallelReadersShareOneShardSafely) {
  // All readers target ONE identity (one shard): shared locks must allow
  // them through concurrently and the token must be bit-identical every
  // time.
  const auto& group = pairing::toy_params();
  auto revocations = std::make_shared<RevocationList>();
  GdhMediator sem(group, revocations);

  HmacDrbg rng(779);
  bigint::BigInt x_sem = bigint::BigInt::random_unit(rng, group.order());
  const Bytes msg = str_bytes("one shard");
  const ec::Point expected = gdh::hash_message(group, msg).mul(x_sem);
  sem.install_key("alice", std::move(x_sem));

  std::atomic<bool> mismatch{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        if (!(sem.issue_token("alice", msg) == expected)) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(sem.stats().tokens_issued, 800u);
}

// 8 threads share named_params("toy64") and each runs every scheme that
// reads its pairing context; every verdict is fixed in advance.
TEST(SemStressSharedParams, SchemesShareOneParamSetContext) {
  const pairing::ParamSet& group = pairing::named_params("toy64");
  HmacDrbg rng(71);
  const Bytes msg = str_bytes("shared context");
  const Bytes other = str_bytes("other message");
  const gdh::KeyPair kp = gdh::keygen(group, rng);
  const Point sig = gdh::sign(group, kp.secret, msg);
  const ibe::Pkg pkg(group, 32, rng);
  const Point d_alice = pkg.extract("alice");
  const threshold::ThresholdDealer dealer(group, 32, 3, 5, rng);
  const threshold::ThresholdSetup& setup = dealer.setup();
  const auto keys = dealer.extract_shares("vault");
  Bytes m(32);
  rng.fill(m);
  const auto ct = ibe::full_encrypt(setup.params, "vault", m, rng);

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      HmacDrbg local(100 + t);
      const auto expect = [&](bool got, bool want) {
        if (got != want) wrong.fetch_add(1);
      };
      for (int round = 0; round < kRounds; ++round) {
        expect(gdh::verify(group, kp.pub, msg, sig), true);
        expect(gdh::verify(group, kp.pub, other, sig), false);

        const ibs::HessSignature hs =
            ibs::hess_sign(pkg.params(), d_alice, msg, local);
        expect(ibs::hess_verify(pkg.params(), "alice", msg, hs), true);
        expect(ibs::hess_verify(pkg.params(), "alice", other, hs), false);

        // Players 1..4 prove their shares; player 2 cheats.
        std::vector<threshold::DecryptionShare> shares;
        for (int i = 0; i < 4; ++i) {
          shares.push_back(threshold::compute_decryption_share(
              setup, keys[i], ct.u, true, local));
        }
        shares[1].value = shares[1].value.square();
        const auto valid =
            threshold::select_valid_shares(setup, "vault", ct.u, shares);
        expect(valid.size() == 3 && valid[0].index == 1 &&
                   valid[1].index == 3 && valid[2].index == 4,
               true);
        expect(threshold::threshold_full_decrypt(setup, valid, ct) == m,
               true);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

// 8 threads race PrimeField::make and Curve::make on a few moduli and
// curves, most of them new to the process, so the first calls contend
// on the intern tables' inserts. Each parameter set must yield exactly
// one context pointer across all threads and rounds.
TEST(SemStressInterning, ConcurrentMakeYieldsOneContext) {
  using bigint::BigInt;
  // Primes ≡ 3 (mod 4); each curve's (q, h) only needs q > 1 and h >= 1.
  const std::uint64_t moduli[] = {1000003, 1000039, 1000099, 1000151};
  const std::uint64_t shapes[][2] = {{3, 4}, {7, 4}, {3, 8}};
  constexpr int kFields = std::size(moduli);
  constexpr int kCurves = kFields * std::size(shapes);
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<std::vector<const field::PrimeField*>> fields(kThreads);
  std::vector<std::vector<const ec::Curve*>> curves(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread walks the sets from a different start.
        for (int i = 0; i < kCurves; ++i) {
          const int c = (i + t) % kCurves;
          const auto* f =
              field::PrimeField::make(BigInt(moduli[c % kFields]));
          const auto& [q, h] = shapes[c / kFields];
          fields[t].push_back(f);
          curves[t].push_back(ec::Curve::make(f, BigInt(q), BigInt(h)));
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  for (int c = 0; c < kCurves; ++c) {
    const auto* f = field::PrimeField::make(BigInt(moduli[c % kFields]));
    const auto& [q, h] = shapes[c / kFields];
    const ec::Curve* curve = ec::Curve::make(f, BigInt(q), BigInt(h));
    EXPECT_EQ(curve->field(), f);
    for (int t = 0; t < kThreads; ++t) {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t slot = round * kCurves + (c - t + kCurves) % kCurves;
        ASSERT_EQ(fields[t][slot], f) << "thread " << t << " set " << c;
        ASSERT_EQ(curves[t][slot], curve) << "thread " << t << " set " << c;
      }
    }
  }
  // Distinct parameters, distinct contexts.
  std::vector<const ec::Curve*> distinct(curves[0].begin(),
                                         curves[0].begin() + kCurves);
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
}

}  // namespace
}  // namespace medcrypt::mediated
