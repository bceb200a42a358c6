// Tests for the sharded identity LRU cache (ec/identity_cache.h): hit /
// miss / eviction accounting, LRU recency within a shard, validator
// rejection, the mediated-GDH contract that a cached h(M) never stands
// in for a revocation check, and a concurrent suite that rides the same
// TSan CI filter as the other SemStress* suites.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ec/hash_to_point.h"
#include "ec/identity_cache.h"
#include "hash/drbg.h"
#include "mediated/mediated_gdh.h"
#include "pairing/params.h"

namespace medcrypt::ec {
namespace {

using hash::HmacDrbg;

Bytes id_bytes(int i) { return str_bytes("id-" + std::to_string(i)); }

TEST(IdentityCache, MissThenPutThenHit) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.a"});
  const Bytes id = str_bytes("alice");
  EXPECT_FALSE(cache.get("d", id).has_value());
  cache.put("d", id, 41);
  const auto got = cache.get("d", id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 41);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(IdentityCache, DomainsAndLengthFramingSeparateKeys) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.b"});
  cache.put("d1", str_bytes("x"), 1);
  cache.put("d2", str_bytes("x"), 2);
  // Length framing: ("ab", "c") and ("a", "bc") must be distinct keys.
  cache.put("ab", str_bytes("c"), 3);
  cache.put("a", str_bytes("bc"), 4);
  EXPECT_EQ(*cache.get("d1", str_bytes("x")), 1);
  EXPECT_EQ(*cache.get("d2", str_bytes("x")), 2);
  EXPECT_EQ(*cache.get("ab", str_bytes("c")), 3);
  EXPECT_EQ(*cache.get("a", str_bytes("bc")), 4);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(IdentityCache, PutReplacesInPlace) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.c"});
  cache.put("d", str_bytes("x"), 1);
  cache.put("d", str_bytes("x"), 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get("d", str_bytes("x")), 2);
}

TEST(IdentityCache, ValidatorRejectionIsAMissAndDrops) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.e"});
  cache.put("d", str_bytes("x"), 9);
  EXPECT_FALSE(
      cache.get("d", str_bytes("x"), [](const int&) { return false; })
          .has_value());
  EXPECT_FALSE(cache.get("d", str_bytes("x")).has_value());
  EXPECT_EQ(cache.size(), 0u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  // Only the rejection dropped an entry; the second lookup found none.
  EXPECT_EQ(s.invalidations, 1u);
}

TEST(IdentityCache, GetOrComputeComputesOncePerResidentEntry) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.f"});
  int computes = 0;
  const auto make = [&] { return ++computes; };
  EXPECT_EQ(cache.get_or_compute("d", str_bytes("x"), make), 1);
  EXPECT_EQ(cache.get_or_compute("d", str_bytes("x"), make), 1);
  EXPECT_EQ(computes, 1);
}

TEST(IdentityCache, BoundedSizeAndEvictionAccounting) {
  // capacity 8 over 8 shards = one entry per shard: heavy insertion must
  // keep the cache bounded, with every displacement counted.
  ShardedLruCache<int> cache({.capacity = 8, .metric_prefix = "test.cache.g"});
  constexpr int kInserts = 64;
  for (int i = 0; i < kInserts; ++i) cache.put("d", id_bytes(i), i);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, kInserts - cache.size());
}

TEST(IdentityCache, LruEvictsColdestNotMostRecentlyUsed) {
  // Shard assignment is an implementation detail, so first discover
  // three ids that share a shard, using a one-entry-per-shard probe
  // cache as the oracle: a second put that evicts the first means the
  // two ids collided.
  ShardedLruCache<int> probe({.capacity = 8, .metric_prefix = "test.cache.h"});
  std::vector<int> sharers{0};
  for (int j = 1; j < 256 && sharers.size() < 3; ++j) {
    probe.clear();
    probe.put("d", id_bytes(0), 0);
    probe.put("d", id_bytes(j), 0);
    if (!probe.get("d", id_bytes(0)).has_value()) sharers.push_back(j);
  }
  ASSERT_EQ(sharers.size(), 3u) << "no 3-way shard collision in 256 ids";

  // capacity 16 = two entries per shard. Fill the shard with A and B,
  // touch A (making B the LRU), insert C: B must go, A and C must stay.
  ShardedLruCache<int> cache({.capacity = 16, .metric_prefix = "test.cache.i"});
  cache.put("d", id_bytes(sharers[0]), 100);
  cache.put("d", id_bytes(sharers[1]), 200);
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[0])).has_value());
  cache.put("d", id_bytes(sharers[2]), 300);
  EXPECT_FALSE(cache.get("d", id_bytes(sharers[1])).has_value());
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[0])).has_value());
  EXPECT_TRUE(cache.get("d", id_bytes(sharers[2])).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(IdentityCache, ClearDropsEntriesKeepsCounters) {
  ShardedLruCache<int> cache({.capacity = 64, .metric_prefix = "test.cache.j"});
  cache.put("d", str_bytes("x"), 1);
  (void)cache.get("d", str_bytes("x"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("d", str_bytes("x")).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(IdentityCache, RegistrySeriesEqualStatsAndLeaveWithTheCache) {
  // The `<prefix>.*` series are the shard counters themselves, exported
  // by one scrape source: they match stats() whether or not obs records,
  // and they leave the scrape when the cache is destroyed.
  const auto series = [] {
    std::map<std::string, std::uint64_t> out;
    for (const auto& c : obs::registry().scrape().counters) {
      if (c.name.starts_with("test.cache.s.")) out[c.name] = c.value;
    }
    return out;
  };
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "obs enabled" : "obs disabled");
    obs::set_enabled(enabled);
    {
      // capacity 8 over 8 shards = one entry per shard.
      ShardedLruCache<int> cache(
          {.capacity = 8, .metric_prefix = "test.cache.s"});
      EXPECT_FALSE(cache.get("d", str_bytes("x")).has_value());
      cache.put("d", str_bytes("x"), 1);
      EXPECT_TRUE(cache.get("d", str_bytes("x")).has_value());
      EXPECT_FALSE(
          cache.get("d", str_bytes("x"), [](const int&) { return false; })
              .has_value());
      constexpr int kInserts = 9;  // more than the 8 slots: some evict
      for (int i = 0; i < kInserts; ++i) cache.put("d", id_bytes(i), i);

      const auto s = cache.stats();
      EXPECT_EQ(s.hits, 1u);
      EXPECT_EQ(s.misses, 2u);
      EXPECT_EQ(s.invalidations, 1u);
      EXPECT_EQ(s.evictions, kInserts - cache.size());
      EXPECT_GE(s.evictions, 1u);
      const std::map<std::string, std::uint64_t> expected{
          {"test.cache.s.hits", s.hits},
          {"test.cache.s.misses", s.misses},
          {"test.cache.s.evictions", s.evictions},
          {"test.cache.s.invalidations", s.invalidations}};
      EXPECT_EQ(series(), expected);
    }
    EXPECT_TRUE(series().empty());
  }
  obs::set_enabled(true);
}

// ---------------------------------------------------------------------------
// End-to-end through a real GDH mediator: the SEM caches h(M) under the
// hash's own domain, and a cached h(M) never stands in for the
// revocation check (docs/SEM_SERVICE.md, "Why cache entries carry no
// revocation state").

class SemHashCacheTest : public ::testing::TestWithParam<const char*> {
 protected:
  SemHashCacheTest()
      : group_(pairing::named_params(GetParam())),
        revocations_(std::make_shared<mediated::RevocationList>()),
        sem_(group_, revocations_), rng_(7001),
        alice_(enroll_gdh_user(group_, sem_, "alice", rng_)) {}

  // A message no other test caches, so the process-wide entry for it
  // is created by the test itself.
  Bytes message(std::string_view what) const {
    return str_bytes(std::string(GetParam()) + "/" + std::string(what));
  }

  // The SEM's cached h(M), as any later lookup on this curve would see it.
  std::optional<Point> cached_hash(BytesView msg) const {
    return identity_point_cache().get(
        gdh::kHashDomain, msg,
        [&](const Point& p) { return p.curve() == group_.curve; });
  }

  const pairing::ParamSet& group_;
  std::shared_ptr<mediated::RevocationList> revocations_;
  mediated::GdhMediator sem_;
  HmacDrbg rng_;
  mediated::MediatedGdhUser alice_;
};

TEST_P(SemHashCacheTest, RevokedIdentityDeniedWhileHashCached) {
  const Bytes msg = message("denied");
  (void)sem_.issue_token("alice", msg);
  ASSERT_TRUE(cached_hash(msg).has_value());

  revocations_->revoke("alice");
  EXPECT_THROW((void)sem_.issue_token("alice", msg), RevokedError);
  const mediated::GdhMediator::SignRequest requests[] = {{"alice", msg}};
  const auto tokens = sem_.issue_tokens(requests);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_FALSE(tokens[0].has_value());
  EXPECT_THROW((void)alice_.sign(msg, sem_), RevokedError);
  // The denials left the public entry alone.
  EXPECT_TRUE(cached_hash(msg).has_value());
}

TEST_P(SemHashCacheTest, RevokeUnrevokeServesSameHalfFromCache) {
  const Bytes msg = message("restored");
  const auto& cache = identity_point_cache();
  const Point before = sem_.issue_token("alice", msg);

  revocations_->revoke("alice");
  revocations_->unrevoke("alice");
  const auto s0 = cache.stats();
  const Point after = sem_.issue_token("alice", msg);
  const mediated::GdhMediator::SignRequest requests[] = {{"alice", msg}};
  const auto batch = sem_.issue_tokens(requests);
  const auto s1 = cache.stats();

  EXPECT_EQ(after, before);
  ASSERT_TRUE(batch[0].has_value());
  EXPECT_EQ(*batch[0], before);
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(s1.hits, s0.hits + 2);
  EXPECT_EQ(s1.invalidations, s0.invalidations);
  EXPECT_TRUE(gdh::verify(group_, alice_.public_key(), msg,
                          alice_.sign(msg, sem_)));
}

TEST_P(SemHashCacheTest, SingleAndBatchShareTheGdhHashEntry) {
  const auto& cache = identity_point_cache();

  // Single first, then batch: the batch finds the single path's entry.
  const Bytes m1 = message("single-then-batch");
  const Point t1 = sem_.issue_token("alice", m1);
  const auto size1 = cache.size();
  const auto s1 = cache.stats();
  const mediated::GdhMediator::SignRequest r1[] = {{"alice", m1}};
  const auto b1 = sem_.issue_tokens(r1);
  EXPECT_EQ(cache.stats().misses, s1.misses);
  EXPECT_EQ(cache.size(), size1);
  ASSERT_TRUE(b1[0].has_value());
  EXPECT_EQ(*b1[0], t1);

  // Batch first, then single: the single path finds the batch's entry.
  const Bytes m2 = message("batch-then-single");
  const mediated::GdhMediator::SignRequest r2[] = {{"alice", m2}};
  const auto b2 = sem_.issue_tokens(r2);
  const auto size2 = cache.size();
  const auto s2 = cache.stats();
  const Point t2 = sem_.issue_token("alice", m2);
  EXPECT_EQ(cache.stats().misses, s2.misses);
  EXPECT_EQ(cache.size(), size2);
  ASSERT_TRUE(b2[0].has_value());
  EXPECT_EQ(*b2[0], t2);

  // The one entry is the uncached hash a signer or verifier computes.
  for (const Bytes& m : {m1, m2}) {
    const auto entry = cached_hash(m);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(*entry, gdh::hash_message(group_, m));
  }
}

INSTANTIATE_TEST_SUITE_P(NamedSets, SemHashCacheTest,
                         ::testing::Values("toy64", "sec80"));

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan in CI alongside SemStress*): writers,
// readers and clear() racing on one cache instance.

TEST(SemStressCache, ConcurrentGetPutClear) {
  ShardedLruCache<int> cache({.capacity = 32, .metric_prefix = "test.cache.k"});
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> stop{false};

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t * 7 + i) % 48;
        const int got = cache.get_or_compute("d", id_bytes(k),
                                             [&] { return k * 1000 + 7; });
        // Values are a pure function of the key: whatever raced, a
        // lookup can only ever observe the one correct value.
        EXPECT_EQ(got, k * 1000 + 7);
        if (i % 64 == 0) cache.put("d", id_bytes(k), k * 1000 + 7);
      }
    });
  }
  std::thread churn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)cache.stats();
      (void)cache.size();
      cache.clear();
      std::this_thread::yield();
    }
  });
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_release);
  churn.join();

  // Every lookup resolved to exactly one hit or one miss.
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_LE(cache.size(), 32u);
}

}  // namespace
}  // namespace medcrypt::ec
