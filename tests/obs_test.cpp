// Tests for the observability layer: histogram bucket math and
// percentile interpolation, merge algebra, the sharded registry and its
// counter-source aggregation, the exporters, span/trace recording, and
// an 8-thread record-while-scraping stress suite (SemStressObs*, which
// CI also runs under ThreadSanitizer via its `-R SemStress` filter).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "hash/drbg.h"
#include "gdh/bls.h"
#include "ibe/boneh_franklin.h"
#include "ibe/pkg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "obs/export.h"
#include "obs/span.h"
#include "pairing/params.h"

namespace {

using namespace medcrypt;
using obs::Histogram;

// ---------------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketIndexIsExactBelowTwoOctaves) {
  // Width-1 buckets for v < 2*kSub: the index IS the value.
  for (std::uint64_t v = 0; v < 2 * Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v) << v;
  }
}

TEST(ObsHistogram, BucketLowerBoundInvertsBucketIndex) {
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "bucket " << i;
    // One less than the lower bound falls in an earlier bucket.
    if (lo > 0 && i + 1 < Histogram::kBucketCount) {
      EXPECT_LT(Histogram::bucket_index(lo - 1), i) << "bucket " << i;
    }
  }
}

TEST(ObsHistogram, BucketIndexIsMonotoneAcrossOctaveBoundaries) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < (1u << 20); v += 37) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    prev = idx;
  }
}

TEST(ObsHistogram, RelativeBucketWidthIsBounded) {
  // Log-linear contract: above the exact range, bucket width is at most
  // lower_bound/kSub, i.e. ~6.25% relative resolution.
  for (std::size_t i = 2 * Histogram::kSub;
       i + 1 < Histogram::kBucketCount; ++i) {
    const double lo = static_cast<double>(Histogram::bucket_lower_bound(i));
    const double hi =
        static_cast<double>(Histogram::bucket_lower_bound(i + 1));
    EXPECT_LE(hi - lo, lo / Histogram::kSub + 1e-9) << "bucket " << i;
  }
}

TEST(ObsHistogram, PercentilesOfKnownUniformDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max, 1000u);
  // Exact-bucket region keeps small quantiles exact; log-linear buckets
  // bound the rest within one bucket width (~6.25%).
  EXPECT_NEAR(s.percentile(0.01), 10.0, 1.0);
  EXPECT_NEAR(s.percentile(0.50), 500.0, 500.0 / 16 + 1);
  EXPECT_NEAR(s.percentile(0.90), 900.0, 900.0 / 16 + 1);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 1000.0);
  EXPECT_LE(s.percentile(0.999), static_cast<double>(s.max));
}

TEST(ObsHistogram, PercentileEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.5), 0.0);  // empty
  h.record(42);
  const auto s = h.snapshot();
  // A single sample answers every quantile with itself (bucket 42 is in
  // the exact region).
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(ObsHistogram, MergeIsAssociativeAndMatchesUnionRecording) {
  Histogram a, b, c, u;
  for (std::uint64_t v = 1; v < 400; v += 3) { a.record(v); u.record(v); }
  for (std::uint64_t v = 1000; v < 90000; v += 701) { b.record(v); u.record(v); }
  for (std::uint64_t v : {5u, 5u, 5u, 1u << 30}) { c.record(v); u.record(v); }

  auto sa = a.snapshot(), sb = b.snapshot(), sc = c.snapshot();
  // (a + b) + c
  auto left = sa;
  left.merge(sb);
  left.merge(sc);
  // a + (b + c)
  auto right = sb;
  right.merge(sc);
  auto right2 = sa;
  right2.merge(right);

  const auto su = u.snapshot();
  for (const auto* s : {&left, &right2}) {
    EXPECT_EQ(s->count, su.count);
    EXPECT_EQ(s->sum, su.sum);
    EXPECT_EQ(s->max, su.max);
    EXPECT_EQ(s->buckets, su.buckets);
  }
}

TEST(ObsHistogram, SaturatesAtLastBucketAndCapsAtMax) {
  Histogram h;
  const std::uint64_t huge = ~std::uint64_t{0};
  h.record(huge);
  h.record(huge - 1);
  h.record(7);
  const auto s = h.snapshot();
  EXPECT_EQ(Histogram::bucket_index(huge), Histogram::kBucketCount - 1);
  EXPECT_EQ(s.buckets[Histogram::kBucketCount - 1], 2u);
  EXPECT_EQ(s.max, huge);
  // Interpolation inside the open-ended saturation bucket is capped by
  // the recorded max, never the (nonexistent) bucket upper bound.
  EXPECT_LE(s.percentile(0.99), static_cast<double>(huge));
  EXPECT_GE(s.percentile(0.99),
            static_cast<double>(
                Histogram::bucket_lower_bound(Histogram::kBucketCount - 1)));
}

// ---------------------------------------------------------------------------
// Counter / Gauge / registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CounterAggregatesAcrossThreadCells) {
  obs::Counter c;
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add(1);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), 8000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, NamedInstrumentsAreStableSingletons) {
  auto& reg = obs::registry();
  obs::Counter& a = reg.counter("test.stable_counter");
  obs::Counter& b = reg.counter("test.stable_counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("test.stable_hist");
  obs::Histogram& h2 = reg.histogram("test.stable_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsRegistry, MultiValueSourceIsInvokedOncePerScrape) {
  // A multi-value scrape source exists so producers with several related
  // series (e.g. a mediator's SemStats) can export ONE snapshot per
  // scrape instead of being sampled once per series — three independent
  // samples of a moving target are mutually incoherent. Series sharing a
  // name are summed across sources and with the owned counter, which is
  // how several mediators aggregate into one `sem.*` series.
  auto& reg = obs::registry();
  reg.counter("test.multi.a").add(2);
  std::atomic<int> calls{0};
  const std::uint64_t id1 = reg.register_scrape_source([&] {
    calls.fetch_add(1);
    return obs::MetricsRegistry::ScrapeSeries{{"test.multi.a", 5},
                                              {"test.multi.b", 7}};
  });
  const std::uint64_t id2 = reg.register_scrape_source([] {
    return obs::MetricsRegistry::ScrapeSeries{{"test.multi.a", 20}};
  });
  auto find = [](const obs::MetricsSnapshot& s, const std::string& name) {
    for (const auto& c : s.counters)
      if (c.name == name) return c.value;
    return ~std::uint64_t{0};
  };
  const auto snap = reg.scrape();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(find(snap, "test.multi.a"), 27u);  // owned 2 + 5 + 20
  EXPECT_EQ(find(snap, "test.multi.b"), 7u);
  reg.unregister_scrape_source(id1);
  const auto after1 = reg.scrape();
  EXPECT_EQ(find(after1, "test.multi.a"), 22u);
  EXPECT_EQ(find(after1, "test.multi.b"), ~std::uint64_t{0});
  reg.unregister_scrape_source(id2);
  EXPECT_EQ(find(reg.scrape(), "test.multi.a"), 2u);
}

TEST(ObsRegistry, MediatorSeriesComeFromOneStatsSnapshot) {
  // The sem.* series are one register_scrape_source callback (one
  // stats() call per scrape), so after a known workload a single scrape
  // reports exactly the coherent triple.
  auto& reg = obs::registry();
  hash::HmacDrbg rng(992);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::GdhMediator sem(pairing::toy_params(), revocations);
  (void)enroll_gdh_user(pairing::toy_params(), sem, "carol", rng);
  const Bytes msg = str_bytes("coherent");
  (void)sem.issue_token("carol", msg);
  (void)sem.issue_token("carol", msg);
  revocations->revoke("carol");
  EXPECT_THROW((void)sem.issue_token("carol", msg), RevokedError);
  EXPECT_THROW((void)sem.issue_token("nobody", msg), InvalidArgument);

  auto find = [](const obs::MetricsSnapshot& s, const std::string& name) {
    for (const auto& c : s.counters)
      if (c.name == name) return c.value;
    return ~std::uint64_t{0};
  };
  const auto snap = reg.scrape();
  EXPECT_EQ(find(snap, "sem.tokens_issued"), 2u);
  EXPECT_EQ(find(snap, "sem.denials"), 1u);
  EXPECT_EQ(find(snap, "sem.unknown_identities"), 1u);
}

TEST(ObsRegistry, ScrapeIsSortedAndResetClears) {
  auto& reg = obs::registry();
  reg.counter("test.zz").add(1);
  reg.counter("test.aa").add(1);
  reg.gauge("test.gauge").set(-7);
  const auto snap = reg.scrape();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  bool saw_gauge = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "test.gauge") {
      saw_gauge = true;
      EXPECT_EQ(g.value, -7);
    }
  }
  EXPECT_TRUE(saw_gauge);
  reg.reset();
  // reset() zeroes owned instruments only. Scrape sources keep their
  // owners' counts: here the process-wide caches' `sem.cache.*` series.
  for (const auto& c : reg.scrape().counters) {
    if (c.name.starts_with("sem.")) continue;
    EXPECT_EQ(c.value, 0u) << c.name;
  }
}

TEST(ObsRegistry, RuntimeKillSwitchStopsRecording) {
  auto& reg = obs::registry();
  reg.reset();
  obs::Counter& c = reg.counter("test.killswitch");
  const std::uint64_t spans =
      reg.stage_histogram(obs::Stage::kShareCombine).count();
  obs::set_enabled(false);
  c.add(1);
  {
    obs::TraceScope trace("test.killswitch", /*sample_shift=*/0);
    EXPECT_FALSE(obs::TraceContext::current().sampled());
    obs::Span span(obs::Stage::kShareCombine);
  }
  obs::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.stage_histogram(obs::Stage::kShareCombine).count(), spans);
  EXPECT_TRUE(reg.recent_traces().empty());
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

// Every byte a mediated IBE decryption and a mediated GDH sign + verify
// produce from one DRBG seed: ciphertext, plaintext, signature.
Bytes mediated_transcript() {
  hash::HmacDrbg rng(2024);
  const pairing::ParamSet& group = pairing::toy_params();
  ibe::Pkg pkg(group, 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator ibe_sem(pkg.params(), revocations);
  mediated::GdhMediator gdh_sem(group, revocations);
  const auto alice = enroll_ibe_user(pkg, ibe_sem, "alice", rng);
  const auto bob = enroll_gdh_user(group, gdh_sem, "bob", rng);
  Bytes m(pkg.params().message_len);
  rng.fill(m);
  const ibe::FullCiphertext ct =
      ibe::full_encrypt(pkg.params(), "alice", m, rng);
  const Bytes pt = alice.decrypt(ct, ibe_sem);
  EXPECT_EQ(pt, m);
  const ec::Point sig = bob.sign(m, gdh_sem);
  EXPECT_TRUE(gdh::verify(group, bob.public_key(), m, sig));
  return concat(ct.to_bytes(), pt, sig.to_bytes());
}

TEST(ObsRegistry, KillSwitchLeavesProtocolBytesUnchanged) {
  // The runtime switch is the only "off": the library must do the same
  // work with the same bytes, and record nothing while it is off.
  auto& reg = obs::registry();
  const Bytes traced = mediated_transcript();
  std::array<std::uint64_t, obs::kStageCount> before{};
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    before[i] = reg.stage_histogram(static_cast<obs::Stage>(i)).count();
  }
  obs::set_enabled(false);
  const Bytes untraced = mediated_transcript();
  obs::set_enabled(true);
  EXPECT_EQ(traced, untraced);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    EXPECT_EQ(reg.stage_histogram(static_cast<obs::Stage>(i)).count(),
              before[i])
        << obs::stage_name(static_cast<obs::Stage>(i));
  }
}

// ---------------------------------------------------------------------------
// Span / trace
// ---------------------------------------------------------------------------

TEST(ObsSpan, RecordsIntoStageHistogram) {
  auto& reg = obs::registry();
  reg.reset();
  const std::uint64_t before =
      reg.stage_histogram(obs::Stage::kShareExtract).count();
  {
    obs::Span span(obs::Stage::kShareExtract);
  }
  {
    obs::Span span(obs::Stage::kShareExtract);
    span.finish();
    span.finish();  // idempotent: the destructor must not double-record
  }
  EXPECT_EQ(reg.stage_histogram(obs::Stage::kShareExtract).count(),
            before + 2);
}

TEST(ObsSpan, TraceScopeCapturesNestedSpans) {
  auto& reg = obs::registry();
  reg.reset();
  {
    obs::TraceScope trace("test.pipeline", /*sample_shift=*/0);
    obs::Span outer(obs::Stage::kTokenIssue);
    {
      obs::Span inner(obs::Stage::kPairingMiller);
    }
  }
  const auto traces = reg.recent_traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceData& t = traces[0];
  EXPECT_STREQ(t.pipeline, "test.pipeline");
  ASSERT_EQ(t.stage_count, 2u);
  // Spans append at completion: the inner span finishes first.
  EXPECT_EQ(t.stages[0].stage, obs::Stage::kPairingMiller);
  EXPECT_EQ(t.stages[1].stage, obs::Stage::kTokenIssue);
  EXPECT_GE(t.total_ns, t.stages[1].dur_ns);
  EXPECT_EQ(t.dropped, 0u);
}

TEST(ObsSpan, TraceRingKeepsMostRecent) {
  auto& reg = obs::registry();
  reg.reset();
  const std::size_t n = obs::MetricsRegistry::kTraceRingSize + 10;
  for (std::size_t i = 0; i < n; ++i) {
    obs::TraceScope trace("test.ring", /*sample_shift=*/0);
  }
  const auto traces = reg.recent_traces();
  EXPECT_EQ(traces.size(), obs::MetricsRegistry::kTraceRingSize);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExport, PrometheusFormatAndNameSanitization) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"sem.tokens_issued", 41});
  snap.gauges.push_back({"sim.link-depth", -3});
  obs::Histogram h;
  h.record(100);
  h.record(200);
  snap.histograms.push_back({"stage.token_issue_ns", h.snapshot()});

  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE medcrypt_sem_tokens_issued counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("medcrypt_sem_tokens_issued 41"), std::string::npos);
  EXPECT_NE(prom.find("medcrypt_sim_link_depth -3"), std::string::npos);
  EXPECT_NE(prom.find("medcrypt_stage_token_issue_ns_count 2"),
            std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  // No un-sanitized name may survive.
  EXPECT_EQ(prom.find("sem.tokens"), std::string::npos);
}

TEST(ObsExport, JsonCarriesMetricsAndTraces) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"a.b", 7});
  obs::TraceData trace;
  trace.pipeline = "test.pipe";
  trace.total_ns = 123;
  trace.stage_count = 1;
  trace.stages[0] = {obs::Stage::kPairingFinalExp, 5, 100};
  const std::string json = obs::to_json(snap, {trace});
  EXPECT_NE(json.find("\"a.b\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pipeline\": \"test.pipe\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"pairing.final_exp\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\": 123"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 8-thread stress: concurrent recording + scraping (TSan-covered)
// ---------------------------------------------------------------------------

TEST(SemStressObs, ConcurrentRecordAndScrape) {
  auto& reg = obs::registry();
  reg.reset();
  constexpr int kRecorders = 6;
  constexpr int kScrapers = 2;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kRecorders; ++t) {
    pool.emplace_back([&reg, t] {
      obs::Counter& c = reg.counter("test.stress_counter");
      obs::Histogram& h = reg.histogram("test.stress_hist");
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.add(1);
        h.record(static_cast<std::uint64_t>(i * 37 + t));
        obs::Span span(obs::Stage::kScalarMul);
      }
    });
  }
  std::atomic<std::uint64_t> last_seen{0};
  for (int t = 0; t < kScrapers; ++t) {
    pool.emplace_back([&] {
      while (!stop.load()) {
        const auto snap = reg.scrape();
        for (const auto& c : snap.counters) {
          if (c.name == "test.stress_counter") {
            // Monotone under concurrent recording.
            std::uint64_t prev = last_seen.load();
            while (c.value > prev &&
                   !last_seen.compare_exchange_weak(prev, c.value)) {
            }
          }
        }
      }
    });
  }
  for (int t = 0; t < kRecorders; ++t) pool[static_cast<std::size_t>(t)].join();
  stop.store(true);
  for (std::size_t t = kRecorders; t < pool.size(); ++t) pool[t].join();

  const auto snap = reg.scrape();
  for (const auto& c : snap.counters) {
    if (c.name == "test.stress_counter") {
      EXPECT_EQ(c.value, static_cast<std::uint64_t>(kRecorders) *
                             kOpsPerThread);
    }
  }
  EXPECT_EQ(reg.histogram("test.stress_hist").count(),
            static_cast<std::uint64_t>(kRecorders) * kOpsPerThread);
  EXPECT_EQ(reg.stage_histogram(obs::Stage::kScalarMul).count(),
            static_cast<std::uint64_t>(kRecorders) * kOpsPerThread);
}

TEST(SemStressObs, MediatorSourcesSurviveConcurrentScrapeAndTeardown) {
  // Mediators register scrape sources at construction and unregister on
  // destruction; scraping from other threads while mediators churn must
  // neither race nor touch dead instances (TSan is the judge).
  auto& reg = obs::registry();
  hash::HmacDrbg rng(991);
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      while (!stop.load()) {
        (void)reg.scrape();
        // Paced like a real scraper. Spinning here starves the writer
        // lock that register_scrape_source needs (glibc rwlocks favor
        // readers) and the test degenerates into a lock-fairness bench.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    auto revocations = std::make_shared<mediated::RevocationList>();
    mediated::GdhMediator sem(pairing::toy_params(), revocations);
    (void)enroll_gdh_user(pairing::toy_params(), sem, "stress-user", rng);
    const Bytes msg = str_bytes("scrape-churn");
    (void)sem.issue_token("stress-user", msg);
    revocations->revoke("blocked-user");
  }
  stop.store(true);
  for (auto& th : pool) th.join();
}

}  // namespace
