// Tests for the SLO engine: burn-rate arithmetic against hand vectors,
// the histogram threshold-counting helper, multi-window differentiation
// of cumulative feeds, the monotonicity reset, and the ppm gauge
// publication.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/slo.h"

namespace {

using namespace medcrypt;
using obs::Histogram;
using obs::MetricsSnapshot;
using obs::SloEngine;
using obs::SloSpec;

constexpr std::uint64_t kSecond = 1'000'000'000ull;

MetricsSnapshot counters_snapshot(std::uint64_t ok, std::uint64_t bad) {
  MetricsSnapshot snap;
  snap.counters.push_back({"test.ok", ok});
  snap.counters.push_back({"test.bad", bad});
  return snap;
}

// ---------------------------------------------------------------------------
// Pure math helpers vs hand vectors.
// ---------------------------------------------------------------------------

TEST(SloMath, BurnRateHandVectors) {
  // 10 bad of 100 against a 99% objective: spending the 1% budget at
  // ten times the break-even rate.
  EXPECT_NEAR(SloEngine::burn_rate(90, 100, 0.99), 10.0, 1e-9);
  // Exactly at the objective: burn 1.0 by definition.
  EXPECT_NEAR(SloEngine::burn_rate(999, 1000, 0.999), 1.0, 1e-9);
  // Perfect window and empty window both burn nothing.
  EXPECT_DOUBLE_EQ(SloEngine::burn_rate(100, 100, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(SloEngine::burn_rate(0, 0, 0.99), 0.0);
  // Total failure of a 90% objective: 1.0 / 0.1.
  EXPECT_NEAR(SloEngine::burn_rate(0, 100, 0.9), 10.0, 1e-9);
  // Degenerate objective (no budget) reports 0 rather than dividing.
  EXPECT_DOUBLE_EQ(SloEngine::burn_rate(1, 2, 1.0), 0.0);
}

TEST(SloMath, GoodAtOrBelowIsExactInUnitBuckets) {
  // Below 2*kSub the buckets are width 1, so the count is exact.
  Histogram h;
  for (std::uint64_t v = 0; v < 2 * Histogram::kSub; ++v) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_EQ(SloEngine::good_at_or_below(snap, 0), 1u);
  EXPECT_EQ(SloEngine::good_at_or_below(snap, 9), 10u);
  EXPECT_EQ(SloEngine::good_at_or_below(snap, 2 * Histogram::kSub),
            2 * Histogram::kSub);
}

TEST(SloMath, GoodAtOrBelowInterpolatesAndStaysMonotone) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(1'000'000);  // one busy bucket
  const auto snap = h.snapshot();
  EXPECT_EQ(SloEngine::good_at_or_below(snap, 10), 0u);
  EXPECT_EQ(SloEngine::good_at_or_below(snap, 100'000'000), 1000u);
  std::uint64_t prev = 0;
  for (std::uint64_t t = 0; t <= 2'000'000; t += 100'000) {
    const std::uint64_t g = SloEngine::good_at_or_below(snap, t);
    EXPECT_GE(g, prev) << "threshold " << t;
    EXPECT_LE(g, 1000u);
    prev = g;
  }
}

// ---------------------------------------------------------------------------
// Engine: cumulative feeds differentiated over windows.
// ---------------------------------------------------------------------------

TEST(SloEngine, ReportIsEmptyUntilFirstTick) {
  SloEngine engine;
  SloSpec spec;
  spec.name = "empty";
  spec.good_counter = "test.ok";
  spec.bad_counter = "test.bad";
  engine.add(spec);
  EXPECT_TRUE(engine.report().empty());
}

TEST(SloEngine, AvailabilityBurnRatesOverTwoWindows) {
  SloEngine engine({{"5m", 300 * kSecond}, {"1h", 3600 * kSecond}});
  SloSpec spec;
  spec.name = "avail";
  spec.objective = 0.99;
  spec.good_counter = "test.ok";
  spec.bad_counter = "test.bad";
  engine.add(spec);

  // All 5 failures land in the first 100 virtual seconds; the next 300
  // seconds are clean.
  engine.tick(0, counters_snapshot(0, 0));
  engine.tick(100 * kSecond, counters_snapshot(95, 5));
  engine.tick(400 * kSecond, counters_snapshot(195, 5));

  const auto reports = engine.report();
  ASSERT_EQ(reports.size(), 1u);
  const auto& r = reports[0];
  EXPECT_EQ(r.name, "avail");
  EXPECT_EQ(r.good, 195u);
  EXPECT_EQ(r.total, 200u);
  EXPECT_DOUBLE_EQ(r.availability, 0.975);
  // Whole-feed budget: bad fraction 2.5% against a 1% budget.
  EXPECT_NEAR(r.budget_consumed, 2.5, 1e-9);

  ASSERT_EQ(r.burns.size(), 2u);
  // 5m window [100s, 400s]: only the clean 100 requests — no burn.
  EXPECT_EQ(r.burns[0].window, "5m");
  EXPECT_EQ(r.burns[0].total, 100u);
  EXPECT_DOUBLE_EQ(r.burns[0].rate, 0.0);
  // 1h window sees the whole feed.
  EXPECT_EQ(r.burns[1].window, "1h");
  EXPECT_EQ(r.burns[1].total, 200u);
  EXPECT_NEAR(r.burns[1].rate, 2.5, 1e-9);
}

TEST(SloEngine, LatencySpecCountsThresholdViolations) {
  SloEngine engine({{"5m", 300 * kSecond}});
  SloSpec spec;
  spec.name = "lat";
  spec.objective = 0.99;
  spec.source_histogram = "test.latency_ns";
  spec.threshold_ns = 10;  // unit-bucket region keeps the count exact
  engine.add(spec);

  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(5);   // within threshold
  for (int i = 0; i < 10; ++i) h.record(20);  // violations
  MetricsSnapshot snap;
  snap.histograms.push_back({"test.latency_ns", h.snapshot()});

  engine.tick(0, MetricsSnapshot{});
  engine.tick(60 * kSecond, snap);

  const auto reports = engine.report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].good, 90u);
  EXPECT_EQ(reports[0].total, 100u);
  EXPECT_DOUBLE_EQ(reports[0].availability, 0.9);
  // 10% over threshold against a 1% budget.
  EXPECT_NEAR(reports[0].budget_consumed, 10.0, 1e-9);
}

TEST(SloEngine, CounterResetRestartsTheFeed) {
  SloEngine engine({{"5m", 300 * kSecond}});
  SloSpec spec;
  spec.name = "reset";
  spec.objective = 0.99;
  spec.good_counter = "test.ok";
  spec.bad_counter = "test.bad";
  engine.add(spec);

  engine.tick(0, counters_snapshot(90, 10));
  // A registry reset makes the cumulative sources jump backwards; the
  // engine must restart instead of producing negative deltas.
  engine.tick(60 * kSecond, counters_snapshot(50, 0));
  const auto reports = engine.report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].good, 50u);
  EXPECT_EQ(reports[0].total, 50u);
  EXPECT_DOUBLE_EQ(reports[0].budget_consumed, 0.0);
}

TEST(SloEngine, MissingSourcesReadAsZeroAndStayQuiet) {
  SloEngine engine;
  SloSpec spec;
  spec.name = "absent";
  spec.good_counter = "no.such.counter";
  spec.bad_counter = "no.such.counter.either";
  engine.add(spec);
  engine.tick(0, MetricsSnapshot{});
  const auto reports = engine.report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].total, 0u);
  EXPECT_DOUBLE_EQ(reports[0].availability, 1.0);
  EXPECT_DOUBLE_EQ(reports[0].budget_consumed, 0.0);
}

TEST(SloEngine, PublishExportsPpmGauges) {
  auto& reg = obs::registry();
  reg.reset();
  SloEngine engine({{"5m", 300 * kSecond}});
  SloSpec spec;
  spec.name = "pub";
  spec.objective = 0.99;
  spec.good_counter = "test.ok";
  spec.bad_counter = "test.bad";
  engine.add(spec);
  engine.tick(0, counters_snapshot(0, 0));
  engine.tick(60 * kSecond, counters_snapshot(98, 2));
  engine.publish(reg);

  const MetricsSnapshot snap = reg.scrape();
  auto gauge = [&](const std::string& name) -> std::int64_t {
    for (const auto& g : snap.gauges) {
      if (g.name == name) return g.value;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return -1;
  };
  EXPECT_EQ(gauge("sem.slo.pub.objective_ppm"), 990'000);
  EXPECT_EQ(gauge("sem.slo.pub.availability_ppm"), 980'000);
  // 2% bad of a 1% budget: burn 2.0, remaining budget -100%.
  // ±1 ppm: 1 - 0.99 is not exact in binary, so the ratios land a few
  // ulps off the ideal before the fixed-point cast.
  EXPECT_NEAR(gauge("sem.slo.pub.budget_remaining_ppm"), -1'000'000, 1);
  EXPECT_NEAR(gauge("sem.slo.pub.burn_5m_ppm"), 2'000'000, 1);
}

}  // namespace
