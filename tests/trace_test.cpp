// Tests for causal request tracing: TraceContext propagation and
// parent/child linkage across hops, nested-scope demotion, sampling
// arithmetic, baggage accumulation, batch fan-in span capture through
// IbeMediator::issue_tokens, histogram exemplar retention/merge math,
// and an 8-thread trace-while-scrape stress suite (SemStressTrace*,
// which CI also runs under ThreadSanitizer via its `-R SemStress`
// filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "hash/drbg.h"
#include "ibe/boneh_franklin.h"
#include "ibe/pkg.h"
#include "mediated/mediated_ibe.h"
#include "obs/span.h"
#include "pairing/params.h"

namespace {

using namespace medcrypt;
using obs::Histogram;

// ---------------------------------------------------------------------------
// TraceContext is plain data.
// ---------------------------------------------------------------------------

TEST(Trace, ContextIsSampledIffIdNonZero) {
  EXPECT_FALSE(obs::TraceContext{}.sampled());
  EXPECT_TRUE((obs::TraceContext{0x1234}).sampled());
  // The wire format reserves exactly the id bytes.
  EXPECT_EQ(obs::TraceContext::kWireSize, sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// Exemplar merge algebra over hand-built snapshots (plain data math).
// ---------------------------------------------------------------------------

TEST(TraceExemplar, MergeDedupesByTraceIdKeepingLargerValue) {
  Histogram::Snapshot a;
  a.exemplars[0] = {500, 7};
  a.exemplars[1] = {100, 8};
  Histogram::Snapshot b;
  b.exemplars[0] = {900, 7};  // same trace, larger sample
  b.exemplars[1] = {50, 9};
  a.merge(b);
  // Union dedupes trace 7 at value 900; descending by value.
  ASSERT_EQ(a.exemplars[0].trace_id, 7u);
  EXPECT_EQ(a.exemplars[0].value, 900u);
  EXPECT_EQ(a.exemplars[1].trace_id, 8u);
  EXPECT_EQ(a.exemplars[2].trace_id, 9u);
  EXPECT_EQ(a.exemplars[3].trace_id, 0u);  // empty slot trails
}

TEST(TraceExemplar, MergeKeepsTopSlotsOfUnion) {
  Histogram::Snapshot a;
  Histogram::Snapshot b;
  for (std::size_t i = 0; i < Histogram::kExemplarSlots; ++i) {
    a.exemplars[i] = {100 * (i + 1), i + 1};               // 100..400
    b.exemplars[i] = {1000 * (i + 1), 100 + i};            // 1000..4000
  }
  a.merge(b);
  // The four b entries dominate the union.
  for (std::size_t i = 0; i < Histogram::kExemplarSlots; ++i) {
    EXPECT_EQ(a.exemplars[i].value,
              1000 * (Histogram::kExemplarSlots - i));
    EXPECT_GE(a.exemplars[i].trace_id, 100u);
  }
}

// ---------------------------------------------------------------------------
// Scope arming, adoption, and linkage.
// ---------------------------------------------------------------------------

TEST(Trace, AdoptionLinksChildToParentAcrossScopes) {
  auto& reg = obs::registry();
  reg.reset();
  obs::TraceContext ctx;
  {
    obs::TraceScope parent("trace.parent", /*sample_shift=*/0);
    ctx = obs::TraceContext::current();
    EXPECT_TRUE(ctx.sampled());
  }
  {
    // The adoption constructor (what a batch entry point or the SEM
    // daemon runs after decoding a frame) must arm and link back.
    obs::TraceScope child("trace.child", ctx);
    EXPECT_TRUE(obs::TraceContext::current().sampled());
    EXPECT_NE(obs::TraceContext::current().trace_id, ctx.trace_id);
  }
  const auto traces = reg.recent_traces();
  ASSERT_EQ(traces.size(), 2u);
  const obs::TraceData* child = nullptr;
  for (const auto& t : traces) {
    if (std::string(t.pipeline) == "trace.child") child = &t;
  }
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent_id, ctx.trace_id);
  EXPECT_NE(child->trace_id, ctx.trace_id);
}

TEST(Trace, AdoptionStaysDisarmedForUnsampledParent) {
  auto& reg = obs::registry();
  reg.reset();
  {
    // No re-sampling on a hop: an unsampled upstream stays untraced.
    obs::TraceScope child("trace.untraced", obs::TraceContext{});
    EXPECT_FALSE(obs::TraceContext::current().sampled());
  }
  EXPECT_TRUE(reg.recent_traces().empty());
}

TEST(Trace, NestedScopeDemotesIntoOuterTrace) {
  auto& reg = obs::registry();
  reg.reset();
  {
    obs::TraceScope outer("trace.outer", /*sample_shift=*/0);
    const std::uint64_t outer_id = obs::TraceContext::current().trace_id;
    {
      obs::TraceScope inner("trace.inner", /*sample_shift=*/0);
      // The inner scope sees a live trace and demotes: same id.
      EXPECT_EQ(obs::TraceContext::current().trace_id, outer_id);
      obs::Span span(obs::Stage::kTokenIssue);
    }
    EXPECT_EQ(obs::TraceContext::current().trace_id, outer_id);
  }
  const auto traces = reg.recent_traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_STREQ(traces[0].pipeline, "trace.outer");
  // The span inside the demoted scope landed in the outer trace.
  ASSERT_EQ(traces[0].stage_count, 1u);
  EXPECT_EQ(traces[0].stages[0].stage, obs::Stage::kTokenIssue);
}

TEST(Trace, SamplingShiftArmsOneInTwoToTheShift) {
  auto& reg = obs::registry();
  reg.reset();
  // The sampling tick is thread-local; a fresh thread starts at zero,
  // which makes the 1-in-4 cadence exact.
  std::thread([] {
    for (int i = 0; i < 32; ++i) {
      obs::TraceScope scope("trace.sampled", /*sample_shift=*/2);
    }
  }).join();
  std::size_t sampled = 0;
  for (const auto& t : reg.recent_traces()) {
    if (std::string(t.pipeline) == "trace.sampled") ++sampled;
  }
  EXPECT_EQ(sampled, 8u);
}

// ---------------------------------------------------------------------------
// Baggage.
// ---------------------------------------------------------------------------

TEST(Trace, AnnotateAccumulatesRepeatsAndCapsDistinctLabels) {
  auto& reg = obs::registry();
  reg.reset();
  static const char* const kLabels[] = {"b.0", "b.1", "b.2", "b.3", "b.4",
                                        "b.5", "b.6", "b.7", "b.8", "b.9"};
  {
    obs::TraceScope scope("trace.baggage", /*sample_shift=*/0);
    obs::trace_annotate("cache.hit");
    obs::trace_annotate("cache.hit", 2);  // repeated label accumulates
    for (const char* label : kLabels) obs::trace_annotate(label, 5);
  }
  const auto traces = reg.recent_traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceData& t = traces[0];
  // cache.hit plus the first kMaxBaggage-1 distinct labels fit; the
  // rest drop silently.
  EXPECT_EQ(t.baggage_count, obs::TraceData::kMaxBaggage);
  bool found = false;
  for (std::uint32_t b = 0; b < t.baggage_count; ++b) {
    if (std::string(t.baggage[b].name) == "cache.hit") {
      EXPECT_EQ(t.baggage[b].value, 3u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Trace, AnnotateWithoutTraceIsANoOp) {
  auto& reg = obs::registry();
  reg.reset();
  obs::trace_annotate("orphan.label", 42);  // must not crash or record
  EXPECT_TRUE(reg.recent_traces().empty());
}

// ---------------------------------------------------------------------------
// Batch fan-in: one armed client scope captures every per-request span
// of an issue_tokens batch plus the batch-width baggage.
// ---------------------------------------------------------------------------

TEST(Trace, BatchFanInCapturesPerRequestSpansInOneTrace) {
  const auto& group = pairing::toy_params();
  hash::HmacDrbg rng(0x7ace);
  ibe::Pkg pkg(group, 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);

  std::vector<std::string> ids;
  std::vector<ibe::FullCiphertext> cts;
  for (int i = 0; i < 3; ++i) {
    ids.push_back("trace-user" + std::to_string(i));
    (void)mediated::enroll_ibe_user(pkg, sem, ids.back(), rng);
    Bytes m(32);
    rng.fill(m);
    cts.push_back(ibe::full_encrypt(pkg.params(), ids.back(), m, rng));
  }
  std::vector<mediated::IbeMediator::TokenRequest> reqs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    reqs.push_back({ids[i], &cts[i].u});
  }

  auto& reg = obs::registry();
  reg.reset();
  {
    obs::TraceScope scope("trace.batch", /*sample_shift=*/0);
    const auto results = sem.issue_tokens(reqs);
    for (const auto& r : results) EXPECT_TRUE(r.has_value());
  }
  const auto traces = reg.recent_traces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceData& t = traces[0];
  EXPECT_STREQ(t.pipeline, "trace.batch");
  // The mediator's own entry scope demoted under ours, so its per-
  // request token-issue spans all landed here: one per batch entry, and
  // each token finished by its own final exponentiation inside it.
  ASSERT_EQ(t.dropped, 0u);
  std::vector<obs::TraceData::StageRec> tokens, final_exps;
  for (std::uint32_t s = 0; s < t.stage_count; ++s) {
    if (t.stages[s].stage == obs::Stage::kTokenIssue) {
      tokens.push_back(t.stages[s]);
    }
    if (t.stages[s].stage == obs::Stage::kPairingFinalExp) {
      final_exps.push_back(t.stages[s]);
    }
  }
  EXPECT_EQ(tokens.size(), reqs.size());
  ASSERT_EQ(final_exps.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_LE(tokens[i].offset_ns, final_exps[i].offset_ns) << i;
    EXPECT_GE(tokens[i].offset_ns + tokens[i].dur_ns,
              final_exps[i].offset_ns + final_exps[i].dur_ns)
        << i;
  }
  bool width = false;
  for (std::uint32_t b = 0; b < t.baggage_count; ++b) {
    if (std::string(t.baggage[b].name) == "batch.requests") {
      EXPECT_EQ(t.baggage[b].value, reqs.size());
      width = true;
    }
  }
  EXPECT_TRUE(width);
}

// ---------------------------------------------------------------------------
// Exemplar capture.
// ---------------------------------------------------------------------------

TEST(TraceExemplar, CapturedOnlyUnderSampledTrace) {
  Histogram h;
  h.record(100);  // untraced: no exemplar
  std::uint64_t traced_id = 0;
  {
    obs::TraceScope scope("trace.exemplar", /*sample_shift=*/0);
    traced_id = obs::TraceContext::current().trace_id;
    h.record(500);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  ASSERT_NE(snap.exemplars[0].trace_id, 0u);
  EXPECT_EQ(snap.exemplars[0].trace_id, traced_id);
  EXPECT_EQ(snap.exemplars[0].value, 500u);
  EXPECT_EQ(snap.exemplars[1].trace_id, 0u);
}

TEST(TraceExemplar, SlotsRetainLargestTracedSamples) {
  Histogram h;
  for (std::uint64_t v = 10; v <= 100; v += 10) {
    obs::TraceScope scope("trace.topk", /*sample_shift=*/0);
    h.record(v);
  }
  const auto snap = h.snapshot();
  // kExemplarSlots largest of the ten traced samples, descending.
  for (std::size_t i = 0; i < Histogram::kExemplarSlots; ++i) {
    EXPECT_EQ(snap.exemplars[i].value,
              100 - 10 * i) << "slot " << i;
    EXPECT_NE(snap.exemplars[i].trace_id, 0u);
  }
}

// ---------------------------------------------------------------------------
// Stress: traced pipelines, annotations, and exemplar capture racing a
// scraper (SemStressTrace rides the CI TSan `-R SemStress` filter).
// ---------------------------------------------------------------------------

TEST(SemStressTrace, ConcurrentTracingAndScrape) {
  auto& reg = obs::registry();
  reg.reset();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> stop{false};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.scrape();
      (void)reg.recent_traces();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&reg, w] {
      auto& hist = reg.histogram("trace.stress_ns");
      for (int i = 0; i < kOpsPerThread; ++i) {
        obs::TraceScope scope("trace.stress", /*sample_shift=*/1);
        obs::Span span(obs::Stage::kTokenIssue);
        obs::trace_annotate("stress.iter");
        hist.record(static_cast<std::uint64_t>(w * kOpsPerThread + i));
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  const auto snap = reg.scrape();
  const Histogram::Snapshot* stress = nullptr;
  for (const auto& h : snap.histograms) {
    if (h.name == "trace.stress_ns") stress = &h.hist;
  }
  ASSERT_NE(stress, nullptr);
  EXPECT_EQ(stress->count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Half the loops ran traced (shift 1), so exemplars must have landed.
  EXPECT_NE(stress->exemplars[0].trace_id, 0u);
}

}  // namespace
