// Tests for the capacity scenario harness: accounting invariants across
// all four workload shapes, SLO wiring, exemplar-trace resolution, and
// the machine-readable capacity report (toy params keep the whole file
// a smoke-scale run; tools/capacity_report.py re-checks the same
// invariants on the full-size CI artifact).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/registry.h"
#include "pairing/params.h"
#include "sim/scenario.h"

namespace {

using namespace medcrypt;

sim::ScenarioConfig tiny_config() {
  sim::ScenarioConfig cfg;
  cfg.group = &pairing::toy_params();
  cfg.users = 4;
  cfg.ops = 16;
  cfg.batch = 4;
  cfg.zipf_population = 8;
  return cfg;
}

TEST(Scenario, NamesAreStableAndUnknownNamesThrow) {
  const auto& names = sim::ScenarioRunner::scenario_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "steady");
  EXPECT_EQ(names[3], "failover");
  sim::ScenarioRunner runner(tiny_config());
  EXPECT_THROW((void)runner.run("rush_hour"), InvalidArgument);
}

TEST(Scenario, SteadyRunKeepsAccountingInvariants) {
  sim::ScenarioRunner runner(tiny_config());
  const sim::ScenarioResult r = runner.run("steady");
  EXPECT_EQ(r.name, "steady");
  EXPECT_GT(r.requests, 0u);
  // Every request resolves exactly one way: served, denied, or failed
  // without a successful retry (steady has no failures at all).
  EXPECT_EQ(r.ok + r.denied, r.requests);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.denied, 0u);
  // Batches issue more tokens than requests.
  EXPECT_GT(r.tokens, r.requests);
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_GT(r.tokens_per_s, 0.0);
  EXPECT_LE(r.p50_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.max_us);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
}

TEST(Scenario, SloReportsAreWiredPerScenario) {
  sim::ScenarioRunner runner(tiny_config());
  const sim::ScenarioResult r = runner.run("steady");
  EXPECT_EQ(r.latency_slo.name, "steady_latency");
  EXPECT_EQ(r.availability_slo.name, "steady_availability");
  EXPECT_EQ(r.availability_slo.total, r.ok + r.failed);
  EXPECT_DOUBLE_EQ(r.availability_slo.availability, 1.0);
  // Both SLOs carry the default fast/slow burn window pair.
  ASSERT_EQ(r.latency_slo.burns.size(), 2u);
  EXPECT_EQ(r.latency_slo.burns[0].window, "5m");
  EXPECT_EQ(r.latency_slo.burns[1].window, "1h");
}

TEST(Scenario, RevocationStormDeniesButNeverFails) {
  sim::ScenarioRunner runner(tiny_config());
  const sim::ScenarioResult r = runner.run("revocation_storm");
  EXPECT_EQ(r.ok + r.denied, r.requests);
  // Half the population is revoked mid-run: denials must show up, and
  // they are intended behavior — not availability failures.
  EXPECT_GT(r.denied, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
}

TEST(Scenario, FailoverBurnsAvailabilityThenRecovers) {
  sim::ScenarioRunner runner(tiny_config());
  const sim::ScenarioResult r = runner.run("failover");
  EXPECT_EQ(r.ok + r.denied, r.requests);
  // The dark primary costs failed first attempts, each retried against
  // the standby.
  EXPECT_GT(r.failed, 0u);
  EXPECT_EQ(r.retries, r.failed);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability, 0.0);
  EXPECT_GT(r.availability_slo.budget_consumed, 0.0);
}

TEST(Scenario, AllScenariosRunBackToBackOnOneRunner) {
  sim::ScenarioRunner runner(tiny_config());
  for (const std::string& name : sim::ScenarioRunner::scenario_names()) {
    const sim::ScenarioResult r = runner.run(name);
    EXPECT_EQ(r.name, name);
    EXPECT_GT(r.requests, 0u) << name;
    EXPECT_EQ(r.ok + r.denied, r.requests) << name;
    EXPECT_GE(r.availability, 0.0) << name;
    EXPECT_LE(r.availability, 1.0) << name;
  }
}

TEST(Scenario, MultiThreadedRunKeepsInvariants) {
  sim::ScenarioConfig cfg = tiny_config();
  cfg.threads = 2;
  cfg.ops = 24;
  sim::ScenarioRunner runner(cfg);
  const sim::ScenarioResult r = runner.run("steady");
  EXPECT_EQ(r.threads, 2);
  EXPECT_GT(r.requests, 0u);
  EXPECT_EQ(r.ok + r.denied, r.requests);
}

TEST(Scenario, CapacityReportJsonCarriesSchemaAndRows) {
  sim::ScenarioRunner runner(tiny_config());
  std::vector<sim::ScenarioResult> results;
  results.push_back(runner.run("steady"));
  results.push_back(runner.run("failover"));
  const std::string report =
      sim::capacity_report_json(results, runner.config());
  EXPECT_NE(report.find("medcrypt.capacity_report/v1"), std::string::npos);
  EXPECT_NE(report.find("\"steady\""), std::string::npos);
  EXPECT_NE(report.find("\"failover\""), std::string::npos);
  EXPECT_NE(report.find("\"latency\""), std::string::npos);
  EXPECT_NE(report.find("\"availability\""), std::string::npos);
  EXPECT_NE(report.find("\"burn\""), std::string::npos);
}

TEST(Scenario, ExemplarsResolveToCompleteSpanBreakdowns) {
  sim::ScenarioRunner runner(tiny_config());
  const sim::ScenarioResult r = runner.run("steady");
  // The harness arms every 4th request deterministically, so the
  // latency histogram's exemplar slots fill and each one resolves
  // against the trace ring.
  ASSERT_FALSE(r.exemplars.empty());
  ASSERT_FALSE(r.exemplar_traces.empty());
  for (const sim::TraceDump& dump : r.exemplar_traces) {
    EXPECT_EQ(dump.pipeline, "scenario.request");
    EXPECT_GT(dump.total_us, 0.0);
    // A resolved p99 trace is causal: it carries the stage cuts of the
    // crypto work behind the sample, not just the number.
    EXPECT_FALSE(dump.stages.empty());
    bool matches_exemplar = false;
    for (const sim::ExemplarRef& ex : r.exemplars) {
      if (ex.trace_id == dump.trace_id) matches_exemplar = true;
    }
    EXPECT_TRUE(matches_exemplar);
  }
}

TEST(Scenario, ExemplarTracesReportTheirDroppedSpanCount) {
  // A batch of 8 emits more spans than TraceData::kMaxStages holds; the
  // overflow count travels with each dump and into the report JSON.
  sim::ScenarioConfig cfg = tiny_config();
  cfg.batch = 8;
  sim::ScenarioRunner runner(cfg);
  const sim::ScenarioResult r = runner.run("steady");
  ASSERT_FALSE(r.exemplar_traces.empty());
  const std::vector<obs::TraceData> ring = obs::registry().recent_traces();
  for (const sim::TraceDump& dump : r.exemplar_traces) {
    bool found = false;
    for (const obs::TraceData& t : ring) {
      if (t.trace_id != dump.trace_id) continue;
      found = true;
      EXPECT_EQ(dump.dropped, t.dropped);
      EXPECT_EQ(dump.stages.size(), t.stage_count);
    }
    EXPECT_TRUE(found) << dump.trace_id;
  }
  const std::string report = sim::capacity_report_json({r}, runner.config());
  char expected[32];
  std::snprintf(expected, sizeof(expected), "\"dropped\": %u",
                static_cast<unsigned>(r.exemplar_traces[0].dropped));
  EXPECT_NE(report.find(expected), std::string::npos) << report;
}

}  // namespace
