// Million-user scenario harness — the ROADMAP's capacity-planning
// workload driver.
//
// A ScenarioRunner owns one in-process SEM deployment (an IbeMediator +
// GdhMediator pair sharing a RevocationList, plus a standby mediator
// pair for failover) and drives it through four workload shapes:
//
//   steady            Zipf-skewed mixed IBE/GDH traffic, singles +
//                     issue_tokens batches, constant arrival rate.
//   diurnal           the same mix under a day-shaped rate curve: peak
//                     phases arrive faster (and lean on batching),
//                     troughs idle — exercises the SLO windows through
//                     virtual time.
//   revocation_storm  mass compromise mid-run: half the population is
//                     revoked at once (denials spike, the epoch bump
//                     invalidates the identity caches, p99 rises while
//                     they refill), then restored.
//   failover          a second SEM holds standby key halves; mid-storm
//                     the primary goes dark and clients retry against
//                     the standby — first attempts fail, burning the
//                     availability budget until the primary returns.
//
// Time is two-scale: request latency is measured in wall ns (real
// crypto work), while arrivals advance a virtual SimClock timeline
// (cfg.virtual_ns_per_op per request) that feeds the SLO engine — so a
// seconds-long run exercises minutes-wide burn windows.
//
// Every request runs inside a TraceScope, so the harness's latency
// histogram retains exemplar trace ids; run() resolves them against the
// trace ring into full span breakdowns, which is what makes the
// capacity report's p99 entries *causal* rather than just numeric.
//
// The harness depends only on Histogram/SloEngine data math (real in
// both build modes); with MEDCRYPT_OBS=OFF the report still carries
// throughput/latency/SLO numbers, just no exemplars or span breakdowns
// (capacity_report_json records obs_enabled so checkers can tell).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hash/drbg.h"
#include "ibe/pkg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "obs/histogram.h"
#include "obs/slo.h"
#include "pairing/params.h"
#include "sim/clock.h"
#include "sim/transport.h"

namespace medcrypt::sim {

struct ScenarioConfig {
  /// Enrolled population (identities with installed key halves).
  int users = 24;
  /// Total requests per scenario (split across phases and threads).
  int ops = 240;
  /// Concurrent client threads.
  int threads = 1;
  /// issue_tokens fan-in width for batched requests.
  int batch = 8;
  /// Distinct GDH messages behind the Zipf stream.
  int zipf_population = 64;
  /// Deterministic seed for enrollment randomness and Zipf streams.
  std::uint64_t seed = 0x5eed;
  /// Virtual time per request on the SLO timeline (default 2 s: a
  /// 240-op scenario spans 8 virtual minutes — wider than the 5m burn
  /// window, a slice of the 1h one).
  std::uint64_t virtual_ns_per_op = 2'000'000'000ull;
  /// Latency SLO: fraction `latency_objective` of requests must finish
  /// within `latency_threshold_ns` (wall time).
  std::uint64_t latency_threshold_ns = 5'000'000ull;
  double latency_objective = 0.99;
  /// Availability SLO objective over ok vs failed first attempts.
  double availability_objective = 0.999;
  /// Group parameters; null selects pairing::paper_params(). Tests pass
  /// &pairing::toy_params() to keep the smoke run fast.
  const pairing::ParamSet* group = nullptr;
};

/// One exemplar reference out of the scenario's latency histogram.
struct ExemplarRef {
  std::uint64_t trace_id = 0;
  double value_us = 0.0;
};

/// A resolved trace: the full span breakdown behind one exemplar.
struct TraceDump {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_id = 0;
  std::string pipeline;
  double total_us = 0.0;
  std::uint32_t dropped = 0;  // spans past obs::TraceData::kMaxStages
  struct StageCut {
    std::string stage;
    double offset_us = 0.0;
    double dur_us = 0.0;
  };
  std::vector<StageCut> stages;
  std::vector<std::pair<std::string, std::uint64_t>> baggage;
};

struct ScenarioResult {
  std::string name;
  int threads = 0;
  std::uint64_t requests = 0;  // client operations (a batch is one)
  std::uint64_t tokens = 0;    // tokens issued (a batch counts its width)
  std::uint64_t ok = 0;        // requests fully served
  std::uint64_t denied = 0;    // revocation denials (intended behavior)
  std::uint64_t failed = 0;    // failed first attempts (infrastructure)
  std::uint64_t retries = 0;   // failover retries that then succeeded
  double wall_s = 0.0;         // measured request-loop wall time
  double tokens_per_s = 0.0;
  double tokens_per_s_per_core = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double availability = 1.0;   // ok / (ok + failed)
  obs::SloEngine::Report latency_slo;
  obs::SloEngine::Report availability_slo;
  std::vector<ExemplarRef> exemplars;       // largest traced samples
  std::vector<TraceDump> exemplar_traces;   // resolved span breakdowns
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioConfig cfg);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// The four scenario names, run order for "all".
  static const std::vector<std::string>& scenario_names();

  /// Runs one named scenario to completion and returns its report row.
  /// Throws InvalidArgument for unknown names.
  ScenarioResult run(std::string_view name);

  /// Publishes the latest run's SLO gauges (sem.slo.*) into the registry
  /// and returns the engine for direct reporting.
  const obs::SloEngine& slo_engine() const { return slo_; }

  const ScenarioConfig& config() const { return cfg_; }

 private:
  struct Phase;
  struct WorkerState;

  /// Runs one phase's requests across cfg.threads; returns the measured
  /// wall time of the request loop (thread spawn excluded).
  std::uint64_t run_phase(const Phase& phase);
  std::uint64_t one_request(WorkerState& ws);
  obs::MetricsSnapshot slo_snapshot() const;
  void resolve_exemplars(ScenarioResult& result) const;

  ScenarioConfig cfg_;
  const pairing::ParamSet& group_;
  hash::HmacDrbg rng_;
  ibe::Pkg pkg_;
  std::shared_ptr<mediated::RevocationList> revocations_;
  mediated::IbeMediator ibe_sem_;
  mediated::GdhMediator gdh_sem_;
  // Standby SEM pair for the failover scenario: holds its own (freshly
  // split) key halves for every identity, shares the revocation list.
  mediated::IbeMediator ibe_standby_;
  mediated::GdhMediator gdh_standby_;

  std::vector<std::string> ids_;
  std::vector<ibe::FullCiphertext> cts_;
  std::vector<Bytes> messages_;              // Zipf population
  std::vector<std::vector<int>> zipf_streams_;  // one per thread

  // Per-scenario state, reset by run().
  std::vector<WorkerState> workers_;
  obs::Histogram latency_;
  obs::Histogram* reg_hist_ = nullptr;  // registry mirror of latency_
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> denied_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> tokens_{0};
  std::atomic<bool> primary_up_{true};
  std::atomic<bool> use_batches_{true};
  SimClock vclock_;
  obs::SloEngine slo_;
  std::string scenario_;  // current scenario name (metric prefix)
};

/// Serializes scenario rows into the machine-readable capacity report
/// consumed by tools/capacity_report.py (schema
/// "medcrypt.capacity_report/v1").
std::string capacity_report_json(const std::vector<ScenarioResult>& results,
                                 const ScenarioConfig& cfg);

}  // namespace medcrypt::sim
