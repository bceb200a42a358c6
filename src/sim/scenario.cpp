#include "sim/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <thread>

#include "common/error.h"
#include "ibe/boneh_franklin.h"
#include "obs/span.h"

namespace medcrypt::sim {

namespace {

/// Zipf(1.0) rank sampler over [0, n): P(rank k) ∝ 1/(k+1), the skew of
/// real identity/message traffic. Deterministic (LCG) so scenario runs
/// are reproducible.
class ZipfStream {
 public:
  ZipfStream(int n, std::uint64_t seed)
      : cdf_(static_cast<std::size_t>(n)), state_(seed) {
    double sum = 0;
    for (int k = 0; k < n; ++k) {
      sum += 1.0 / (k + 1);
      cdf_[static_cast<std::size_t>(k)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state_ >> 11) * 0x1.0p-53;
    return static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  std::uint64_t state_;
};

/// Restores the global trace-sampling shift on scope exit (the harness
/// densifies sampling so exemplars stay resolvable, then puts the
/// process default back even if a scenario throws).
struct SampleShiftGuard {
  unsigned saved = obs::trace_sample_shift();
  explicit SampleShiftGuard(unsigned shift) {
    obs::set_trace_sample_shift(shift);
  }
  ~SampleShiftGuard() { obs::set_trace_sample_shift(saved); }
};

}  // namespace

struct ScenarioRunner::Phase {
  int ops = 0;
  double rate = 1.0;      // arrival-rate multiplier (virtual time only)
  bool batches = true;    // mix issue_tokens batches into the traffic
  std::function<void()> action;  // control-plane event before the phase
};

struct ScenarioRunner::WorkerState {
  int thread_id = 0;
  std::size_t pos = 0;    // position in this thread's Zipf stream
  std::uint64_t seq = 0;  // request sequence (kind mixing + routing)
  Transport transport;    // per-worker accounting (no shared clock)
};

ScenarioRunner::ScenarioRunner(ScenarioConfig cfg)
    : cfg_(cfg),
      group_(cfg.group != nullptr ? *cfg.group : pairing::paper_params()),
      rng_(cfg.seed),
      pkg_(group_, 32, rng_),
      revocations_(std::make_shared<mediated::RevocationList>()),
      ibe_sem_(pkg_.params(), revocations_),
      gdh_sem_(group_, revocations_),
      ibe_standby_(pkg_.params(), revocations_),
      gdh_standby_(group_, revocations_) {
  cfg_.users = std::max(2, cfg_.users);
  cfg_.ops = std::max(8, cfg_.ops);
  cfg_.threads = std::max(1, cfg_.threads);
  cfg_.batch = std::max(2, cfg_.batch);
  cfg_.zipf_population = std::max(cfg_.users, cfg_.zipf_population);

  // Enrollment (the offline PKG/TA work): every identity gets key
  // halves in the primary SEM pair and an independent split in the
  // standby pair, so failover has real keys to serve from.
  for (int i = 0; i < cfg_.users; ++i) {
    ids_.push_back("user" + std::to_string(i));
    (void)mediated::enroll_ibe_user(pkg_, ibe_sem_, ids_.back(), rng_);
    (void)mediated::enroll_gdh_user(group_, gdh_sem_, ids_.back(), rng_);
    (void)mediated::enroll_ibe_user(pkg_, ibe_standby_, ids_.back(), rng_);
    (void)mediated::enroll_gdh_user(group_, gdh_standby_, ids_.back(), rng_);
    Bytes m(32);
    rng_.fill(m);
    cts_.push_back(ibe::full_encrypt(pkg_.params(), ids_.back(), m, rng_));
  }
  for (int k = 0; k < cfg_.zipf_population; ++k) {
    const std::string doc = "doc-" + std::to_string(k);
    messages_.emplace_back(doc.begin(), doc.end());
  }
  for (int t = 0; t < cfg_.threads; ++t) {
    ZipfStream zs(cfg_.zipf_population,
                  cfg_.seed + 0x9e37u + static_cast<std::uint64_t>(t));
    std::vector<int> stream(1024);
    for (int& k : stream) k = zs.next();
    zipf_streams_.push_back(std::move(stream));
  }
}

ScenarioRunner::~ScenarioRunner() = default;

const std::vector<std::string>& ScenarioRunner::scenario_names() {
  static const std::vector<std::string> kNames = {
      "steady", "diurnal", "revocation_storm", "failover"};
  return kNames;
}

std::uint64_t ScenarioRunner::one_request(WorkerState& ws) {
  const std::uint64_t seq = ws.seq++;
  const int kind = static_cast<int>(seq % 4);
  const auto& stream = zipf_streams_[static_cast<std::size_t>(ws.thread_id)];
  const int zipf = stream[ws.pos++ % stream.size()];
  const std::size_t users = ids_.size();

  requests_.fetch_add(1);

  // The request's end-to-end trace, armed deterministically every 4th
  // request (explicit shift 0 = "always" for the armed ones) rather
  // than through TraceScope's shared sampling tick — the mediator
  // entry-point scopes advance that tick on untraced requests, which
  // would drift the 1-in-N alignment off this call site entirely. The
  // mediator's own scope demotes under an armed one, so batch fan-in
  // spans, cache baggage and the latency exemplar all land in a single
  // trace.
  std::optional<obs::TraceScope> trace;
  if (seq % 4 == 0) trace.emplace("scenario.request", 0u);
  const FrameHeader frame{obs::TraceContext::current()};

  // Failover routing: even sequence numbers go to the primary pair.
  // A request routed at a dark primary burns one failed attempt (and
  // the availability budget), then retries against the standby.
  const bool route_primary = (seq & 1) == 0;
  // An IBE request carries the identity and U as a compressed point.
  const std::uint64_t u_bytes = group_.curve->compressed_size();
  bool retried = false;
  if (route_primary && !primary_up_.load()) {
    failed_.fetch_add(1);
    retries_.fetch_add(1);
    obs::trace_annotate("retry");
    // The timed-out attempt.
    ws.transport.send_to_server(ids_[0].size() + u_bytes, frame);
    retried = true;
  }
  const bool use_primary = route_primary && !retried;
  const mediated::IbeMediator& ibe = use_primary ? ibe_sem_ : ibe_standby_;
  const mediated::GdhMediator& gdh = use_primary ? gdh_sem_ : gdh_standby_;

  // An IBE token crosses the wire as one F_p element (field::gt_to_bytes).
  const std::uint64_t token_bytes = group_.curve->field()->byte_size();
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t issued = 0;
  bool was_denied = false;
  try {
    if (kind == 0 && use_batches_.load()) {
      // Batched fan-in: one client aggregates cfg.batch token requests
      // into a single issue_tokens call (one revocation snapshot; each
      // token is computed as issue_token computes it).
      const std::size_t batch = static_cast<std::size_t>(cfg_.batch);
      const std::size_t start = (seq * batch) % users;
      std::vector<mediated::IbeMediator::TokenRequest> reqs;
      reqs.reserve(batch);
      std::uint64_t payload = 0;
      for (std::size_t j = 0; j < batch; ++j) {
        const std::size_t idx = (start + j) % users;
        reqs.push_back({ids_[idx], &cts_[idx].u});
        payload += ids_[idx].size() + u_bytes;
      }
      ws.transport.send_to_server(payload, frame);
      const auto results = ibe.issue_tokens(reqs);
      for (const auto& r : results) {
        if (r.has_value()) ++issued;
      }
      ws.transport.send_to_client(issued * token_bytes, frame);
      was_denied = issued < results.size();
    } else if (kind == 2) {
      // IBE single: one prepared-pairing token for a Zipf-picked user.
      const std::size_t idx = static_cast<std::size_t>(zipf) % users;
      ws.transport.send_to_server(ids_[idx].size() + u_bytes, frame);
      (void)ibe.issue_token(ids_[idx], cts_[idx].u);
      ws.transport.send_to_client(token_bytes, frame);
      issued = 1;
    } else {
      // GDH single: Zipf-skewed message stream through the identity-
      // point cache (epoch churn during storms shows up right here).
      const std::size_t idx = static_cast<std::size_t>(zipf) % users;
      const Bytes& msg = messages_[static_cast<std::size_t>(zipf)];
      ws.transport.send_to_server(ids_[idx].size() + msg.size(), frame);
      (void)gdh.issue_token(ids_[idx], msg);
      ws.transport.send_to_client(64, frame);
      issued = 1;
    }
  } catch (const RevokedError&) {
    was_denied = true;
  } catch (const Error&) {
    failed_.fetch_add(1);
    const std::uint64_t dur = obs::now_ns() - t0;
    latency_.record(dur);
    if (reg_hist_ != nullptr) reg_hist_->record(dur);
    return dur;
  }

  tokens_.fetch_add(issued);
  // Revocation denials are *intended* behavior: a fully denied request
  // counts as denied (and never against the availability SLO); a batch
  // that still issued some tokens counts as served.
  if (was_denied && issued == 0) {
    denied_.fetch_add(1);
  } else {
    ok_.fetch_add(1);
  }
  const std::uint64_t dur = obs::now_ns() - t0;
  // Recorded inside the TraceScope, so the histogram's exemplar slots
  // capture this request's trace id when it was sampled.
  latency_.record(dur);
  if (reg_hist_ != nullptr) reg_hist_->record(dur);
  return dur;
}

std::uint64_t ScenarioRunner::run_phase(const Phase& phase) {
  const int threads = cfg_.threads;
  std::vector<int> ops_per(static_cast<std::size_t>(threads),
                           phase.ops / threads);
  for (int i = 0; i < phase.ops % threads; ++i) {
    ops_per[static_cast<std::size_t>(i)]++;
  }
  if (threads == 1) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < phase.ops; ++i) (void)one_request(workers_[0]);
    const auto end = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  }
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      WorkerState& ws = workers_[static_cast<std::size_t>(t)];
      for (int i = 0; i < ops_per[static_cast<std::size_t>(t)]; ++i) {
        (void)one_request(ws);
      }
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  // Clock before the release store, as in bench_sem_throughput: work
  // done between the store and a later clock sample must not leak out
  // of the measured window.
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

obs::MetricsSnapshot ScenarioRunner::slo_snapshot() const {
  const std::string prefix = "scenario." + scenario_;
  obs::MetricsSnapshot snap;
  snap.counters.push_back(
      {prefix + ".ok", ok_.load()});
  snap.counters.push_back(
      {prefix + ".failed", failed_.load()});
  snap.histograms.push_back({prefix + ".latency_ns", latency_.snapshot()});
  return snap;
}

void ScenarioRunner::resolve_exemplars(ScenarioResult& result) const {
  const obs::Histogram::Snapshot snap = latency_.snapshot();
  const std::vector<obs::TraceData> recent = obs::registry().recent_traces();
  for (const auto& ex : snap.exemplars) {
    if (ex.trace_id == 0) continue;
    result.exemplars.push_back(
        {ex.trace_id, static_cast<double>(ex.value) / 1e3});
    for (const obs::TraceData& t : recent) {
      if (t.trace_id != ex.trace_id) continue;
      TraceDump dump;
      dump.trace_id = t.trace_id;
      dump.parent_id = t.parent_id;
      dump.pipeline = t.pipeline;
      dump.total_us = static_cast<double>(t.total_ns) / 1e3;
      dump.dropped = t.dropped;
      for (std::uint32_t s = 0; s < t.stage_count; ++s) {
        dump.stages.push_back(
            {obs::stage_name(t.stages[s].stage),
             static_cast<double>(t.stages[s].offset_ns) / 1e3,
             static_cast<double>(t.stages[s].dur_ns) / 1e3});
      }
      for (std::uint32_t b = 0; b < t.baggage_count; ++b) {
        dump.baggage.emplace_back(t.baggage[b].name, t.baggage[b].value);
      }
      result.exemplar_traces.push_back(std::move(dump));
      break;
    }
  }
}

ScenarioResult ScenarioRunner::run(std::string_view name) {
  const auto& names = scenario_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw InvalidArgument("ScenarioRunner: unknown scenario '" +
                          std::string(name) + "'");
  }
  scenario_ = std::string(name);

  // Reset per-scenario state.
  latency_.reset();
  reg_hist_ = &obs::registry().histogram("scenario." + scenario_ +
                                         ".latency_ns");
  requests_.store(0);
  ok_.store(0);
  denied_.store(0);
  failed_.store(0);
  retries_.store(0);
  tokens_.store(0);
  primary_up_.store(true);
  use_batches_.store(true);
  vclock_ = SimClock{};
  workers_.clear();
  for (int t = 0; t < cfg_.threads; ++t) {
    WorkerState ws;
    ws.thread_id = t;
    workers_.push_back(std::move(ws));
  }

  const std::string prefix = "scenario." + scenario_;
  slo_ = obs::SloEngine();
  {
    obs::SloSpec latency;
    latency.name = scenario_ + "_latency";
    latency.objective = cfg_.latency_objective;
    latency.source_histogram = prefix + ".latency_ns";
    latency.threshold_ns = cfg_.latency_threshold_ns;
    slo_.add(std::move(latency));
    obs::SloSpec avail;
    avail.name = scenario_ + "_availability";
    avail.objective = cfg_.availability_objective;
    avail.good_counter = prefix + ".ok";
    avail.bad_counter = prefix + ".failed";
    slo_.add(std::move(avail));
  }

  // Build the phase plan. Ops fractions sum to ~1; every phase ends
  // with an SLO tick on the virtual timeline.
  const auto frac = [&](double f) {
    return std::max(1, static_cast<int>(static_cast<double>(cfg_.ops) * f));
  };
  std::vector<Phase> plan;
  if (scenario_ == "steady") {
    for (int i = 0; i < 8; ++i) {
      plan.push_back({frac(1.0 / 8), 1.0, true, nullptr});
    }
  } else if (scenario_ == "diurnal") {
    // A day in 12 phases: troughs idle (slow arrivals, no batching),
    // peaks saturate (fast arrivals, batch-heavy).
    static constexpr double kCurve[12] = {0.30, 0.40, 0.60, 0.85, 1.00, 1.00,
                                          0.95, 0.80, 0.60, 0.45, 0.35, 0.30};
    for (const double rate : kCurve) {
      plan.push_back({frac(rate / 7.0), rate, rate >= 0.8, nullptr});
    }
  } else if (scenario_ == "revocation_storm") {
    const int head_count = cfg_.users / 2;
    plan.push_back({frac(0.15), 1.0, true, nullptr});
    plan.push_back({frac(0.15), 1.0, true, nullptr});
    plan.push_back({frac(0.15), 1.0, true, [this, head_count] {
                      // Mass compromise: the Zipf head is revoked, so
                      // most of the request stream starts bouncing and
                      // the epoch bump flushes the identity caches.
                      for (int i = 0; i < head_count; ++i) {
                        revocations_->revoke(ids_[static_cast<std::size_t>(i)]);
                      }
                    }});
    plan.push_back({frac(0.15), 1.0, true, nullptr});
    plan.push_back({frac(0.20), 1.0, true, [this, head_count] {
                      for (int i = 0; i < head_count; ++i) {
                        revocations_->unrevoke(
                            ids_[static_cast<std::size_t>(i)]);
                      }
                    }});
    plan.push_back({frac(0.20), 1.0, true, nullptr});
  } else {  // failover
    const int quarter = std::max(1, cfg_.users / 4);
    plan.push_back({frac(0.20), 1.0, true, nullptr});
    plan.push_back({frac(0.10), 1.0, true, [this, quarter] {
                      // The storm begins...
                      for (int i = 0; i < quarter; ++i) {
                        revocations_->revoke(ids_[static_cast<std::size_t>(i)]);
                      }
                    }});
    plan.push_back({frac(0.15), 1.0, true, [this] {
                      // ...and mid-storm the primary SEM goes dark.
                      primary_up_.store(false);
                    }});
    plan.push_back({frac(0.15), 1.0, true, nullptr});
    plan.push_back({frac(0.20), 1.0, true, [this, quarter] {
                      primary_up_.store(true);
                      for (int i = 0; i < quarter; ++i) {
                        revocations_->unrevoke(
                            ids_[static_cast<std::size_t>(i)]);
                      }
                    }});
    plan.push_back({frac(0.20), 1.0, true, nullptr});
  }

  // Densify trace sampling (1/4) for the scenario window so the top
  // exemplars stay resolvable in the 128-entry ring; restored on exit.
  SampleShiftGuard shift_guard(2);

  slo_.tick(vclock_.now_ns(), slo_snapshot());  // baseline sample at t=0
  std::uint64_t wall_ns = 0;
  for (const Phase& phase : plan) {
    if (phase.action) phase.action();
    use_batches_.store(phase.batches);
    wall_ns += run_phase(phase);
    // Arrivals advance the virtual timeline: rate r packs the same ops
    // into 1/r of the time (peak traffic = denser arrivals).
    vclock_.advance_ns(static_cast<std::uint64_t>(
        static_cast<double>(phase.ops) *
        static_cast<double>(cfg_.virtual_ns_per_op) / phase.rate));
    slo_.tick(vclock_.now_ns(), slo_snapshot());
  }

  ScenarioResult result;
  result.name = scenario_;
  result.threads = cfg_.threads;
  result.requests = requests_.load();
  result.tokens = tokens_.load();
  result.ok = ok_.load();
  result.denied = denied_.load();
  result.failed = failed_.load();
  result.retries = retries_.load();
  result.wall_s = static_cast<double>(wall_ns) / 1e9;
  if (result.wall_s > 0) {
    result.tokens_per_s =
        static_cast<double>(result.tokens) / result.wall_s;
    result.tokens_per_s_per_core =
        result.tokens_per_s / static_cast<double>(cfg_.threads);
  }
  const obs::Histogram::Snapshot lat = latency_.snapshot();
  result.p50_us = lat.percentile(0.50) / 1e3;
  result.p99_us = lat.percentile(0.99) / 1e3;
  result.max_us = static_cast<double>(lat.max) / 1e3;
  const std::uint64_t attempts = result.ok + result.failed;
  result.availability =
      attempts == 0 ? 1.0
                    : static_cast<double>(result.ok) /
                          static_cast<double>(attempts);
  for (const obs::SloEngine::Report& r : slo_.report()) {
    if (r.name == scenario_ + "_latency") result.latency_slo = r;
    if (r.name == scenario_ + "_availability") result.availability_slo = r;
  }
  resolve_exemplars(result);
  return result;
}

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

void append_slo(std::string& out, const obs::SloEngine::Report& r) {
  appendf(out,
          "{\"objective\": %.6f, \"availability\": %.6f, "
          "\"budget_consumed\": %.4f, \"burn\": {",
          r.objective, r.availability, r.budget_consumed);
  for (std::size_t i = 0; i < r.burns.size(); ++i) {
    appendf(out, "%s\"%s\": %.4f", i ? ", " : "", r.burns[i].window.c_str(),
            r.burns[i].rate);
  }
  out += "}}";
}

}  // namespace

std::string capacity_report_json(const std::vector<ScenarioResult>& results,
                                 const ScenarioConfig& cfg) {
  std::string out = "{\n";
  out += "  \"schema\": \"medcrypt.capacity_report/v1\",\n";
  appendf(out,
          "  \"config\": {\"users\": %d, \"ops\": %d, \"threads\": %d, "
          "\"batch\": %d},\n",
          cfg.users, cfg.ops, cfg.threads, cfg.batch);
  out += "  \"scenarios\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    appendf(out, "%s\n    {\"name\": \"%s\",\n", i ? "," : "",
            r.name.c_str());
    appendf(out,
            "     \"requests\": %" PRIu64 ", \"tokens\": %" PRIu64
            ", \"ok\": %" PRIu64 ", \"denied\": %" PRIu64
            ", \"failed\": %" PRIu64 ", \"retries\": %" PRIu64 ",\n",
            r.requests, r.tokens, r.ok, r.denied, r.failed, r.retries);
    appendf(out,
            "     \"wall_s\": %.3f, \"tokens_per_s\": %.1f, "
            "\"tokens_per_s_per_core\": %.1f,\n",
            r.wall_s, r.tokens_per_s, r.tokens_per_s_per_core);
    appendf(out,
            "     \"latency_us\": {\"p50\": %.1f, \"p99\": %.1f, "
            "\"max\": %.1f},\n",
            r.p50_us, r.p99_us, r.max_us);
    appendf(out, "     \"availability\": %.6f,\n", r.availability);
    out += "     \"slo\": {\"latency\": ";
    append_slo(out, r.latency_slo);
    out += ", \"availability\": ";
    append_slo(out, r.availability_slo);
    out += "},\n     \"exemplars\": [";
    for (std::size_t e = 0; e < r.exemplars.size(); ++e) {
      appendf(out, "%s{\"trace_id\": \"%016" PRIx64 "\", \"value_us\": %.1f}",
              e ? ", " : "", r.exemplars[e].trace_id,
              r.exemplars[e].value_us);
    }
    out += "],\n     \"exemplar_traces\": [";
    for (std::size_t t = 0; t < r.exemplar_traces.size(); ++t) {
      const TraceDump& d = r.exemplar_traces[t];
      appendf(out,
              "%s\n      {\"trace_id\": \"%016" PRIx64
              "\", \"parent_id\": \"%016" PRIx64
              "\", \"pipeline\": \"%s\", \"total_us\": %.1f, \"dropped\": %u, "
              "\"stages\": [",
              t ? "," : "", d.trace_id, d.parent_id, d.pipeline.c_str(),
              d.total_us, static_cast<unsigned>(d.dropped));
      for (std::size_t s = 0; s < d.stages.size(); ++s) {
        appendf(out,
                "%s{\"stage\": \"%s\", \"offset_us\": %.1f, "
                "\"dur_us\": %.1f}",
                s ? ", " : "", d.stages[s].stage.c_str(),
                d.stages[s].offset_us, d.stages[s].dur_us);
      }
      out += "], \"baggage\": {";
      for (std::size_t b = 0; b < d.baggage.size(); ++b) {
        appendf(out, "%s\"%s\": %" PRIu64, b ? ", " : "",
                d.baggage[b].first.c_str(), d.baggage[b].second);
      }
      out += "}}";
    }
    out += r.exemplar_traces.empty() ? "]}" : "\n     ]}";
  }
  out += results.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace medcrypt::sim
