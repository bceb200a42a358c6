// Experiment T5 (extension) — SEM service throughput.
//
// The SEM is the paper architecture's one online component: every
// decryption and signature in the system funnels through it, so its
// token throughput bounds system capacity ("the SEM remains online all
// the system's lifetime", §4). This bench drives a single mediator from
// 1..k threads and reports tokens/second per scheme — the capacity-
// planning number a deployment needs (docs/SEM_SERVICE.md), and a
// fairness check that the sharded registry's locking does not serialize
// the group arithmetic: tokens/s should scale with the core count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include <fstream>

#include "bench_util.h"
#include "ec/hash_to_point.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "pairing/params.h"

namespace {

using namespace medcrypt;

/// Runs `fn` from `threads` threads for `ops_per_thread` calls each;
/// returns aggregate tokens per second (`tokens_per_op` > 1 for batch
/// entry points that issue several tokens per call). Thread spawn and
/// the spin-wait rendezvous are excluded from the measured window.
template <typename Fn>
double throughput(int threads, int ops_per_thread, int tokens_per_op,
                  Fn&& fn) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < ops_per_thread; ++i) fn(t, i);
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  // Sample the clock BEFORE publishing `go`: workers synchronize on the
  // release store, so any token issued between the store and a
  // clock-after-store sample would land outside the measured window and
  // overstate throughput (worst at high thread counts, where the gap is
  // a scheduling quantum, not nanoseconds).
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(threads) * ops_per_thread * tokens_per_op / secs;
}

/// Zipf(1.0) rank sampler over [0, n): P(rank k) ∝ 1/(k+1). Models the
/// skew of real identity/message traffic — a short head dominates the
/// request stream, which is exactly the regime the SEM's identity-point
/// cache targets. Deterministic (LCG) so runs are reproducible.
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

}  // namespace

int main() {
  using benchutil::Table;
  benchutil::JsonReport jr("sem_throughput");
  hash::HmacDrbg rng(6001);

  std::printf("== T5 (extension): SEM token throughput @ paper parameters "
              "==\n(hardware threads available: %u)\n\n",
              std::thread::hardware_concurrency());

  // One SEM deployment serving IBE decryption and GDH signing.
  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator ibe_sem(pkg.params(), revocations);
  mediated::GdhMediator gdh_sem(pairing::paper_params(), revocations);

  constexpr int kUsers = 8;
  std::vector<ibe::FullCiphertext> cts;
  std::vector<std::string> ids;
  for (int i = 0; i < kUsers; ++i) {
    ids.push_back("user" + std::to_string(i));
    (void)enroll_ibe_user(pkg, ibe_sem, ids.back(), rng);
    (void)enroll_gdh_user(pairing::paper_params(), gdh_sem, ids.back(), rng);
    Bytes m(32);
    rng.fill(m);
    cts.push_back(ibe::full_encrypt(pkg.params(), ids.back(), m, rng));
  }

  // Batch request list reused by every issue_tokens call: all users, one
  // ciphertext each, issued against a single revocation snapshot.
  std::vector<mediated::IbeMediator::TokenRequest> batch;
  for (int i = 0; i < kUsers; ++i) batch.push_back({ids[i], &cts[i].u});

  // 16-request batch (two fresh ciphertexts per user) paired with a
  // singles row issuing the same 16 tokens one at a time — the batched
  // final-exponentiation inversion is the only difference between them.
  std::vector<ibe::FullCiphertext> cts16;
  for (int i = 0; i < 2 * kUsers; ++i) {
    Bytes m(32);
    rng.fill(m);
    cts16.push_back(ibe::full_encrypt(pkg.params(), ids[i % kUsers], m, rng));
  }
  std::vector<mediated::IbeMediator::TokenRequest> batch16;
  for (int i = 0; i < 2 * kUsers; ++i) {
    batch16.push_back({ids[i % kUsers], &cts16[static_cast<std::size_t>(i)].u});
  }

  // Zipf(1.0) request stream over 256 distinct messages: the realistic
  // skewed-traffic row for the GDH path, where the identity-point cache
  // absorbs the 1.3 ms hash-to-subgroup for every head-of-stream hit.
  // Index sequences are precomputed per thread so sampling cost stays
  // outside the measured window.
  constexpr int kZipfPopulation = 256;
  constexpr int kZipfSamples = 64;
  std::vector<Bytes> zipf_msgs;
  for (int k = 0; k < kZipfPopulation; ++k) {
    zipf_msgs.push_back(str_bytes("doc-" + std::to_string(k)));
  }
  std::vector<std::vector<int>> zipf_streams;
  for (int t = 0; t < 8; ++t) {
    ZipfStream zs(kZipfPopulation, 0x5eedu + static_cast<std::uint64_t>(t));
    std::vector<int> stream(kZipfSamples);
    for (int& k : stream) k = zs.next();
    zipf_streams.push_back(std::move(stream));
  }

  // Replay each thread's Zipf stream once, untimed: a deployment's SEM
  // runs warm, so the timed rows below measure the cache's steady-state
  // hit rate instead of the one-time cold misses of a fresh process.
  for (const auto& stream : zipf_streams) {
    for (const int k : stream) {
      (void)gdh_sem.issue_token(ids[k % kUsers],
                                zipf_msgs[static_cast<std::size_t>(k)]);
    }
  }

  Table t({"scheme (token op)", "threads", "tokens/s", "speedup"});
  const Bytes msg = str_bytes("throughput probe");

  struct Row {
    const char* name;
    int tokens_per_op;
    std::function<void(int, int)> fn;
  };
  for (const Row& row : std::vector<Row>{
           {"BF-IBE (1 prepared pairing)", 1,
            [&](int tid, int i) {
              const int u = (tid + i) % kUsers;
              (void)ibe_sem.issue_token(ids[u], cts[u].u);
            }},
           {"BF-IBE batch (issue_tokens x8)", kUsers,
            [&](int, int) { (void)ibe_sem.issue_tokens(batch); }},
           {"BF-IBE singles x16", 2 * kUsers,
            [&](int, int) {
              for (const auto& r : batch16) {
                (void)ibe_sem.issue_token(r.identity, *r.u);
              }
            }},
           {"BF-IBE batch (issue_tokens x16)", 2 * kUsers,
            [&](int, int) { (void)ibe_sem.issue_tokens(batch16); }},
           {"GDH (hash + scalar mult)", 1,
            [&](int tid, int i) {
              const int u = (tid + i) % kUsers;
              (void)gdh_sem.issue_token(ids[u], msg);
            }},
           {"GDH Zipf(1.0) stream (cached h)", 1,
            [&](int tid, int i) {
              const auto& stream =
                  zipf_streams[static_cast<std::size_t>(tid)];
              const int k = stream[static_cast<std::size_t>(i) % stream.size()];
              (void)gdh_sem.issue_token(
                  ids[k % kUsers], zipf_msgs[static_cast<std::size_t>(k)]);
            }},
       }) {
    double base = 0;
    for (int threads : {1, 2, 4, 8}) {
      // Roughly the same token budget per thread for every row.
      const int tokens_per_thread = threads <= 2 ? 40 : 20;
      const int ops = std::max(1, tokens_per_thread / row.tokens_per_op);
      const double tput = throughput(threads, ops, row.tokens_per_op, row.fn);
      if (threads == 1) base = tput;
      jr.add(std::string("tokens_per_s/") + row.name + "/t" +
                 std::to_string(threads),
             tput, ops, "tokens_per_s");
      char tput_s[32], speedup_s[32];
      std::snprintf(tput_s, sizeof(tput_s), "%.0f", tput);
      std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", tput / base);
      t.add_row({row.name, std::to_string(threads), tput_s, speedup_s});
    }
  }
  t.print();

  std::printf("\nshape check: the registry is sharded (%zu shards, shared "
              "locks on the read path) and the revocation check is one "
              "lookup in an immutable published snapshot, so token issuance "
              "has no serialization "
              "point and aggregate throughput tracks the machine's core "
              "count (flat speedup on a single-core host is expected). "
              "IBE tokens reuse the per-identity Miller-loop precomputation "
              "installed at enrollment. One modest server mediates "
              "thousands of users — a token is needed per decryption/"
              "signature, not per message sent.\n",
              mediated::IbeMediator::kShardCount);

  const auto h1 = ec::identity_point_cache().stats();
  std::printf("\nidentity-point cache: %llu hits / %llu misses / %llu "
              "evictions / %llu invalidations (capacity %zu)\n",
              static_cast<unsigned long long>(h1.hits),
              static_cast<unsigned long long>(h1.misses),
              static_cast<unsigned long long>(h1.evictions),
              static_cast<unsigned long long>(h1.invalidations),
              ec::identity_point_cache().capacity());

  // SLO pass over the run just recorded: a latency objective on the
  // token-issue stage plus an availability objective on issued-vs-denied,
  // published as the sem.slo.* gauge family the metrics-smoke job
  // requires in the archived snapshot.
  obs::SloEngine slo;
  {
    obs::SloSpec lat;
    lat.name = "token_issue_latency";
    lat.objective = 0.99;
    lat.source_histogram = "stage.token_issue_ns";
    lat.threshold_ns = 5'000'000;
    slo.add(std::move(lat));
    obs::SloSpec avail;
    avail.name = "token_issue_availability";
    avail.objective = 0.999;
    avail.good_counter = "sem.tokens_issued";
    avail.bad_counter = "sem.denials";
    slo.add(std::move(avail));
  }
  slo.tick(0, obs::MetricsSnapshot{});
  slo.tick(obs::now_ns(), obs::registry().scrape());
  slo.publish(obs::registry());

  // Live obs scrape of everything the run above recorded (including the
  // SLO gauges just published): the same numbers a deployment would
  // pull from the service, and the snapshot CI's metrics-smoke job
  // validates and archives.
  const obs::MetricsSnapshot snap = obs::registry().scrape();
  std::printf("\n== obs scrape (per-stage latency, us) ==\n");
  std::printf("%-32s %10s %10s %10s %10s\n", "stage", "count", "p50", "p99",
              "max");
  for (const auto& h : snap.histograms) {
    std::printf("%-32s %10llu %10.1f %10.1f %10.1f\n", h.name.c_str(),
                static_cast<unsigned long long>(h.hist.count),
                h.hist.percentile(0.50) / 1e3, h.hist.percentile(0.99) / 1e3,
                static_cast<double>(h.hist.max) / 1e3);
  }
  {
    std::ofstream prom("OBS_sem_throughput.prom");
    prom << obs::to_prometheus(snap);
    std::ofstream json("OBS_sem_throughput.json");
    json << obs::to_json(snap, obs::registry().recent_traces());
  }
  std::printf("obs snapshot written: OBS_sem_throughput.prom / .json\n");
  return 0;
}
