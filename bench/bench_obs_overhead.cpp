// Obs-overhead guard — the "<2% recording cost" acceptance gate,
// measured on the workload that matters: SEM token issuance
// (bench_sem_throughput's hot loop).
//
// Methodology: one binary, two phases. Phase A runs IBE + GDH token
// issuance with recording live; phase B flips obs::set_enabled(false)
// (the runtime kill switch) and repeats. Both phases execute the
// identical instruction stream except for the recording bodies, so the
// delta isolates the cost of recording itself: per issuance, a handful
// of relaxed fetch_adds and two steady_clock reads per span. Medians
// over several rounds absorb scheduler noise.
//
// MEDCRYPT_OBS_GUARD=strict turns the 2% budget into the exit code; the
// default is report-only because sub-2% deltas on a loaded CI box are
// routinely swamped by scheduler noise on a ~100ns-resolution effect.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "obs/span.h"
#include "pairing/params.h"

namespace {

using namespace medcrypt;

// One timed round of `ops` calls, in ns per op.
template <typename Fn>
double round_ns_per_op(int ops, Fn&& fn) {
  const std::uint64_t start = obs::now_ns();
  for (int i = 0; i < ops; ++i) fn(i);
  return static_cast<double>(obs::now_ns() - start) / ops;
}

// Best (fastest) round. The recording overhead is deterministic work
// added to every op, so it survives a min; background interference is
// additive noise, which a min suppresses far better than a median on
// a handful of samples.
double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

}  // namespace

int main() {
  benchutil::JsonReport jr("obs_overhead");
  hash::HmacDrbg rng(7001);

  std::printf("== obs overhead guard: token issuance, recording ON vs OFF "
              "==\n\n");

  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator ibe_sem(pkg.params(), revocations);
  mediated::GdhMediator gdh_sem(pairing::paper_params(), revocations);

  constexpr int kUsers = 4;
  std::vector<std::string> ids;
  std::vector<ibe::FullCiphertext> cts;
  for (int i = 0; i < kUsers; ++i) {
    ids.push_back("user" + std::to_string(i));
    (void)enroll_ibe_user(pkg, ibe_sem, ids.back(), rng);
    (void)enroll_gdh_user(pairing::paper_params(), gdh_sem, ids.back(), rng);
    Bytes m(32);
    rng.fill(m);
    cts.push_back(ibe::full_encrypt(pkg.params(), ids.back(), m, rng));
  }
  const Bytes msg = str_bytes("overhead probe");

  const int rounds = benchutil::bench_iters(7);
  const int ops = benchutil::bench_iters(40);

  struct Row {
    const char* name;
    // Global trace-sampling shift during this row's ON phase: 4 is the
    // process default (1 trace in 16); 0 arms a full TraceScope — trace
    // allocation, span appends, ring push, exemplar capture — on EVERY
    // issuance, so the guard bounds the worst-case tracing tax, not
    // just the sampled-out common case. The OFF phase disarms tracing
    // along with everything else, so the delta isolates it.
    unsigned sample_shift;
    std::function<void(int)> fn;
  };
  const std::vector<Row> rows{
      {"ibe_issue_token", 4,
       [&](int i) { (void)ibe_sem.issue_token(ids[i % kUsers],
                                              cts[i % kUsers].u); }},
      {"gdh_issue_token", 4,
       [&](int i) { (void)gdh_sem.issue_token(ids[i % kUsers], msg); }},
      {"ibe_issue_token_traced", 0,
       [&](int i) { (void)ibe_sem.issue_token(ids[i % kUsers],
                                              cts[i % kUsers].u); }},
      {"gdh_issue_token_traced", 0,
       [&](int i) { (void)gdh_sem.issue_token(ids[i % kUsers], msg); }},
  };

  benchutil::Table t({"workload", "on ns/op", "off ns/op", "delta"});
  double worst_delta_pct = 0.0;
  const unsigned default_shift = obs::trace_sample_shift();
  for (const Row& row : rows) {
    obs::set_trace_sample_shift(row.sample_shift);
    // Warm every lazy path (registry init, map nodes, page faults) and
    // let the CPU ramp out of its idle frequency state in both modes
    // before timing, then *interleave* ON and OFF rounds so remaining
    // slow drift (thermal, background load) hits both phases equally
    // instead of biasing whichever ran first.
    for (int w = 0; w < 2; ++w) {
      obs::set_enabled(w == 0);
      (void)round_ns_per_op(std::max(ops / 2, 4), row.fn);
    }
    std::vector<double> on_samples, off_samples;
    for (int r = 0; r < rounds; ++r) {
      obs::set_enabled(true);
      on_samples.push_back(round_ns_per_op(ops, row.fn));
      obs::set_enabled(false);
      off_samples.push_back(round_ns_per_op(ops, row.fn));
    }
    obs::set_enabled(true);
    const double on_ns = best(on_samples);
    const double off_ns = best(off_samples);

    const double delta_pct = (on_ns - off_ns) / off_ns * 100.0;
    worst_delta_pct = std::max(worst_delta_pct, delta_pct);
    jr.add(std::string("ns_per_op/") + row.name + "/obs_on", on_ns, ops,
           "ns");
    jr.add(std::string("ns_per_op/") + row.name + "/obs_off", off_ns, ops,
           "ns");
    char on_s[32], off_s[32], delta_s[32];
    std::snprintf(on_s, sizeof(on_s), "%.0f", on_ns);
    std::snprintf(off_s, sizeof(off_s), "%.0f", off_ns);
    std::snprintf(delta_s, sizeof(delta_s), "%+.2f%%", delta_pct);
    t.add_row({row.name, on_s, off_s, delta_s});
  }
  obs::set_trace_sample_shift(default_shift);
  t.print();

  constexpr double kBudgetPct = 2.0;
  std::printf("\nworst delta: %+.2f%% (budget: %.1f%%)\n", worst_delta_pct,
              kBudgetPct);
  const char* guard = std::getenv("MEDCRYPT_OBS_GUARD");
  const bool strict = guard != nullptr && std::strcmp(guard, "strict") == 0;
  if (worst_delta_pct > kBudgetPct) {
    std::printf("%s: recording overhead exceeds budget\n",
                strict ? "FAIL" : "WARN (set MEDCRYPT_OBS_GUARD=strict to "
                                  "enforce)");
    if (strict) return 1;
  } else {
    std::printf("OK: recording overhead within budget\n");
  }
  return 0;
}
