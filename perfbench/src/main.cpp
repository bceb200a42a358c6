// perfbench — one seeded, closed-loop benchmark of the paper's protocols.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--max-ops N] [--trace-out FILE] [--rev REV]
//             [--src-digest HEX]
//
// --trace 0 runs with the obs layer switched off and reports the
// end-to-end metrics. --trace 1 alternates blocks of untraced and traced
// operations (obs on plus the benchmark's own spans around every library
// call) and reports the per-layer metrics. Lines starting with '#' are
// for people; the last line of stdout is the JSON result.
#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/kernels/kernels.h"
#include "ec/hash_to_point.h"
#include "field/fp2.h"
#include "harness.h"
#include "hash/drbg.h"
#include "obs/registry.h"
#include "pairing/params.h"

namespace perfbench {
namespace {

using medcrypt::obs::now_ns;
namespace obs = medcrypt::obs;

// Traced and untraced blocks alternate every kTraceBlock operations, so
// the tracing overhead is measured against neighbours, not another run.
constexpr std::uint64_t kTraceBlock = 5;

// Set-up runs before the operations and, in untraced runs, again after
// them: each time at least kSetupReps times and for at least
// kSetupSeconds, from a cold identity cache. setup_s is the fastest
// set-up, since contention from other tenants only ever slows one, and a
// contended stretch seldom covers both ends of a run.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t max_ops = 0;  // 0 = only the time limit
  std::string trace_out;
  std::string rev = "unknown";
  std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--max-ops N] [--trace-out FILE] "
               "[--rev REV] [--src-digest HEX]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--max-ops") {
      a.max_ops = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--rev") {
      a.rev = val;
    } else if (key == "--src-digest") {
      a.src_digest = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + key).c_str());
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("--workload must name one of the four workloads");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// --- attribution -----------------------------------------------------------

const char* sanitizer_name() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

constexpr bool kCheckedLazy =
#if defined(MEDCRYPT_CHECKED_LAZY) && MEDCRYPT_CHECKED_LAZY
    true;
#else
    false;
#endif

void print_meta(const Args& a) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool baseline = build_type == "Release" &&
                        std::strcmp(sanitizer_name(), "none") == 0 &&
                        !kCheckedLazy && MEDCRYPT_OBS_ENABLED;
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"rev\": \"%s\", \"src_sha256\": \"%s\", \"build_type\": \"%s\", "
      "\"kernel\": \"%s\", \"obs_compiled\": %s, \"sanitizer\": \"%s\", "
      "\"checked_lazy\": %s, \"nproc\": %ld, \"baseline_build\": %s}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      a.trace ? 1 : 0, a.rev.c_str(), a.src_digest.c_str(),
      build_type.c_str(), medcrypt::bigint::kernels::active().name,
      MEDCRYPT_OBS_ENABLED ? "true" : "false", sanitizer_name(),
      kCheckedLazy ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      baseline ? "true" : "false");
  if (!baseline) {
    std::printf("# WARNING: not a baseline build (%s, sanitizer %s, "
                "checked_lazy %d); do not compare its numbers\n",
                build_type.c_str(), sanitizer_name(), kCheckedLazy ? 1 : 0);
  }
}

// --- metrics output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count / base, printed on the '#' line
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-34s %14.4f %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::string count_note(const Percentile& p) {
  return "(n=" + std::to_string(p.count) + ", beyond=" +
         std::to_string(p.beyond) + ")";
}

std::string base_note(const Ratio& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.0f / base %.0f)", r.num, r.base);
  return buf;
}

/// Peak resident set of this process image: VmHWM from /proc/self/status.
/// getrusage's ru_maxrss would not do: Linux carries it across execve, so
/// a small benchmark started from a larger parent (python3 run.py) would
/// report the parent's peak.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

// --- field calibration -----------------------------------------------------

/// Median over `reps` batches of the mean ns per call of `body`.
template <typename Fn>
double calibrate_ns(int reps, int n, Fn&& body) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) body();
    per_call.push_back(static_cast<double>(now_ns() - t0) / n);
  }
  return percentile(per_call, 0.5).value;
}

void field_calibration(std::uint64_t seed, std::vector<Metric>& out) {
  using medcrypt::field::Fp;
  using medcrypt::field::Fp2;
  const auto& field = medcrypt::pairing::paper_params().curve->field();
  medcrypt::hash::HmacDrbg rng(seed ^ 0xF1E1D);
  Fp a = field->random(rng);
  const Fp b = field->random(rng);
  Fp2 x = Fp2::random(field, rng);
  const Fp2 y = Fp2::random(field, rng);
  Fp2 z = Fp2::random(field, rng);
  Fp inv = field->random(rng);
  const Fp square = field->random(rng).square();
  Fp root;
  const int reps = 7;
  const double mul = calibrate_ns(reps, 20000, [&] { a *= b; });
  const double mul2 = calibrate_ns(reps, 10000, [&] { x.mul_inplace(y); });
  const double sqr2 = calibrate_ns(reps, 10000, [&] { z.square_inplace(); });
  const double inverse = calibrate_ns(reps, 100, [&] { inv = inv.inverse(); });
  const double sqrt = calibrate_ns(reps, 100, [&] { root = square.sqrt(); });
  // Keep every result alive so no loop is optimized away.
  volatile std::uint8_t sink = a.to_bytes()[0] ^ x.to_bytes()[0] ^
                               z.to_bytes()[0] ^ inv.to_bytes()[0] ^
                               root.to_bytes()[0];
  (void)sink;
  const std::string note =
      std::string("(calibration, kernel ") +
      medcrypt::bigint::kernels::active().name + ", median of 7 batches)";
  out.push_back({"field.fp_mul_ns", mul, "ns", note});
  out.push_back({"field.fp2_mul_ns", mul2, "ns", note});
  out.push_back({"field.fp2_sqr_ns", sqr2, "ns", note});
  out.push_back({"field.fp_inv_us", inverse / 1e3, "us", note});
  out.push_back({"field.fp_sqrt_us", sqrt / 1e3, "us", note});
}

// --- CPU choice ------------------------------------------------------------

/// Keeps the process on the least contended CPU it may use. On a shared
/// host another tenant's load on the sibling hardware thread of a core
/// slows everything on that core, by up to 1.7× and for tens of seconds
/// at a time, while other CPUs run at full speed. Before the set-ups and
/// then every kRepickNs between operations, the picker times a short
/// Fp-multiply probe (~0.2 ms; 1.3× slower on a contended core) on each
/// allowed CPU and moves the process when another CPU is clearly faster.
/// Probes run outside every timed window.
class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    const auto& field = medcrypt::pairing::paper_params().curve->field();
    a_ = field->from_u64(0x5EED);
    b_ = field->from_u64(0xC0FFEE);
  }

  static constexpr std::uint64_t kRepickNs = 100'000'000;

  /// Re-probes when kRepickNs have passed since the last probe.
  void maybe_repick() {
    if (now_ns() - last_ns_ >= kRepickNs) repick();
  }

  void repick() {
    last_ns_ = now_ns();
    if (cpus_.size() < 2) return;
    ++probes_;
    double best = std::numeric_limits<double>::infinity();
    double here = best;
    int best_cpu = cpus_.front();
    for (const int c : cpus_) {
      pin(c);
      const double ns = probe_ns();
      if (c == current_) here = ns;
      if (ns < best) {
        best = ns;
        best_cpu = c;
      }
    }
    // Stay put unless another CPU is more than 15% faster: a contended
    // core runs the probe ~30% slower, and probe noise stays below 15%.
    if (current_ < 0 || best < 0.85 * here) {
      moves_ += current_ >= 0 && best_cpu != current_ ? 1 : 0;
      current_ = best_cpu;
    }
    pin(current_);
  }

  void report() const {
    std::printf("# cpu: %zu allowed, %llu probes, %llu moves, last on cpu %d\n",
                cpus_.size(), static_cast<unsigned long long>(probes_),
                static_cast<unsigned long long>(moves_), current_);
  }

 private:
  static void pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  // Best of three ~0.2 ms bursts of Fp multiplications.
  double probe_ns() {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t t0 = now_ns();
      for (int i = 0; i < 2000; ++i) a_ *= b_;
      best = std::min(best, static_cast<double>(now_ns() - t0));
    }
    return best;
  }

  std::vector<int> cpus_;
  int current_ = -1;
  std::uint64_t last_ns_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t moves_ = 0;
  medcrypt::field::Fp a_, b_;
};

// --- the run ---------------------------------------------------------------

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<TimedSample> untraced;  // per-op wall time, untraced ops
  std::vector<TimedSample> traced;    // per-op wall time, traced ops
};

std::vector<double> durations(const std::vector<TimedSample>& samples) {
  std::vector<double> out;
  for (const TimedSample& s : samples) out.push_back(s.us);
  return out;
}

RunResult run_ops(const Args& a, Workload& w, Env& env, Recorder& rec,
                  CpuPicker& cpu) {
  RunResult res;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  int failures_shown = 0;
  for (std::uint64_t i = 0;; ++i) {
    if (i > 0 && (now_ns() >= deadline || (a.max_ops != 0 && i >= a.max_ops))) {
      break;
    }
    cpu.maybe_repick();
    const bool traced = a.trace && (i / kTraceBlock) % 2 == 1;
    ++res.attempted;
    bool ok = true;
    std::uint64_t t0 = 0, t1 = 0;
    try {
      w.prepare(env);
      rec.set_op(static_cast<std::uint32_t>(i));
      env.rec = traced ? &rec : nullptr;
      obs::set_enabled(traced);
      t0 = now_ns();
      {
        ScopedSpan op(env.rec, SpanName::kOp);
        w.execute(env);
      }
      t1 = now_ns();
      obs::set_enabled(false);
      env.rec = nullptr;
      w.check(env);
    } catch (const std::exception& e) {
      if (t1 == 0) t1 = now_ns();
      obs::set_enabled(false);
      env.rec = nullptr;
      ok = false;
      if (failures_shown++ < 5) {
        std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                     static_cast<unsigned long long>(i), e.what());
      }
    }
    if (!ok) ++res.failed;
    if (t0 == 0) continue;  // failed before the timed window opened
    (traced ? res.traced : res.untraced)
        .push_back({i, static_cast<double>(t1 - t0) / 1e3});
  }
  return res;
}

const obs::Histogram::Snapshot* find_hist(const obs::MetricsSnapshot& snap,
                                          const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h.hist;
  }
  return nullptr;
}

void write_spans(const std::string& path, const Recorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "op,parent,name,start_ns,end_ns\n");
  for (const SpanRec& s : rec.spans()) {
    std::fprintf(f, "%u,%d,%s,%llu,%llu\n", s.op, s.parent,
                 kSpanNames[s.name], static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

int run(const Args& a) {
  print_meta(a);
  obs::set_enabled(false);
  const std::uint64_t tp = now_ns();
  (void)medcrypt::pairing::paper_params();
  std::printf("# params_load_s %.3f (once per process, not in setup_s)\n",
              static_cast<double>(now_ns() - tp) / 1e9);
  CpuPicker cpu;
  cpu.repick();

  Env env;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const std::size_t reps = setup_s.size() + kSetupReps;
    for (double spent = 0.0; setup_s.size() < reps || spent < kSetupSeconds;) {
      cpu.maybe_repick();
      workload.reset();
      env.inputs = Digest{};
      medcrypt::ec::identity_point_cache().clear();
      const std::uint64_t t0 = now_ns();
      workload = make_workload(a.workload, a.seed, env);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      spent += setup_s.back();
    }
  };
  set_up();

  obs::registry().reset();
  const auto cache0 = medcrypt::ec::identity_point_cache().stats();
  const std::uint64_t denials0 = workload->sem_denials();
  Recorder rec;
  const RunResult res = run_ops(a, *workload, env, rec, cpu);
  cpu.report();
  const auto cache1 = medcrypt::ec::identity_point_cache().stats();
  const std::uint64_t sem_denials = workload->sem_denials() - denials0;
  const obs::MetricsSnapshot snap = obs::registry().scrape();

  const auto& link = env.transport.stats();
  const double ops = static_cast<double>(res.attempted);
  const std::uint64_t wire =
      link.to_server.bytes + link.to_client.bytes + env.extra_wire_bytes;
  const auto stage_count = [&](const char* stage) -> std::uint64_t {
    const obs::Histogram::Snapshot* h =
        find_hist(snap, std::string("stage.") + stage + "_ns");
    return h != nullptr ? h->count : 0;
  };
  std::uint32_t dropped = 0;
  for (const obs::TraceData& t : obs::registry().recent_traces()) {
    dropped += t.dropped;
  }

  std::printf("# %s: attempted=%llu ok=%llu denied=%llu failed=%llu "
              "failed_ratio=%.6f\n",
              a.workload.c_str(), static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.attempted - res.failed),
              static_cast<unsigned long long>(env.denied),
              static_cast<unsigned long long>(res.failed),
              res.attempted ? static_cast<double>(res.failed) / ops : 0.0);
  std::printf(
      "# counts {\"ops\": %llu, \"traced_ops\": %llu, \"denied\": %llu, "
      "\"sem_denials\": %llu, \"cheaters_named\": %llu, \"wire_bytes\": %llu, "
      "\"to_server_bytes\": %llu, \"to_client_bytes\": %llu, "
      "\"miller\": %llu, \"final_exp\": %llu, \"final_exp_batch\": %llu, "
      "\"hash_to_point\": %llu, \"hash_to_point_batch\": %llu, "
      "\"h1_hits\": %llu, \"h1_misses\": %llu, \"dropped_spans\": %u, "
      "\"input_digest\": \"%016llx\"}\n",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.traced.size()),
      static_cast<unsigned long long>(env.denied),
      static_cast<unsigned long long>(sem_denials),
      static_cast<unsigned long long>(env.cheaters_named),
      static_cast<unsigned long long>(wire),
      static_cast<unsigned long long>(link.to_server.bytes),
      static_cast<unsigned long long>(link.to_client.bytes),
      static_cast<unsigned long long>(stage_count("pairing.miller")),
      static_cast<unsigned long long>(stage_count("pairing.final_exp")),
      static_cast<unsigned long long>(stage_count("pairing.final_exp_batch")),
      static_cast<unsigned long long>(stage_count("hash_to_point")),
      static_cast<unsigned long long>(stage_count("hash_to_point_batch")),
      static_cast<unsigned long long>(cache1.hits - cache0.hits),
      static_cast<unsigned long long>(cache1.misses - cache0.misses), dropped,
      static_cast<unsigned long long>(env.inputs.h));

  std::vector<Metric> metrics;
  if (!a.trace) {
    // Timing metrics come per window of window_ops() operations (a whole
    // number of the workload's schedule periods); the run reports its
    // quietest window: the lowest window latency, the highest window rate.
    const std::uint64_t window = workload->window_ops();
    const Percentile p50 = quietest_window_percentile(res.untraced, window, 0.5);
    const Percentile p90 = quietest_window_percentile(res.untraced, window, 0.9);
    const std::vector<double> all = durations(res.untraced);
    std::printf("# whole-run p50 %.1f us, p90 %.1f us; %zu windows of %llu ops\n",
                percentile(all, 0.5).value, percentile(all, 0.9).value,
                split_windows(res.untraced, window).size(),
                static_cast<unsigned long long>(window));
    const double rss = peak_rss_mib();
    set_up();  // the after-run set-ups; every count above is already taken
    const Percentile setup = percentile(setup_s, 0.0);
    const Ratio ok{ops - static_cast<double>(res.failed), ops};
    metrics.push_back({"op_p50_us", p50.value, "us", count_note(p50)});
    metrics.push_back({"op_p90_us", p90.value, "us", count_note(p90)});
    metrics.push_back({"ops_per_s", quietest_window_rate(res.untraced, window),
                       "1/s", "(ops / time inside the ops, best window)"});
    metrics.push_back({"wire_bytes_per_op", static_cast<double>(wire) / ops,
                       "bytes", base_note(Ratio{static_cast<double>(wire), ops})});
    metrics.push_back({"ok_ratio", ok.value(), "ratio", base_note(ok)});
    metrics.push_back({"setup_s", setup.value, "s",
                       "(fastest of " + std::to_string(setup.count) + " set-ups)"});
    metrics.push_back({"peak_rss_mb", rss, "MiB", "(VmHWM, before the after-run set-ups)"});
  } else {
    const double traced = static_cast<double>(res.traced.size());
    // Benchmark spans: median duration per library call.
    std::map<std::uint16_t, std::vector<double>> span_us;
    std::vector<double> glue_us;
    const std::vector<std::uint64_t> self = self_times(rec.spans());
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const SpanRec& s = rec.spans()[i];
      if (s.name == static_cast<std::uint16_t>(SpanName::kOp)) {
        glue_us.push_back(static_cast<double>(self[i]) / 1e3);
      } else {
        span_us[s.name].push_back(static_cast<double>(s.dur_ns()) / 1e3);
      }
    }
    const auto span_metric = [&](const char* metric, SpanName name) {
      const Percentile p =
          percentile(span_us[static_cast<std::uint16_t>(name)], 0.5);
      metrics.push_back({metric, p.value, "us", "(span p50, " + count_note(p) + ")"});
    };
    // Library stage histograms (obs on in traced blocks only).
    const auto stage_metric = [&](const char* metric, const char* stage) {
      const obs::Histogram::Snapshot* h =
          find_hist(snap, std::string("stage.") + stage + "_ns");
      const double v = h != nullptr ? h->percentile(0.5) / 1e3 : 0.0;
      metrics.push_back({metric, v, "us",
                         "(stage p50, n=" +
                             std::to_string(h != nullptr ? h->count : 0) + ")"});
    };
    const auto per_op = [&](const char* metric, const char* stage) {
      const Ratio r{static_cast<double>(stage_count(stage)), traced};
      metrics.push_back({metric, r.value(), "count/op", base_note(r)});
    };

    cpu.repick();
    field_calibration(a.seed, metrics);
    stage_metric("pairing.miller_us", "pairing.miller");
    stage_metric("pairing.final_exp_us", "pairing.final_exp");
    stage_metric("pairing.final_exp_batch_us", "pairing.final_exp_batch");
    per_op("pairing.miller_per_op", "pairing.miller");
    per_op("pairing.final_exp_per_op", "pairing.final_exp");
    stage_metric("ec.hash_to_point_us", "hash_to_point");
    stage_metric("ec.hash_to_point_batch_us", "hash_to_point_batch");
    per_op("ec.hash_to_point_per_op", "hash_to_point");
    stage_metric("ec.scalar_mul_us", "scalar_mul");
    span_metric("ec.decompress_us", SpanName::kEcDecompress);
    const Ratio hit{static_cast<double>(cache1.hits - cache0.hits),
                    static_cast<double>(cache1.hits - cache0.hits +
                                        cache1.misses - cache0.misses)};
    metrics.push_back({"ec.h1_cache_hit_ratio", hit.value(), "ratio",
                       base_note(hit)});
    const Ratio inval{
        static_cast<double>(cache1.invalidations - cache0.invalidations), ops};
    metrics.push_back({"ec.h1_cache_invalidations_per_kop", inval.per(1000),
                       "1/kop", base_note(inval)});
    span_metric("ibe.encrypt_us", SpanName::kIbeEncrypt);
    span_metric("ibe.ct_decode_us", SpanName::kIbeCtDecode);
    span_metric("mediated.decrypt_us", SpanName::kMediatedDecrypt);
    span_metric("mediated.sign_us", SpanName::kMediatedSign);
    stage_metric("mediated.token_issue_us", "token_issue");
    span_metric("mediated.ibe_batch_us", SpanName::kMediatedIbeBatch);
    span_metric("mediated.gdh_batch_us", SpanName::kMediatedGdhBatch);
    span_metric("mediated.revoke_us", SpanName::kMediatedRevoke);
    const Ratio denials{static_cast<double>(sem_denials), ops};
    metrics.push_back({"mediated.denials_per_kop", denials.per(1000), "1/kop",
                       base_note(denials)});
    span_metric("gdh.verify_us", SpanName::kGdhVerify);
    span_metric("gdh.sig_decode_us", SpanName::kGdhSigDecode);
    span_metric("threshold.share_us", SpanName::kThresholdShare);
    span_metric("threshold.share_decode_us", SpanName::kThresholdShareDecode);
    span_metric("threshold.select_us", SpanName::kThresholdSelect);
    span_metric("threshold.combine_us", SpanName::kThresholdCombine);
    metrics.push_back({"threshold.cheaters_named",
                       static_cast<double>(env.cheaters_named), "count",
                       "(cheating responders excluded)"});
    const Ratio to_server{static_cast<double>(link.to_server.bytes), ops};
    const Ratio to_client{static_cast<double>(link.to_client.bytes), ops};
    metrics.push_back({"sim.bytes_to_server_per_op", to_server.value(),
                       "bytes/op", base_note(to_server)});
    metrics.push_back({"sim.bytes_to_client_per_op", to_client.value(),
                       "bytes/op", base_note(to_client)});
    const Percentile on = percentile(durations(res.traced), 0.5);
    const Percentile off = percentile(durations(res.untraced), 0.5);
    const double overhead =
        off.value > 0 ? (on.value / off.value - 1.0) * 100.0 : 0.0;
    metrics.push_back({"obs.trace_overhead_pct", overhead, "%",
                       "(traced p50 " + count_note(on) + " vs untraced p50 " +
                           count_note(off) + ")"});
    metrics.push_back({"obs.dropped_spans", static_cast<double>(dropped),
                       "count", "(sum of TraceData::dropped over the ring)"});
    const Percentile glue = percentile(glue_us, 0.5);
    metrics.push_back({"glue.self_us", glue.value, "us",
                       "(op span minus children, " + count_note(glue) + ")"});
    if (!a.trace_out.empty()) write_spans(a.trace_out, rec);
  }
  print_result(res.failed == 0, res.attempted, res.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
