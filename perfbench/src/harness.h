// Shared pieces of the benchmark: the in-memory span recorder, seeded
// input generators, and the interface every workload implements.
//
// One client thread, closed loop: the run loop (main.cpp) calls
// prepare() → execute() → check() for one operation at a time and times
// only execute(). Everything a workload feeds the library is generated
// from the run's --seed.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "obs/obs.h"
#include "sim/transport.h"
#include "stats.h"

namespace perfbench {

/// The library calls the benchmark wraps in spans. Each name is also the
/// prefix of its per-layer metric ("ibe.encrypt" → ibe.encrypt_us).
enum class SpanName : std::uint16_t {
  kOp = 0,
  kIbeEncrypt,
  kIbeCtDecode,
  kMediatedDecrypt,
  kMediatedSign,
  kGdhSigDecode,
  kEcDecompress,
  kGdhVerify,
  kThresholdShare,
  kThresholdShareDecode,
  kThresholdSelect,
  kThresholdCombine,
  kMediatedIbeBatch,
  kMediatedGdhBatch,
  kMediatedRevoke,
  kCount,
};

inline constexpr std::array<const char*,
                            static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {"op",
                  "ibe.encrypt",
                  "ibe.ct_decode",
                  "mediated.decrypt",
                  "mediated.sign",
                  "gdh.sig_decode",
                  "ec.decompress",
                  "gdh.verify",
                  "threshold.share",
                  "threshold.share_decode",
                  "threshold.select",
                  "threshold.combine",
                  "mediated.ibe_batch",
                  "mediated.gdh_batch",
                  "mediated.revoke"};

/// Spans of the traced operations, kept in memory until the run ends.
/// Not thread-safe: the benchmark runs one client thread.
class Recorder {
 public:
  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Operation index stamped on spans opened from now on.
  void set_op(std::uint32_t op) { op_ = op; }

  std::size_t open(SpanName name) {
    SpanRec rec;
    rec.op = op_;
    rec.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    rec.name = static_cast<std::uint16_t>(name);
    rec.start_ns = medcrypt::obs::now_ns();
    spans_.push_back(rec);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = medcrypt::obs::now_ns();
    // Unwind to the closed span (an exception may skip inner closes).
    while (!stack_.empty()) {
      const std::size_t top = stack_.back();
      stack_.pop_back();
      if (top == index) break;
    }
  }

 private:
  std::vector<SpanRec> spans_;
  std::vector<std::size_t> stack_;
  std::uint32_t op_ = 0;
};

/// RAII span; a null recorder (untraced operation) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, SpanName name)
      : rec_(rec), index_(rec != nullptr ? rec->open(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* rec_;
  std::size_t index_;
};

/// SplitMix64 stream: the benchmark's own generator for choices (Zipf
/// ranks, schedules). Independent streams per purpose keep one
/// workload's choices stable when another draws more.
class Rng64 {
 public:
  Rng64(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(unit() * static_cast<double>(n));
  }
  medcrypt::Bytes bytes(std::size_t n) {
    medcrypt::Bytes out(n);
    for (std::size_t i = 0; i < n; i += 8) {
      std::uint64_t v = next();
      for (std::size_t j = i; j < n && j < i + 8; ++j, v >>= 8) {
        out[j] = static_cast<std::uint8_t>(v);
      }
    }
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s = 1) ranks over [0, n): P(k) ∝ 1/(k+1).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t next(Rng64& rng) const {
    const double u = rng.unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a over every input the benchmark generates, so two runs can show
/// they fed the library the same (or different) inputs.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void add(medcrypt::BytesView b) {
    for (const std::uint8_t c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void add(std::string_view s) {
    add(medcrypt::BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                            s.size()));
  }
  void add(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    add(medcrypt::BytesView(b, 8));
  }
};

/// A failed output check: wrong plaintext, invalid signature or token,
/// wrong cheater, or a revocation decision the schedule did not predict.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-run state the workloads report into.
struct Env {
  /// Span recorder of the current operation; null when it is untraced.
  Recorder* rec = nullptr;
  /// User↔SEM and player↔combiner messages (the library's own accounting
  /// for the user APIs, the benchmark's for the rest).
  medcrypt::sim::Transport transport;
  /// Boundary bytes outside `transport`: ciphertexts sender→recipient,
  /// signatures signer→relying party.
  std::uint64_t extra_wire_bytes = 0;
  /// Requests refused because the identity was revoked, as predicted.
  std::uint64_t denied = 0;
  /// Threshold ops whose cheating responder was excluded.
  std::uint64_t cheaters_named = 0;
  Digest inputs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed: generate this operation's inputs from the seed.
  virtual void prepare(Env&) {}
  /// Timed: the operation itself. Throws on any failed check.
  virtual void execute(Env& env) = 0;
  /// Untimed checks that run after the timed window.
  virtual void check(Env&) {}
  /// SEM denials counted by the workload's mediators (SemStats).
  virtual std::uint64_t sem_denials() const { return 0; }
  /// Operations per statistics window: 0.1–0.5 s of this workload, and
  /// a whole number of its schedule periods (cheater, revocation writes,
  /// SEM cache misses), so every window holds the same mix of operations.
  /// Contention from other tenants comes and goes within a second, so
  /// short windows catch its quiet moments.
  virtual std::uint64_t window_ops() const = 0;
};

inline constexpr std::array<const char*, 4> kWorkloads = {
    "ibe_decrypt", "gdh_sign_verify", "threshold_robust", "sem_gateway_churn"};

/// Runs the named workload's setup (keys, enrollment, key splits) and
/// returns it ready to run; throws std::invalid_argument for an unknown
/// name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, Env& env);

}  // namespace perfbench
