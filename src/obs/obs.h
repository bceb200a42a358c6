// Runtime observability layer — umbrella header (docs/OBSERVABILITY.md).
//
// The paper's claims are quantitative (token cost, bits on the wire,
// revocation latency); the ROADMAP's north star is a production SEM
// under heavy traffic. This layer provides the in-process visibility a
// deployment needs to check those claims live: lock-light counters,
// log-linear latency histograms, and per-stage pipeline tracing, all
// scraped through one MetricsRegistry.
//
// One switch: obs::set_enabled(false) is a relaxed-atomic kill switch
// that Counter, Gauge, Span and TraceScope check before recording.
// While it is off, owned counters, stage histograms and traces stand
// still, scrapes still work, and the crypto does the same work with the
// same bytes; bench_obs_overhead uses it to measure the tracing cost
// inside one binary.
//
// Hot-path discipline: recording is a couple of relaxed atomic adds on
// per-thread-sharded cells (Counter) or on a histogram bucket — no
// locks, no allocation after first use. Scrapes pay the synchronization
// cost instead; see registry.h for the (weak) consistency contract.
//
// Secret hygiene: metric names, labels and trace payloads must never
// carry key material — medlint's obs-secret-arg check rejects any
// secret-named value in the argument list of an obs:: call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

// Always 1; perfbench's meta line is its only reader.
#define MEDCRYPT_OBS_ENABLED 1

namespace medcrypt::obs {

/// Nanosecond monotonic timestamp; same steady_clock base as
/// bench_util's timers, so obs histograms and bench medians are
/// directly comparable.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Number of per-thread cells a sharded counter spreads its increments
/// over. Threads are assigned cells round-robin at first use; 16 cells
/// keep an 8–16 thread SEM free of increment contention without bloating
/// every counter.
inline constexpr std::size_t kThreadCells = 16;

/// This thread's counter cell index (stable for the thread's lifetime).
std::size_t thread_cell();

namespace detail {
inline std::atomic<bool> g_enabled{true};
// Default TraceScope sampling: trace 1 pipeline in 2^shift.
inline std::atomic<unsigned> g_trace_sample_shift{4};
// Trace id of the trace being assembled on this thread (0 = none).
// Lives here, below histogram.h, so Histogram::record can probe it for
// exemplar capture without depending on span.h.
inline thread_local std::uint64_t t_trace_id = 0;
}  // namespace detail

/// Runtime kill switch for all recording. Scrapes still work; they just
/// see frozen values.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Trace id of this thread's in-flight sampled trace; 0 when no trace is
/// active. Histogram::record uses this to attach exemplars.
inline std::uint64_t current_trace_id() { return detail::t_trace_id; }

/// Process-wide default sampling rate for TraceScope: 1 execution in
/// 2^shift carries a trace (4 → 1/16). The scenario harness and the
/// overhead bench override it (0 → every execution) and restore it.
inline unsigned trace_sample_shift() {
  return detail::g_trace_sample_shift.load(std::memory_order_relaxed);
}
inline void set_trace_sample_shift(unsigned shift) {
  detail::g_trace_sample_shift.store(shift, std::memory_order_relaxed);
}

/// Allocates a fresh nonzero trace id: a monotone atomic counter pushed
/// through the SplitMix64 finalizer, so ids are unique per process,
/// well-mixed for sampling/sharding, and carry no timing information.
inline std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> seq{0};
  std::uint64_t z =
      seq.fetch_add(1, std::memory_order_relaxed) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;  // never 0 (0 means "not traced")
}

/// Propagatable trace identity: the handle a caller captures at a
/// pipeline boundary and hands to the next hop (a batch entry point, a
/// sim::Transport frame, eventually the networked SEM wire protocol).
/// Plain data: copying it costs one word, and an unsampled context
/// makes the adopting TraceScope trace nothing.
struct TraceContext {
  std::uint64_t trace_id = 0;

  /// True when the originating execution was sampled — downstream hops
  /// adopt the decision instead of re-sampling, so a request is either
  /// traced end-to-end or not at all.
  constexpr bool sampled() const { return trace_id != 0; }

  /// The context of this thread's in-flight trace (unsampled if none).
  static TraceContext current() { return TraceContext{current_trace_id()}; }

  /// Bytes reserved for the trace id in wire frames (sim::Transport
  /// today, the SEM daemon protocol later).
  static constexpr std::size_t kWireSize = 8;
};

}  // namespace medcrypt::obs
