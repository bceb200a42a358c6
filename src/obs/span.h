// Scoped tracing for the crypto pipelines.
//
// Span(Stage) times one stage: construction stamps the clock, the
// destructor records the elapsed nanoseconds into the registry's
// per-stage histogram (O(1) array lookup, relaxed atomics — no locks,
// no allocation). If a sampled TraceScope is active on this thread, the
// span also appends a StageRec to the in-flight trace, giving a
// per-stage breakdown of one concrete pipeline execution.
//
// TraceScope brackets a whole pipeline (e.g. one token issuance). It is
// sampled — by default 1 execution in 16 carries a trace — so the common
// case costs one counter bump and a branch. The sampled case fills a
// fixed-capacity TraceData on this thread's stack frame and pushes it
// into the registry's ring of recent traces on scope exit (the only
// lock, taken once per *sampled* pipeline, never per span).
//
// Neither type is copyable or movable: they pin a scope, nothing else.
#pragma once

#include <cstring>

#include "obs/obs.h"
#include "obs/registry.h"

namespace medcrypt::obs {

class TraceScope;

namespace detail {
// The trace being assembled on this thread, if any. Spans append to it;
// nesting TraceScopes is not supported (inner scopes see a live pointer
// and demote themselves to plain counting).
inline thread_local TraceData* t_current_trace = nullptr;
}  // namespace detail

class Span {
 public:
  // The kill switch is consulted once, at construction: a span that
  // starts disarmed stays disarmed (start_ == 0 sentinel), so flipping
  // set_enabled mid-span never records a garbage duration.
  explicit Span(Stage stage)
      : stage_(stage), start_(enabled() ? now_ns() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the timed window now instead of at scope exit; use when the
  /// scope has trailing work that should not be measured. Idempotent
  /// (the destructor becomes a no-op).
  void finish() {
    if (start_ == 0) return;
    const std::uint64_t dur = now_ns() - start_;
    registry().stage_histogram(stage_).record(dur);
    if (TraceData* trace = detail::t_current_trace) {
      if (trace->stage_count < TraceData::kMaxStages) {
        trace->stages[trace->stage_count++] =
            TraceData::StageRec{stage_, start_ - trace->start_ns, dur};
      } else {
        ++trace->dropped;
      }
    }
    start_ = 0;
  }

  ~Span() { finish(); }

 private:
  Stage stage_;
  std::uint64_t start_;
};

class TraceScope {
 public:
  /// Sentinel for `sample_shift`: use the process-wide default set via
  /// obs::set_trace_sample_shift (4 → 1/16 out of the box).
  static constexpr unsigned kUseGlobalShift = ~0u;

  /// `pipeline` must be a string literal (stored by pointer in the ring).
  /// `sample_shift`: trace 1 execution in 2^shift; kUseGlobalShift
  /// defers to the global default. An armed scope allocates a fresh
  /// trace id, visible via TraceContext::current() until scope exit.
  explicit TraceScope(const char* pipeline,
                      unsigned sample_shift = kUseGlobalShift) {
    if (!enabled() || detail::t_current_trace != nullptr) return;
    if (sample_shift == kUseGlobalShift) sample_shift = trace_sample_shift();
    thread_local std::uint64_t tick = 0;
    if ((tick++ & ((std::uint64_t{1} << sample_shift) - 1)) != 0) return;
    arm(pipeline, next_trace_id(), /*parent_id=*/0);
  }

  /// Continues a trace across a hop: arms if and only if the upstream
  /// execution was sampled (no re-sampling — a request is traced end to
  /// end or not at all), allocating a child trace id whose parent_id
  /// links back to the caller's segment. This is the constructor a
  /// networked SEM daemon uses after decoding the frame's trace field.
  TraceScope(const char* pipeline, const TraceContext& parent) {
    if (!enabled() || detail::t_current_trace != nullptr || !parent.sampled())
      return;
    arm(pipeline, next_trace_id(), parent.trace_id);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (!armed_) return;
    detail::t_current_trace = nullptr;
    detail::t_trace_id = 0;
    trace_.total_ns = now_ns() - trace_.start_ns;
    registry().push_trace(trace_);
  }

 private:
  void arm(const char* pipeline, std::uint64_t id, std::uint64_t parent_id) {
    trace_.pipeline = pipeline;
    trace_.trace_id = id;
    trace_.parent_id = parent_id;
    trace_.start_ns = now_ns();
    detail::t_current_trace = &trace_;
    detail::t_trace_id = id;
    armed_ = true;
  }

  TraceData trace_{};
  bool armed_ = false;
};

/// Attaches numeric baggage to this thread's in-flight trace, if any:
/// repeated labels accumulate (`cache.hit` twice → value 2), new labels
/// append until kMaxBaggage, then further labels are dropped silently.
/// `label` must be a string literal. Values are numbers only — never
/// derive them from key material (medlint: obs-secret-arg).
inline void trace_annotate(const char* label, std::uint64_t value = 1) {
  TraceData* trace = detail::t_current_trace;
  if (trace == nullptr) return;
  for (std::uint32_t i = 0; i < trace->baggage_count; ++i) {
    TraceData::BaggageRec& rec = trace->baggage[i];
    // Pointer equality first: annotate sites pass literals, which the
    // linker typically pools; strcmp is the correctness fallback and is
    // fine here — both operands are public metric-label literals.
    // medlint: allow(secret-memcmp)
    if (rec.name == label || std::strcmp(rec.name, label) == 0) {
      rec.value += value;
      return;
    }
  }
  if (trace->baggage_count < TraceData::kMaxBaggage) {
    trace->baggage[trace->baggage_count++] =
        TraceData::BaggageRec{label, value};
  }
}

}  // namespace medcrypt::obs
