// Log-linear (HDR-style) latency histogram.
//
// Bucketing: values below 16 get width-1 buckets; every power-of-two
// octave above that is split into 16 linear sub-buckets, so relative
// bucket width is bounded by 1/16 ≈ 6% everywhere — tight enough for
// p50/p90/p99 reporting without per-sample allocation or sorting.
// 40 octave groups cover [0, ~8.4e12) ns (~2.3 hours); anything larger
// saturates into the last bucket (max_ still records the true value).
//
// Recording is a handful of relaxed atomic adds — safe from any number
// of threads, no locks. Scrapes copy the buckets into a plain Snapshot;
// snapshots are mergeable (elementwise, associative) so sharded or
// per-instance histograms aggregate exactly.
//
// This class is pure data-structure math with no instrumentation role
// of its own, so it does not consult the kill switch; Span, the call
// site that feeds the stage histograms, does.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/obs.h"

namespace medcrypt::obs {

class Histogram {
 public:
  static constexpr std::size_t kSubBits = 4;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;  // 16
  static constexpr std::size_t kGroups = 40;
  static constexpr std::size_t kBucketCount = kSub * kGroups;  // 640

  /// Bucket index of `v`. Total over the value range, monotone, and
  /// exact (idx == v) for v < 2*kSub; saturates at kBucketCount - 1.
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = static_cast<unsigned>(std::bit_width(v)) - 1;
    const std::size_t group = msb - kSubBits + 1;
    if (group >= kGroups) return kBucketCount - 1;
    const std::size_t sub =
        static_cast<std::size_t>(v >> (msb - kSubBits)) & (kSub - 1);
    return group * kSub + sub;
  }

  /// Smallest value that maps to bucket `idx` (idx < kBucketCount).
  static std::uint64_t bucket_lower_bound(std::size_t idx) {
    if (idx < kSub) return idx;
    const std::size_t group = idx / kSub;
    const std::size_t sub = idx % kSub;
    return static_cast<std::uint64_t>(kSub + sub) << (group - 1);
  }

  /// Exemplar: one concrete sample whose recording thread had a sampled
  /// trace in flight. The histogram keeps the kExemplarSlots *largest*
  /// such samples, so the retained trace ids are precisely the ones that
  /// explain the tail ("show me a p99 token-issue trace"). trace_id == 0
  /// marks an empty slot.
  struct Exemplar {
    std::uint64_t value = 0;
    std::uint64_t trace_id = 0;
  };
  static constexpr std::size_t kExemplarSlots = 4;

  /// Point-in-time copy of a histogram; plain values, freely mergeable.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBucketCount> buckets{};
    /// Largest traced samples, descending by value; empty slots trail.
    std::array<Exemplar, kExemplarSlots> exemplars{};

    /// Elementwise accumulation; associative and commutative, so any
    /// merge order over any partition of the samples yields the same
    /// aggregate.
    void merge(const Snapshot& other);

    /// Quantile estimate with linear interpolation inside the selected
    /// bucket; q in [0, 1]. Returns 0 for an empty histogram and never
    /// exceeds the recorded max.
    double percentile(double q) const;

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev && !max_.compare_exchange_weak(
                           prev, v, std::memory_order_relaxed)) {
    }
    // Exemplar capture only when a sampled trace is in flight on this
    // thread (rare by construction), so the common case is one
    // thread-local load and a branch.
    if (const std::uint64_t tid = current_trace_id()) note_exemplar(v, tid);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  Snapshot snapshot() const;

  /// Zeroes all cells. Not atomic with respect to concurrent record()
  /// calls; callers quiesce recorders first (bench/test convenience).
  void reset();

 private:
  /// Offers (v, trace_id) to the exemplar slots: replaces the current
  /// minimum if v is at least as large. Guarded by a try-only spinlock —
  /// a contended recorder drops its exemplar instead of spinning, so the
  /// hot path never waits; only snapshot()/reset() spin (cold paths, and
  /// the critical section is a few loads/stores).
  void note_exemplar(std::uint64_t v, std::uint64_t trace_id);

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  // Exemplar slots; mutable so the const snapshot() can take the lock.
  mutable std::atomic_flag ex_lock_;
  mutable std::array<Exemplar, kExemplarSlots> ex_slots_{};
};

}  // namespace medcrypt::obs
