// Order statistics, ratios and span self time for the benchmark report.
//
// Every reported timing is a percentile of per-operation samples, given
// with the sample count and the number of samples beyond it; every
// reported ratio keeps its base. tests/stats_test.cpp pins these helpers
// on hand-computed vectors.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile of a sample set: its value, the number of samples, and
/// how many samples lie strictly above the value.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;
};

/// The q-quantile (q in [0, 1]) with linear interpolation between the
/// two closest ranks (the "type 7" estimator: rank q·(n-1) over the
/// sorted samples). An empty sample set gives {0, 0, 0}.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

/// One operation's wall time and its index in the run.
struct TimedSample {
  std::uint64_t op = 0;
  double us = 0.0;
};

/// Durations grouped into consecutive windows of `window_ops` operations
/// by operation index; empty windows are dropped.
inline std::vector<std::vector<double>> split_windows(
    const std::vector<TimedSample>& samples, std::uint64_t window_ops) {
  std::vector<std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    const auto w = static_cast<std::size_t>(s.op / window_ops);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.us);
  }
  std::erase_if(windows, [](const std::vector<double>& w) { return w.empty(); });
  return windows;
}

/// The lowest, over windows, of each window's q-quantile. Contention from
/// other tenants of a shared host only ever slows a window, so the
/// quietest window follows the code rather than the neighbours. `count`
/// is every sample; `beyond` counts the samples of the whole run above
/// the result.
inline Percentile quietest_window_percentile(
    const std::vector<TimedSample>& samples, std::uint64_t window_ops,
    double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : split_windows(samples, window_ops)) {
    per_window.push_back(percentile(w, q).value);
  }
  Percentile out;
  out.value = percentile(per_window, 0.0).value;
  out.count = samples.size();
  for (const TimedSample& s : samples) out.beyond += s.us > out.value ? 1 : 0;
  return out;
}

/// The highest, over windows, of each window's throughput: operations
/// per second of time spent inside the operations.
inline double quietest_window_rate(const std::vector<TimedSample>& samples,
                                   std::uint64_t window_ops) {
  double best = 0.0;
  for (const std::vector<double>& w : split_windows(samples, window_ops)) {
    double total_us = 0.0;
    for (const double us : w) total_us += us;
    if (total_us > 0.0) {
      best = std::max(best, static_cast<double>(w.size()) / (total_us / 1e6));
    }
  }
  return best;
}

/// A ratio that remembers its base: value() = num / base, or 0 when the
/// base is 0 (nothing was attempted, so nothing is claimed).
struct Ratio {
  double num = 0.0;
  double base = 0.0;

  double value() const { return base == 0.0 ? 0.0 : num / base; }
  /// The ratio scaled per `per` units of base (per 1000 ops: per = 1000).
  double per(double unit) const { return value() * unit; }
};

/// One benchmark span: a timed call into a library layer. `parent` is the
/// index of the enclosing span in the same vector, or -1 for an op root.
struct SpanRec {
  std::uint32_t op = 0;
  std::int32_t parent = -1;
  std::uint16_t name = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t dur_ns() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once, and
/// a child sticking out of its parent is clipped to the parent).
/// Grandchildren are already inside their own parent, so only direct
/// children are subtracted.
inline std::vector<std::uint64_t> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = s.dur_ns() - covered;
  }
  return out;
}

}  // namespace perfbench
