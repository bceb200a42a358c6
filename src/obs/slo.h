// SLO engine — error budgets and multi-window burn rates over the
// obs layer's mergeable histograms and counters.
//
// An SloSpec declares an objective ("99.9% of token issues complete
// within 5 ms", "99.9% of requests succeed") against metric families
// that already exist in a MetricsSnapshot. The engine is fed cumulative
// observations via tick(now_ns, snapshot); each tick appends one
// (time, good, total) sample per spec to a bounded ring. report()
// differentiates those rings over the configured windows, yielding the
// standard SRE quantities:
//
//   availability      good / total over the whole feed
//   budget consumed   bad_fraction / (1 - objective)   (1.0 = budget gone)
//   burn rate (W)     windowed bad_fraction / (1 - objective)
//                     (1.0 = spending the budget exactly at the rate
//                      that exhausts it at the window's end; alerting
//                      practice pages at ~14x on short windows)
//
// Time is whatever monotone clock the caller ticks with — wall ns from
// obs::now_ns() for live services, sim::SimClock virtual ns for the
// scenario harness (which is how a 60 s wall run exercises "1 h" burn
// windows).
//
// Like Histogram and the exporters, this is pure scrape-side data math
// with no hot-path role; only publish() touches the registry.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/registry.h"

namespace medcrypt::obs {

/// One objective. Exactly one of the two sources applies:
///   - latency:      threshold_ns != 0 — events come from the named
///                   histogram; good = samples <= threshold_ns.
///   - availability: threshold_ns == 0 — good/bad come from the named
///                   counters; total = good + bad.
struct SloSpec {
  std::string name;             // metric-safe, e.g. "token_issue_latency"
  double objective = 0.999;     // target good fraction, in (0, 1)
  std::string source_histogram;  // latency source (MetricsSnapshot name)
  std::uint64_t threshold_ns = 0;
  std::string good_counter;     // availability sources
  std::string bad_counter;
};

class SloEngine {
 public:
  struct WindowSpec {
    std::string label;       // "5m", "1h" — used in gauge names
    std::uint64_t span_ns = 0;
  };

  /// The conventional fast/slow alerting pair.
  static std::vector<WindowSpec> default_windows();

  explicit SloEngine(std::vector<WindowSpec> windows = default_windows());

  void add(SloSpec spec);

  /// Feeds one cumulative observation per spec, read from `snap` at
  /// monotone time `now_ns`. Sources missing from the snapshot read as
  /// zero (a spec whose family has not appeared yet simply stays flat).
  void tick(std::uint64_t now_ns, const MetricsSnapshot& snap);

  struct Burn {
    std::string window;      // WindowSpec label
    double rate = 0.0;       // burn rate over that window
    std::uint64_t good = 0;  // windowed event deltas behind the rate
    std::uint64_t total = 0;
  };

  struct Report {
    std::string name;
    double objective = 0.0;
    std::uint64_t good = 0;   // cumulative over the whole feed
    std::uint64_t total = 0;
    double availability = 1.0;
    double budget_consumed = 0.0;  // 1.0 = whole error budget spent
    std::vector<Burn> burns;       // one per window, engine order
  };

  /// Reports as of the latest tick (empty until the first tick).
  std::vector<Report> report() const;

  /// Pushes the latest report into registry gauges, parts-per-million
  /// fixed point (gauges are integers):
  ///   sem.slo.<name>.objective_ppm
  ///   sem.slo.<name>.availability_ppm
  ///   sem.slo.<name>.budget_remaining_ppm   (may go negative)
  ///   sem.slo.<name>.burn_<window>_ppm      (1e6 = burn rate 1.0)
  /// Like every gauge write, a no-op while obs::set_enabled(false).
  void publish(MetricsRegistry& reg) const;

  // -- pure math helpers, unit-tested against hand vectors --------------

  /// bad_fraction / (1 - objective); 0 for an empty window.
  static double burn_rate(std::uint64_t good, std::uint64_t total,
                          double objective);

  /// Estimated number of samples <= threshold: whole buckets below it
  /// plus linear interpolation inside the straddling bucket.
  static std::uint64_t good_at_or_below(const Histogram::Snapshot& h,
                                        std::uint64_t threshold);

 private:
  struct Sample {
    std::uint64_t t = 0;
    std::uint64_t good = 0;   // cumulative
    std::uint64_t total = 0;  // cumulative
  };
  struct Tracked {
    SloSpec spec;
    std::deque<Sample> ring;  // time-ascending, bounded by prune()
  };

  void prune(Tracked& tr, std::uint64_t now_ns) const;

  std::vector<WindowSpec> windows_;
  std::vector<Tracked> specs_;
};

}  // namespace medcrypt::obs
