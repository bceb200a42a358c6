// MetricsRegistry — the process-wide metric catalog.
//
// Three kinds of instrument:
//   - Counter: monotone, per-thread sharded cells (obs::kThreadCells
//     cache-line-padded relaxed atomics). add() is one relaxed
//     fetch_add on this thread's cell; value() sums the cells.
//   - Gauge: a single relaxed atomic int64 (set/add).
//   - Histogram: see histogram.h; the registry owns one per name plus a
//     fixed array of per-stage latency histograms (O(1) lookup from the
//     Span hot path — no string hashing).
//
// Ownership: registry-created instruments live for the whole process
// (the registry singleton is intentionally leaked, so instrumentation
// from static destructors stays safe). Objects that keep their own
// counters — MediatorBase's audit cells, ShardedLruCache's shard
// counters — register a *scrape source* callback instead and unregister
// it on destruction; scrape() sums sources with owned counters of the
// same name, which is how many mediator instances aggregate into one
// `sem.tokens_issued` series. sim::LinkStats instead mirrors each
// increment into owned `sim.link.*` counters, because its per-link
// tallies reset while the registry's series stay cumulative.
//
// Consistency contract for scrape(): one pass, weakly consistent. The
// scrape reads every cell exactly once under the registry's shared lock,
// but recorders use relaxed atomics and never take that lock, so a
// snapshot is NOT a linearizable cut: a counter incremented twice while
// the scrape walks the cells may show either increment. What IS
// guaranteed: no torn values, monotonicity across scrapes of the same
// counter, and every increment that happened-before the scrape began is
// included. That is the standard Prometheus-style contract and exactly
// the trade that keeps token issuance lock-free.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/histogram.h"
#include "obs/obs.h"

namespace medcrypt::obs {

// ---------------------------------------------------------------------------
// Stage taxonomy for the crypto pipelines (docs/OBSERVABILITY.md).
// ---------------------------------------------------------------------------

enum class Stage : std::uint8_t {
  kHashToPoint = 0,     // ec::hash_to_subgroup — full try-and-increment loop
  kPairingMiller,       // TatePairing::miller_loop, the one Miller loop site
  kPairingFinalExp,     // TatePairing::final_exponentiation, one per pairing
  kPairingPrepare,      // TatePairing::prepare — per-enrollment, not per-token
  kScalarMul,           // SEM-side scalar multiplication (GDH/IBS tokens)
  kTokenIssue,          // MediatorBase::with_key_at token computation
  kShareExtract,        // ThresholdDealer::extract_shares (all players)
  kShareCompute,        // threshold: one player's decryption share
  kShareCombine,        // threshold: Lagrange recombination of t shares
  kSnapshotPublish,     // RevocationList: copy-mutate-publish of a snapshot
  kShareVerify,         // threshold: select_valid_shares proof checks
  kHashToCurve,         // ec::hash_to_curve_candidate — no cofactor clearing
};
inline constexpr std::size_t kStageCount = 12;

/// Dotted stage name as it appears in the metric catalog (the exported
/// histogram is "stage.<name>_ns").
const char* stage_name(Stage stage);

/// One completed sampled pipeline execution. Fixed-capacity so pushing
/// a trace never allocates.
struct TraceData {
  static constexpr std::size_t kMaxStages = 16;
  static constexpr std::size_t kMaxBaggage = 8;

  struct StageRec {
    Stage stage = Stage::kTokenIssue;
    std::uint64_t offset_ns = 0;  // start relative to the trace start
    std::uint64_t dur_ns = 0;
  };

  /// Per-trace annotation: a string-literal label and an accumulated
  /// numeric value (cache hits, batch width, retries, ...). Numeric by
  /// design — baggage can never carry key material, and medlint's
  /// obs-secret-arg check vets the value expressions at the call site.
  struct BaggageRec {
    const char* name = "";
    std::uint64_t value = 0;
  };

  const char* pipeline = "";
  std::uint64_t trace_id = 0;      // 0 = pre-tracing legacy record
  std::uint64_t parent_id = 0;     // upstream trace id when adopted via
                                   // TraceContext (0 = root)
  std::uint64_t start_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint32_t stage_count = 0;   // recorded entries in `stages`
  std::uint32_t dropped = 0;       // spans beyond kMaxStages
  std::uint32_t baggage_count = 0;  // recorded entries in `baggage`
  std::array<StageRec, kMaxStages> stages{};
  std::array<BaggageRec, kMaxBaggage> baggage{};
};

// ---------------------------------------------------------------------------
// Scrape result — plain values the exporters and tests consume.
// ---------------------------------------------------------------------------

struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    Histogram::Snapshot hist;
  };

  std::vector<CounterEntry> counters;      // sorted by name
  std::vector<GaugeEntry> gauges;          // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name
};

// ---------------------------------------------------------------------------
// Instruments.
// ---------------------------------------------------------------------------

/// Monotone counter over per-thread sharded cells. add() never takes a
/// lock; value() is a weakly consistent sum (see the scrape contract).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    cells_[thread_cell()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() {
    for (Cell& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kThreadCells> cells_{};
};

class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (!enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Intentionally leaked: instrumentation
  /// may run during static teardown.
  static MetricsRegistry& instance();

  /// Named instruments, created on first use and alive forever; the
  /// returned reference is stable. Cold path (map under a lock) — hot
  /// call sites cache the reference in a function-local static.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Per-stage latency histogram; O(1), allocation-free after
  /// construction — safe for the pairing hot path.
  Histogram& stage_histogram(Stage stage) {
    return *stage_[static_cast<std::size_t>(stage)];
  }

  /// Named series produced by ONE callback invocation.
  using ScrapeSeries = std::vector<std::pair<std::string, std::uint64_t>>;

  /// Registers an external source: instances holding their own cells
  /// (MediatorBase's audit counters, ShardedLruCache's shard counters)
  /// use this so the registry stays the single scrape surface. The
  /// callback is invoked exactly once per scrape and contributes every
  /// series it returns, so series that must agree — `sem.tokens_issued`
  /// and `sem.denials` — come from one snapshot. Series names are summed
  /// with owned counters and other sources. Returns a handle for
  /// unregister_scrape_source — the owner MUST unregister before the
  /// callback's captures die.
  std::uint64_t register_scrape_source(std::function<ScrapeSeries()> fn);
  void unregister_scrape_source(std::uint64_t id);

  /// Appends a completed trace to the ring of recent traces (capacity
  /// kTraceRingSize, oldest overwritten).
  static constexpr std::size_t kTraceRingSize = 128;
  void push_trace(const TraceData& trace);
  std::vector<TraceData> recent_traces() const;

  /// One weakly consistent pass over every instrument and source.
  MetricsSnapshot scrape() const;

  /// Zeroes owned instruments and drops recorded traces (registered
  /// sources are left alone — their owners hold the cells). Benches and
  /// tests use this to isolate measurement windows.
  void reset();

 private:
  MetricsRegistry();

  struct Source {
    std::uint64_t id = 0;
    std::function<ScrapeSeries()> fn;
  };

  // Guards the instrument maps and the source list below.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<Source> sources_;
  std::uint64_t next_source_id_ = 1;

  std::array<std::unique_ptr<Histogram>, kStageCount> stage_;

  // Guards the trace ring and its cursors below.
  mutable std::mutex trace_mu_;
  std::array<TraceData, kTraceRingSize> traces_{};
  std::size_t trace_next_ = 0;
  std::size_t trace_count_ = 0;
};

/// Shorthand for the singleton.
inline MetricsRegistry& registry() { return MetricsRegistry::instance(); }

}  // namespace medcrypt::obs
