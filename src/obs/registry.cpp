#include "obs/registry.h"

#include <algorithm>

namespace medcrypt::obs {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kHashToPoint:
      return "hash_to_point";
    case Stage::kHashToPointBatch:
      return "hash_to_point_batch";
    case Stage::kPairingMiller:
      return "pairing.miller";
    case Stage::kPairingFinalExp:
      return "pairing.final_exp";
    case Stage::kPairingFinalExpBatch:
      return "pairing.final_exp_batch";
    case Stage::kPairingPrepare:
      return "pairing.prepare";
    case Stage::kScalarMul:
      return "scalar_mul";
    case Stage::kTokenIssue:
      return "token_issue";
    case Stage::kShareExtract:
      return "share.extract";
    case Stage::kShareCompute:
      return "share.compute";
    case Stage::kShareCombine:
      return "share.combine";
    case Stage::kSnapshotPublish:
      return "revocation.snapshot_publish";
    case Stage::kShareVerify:
      return "share.verify";
    case Stage::kHashToCurve:
      return "hash_to_curve";
  }
  return "unknown";
}

std::size_t thread_cell() {
  // Round-robin assignment at first use; a thread keeps its cell for
  // life, so two threads only contend when more than kThreadCells
  // threads record concurrently.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t cell =
      next.fetch_add(1, std::memory_order_relaxed) % kThreadCells;
  return cell;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* leaked = new MetricsRegistry();
  return *leaked;
}

MetricsRegistry::MetricsRegistry() {
  for (auto& h : stage_) h = std::make_unique<Histogram>();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    if (auto it = counters_.find(name); it != counters_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] =
      counters_.try_emplace(std::string(name), std::make_unique<Counter>());
  (void)inserted;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    if (auto it = gauges_.find(name); it != gauges_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] =
      gauges_.try_emplace(std::string(name), std::make_unique<Gauge>());
  (void)inserted;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  {
    std::shared_lock lock(mu_);
    if (auto it = histograms_.find(name); it != histograms_.end()) {
      return *it->second;
    }
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] =
      histograms_.try_emplace(std::string(name), std::make_unique<Histogram>());
  (void)inserted;
  return *it->second;
}

std::uint64_t MetricsRegistry::register_scrape_source(
    std::function<ScrapeSeries()> fn) {
  std::unique_lock lock(mu_);
  const std::uint64_t id = next_source_id_++;
  sources_.push_back(Source{id, std::move(fn)});
  return id;
}

void MetricsRegistry::unregister_scrape_source(std::uint64_t id) {
  std::unique_lock lock(mu_);
  std::erase_if(sources_,
                [id](const Source& s) { return s.id == id; });
}

void MetricsRegistry::push_trace(const TraceData& trace) {
  std::lock_guard lock(trace_mu_);
  traces_[trace_next_] = trace;
  trace_next_ = (trace_next_ + 1) % kTraceRingSize;
  trace_count_ = std::min(trace_count_ + 1, kTraceRingSize);
}

std::vector<TraceData> MetricsRegistry::recent_traces() const {
  std::lock_guard lock(trace_mu_);
  std::vector<TraceData> out;
  out.reserve(trace_count_);
  // Oldest first: when full the ring's oldest entry sits at trace_next_.
  const std::size_t start =
      trace_count_ == kTraceRingSize ? trace_next_ : 0;
  for (std::size_t i = 0; i < trace_count_; ++i) {
    out.push_back(traces_[(start + i) % kTraceRingSize]);
  }
  return out;
}

MetricsSnapshot MetricsRegistry::scrape() const {
  MetricsSnapshot snap;
  // One pass under one shared lock: every instrument and source is read
  // exactly once per scrape (weakly consistent — see header contract).
  std::shared_lock lock(mu_);

  // External sources first, summed by name, then merged with any owned
  // counter of the same name so callers see a single series. One callback
  // invocation yields every series of a source, so series that must be
  // mutually coherent come from a single snapshot.
  std::map<std::string, std::uint64_t, std::less<>> totals;
  for (const Source& s : sources_) {
    for (auto& [name, value] : s.fn()) {
      totals[name] += value;
    }
  }
  for (const auto& [name, c] : counters_) {
    totals[name] += c->value();
  }
  snap.counters.reserve(totals.size());
  for (const auto& [name, value] : totals) {
    snap.counters.push_back({name, value});
  }

  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }

  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->snapshot()});
  }
  for (std::size_t i = 0; i < kStageCount; ++i) {
    auto s = stage_[i]->snapshot();
    if (s.count == 0) continue;  // unexercised stages stay out of the catalog
    snap.histograms.push_back(
        {std::string("stage.") + stage_name(static_cast<Stage>(i)) + "_ns",
         std::move(s)});
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  std::unique_lock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& h : stage_) h->reset();
  std::lock_guard tlock(trace_mu_);
  trace_next_ = 0;
  trace_count_ = 0;
}

}  // namespace medcrypt::obs
