// Snapshot exporters: Prometheus text exposition format and JSON.
//
// Both operate on a plain MetricsSnapshot (plus, for JSON, the recent
// traces), so they are pure functions — testable without a live
// registry.
#pragma once

#include <string>
#include <vector>

#include "obs/registry.h"

namespace medcrypt::obs {

/// Prometheus text format (v0.0.4). Metric names are sanitized
/// ('.' and '-' become '_') and prefixed "medcrypt_"; histograms are
/// rendered summary-style: _count, _sum, _max, and p50/p90/p99
/// quantile samples (full 640-bucket dumps would drown a scrape).
std::string to_prometheus(const MetricsSnapshot& snap);

/// JSON document: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, max, mean, p50, p90, p99}},
/// "traces": [{pipeline, total_ns, stages: [...]}, ...]}.
std::string to_json(const MetricsSnapshot& snap,
                    const std::vector<TraceData>& traces = {});

}  // namespace medcrypt::obs
