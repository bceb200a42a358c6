// Communication accounting for the mediated protocols.
//
// The paper's efficiency claims (§4–§5) are about *bits on the wire per
// operation* — the SEM token is 160 bits for mediated GDH vs 1024 for
// mRSA. LinkStats counts messages and bytes per direction so the
// bench_comm experiment can print exactly those rows.
//
// LinkStats is also a *view* over the obs registry: every record()
// mirrors into the process-wide "sim.link.*" counters, so bench_comm
// tables and a registry scrape report from the same events. The local
// fields stay per-link (and reset() clears only them); the registry
// series aggregate across all links for the life of the process.
#pragma once

#include <cstdint>

#include "obs/registry.h"

namespace medcrypt::sim {

/// Byte/message counters for one direction of a link.
struct DirectionStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void record(std::uint64_t n) {
    ++messages;
    bytes += n;
    if (mirror_messages != nullptr) {
      mirror_messages->add(1);
      mirror_bytes->add(n);
    }
  }

  // Registry mirrors, wired by LinkStats (null for a bare
  // DirectionStats).
  obs::Counter* mirror_messages = nullptr;
  obs::Counter* mirror_bytes = nullptr;
};

/// Counters for one bidirectional link (client <-> server).
struct LinkStats {
  DirectionStats to_server;
  DirectionStats to_client;

  LinkStats() {
    auto& reg = obs::registry();
    to_server.mirror_messages = &reg.counter("sim.link.to_server.messages");
    to_server.mirror_bytes = &reg.counter("sim.link.to_server.bytes");
    to_client.mirror_messages = &reg.counter("sim.link.to_client.messages");
    to_client.mirror_bytes = &reg.counter("sim.link.to_client.bytes");
  }

  std::uint64_t total_bytes() const { return to_server.bytes + to_client.bytes; }
  std::uint64_t total_messages() const {
    return to_server.messages + to_client.messages;
  }

  /// Clears this link's local tallies. The registry's "sim.link.*"
  /// series are cumulative across resets by design (monotone counters).
  void reset() { *this = LinkStats{}; }
};

}  // namespace medcrypt::sim
