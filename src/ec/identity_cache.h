// Bounded, sharded LRU cache for identity-derived public values — the
// hot-path acceleration layer the ROADMAP sketches for the SEM.
//
// Real identity traffic is Zipf-skewed: a small head of identities
// accounts for most token requests, so `H1(ID)` points (1.34 ms each at
// the paper's parameters — more than a full Tate pairing after PR 3),
// prepared Miller-loop programs of public verification bases, and the
// fixed pairing ê(P, P) are all worth caching. This template provides
// the shared machinery:
//
//   - Sharded: kShardCount (power of two) independent LRU shards, each
//     under its own std::mutex, keyed by FNV-1a of the lookup tag so
//     concurrent SEM threads rarely contend.
//   - Bounded: per-shard LRU eviction against a fixed total capacity —
//     a million-identity tail cannot grow the cache without bound.
//   - Revocation-free: entries are pure functions of their tag, so
//     nothing about an identity's revocation state is cached here and a
//     revoke never flushes anything. The SEM enforces revocation on the
//     key-half lookup instead (docs/SEM_SERVICE.md, "Why cache entries
//     carry no revocation state").
//   - Observable: hit/miss/eviction/invalidation counters both in
//     always-on local atomics (stats(), for tests and audit) and in the
//     obs registry under `<metric_prefix>.{hits,misses,evictions,
//     invalidations}` (no-ops when obs is compiled out).
//
// Only *public* values belong here: identity hash points, prepared
// programs of public keys, pairings of public generators. Secret
// material (key halves, prepared d_sem programs) lives in the
// MediatorBase registry, which wipes on teardown — this cache does not.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace medcrypt::ec {

/// Sharded LRU of (domain, id) -> Value.
/// Value must be copyable; lookups return copies so no reference ever
/// escapes a shard lock.
template <typename Value>
class ShardedLruCache {
 public:
  /// Shard count (power of two; tag-hash keyed).
  static constexpr std::size_t kShardCount = 8;
  static_assert((kShardCount & (kShardCount - 1)) == 0,
                "shard count must be a power of two");

  struct Config {
    /// Total entry budget across all shards (>= kShardCount enforced by
    /// rounding the per-shard capacity up to at least one entry).
    std::size_t capacity = 4096;
    /// Metric family, e.g. "sem.cache.h1" — exported as
    /// `<prefix>.hits` / `.misses` / `.evictions` / `.invalidations`.
    std::string metric_prefix;
  };

  /// Always-on audit view (obs-independent, weakly consistent).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Entries dropped at lookup because `validate` rejected them.
    std::uint64_t invalidations = 0;
  };

  explicit ShardedLruCache(Config config)
      : per_shard_capacity_(
            config.capacity / kShardCount > 0 ? config.capacity / kShardCount
                                              : 1),
        obs_hits_(&obs::registry().counter(config.metric_prefix + ".hits")),
        obs_misses_(
            &obs::registry().counter(config.metric_prefix + ".misses")),
        obs_evictions_(
            &obs::registry().counter(config.metric_prefix + ".evictions")),
        obs_invalidations_(
            &obs::registry().counter(config.metric_prefix + ".invalidations")) {
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Looks up (domain, id). `validate`, when given, vets the stored
  /// value (e.g. "same curve as the caller's" — distinct curve contexts
  /// may collide on serialized ids); a failing validation drops the entry
  /// and counts as an invalidation plus a miss.
  template <typename Validate>
  std::optional<Value> get(std::string_view domain, BytesView id,
                           Validate&& validate) const {
    const std::string tag = make_tag(domain, id);
    Shard& shard = shard_for(tag);
    std::lock_guard lock(shard.mu);
    const auto it = shard.index.find(tag);
    if (it == shard.index.end()) {
      record_miss(shard);
      return std::nullopt;
    }
    if (!validate(std::as_const(it->second->value))) {
      shard.lru.erase(it->second);
      shard.index.erase(it);
      shard.invalidations.fetch_add(1, std::memory_order_relaxed);
      obs_invalidations_->add();
      record_miss(shard);
      return std::nullopt;
    }
    // Refresh recency: splice the node to the front; iterators (and the
    // index entries pointing at them) stay valid.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    obs_hits_->add();
    obs::trace_annotate("cache.hit");
    return it->second->value;
  }

  std::optional<Value> get(std::string_view domain, BytesView id) const {
    return get(domain, id, [](const Value&) { return true; });
  }

  /// Inserts (or replaces) the entry for (domain, id), evicting the
  /// shard's least-recently-used entry when over capacity.
  void put(std::string_view domain, BytesView id, Value value) const {
    std::string tag = make_tag(domain, id);
    Shard& shard = shard_for(tag);
    std::lock_guard lock(shard.mu);
    if (const auto it = shard.index.find(tag); it != shard.index.end()) {
      it->second->value = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.push_front(Entry{std::move(tag), std::move(value)});
    // The string_view key aliases the entry's own tag; list nodes are
    // stable, so the view outlives every splice.
    shard.index.emplace(std::string_view(shard.lru.front().tag),
                        shard.lru.begin());
    while (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(std::string_view(shard.lru.back().tag));
      shard.lru.pop_back();
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
      obs_evictions_->add();
    }
  }

  /// get() + compute-and-put() on miss. `make` runs outside every shard
  /// lock, so concurrent misses of one id may compute redundantly (and
  /// last-write-wins) — the value is a deterministic function of the
  /// tag, so duplicated work is the only cost, never an inconsistency.
  template <typename MakeFn, typename Validate>
  Value get_or_compute(std::string_view domain, BytesView id, MakeFn&& make,
                       Validate&& validate) const {
    if (auto found = get(domain, id, std::forward<Validate>(validate))) {
      return std::move(*found);
    }
    Value value = make();
    put(domain, id, value);
    return value;
  }

  template <typename MakeFn>
  Value get_or_compute(std::string_view domain, BytesView id,
                       MakeFn&& make) const {
    return get_or_compute(domain, id, std::forward<MakeFn>(make),
                          [](const Value&) { return true; });
  }

  /// Entries currently held across all shards.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mu);
      n += shard.lru.size();
    }
    return n;
  }

  /// Drops every entry (counters are preserved).
  void clear() const {
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mu);
      shard.index.clear();
      shard.lru.clear();
    }
  }

  Stats stats() const {
    Stats s;
    for (const Shard& shard : shards_) {
      s.hits += shard.hits.load(std::memory_order_relaxed);
      s.misses += shard.misses.load(std::memory_order_relaxed);
      s.evictions += shard.evictions.load(std::memory_order_relaxed);
      s.invalidations += shard.invalidations.load(std::memory_order_relaxed);
    }
    return s;
  }

  std::size_t capacity() const { return per_shard_capacity_ * kShardCount; }

 private:
  struct Entry {
    std::string tag;  // length-framed domain ‖ id (public lookup material)
    Value value;
  };

  struct Shard {
    mutable std::mutex mu;
    // Both guarded by mu. Front = most recent. The index's string_view
    // keys alias the entries' own tag storage (list nodes never move).
    std::list<Entry> lru;
    std::map<std::string_view, typename std::list<Entry>::iterator> index;
    // Audit counters (always on, unlike the obs mirrors). Monotonic;
    // stats() sums with the same weak-consistency contract as SemStats.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> invalidations{0};
  };

  // Length-framed so ("ab", "c") and ("a", "bc") cannot collide.
  static std::string make_tag(std::string_view domain, BytesView id) {
    std::string tag;
    tag.reserve(4 + domain.size() + id.size());
    const auto len = static_cast<std::uint32_t>(domain.size());
    for (int i = 0; i < 4; ++i) {
      tag.push_back(static_cast<char>(len >> (24 - 8 * i)));
    }
    tag.append(domain);
    tag.append(reinterpret_cast<const char*>(id.data()), id.size());
    return tag;
  }

  Shard& shard_for(std::string_view tag) const {
    // FNV-1a over the tag; cheap and well-spread for short identity keys.
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : tag) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    return shards_[h & (kShardCount - 1)];
  }

  void record_miss(Shard& shard) const {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    obs_misses_->add();
    obs::trace_annotate("cache.miss");
  }

  std::size_t per_shard_capacity_;
  mutable std::array<Shard, kShardCount> shards_;
  // Registry-owned counters (stable addresses for the process lifetime).
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_invalidations_;
};

}  // namespace medcrypt::ec
