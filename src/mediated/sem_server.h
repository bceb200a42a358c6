// The SEM (SEcurity Mediator) architecture of Boneh–Ding–Tsudik–Wong [4],
// as deployed by every mediated scheme in this library.
//
// A SEM is an online, *semi-trusted* server that holds the mediator half
// of each user's private key and answers one token request per operation.
// Revocation = flipping a bit: the SEM refuses tokens for revoked
// identities, which instantly removes the user's ability to decrypt or
// sign. The SEM never sees user key halves or partial results, so it
// cannot decrypt or sign alone (for the pairing schemes, not even a
// SEM-corrupting adversary can — the asymmetry with IB-mRSA that §4
// stresses).
//
// MediatorBase provides the shared machinery (key-half registry,
// revocation checks, audit counters, thread safety); each scheme derives
// a mediator that implements its token computation.
//
// Concurrency design (docs/SEM_SERVICE.md has the full story):
//   - The key registry is sharded: N shards keyed by identity hash, each
//     with its own std::shared_mutex. Token issuance takes a *shared*
//     lock on one shard, so concurrent requests — even for the same
//     identity — never serialize on registry locks; install_key takes an
//     exclusive lock on one shard only.
//   - Revocation state is an epoch-published immutable snapshot: the hot
//     path copies the published shared_ptr under a briefly-held shared
//     lock (a refcount bump, never contending with other readers) and
//     does a set lookup — no nested locks. A revoke() is visible to
//     every request that starts after the new snapshot is published;
//     requests already past the check complete against the old epoch.
//   - Secrets never leave the registry: derived mediators compute their
//     token via the protected with_key(identity, fn) hook, which invokes
//     fn with a `const KeyHalf&` *inside* the shard's shared-lock scope.
//     No by-value copy of a key half ever escapes onto a caller's stack
//     (docs/SECRET_HYGIENE.md, "In-flight secrets").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "obs/span.h"

namespace medcrypt::mediated {

/// Thread-safe revocation set, shared by all mediators of one SEM
/// deployment so revoking an identity kills decryption *and* signing.
///
/// Readers see an immutable epoch-stamped snapshot published by writers;
/// is_revoked()/snapshot() copy the published pointer under a shared
/// lock held only for the refcount bump, so SEM token requests never
/// contend with each other and only momentarily with revocation updates.
/// (A lock-free std::atomic<shared_ptr> would also work, but libstdc++'s
/// implementation trips ThreadSanitizer — its load path unlocks the
/// embedded spin bit with a relaxed RMW — and the repo's CI runs this
/// class under TSan, so the snapshot is published with a real lock.)
class RevocationList {
 public:
  /// Immutable view of the revocation set at one epoch. Requests that
  /// captured a snapshot keep using it even if a revoke() lands
  /// concurrently — see docs/SEM_SERVICE.md for the visibility contract.
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::set<std::string, std::less<>> revoked;

    bool contains(std::string_view identity) const {
      return revoked.find(identity) != revoked.end();
    }
  };

  RevocationList() : snap_(std::make_shared<const Snapshot>()) {}

  /// Marks `identity` revoked. Idempotent. Publishes a new snapshot, so
  /// the change is effective for every token request that starts
  /// afterwards — this is the paper's "instantaneous revocation".
  void revoke(std::string_view identity);

  /// Restores a previously revoked identity (the paper notes a corrupted
  /// SEM can do this — and *only* this — to the pairing schemes).
  void unrevoke(std::string_view identity);

  bool is_revoked(std::string_view identity) const;

  std::size_t size() const;

  /// Monotone revocation-state version; bumps on every effective
  /// revoke()/unrevoke() (idempotent no-ops do not bump it).
  std::uint64_t epoch() const;

  /// The current published snapshot. Never null.
  std::shared_ptr<const Snapshot> snapshot() const {
    std::shared_lock lock(mu_);
    return snap_;
  }

 private:
  // Shared lock: copy the published pointer. Exclusive lock: the whole
  // copy-mutate-publish sequence in revoke()/unrevoke().
  mutable std::shared_mutex mu_;
  std::shared_ptr<const Snapshot> snap_;  // swapped only under exclusive mu_
};

/// Audit counters every mediator maintains. `tokens_issued` counts only
/// requests whose token computation *completed*; a request that fails
/// mid-computation (bad input detected under the key, arithmetic error)
/// is counted in none of the buckets.
///
/// These are *audit* counters, not optional telemetry: they keep
/// counting while the obs layer is killed at runtime
/// (obs::set_enabled(false)). The obs registry additionally scrapes them
/// (summed across all mediator instances) as `sem.tokens_issued` /
/// `sem.denials` / `sem.unknown_identities` through one registered
/// scrape source per mediator.
struct SemStats {
  std::uint64_t tokens_issued = 0;
  std::uint64_t denials = 0;
  std::uint64_t unknown_identities = 0;
};

/// Shared mediator machinery; KeyHalf is the SEM's piece of the user key
/// (a G1 point for mediated IBE, a Z_q scalar for GDH/ElGamal, a Z_φ(n)
/// exponent for IB-mRSA).
template <typename KeyHalf>
class MediatorBase {
 public:
  /// Registry shard count (power of two; identity-hash keyed).
  static constexpr std::size_t kShardCount = 16;

  explicit MediatorBase(std::shared_ptr<RevocationList> revocations)
      : revocations_(std::move(revocations)) {
    if (!revocations_) {
      throw InvalidArgument("MediatorBase: null revocation list");
    }
    // Expose this instance's audit counters to the obs registry; sources
    // sharing a name are summed on scrape, so a deployment running
    // several mediators (IBE + GDH + IBS against one SEM) still reports
    // one `sem.*` series. One multi-value source, so a scrape makes a
    // single stats() pass and the three series come from one snapshot —
    // a token landing mid-scrape can never show `issued` without the
    // matching totals.
    src_stats_ = obs::registry().register_scrape_source([this] {
      const SemStats s = stats();
      return obs::MetricsRegistry::ScrapeSeries{
          {"sem.tokens_issued", s.tokens_issued},
          {"sem.denials", s.denials},
          {"sem.unknown_identities", s.unknown_identities}};
    });
  }

  /// Wipes every installed SEM key half on teardown (each one is half of
  /// some user's private key — leaking it halves the attacker's work).
  /// KeyHalf types expose wipe() (BigInt, ec::Point); the constraint is
  /// checked at compile time so a new half type cannot silently opt out.
  ~MediatorBase() {
    static_assert(requires(KeyHalf& h) { h.wipe(); },
                  "SEM key-half types must provide wipe()");
    // Unregister the scrape source *before* tearing anything down — a
    // concurrent scrape must never run a callback into a dying instance.
    obs::registry().unregister_scrape_source(src_stats_);
    for (Shard& shard : shards_) {
      std::unique_lock lock(shard.mu);
      for (auto& entry : shard.keys) entry.second.wipe();
    }
  }
  MediatorBase(const MediatorBase&) = delete;
  MediatorBase& operator=(const MediatorBase&) = delete;

  /// Installs (or replaces) the SEM key half for `identity`. Takes an
  /// exclusive lock on the identity's shard only; issuance for other
  /// shards is unaffected. The half is taken by rvalue reference so the
  /// registry's copy is the only live one — callers hand over ownership
  /// (std::move) instead of leaving a second unwiped copy in their frame.
  void install_key(std::string identity, KeyHalf&& half) {
    Shard& shard = shard_for(identity);
    std::unique_lock lock(shard.mu);
    shard.keys.insert_or_assign(std::move(identity), std::move(half));
  }

  /// True if the identity has an installed key half.
  bool has_key(std::string_view identity) const {
    const Shard& shard = shard_for(identity);
    std::shared_lock lock(shard.mu);
    return shard.keys.find(identity) != shard.keys.end();
  }

  /// Number of installed key halves across all shards.
  std::size_t key_count() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mu);
      n += shard.keys.size();
    }
    return n;
  }

  const std::shared_ptr<RevocationList>& revocations() const {
    return revocations_;
  }

  /// One pass over the audit cells: each cell is visited exactly once
  /// and all three of its counters are read together, so a scrape is as
  /// coherent as relaxed atomics allow. The result is still only
  /// *weakly* consistent — recorders never synchronize with the scrape,
  /// so an increment landing mid-pass may or may not be included and
  /// the three totals need not come from one instant. Guaranteed: no
  /// torn reads, per-counter monotonicity across scrapes, and every
  /// increment that happened-before the call is counted.
  SemStats stats() const {
    SemStats s;
    for (const AuditCell& cell : audit_) {
      s.tokens_issued += cell.issued.load(std::memory_order_relaxed);
      s.denials += cell.denied.load(std::memory_order_relaxed);
      s.unknown_identities += cell.unknown.load(std::memory_order_relaxed);
    }
    return s;
  }

 protected:
  /// Runs `fn(const KeyHalf&)` against the installed key half of
  /// `identity`, entirely inside the shard's shared-lock scope, and
  /// returns fn's result. The key half is lent by const reference; no
  /// copy escapes the registry. Throws RevokedError for revoked
  /// identities (the paper's "return Error") and InvalidArgument for
  /// unknown ones. `tokens_issued` is counted only after fn returns —
  /// a throw from fn leaves the issuance counters untouched.
  template <typename Fn>
  auto with_key(std::string_view identity, Fn&& fn) const {
    return with_key_at(*revocations_->snapshot(), identity,
                       std::forward<Fn>(fn));
  }

  /// with_key against a caller-held revocation snapshot; batch issuers
  /// use this to give every request in a batch one consistent epoch.
  template <typename Fn>
  auto with_key_at(const RevocationList::Snapshot& snapshot,
                   std::string_view identity, Fn&& fn) const {
    AuditCell& cell = audit_[obs::thread_cell()];
    if (snapshot.contains(identity)) {
      cell.denied.fetch_add(1, std::memory_order_relaxed);
      throw RevokedError("SEM: identity is revoked: " + std::string(identity));
    }
    const Shard& shard = shard_for(identity);
    std::shared_lock lock(shard.mu);
    const auto it = shard.keys.find(identity);
    if (it == shard.keys.end()) {
      cell.unknown.fetch_add(1, std::memory_order_relaxed);
      throw InvalidArgument("SEM: unknown identity: " + std::string(identity));
    }
    // The span times only the token computation itself (the scheme's
    // pairing / scalar-mul under the lent key half), not the revocation
    // check or registry lookup.
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, const KeyHalf&>>) {
      {
        obs::Span span(obs::Stage::kTokenIssue);
        std::invoke(fn, std::as_const(it->second));
      }
      cell.issued.fetch_add(1, std::memory_order_relaxed);
    } else {
      obs::Span span(obs::Stage::kTokenIssue);
      auto result = std::invoke(fn, std::as_const(it->second));
      span.finish();
      cell.issued.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
  }

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, KeyHalf, std::less<>> keys;  // guarded by mu
  };

  // Audit counters, sharded per thread cell (obs::kThreadCells) so
  // concurrent issuance on different threads does not bounce one cache
  // line. stats() sums the cells in one pass.
  // Monotonic counters; stats() documents the weak-consistency contract,
  // so relaxed increments and reads are safe.
  struct alignas(64) AuditCell {
    std::atomic<std::uint64_t> issued{0};
    std::atomic<std::uint64_t> denied{0};
    std::atomic<std::uint64_t> unknown{0};
  };

  static_assert((kShardCount & (kShardCount - 1)) == 0,
                "kShardCount must be a power of two (mask-indexed)");

  Shard& shard_for(std::string_view identity) {
    return shards_[std::hash<std::string_view>{}(identity) &
                   (kShardCount - 1)];
  }
  const Shard& shard_for(std::string_view identity) const {
    return shards_[std::hash<std::string_view>{}(identity) &
                   (kShardCount - 1)];
  }

  std::array<Shard, kShardCount> shards_;
  std::shared_ptr<RevocationList> revocations_;
  mutable std::array<AuditCell, obs::kThreadCells> audit_{};
  std::uint64_t src_stats_ = 0;
};

}  // namespace medcrypt::mediated
