// The mediated pairing-based IBE of paper §4 — the headline construction.
//
//   Setup/Encrypt: exactly FullIdent (the SEM is transparent to senders —
//     the revocation architecture costs the *sender* nothing).
//   Keygen: the PKG computes d_ID = s·H1(ID), picks a random
//     d_ID,user ∈ G1 and hands d_ID,sem = d_ID - d_ID,user to the SEM.
//   Decrypt (user u, ciphertext <U, V, W>):
//     SEM:  check revocation; g_sem = ê(U, d_ID,sem)          → token
//     user: g_user = ê(U, d_ID,user); g = g_sem · g_user;
//           unmask σ, M; check U = H3(σ, M)·P.
//
// Key properties the tests verify:
//   - the SEM never learns plaintexts (it sees only U);
//   - a token is bound to U: reusing it on another ciphertext requires
//     the same U, which collision-free H3 prevents;
//   - SEM + *other* users' key halves still cannot decrypt an honest
//     user's ciphertext (IND-mID-wCCA, Theorem 4.1);
//   - revocation is instantaneous: the next token request fails.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ibe/pkg.h"
#include "mediated/sem_server.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

using ec::Point;
using field::Fp2;

/// SEM-side registry record for one identity: the Miller-loop program of
/// d_ID,sem (pairing::TatePairing::prepare). The raw point is not
/// retained — by pairing symmetry ê(U, d_sem) = ê(d_sem, U), so the
/// prepared program alone computes every token while skipping the
/// fixed-argument Jacobian chain. The program's coefficients derive from
/// the secret half, so the record wipes them on destruction.
struct IbeSemKey {
  IbeSemKey() = default;
  explicit IbeSemKey(pairing::PreparedPairing p) : prepared(std::move(p)) {}
  IbeSemKey(const IbeSemKey&) = default;
  IbeSemKey(IbeSemKey&&) = default;
  IbeSemKey& operator=(const IbeSemKey&) = default;
  IbeSemKey& operator=(IbeSemKey&&) = default;
  ~IbeSemKey() { wipe(); }

  void wipe() { prepared.wipe(); }

  pairing::PreparedPairing prepared;
};

/// SEM-side endpoint of the mediated IBE: stores d_ID,sem halves and
/// issues per-ciphertext decryption tokens.
class IbeMediator : public MediatorBase<IbeSemKey> {
 public:
  IbeMediator(ibe::SystemParams params,
              std::shared_ptr<RevocationList> revocations);

  const ibe::SystemParams& params() const { return params_; }

  /// Installs (or replaces) the SEM half for `identity`. The half's
  /// Miller-loop program is precomputed here, once per enrollment, so
  /// issue_token pays only the line evaluations; the raw point argument
  /// is wiped before returning.
  void install_key(std::string identity, Point d_sem);

  /// Issues the token g_sem = ê(U, d_ID,sem) for one ciphertext.
  /// Throws RevokedError if `identity` is revoked.
  Fp2 issue_token(std::string_view identity, const Point& u) const;

  /// One entry of an issue_tokens() batch; `u` must outlive the call.
  struct TokenRequest {
    std::string_view identity;
    const Point* u = nullptr;
  };

  /// Issues a batch of tokens against ONE revocation snapshot, so every
  /// request in the batch sees the same epoch; each token is computed
  /// alone, exactly as issue_token computes it. Per-request failures
  /// (revoked, unknown, malformed U) yield std::nullopt in the matching
  /// slot instead of aborting the batch; audit counters are updated per
  /// request exactly as for issue_token.
  std::vector<std::optional<Fp2>> issue_tokens(
      std::span<const TokenRequest> requests) const;

 private:
  // One token against a given revocation snapshot: the body of both
  // issue_token and every issue_tokens slot.
  Fp2 token_at(const RevocationList::Snapshot& snapshot,
               std::string_view identity, const Point& u) const;

  ibe::SystemParams params_;
};

/// User-side endpoint: holds d_ID,user and runs the decryption protocol
/// against a mediator.
class MediatedIbeUser {
 public:
  MediatedIbeUser(ibe::SystemParams params, std::string identity,
                  Point user_key);

  /// d_ID,user is the user's half of the §4 private key; scrub its
  /// coordinates — and the prepared program derived from them — when
  /// the holder dies.
  ~MediatedIbeUser() {
    user_key_.wipe();
    user_prepared_.wipe();
  }
  MediatedIbeUser(const MediatedIbeUser&) = default;
  MediatedIbeUser(MediatedIbeUser&&) = default;
  MediatedIbeUser& operator=(const MediatedIbeUser&) = default;
  MediatedIbeUser& operator=(MediatedIbeUser&&) = default;

  const std::string& identity() const { return identity_; }

  /// Runs the §4 decryption protocol. `transport`, when given, accounts
  /// the two protocol messages (request: identity + U; response: the
  /// G2 token as one F_p element, field::gt_to_bytes). Throws
  /// RevokedError (SEM refused) or DecryptionError (validity check
  /// failed).
  Bytes decrypt(const ibe::FullCiphertext& ct, const IbeMediator& sem,
                sim::Transport* transport = nullptr) const;

  /// The user's partial pairing value ê(U, d_ID,user) — exposed for the
  /// security tests that inspect what each side learns.
  Fp2 partial(const Point& u) const;

 private:
  ibe::SystemParams params_;
  std::string identity_;
  Point user_key_;
  // Prepared Miller program of d_ID,user (by pairing symmetry
  // partial(U) = ê(d_user, U)), computed once at enrollment instead of
  // per decryption. Derived from the secret half — wiped with it.
  pairing::PreparedPairing user_prepared_;
};

/// PKG-side enrollment: extracts + splits the identity key, installs the
/// SEM half, returns the user endpoint. After enrolling every user the
/// PKG can go offline (§4).
MediatedIbeUser enroll_ibe_user(const ibe::Pkg& pkg, IbeMediator& sem,
                                std::string identity, RandomSource& rng);

}  // namespace medcrypt::mediated
