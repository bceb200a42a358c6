// The mediated GDH signature of paper §5.
//
//   Keygen: TA picks x_user, x_sem ∈ Z_q; R = (x_user + x_sem)·P is the
//     public key; halves go to user and SEM.
//   Sign(M):
//     SEM:  check revocation; S_sem = x_sem·h(M)              → token
//     user: S_user = x_user·h(M); S = S_sem + S_user;
//           verify S before releasing (the §5 protocol's final step,
//           against the h(M) just computed — no second hash).
//   Verify: standard GDH check ê(P, S) = ê(R, h(M)) (gdh::verify runs it
//     cofactor-free).
//
// Efficiency claims reproduced by the benches: each side performs one
// scalar multiplication; the SEM → user token is ONE compressed G1 point
// (~160 bits at the paper's parameters) vs 1024 bits for mediated RSA —
// the paper's headline communication win. Verification is the paper's
// two-pairing check ("the only disadvantage of mediated GDH"), run as
// one pair_many: two Miller loops and one final exponentiation.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "gdh/bls.h"
#include "mediated/sem_server.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

using bigint::BigInt;
using ec::Point;

/// SEM-side endpoint for mediated GDH signing.
class GdhMediator : public MediatorBase<BigInt> {
 public:
  GdhMediator(pairing::ParamSet group,
              std::shared_ptr<RevocationList> revocations);

  const pairing::ParamSet& group() const { return group_; }

  /// Issues the half-signature S_sem = x_sem·h(M).
  /// Throws RevokedError if `identity` is revoked.
  ///
  /// h(M) — at 1.34 ms the dominant cost of a GDH token — is served
  /// from the process-wide identity-point cache under gdh::kHashDomain,
  /// keyed by the message bytes (real traffic re-signs a Zipf-skewed
  /// working set of messages, so hit rates are high). The entry is public
  /// and carries no revocation state: revoking an identity denies its
  /// key half and leaves every cached h(M) in place.
  Point issue_token(std::string_view identity, BytesView message) const;

  /// One entry of an issue_tokens() batch; `message` must outlive the
  /// call.
  struct SignRequest {
    std::string_view identity;
    BytesView message;
  };

  /// Issues a batch of half-signatures against ONE revocation snapshot;
  /// each request is an issue_token body (cached h(M), then x_sem·h(M)).
  /// Per-request failures (revoked, unknown) yield std::nullopt in the
  /// matching slot instead of aborting the batch; audit counters are
  /// updated per request exactly as for issue_token.
  std::vector<std::optional<Point>> issue_tokens(
      std::span<const SignRequest> requests) const;

  /// Blind-signing token: x_sem·B for a caller-supplied point B (the
  /// blinded message hash of gdh::blind_message). The SEM learns nothing
  /// about the underlying message but still enforces revocation —
  /// revocable blind signing. Rejects points outside the q-order
  /// subgroup (a malformed B could otherwise leak bits of x_sem).
  Point issue_blind_token(std::string_view identity, const Point& blinded) const;

 private:
  // One half-signature against a given revocation snapshot: the body of
  // both issue_token and every issue_tokens slot.
  Point token_at(const RevocationList::Snapshot& snapshot,
                 std::string_view identity, BytesView message) const;

  pairing::ParamSet group_;
};

/// User-side endpoint: holds x_user and the public key R.
class MediatedGdhUser {
 public:
  MediatedGdhUser(pairing::ParamSet group, std::string identity,
                  BigInt user_key, Point public_key);

  /// x_user is the §5 additive key share; scrub it when the holder
  /// dies.
  ~MediatedGdhUser() { user_key_.wipe(); }
  MediatedGdhUser(const MediatedGdhUser&) = default;
  MediatedGdhUser(MediatedGdhUser&&) = default;
  MediatedGdhUser& operator=(const MediatedGdhUser&) = default;
  MediatedGdhUser& operator=(MediatedGdhUser&&) = default;

  const std::string& identity() const { return identity_; }
  const Point& public_key() const { return public_key_; }

  /// Runs the §5 signing protocol, including the user's final
  /// verification of the assembled signature. Throws RevokedError if the
  /// SEM refuses, Error if the assembled signature does not verify
  /// (e.g. the SEM misbehaved).
  Point sign(BytesView message, const GdhMediator& sem,
             sim::Transport* transport = nullptr) const;

 private:
  pairing::ParamSet group_;
  std::string identity_;
  BigInt user_key_;
  Point public_key_;
};

/// TA-side enrollment: generates the split key pair, installs the SEM
/// half, returns the user endpoint.
MediatedGdhUser enroll_gdh_user(const pairing::ParamSet& group,
                                GdhMediator& sem, std::string identity,
                                RandomSource& rng);

}  // namespace medcrypt::mediated
