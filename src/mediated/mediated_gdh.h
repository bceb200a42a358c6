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
#include <string>
#include <utility>
#include <vector>

#include "gdh/bls.h"
#include "mediated/sem_server.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

using bigint::BigInt;
using ec::Point;

/// SEM-side endpoint for every scheme whose SEM half is one Z_q scalar
/// x_sem: mediated GDH signing (§5), revocable blind GDH signing and
/// mediated FO-ElGamal decryption (§4).
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

  /// Issues x_sem·T for a caller-supplied point T: the blinded message
  /// hash of gdh::blind_message (revocable blind signing: the SEM learns
  /// nothing about the message but still enforces revocation) or a
  /// mediated ElGamal U. Throws InvalidArgument unless T ∈ G1 \ {O} —
  /// x_sem·T for T of order dividing h would leak x_sem modulo that
  /// order — and RevokedError if `identity` is revoked.
  Point issue_token(std::string_view identity, const Point& t) const;

 private:
  // One half-signature against a given revocation snapshot: the body of
  // both message issue_token and every issue_tokens slot.
  Point token_at(const RevocationList::Snapshot& snapshot,
                 std::string_view identity, BytesView message) const;

  // x_sem·T under the lent key half: the one scalar-half body.
  Point scalar_half_at(const RevocationList::Snapshot& snapshot,
                       std::string_view identity, const Point& t) const;

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

/// The two-half key split GDH (§5) and mediated ElGamal (§4) share: the
/// TA draws x_user, then x_sem, from Z_q*, installs x_sem at `sem` under
/// `identity` and returns {x_user, R = (x_user + x_sem)·P}.
std::pair<BigInt, Point> enroll_scalar_halves(const pairing::ParamSet& group,
                                              GdhMediator& sem,
                                              const std::string& identity,
                                              RandomSource& rng);

/// TA-side enrollment: generates the split key pair, installs the SEM
/// half, returns the user endpoint.
MediatedGdhUser enroll_gdh_user(const pairing::ParamSet& group,
                                GdhMediator& sem, std::string identity,
                                RandomSource& rng);

}  // namespace medcrypt::mediated
