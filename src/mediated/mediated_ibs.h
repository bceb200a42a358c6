// Mediated identity-based signatures (Hess) — the identity-based
// *signature* counterpart of §4's mediated IBE, completing the pairing
// side of the paper's "identity based encryption and signature schemes
// where it is possible to efficiently revoke identities" (§2 has both
// for RSA; §4–§5 give the pairing schemes only non-identity signing).
//
//   Keygen: the same PKG split as mediated IBE — one enrollment serves
//     both decryption and signing: d_ID = d_ID,user + d_ID,sem.
//   Sign(M):
//     user: k ∈R Z_q, r = ê(P,P)^k           (commitment; user-only
//           randomness — no joint coin flipping, avoiding §5's complaint
//           about probabilistic threshold signatures)
//     user → SEM: (ID, M, r)                 (r compressed to one F_p
//                                             element, field::gt_to_bytes)
//     SEM:  check revocation; v = H(M, r);   (the SEM RECOMPUTES the
//           token = v·d_ID,sem                challenge itself, so it
//                                             cannot be abused as a
//                                             c·d_sem oracle for chosen c)
//     user: v = H(M, r); u = v·d_ID,user + token + k·P;
//           verify (u, v) before releasing.
//   Verify: standard Hess verification against the identity string.
#pragma once

#include "ec/fixed_base.h"
#include "ibs/hess.h"
#include "mediated/sem_server.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

using field::Fp2;

/// SEM-side registry record for one identity: a fixed-base window table
/// over d_ID,sem. Every token is v·d_ID,sem for a fresh challenge v, so
/// the base never changes — the table turns each issuance into ~2 mixed
/// additions per scalar nibble instead of a full double-and-add. Table
/// entries are small multiples of the secret half, so the record wipes
/// them on destruction.
struct IbsSemKey {
  IbsSemKey() = default;
  explicit IbsSemKey(ec::FixedBaseTable t) : table(std::move(t)) {}
  IbsSemKey(const IbsSemKey&) = default;
  IbsSemKey(IbsSemKey&&) = default;
  IbsSemKey& operator=(const IbsSemKey&) = default;
  IbsSemKey& operator=(IbsSemKey&&) = default;
  ~IbsSemKey() { wipe(); }

  void wipe() { table.wipe(); }

  ec::FixedBaseTable table;
};

/// SEM-side endpoint for mediated Hess IBS. The key halves are the SAME
/// d_ID,sem points as the IbeMediator's — a deployment may share one
/// registry; the class is separate only to keep the token protocols
/// independently auditable.
class IbsMediator : public MediatorBase<IbsSemKey> {
 public:
  IbsMediator(ibe::SystemParams params,
              std::shared_ptr<RevocationList> revocations);

  const ibe::SystemParams& params() const { return params_; }

  /// Installs (or replaces) the SEM half for `identity`. The fixed-base
  /// table over d_ID,sem is built here, once per enrollment; the raw
  /// point argument is wiped before returning.
  void install_key(std::string identity, ec::Point d_sem);

  /// Issues the half-response v·d_ID,sem for message M and the
  /// commitment r in its G_T wire form (field::gt_to_bytes), decoding r
  /// and recomputing v = H(M, r) itself. Throws InvalidArgument on a
  /// malformed commitment and RevokedError when revoked.
  ec::Point issue_token(std::string_view identity, BytesView message,
                        BytesView commitment) const;

 private:
  ibe::SystemParams params_;
};

/// User-side endpoint holding d_ID,user.
class MediatedIbsUser {
 public:
  MediatedIbsUser(ibe::SystemParams params, std::string identity,
                  ec::Point user_key);

  /// d_ID,user is the user's half of the Hess signing key; scrub its
  /// coordinates when the holder dies.
  ~MediatedIbsUser() { user_key_.wipe(); }
  MediatedIbsUser(const MediatedIbsUser&) = default;
  MediatedIbsUser(MediatedIbsUser&&) = default;
  MediatedIbsUser& operator=(const MediatedIbsUser&) = default;
  MediatedIbsUser& operator=(MediatedIbsUser&&) = default;

  const std::string& identity() const { return identity_; }

  /// Runs the mediated signing protocol; verifies the assembled
  /// signature before returning it.
  ibs::HessSignature sign(BytesView message, const IbsMediator& sem,
                          RandomSource& rng,
                          sim::Transport* transport = nullptr) const;

 private:
  ibe::SystemParams params_;
  std::string identity_;
  ec::Point user_key_;
};

/// PKG-side enrollment (same split as mediated IBE).
MediatedIbsUser enroll_ibs_user(const ibe::Pkg& pkg, IbsMediator& sem,
                                std::string identity, RandomSource& rng);

}  // namespace medcrypt::mediated
