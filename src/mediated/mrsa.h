// Mediated RSA — the half-exponent protocol of Boneh–Ding–Tsudik–Wong [4]
// (paper §1–§2), shared by both RSA instances of the paper's "any
// 2-out-of-2 threshold scheme yields a mediated one" (§4):
//
//   - per-user mRSA (this header): a CA generates an individual key
//     (n_u, e, d) per user; senders and verifiers use the certified
//     public key;
//   - IB-mRSA (ib_mrsa.h): one common modulus, e_ID derived from the
//     identity.
//
//   Keygen: d is split additively, d = d_user + d_sem mod φ(n).
//   Encrypt/Verify: plain RSA-OAEP / RSA-FDH under (n, e) — the SEM is
//     transparent to senders and verifiers.
//   Decrypt: SEM returns m_sem = c^{d_sem}; user computes m_user =
//     c^{d_user}; m = OAEP-decode(m_sem · m_user mod n).
//   Sign: the mirror protocol on the FDH value; the user verifies before
//     releasing.
//
// The two instances differ only in where (n, e) come from and in the FDH
// domain string. The trust-model contrast the paper draws (§2): with
// per-user moduli a user colluding with the SEM recovers only their OWN
// d — they learn nothing about other users, so the SEM need only be
// SEMI-trusted. The common modulus of IB-mRSA is what upgrades the SEM to
// fully-trusted. Tests demonstrate both sides of this asymmetry.
#pragma once

#include <string>
#include <string_view>

#include "mediated/sem_server.h"
#include "rsa/oaep.h"
#include "rsa/rsa.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

using bigint::BigInt;

/// FDH domain of per-user mRSA signatures (IB-mRSA's is kIbMRsaFdhDomain).
inline constexpr std::string_view kMRsaFdhDomain = "mRSA.FDH";

/// One identity's mRSA key as the CA or PKG issues it: the public key and
/// the two exponent halves, d = d_user + d_sem (mod φ(n)). Both halves are
/// wiped on destruction (with e they give d, and under IB-mRSA's common
/// modulus that factors n).
struct MRsaKeys {
  MRsaKeys() = default;
  MRsaKeys(rsa::PublicKey pub_, BigInt d_user_, BigInt d_sem_)
      : pub(std::move(pub_)), d_user(std::move(d_user_)),
        d_sem(std::move(d_sem_)) {}
  MRsaKeys(const MRsaKeys&) = default;
  MRsaKeys(MRsaKeys&&) = default;
  MRsaKeys& operator=(const MRsaKeys&) = default;
  MRsaKeys& operator=(MRsaKeys&&) = default;
  ~MRsaKeys() {
    d_user.wipe();
    d_sem.wipe();
  }

  rsa::PublicKey pub;
  BigInt d_user;
  BigInt d_sem;
};

/// Generates a fresh per-user key and splits the exponent. The CA
/// discards d, p, q and φ after the split (unlike the IB-mRSA PKG, which
/// must keep φ(n) to serve future identities).
MRsaKeys mrsa_keygen(std::size_t modulus_bits, RandomSource& rng);

/// Sender-side encryption (plain RSA-OAEP; SEM-transparent).
Bytes mrsa_encrypt(const rsa::PublicKey& pub, BytesView message,
                   RandomSource& rng);

/// Full-domain hash of `message` into Z_n under `domain` (128 extra bits
/// kill the mod-n bias).
BigInt mrsa_fdh(const rsa::PublicKey& pub, BytesView message,
                std::string_view domain = kMRsaFdhDomain);

/// Verifier-side check σ^e = FDH(M) (plain RSA; SEM-transparent).
bool mrsa_verify(const rsa::PublicKey& pub, BytesView message,
                 const BigInt& signature,
                 std::string_view domain = kMRsaFdhDomain);

/// SEM-side record for one identity: the modulus and its exponent half.
/// The exponent half is wiped on destruction (and by MediatorBase
/// teardown).
struct MRsaSemRecord {
  MRsaSemRecord() = default;
  MRsaSemRecord(BigInt modulus_, BigInt d_sem_)
      : modulus(std::move(modulus_)), d_sem(std::move(d_sem_)) {}
  MRsaSemRecord(const MRsaSemRecord&) = default;
  MRsaSemRecord(MRsaSemRecord&&) = default;
  MRsaSemRecord& operator=(const MRsaSemRecord&) = default;
  MRsaSemRecord& operator=(MRsaSemRecord&&) = default;
  ~MRsaSemRecord() { wipe(); }

  void wipe() { d_sem.wipe(); }

  BigInt modulus;
  BigInt d_sem;
};

/// SEM-side endpoint for both mRSA instances.
class MRsaMediator : public MediatorBase<MRsaSemRecord> {
 public:
  explicit MRsaMediator(std::shared_ptr<RevocationList> revocations)
      : MediatorBase<MRsaSemRecord>(std::move(revocations)) {}

  /// Issues the half-result c^{d_sem} mod n for a ciphertext or FDH value.
  /// Throws RevokedError if `identity` is revoked, InvalidArgument if it
  /// is unknown or c is outside [0, n).
  BigInt issue_token(std::string_view identity, const BigInt& c) const;
};

/// User-side endpoint holding (n, e), d_user and the FDH domain.
class MRsaUser {
 public:
  MRsaUser(rsa::PublicKey pub, std::string identity, BigInt user_key,
           std::string_view fdh_domain);

  /// d_user is the exponent half the §2 collusion analysis protects;
  /// scrub it when the holder dies.
  ~MRsaUser() { user_key_.wipe(); }
  MRsaUser(const MRsaUser&) = default;
  MRsaUser(MRsaUser&&) = default;
  MRsaUser& operator=(const MRsaUser&) = default;
  MRsaUser& operator=(MRsaUser&&) = default;

  const std::string& identity() const { return identity_; }
  const rsa::PublicKey& public_key() const { return pub_; }

  /// Mediated OAEP decryption. Throws RevokedError or DecryptionError.
  Bytes decrypt(const Bytes& ciphertext, const MRsaMediator& sem,
                sim::Transport* transport = nullptr) const;

  /// Mediated FDH signing; the user verifies before releasing.
  BigInt sign(BytesView message, const MRsaMediator& sem,
              sim::Transport* transport = nullptr) const;

  /// The user's exponent half (exposed for the §2 collusion analysis in
  /// tests).
  const BigInt& user_key() const { return user_key_; }

 private:
  rsa::PublicKey pub_;
  std::string identity_;
  BigInt user_key_;
  std::string fdh_domain_;
};

/// Installs keys.d_sem at the SEM under `identity` and returns the user
/// endpoint: the enrollment step both instances share.
MRsaUser enroll_mrsa_keys(MRsaKeys&& keys, MRsaMediator& sem,
                          std::string identity, std::string_view fdh_domain);

/// CA-side per-user enrollment: keygen + install the SEM record.
MRsaUser enroll_per_user_mrsa(std::size_t modulus_bits, MRsaMediator& sem,
                              std::string identity, RandomSource& rng);

}  // namespace medcrypt::mediated
