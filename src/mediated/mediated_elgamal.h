// Mediated FO-ElGamal — the paper's "any 2-out-of-2 threshold scheme can
// be mediated" instantiation (§4, closing paragraphs): ElGamal padded
// with Fujisaki–Okamoto supports a SEM that turns it into a weakly
// semantically secure mediated cryptosystem.
//
//   Keygen: x = x_user + x_sem (mod q), Y = x·P.
//   Decrypt C = <U, V, W>:
//     SEM:  check revocation; S_sem = x_sem·U                → token
//     user: S = S_sem + x_user·U; FO-decrypt with shared S.
//
// Unlike the identity-based schemes, keys here are ordinary certified
// public keys — this is the paper's bridge from SEM revocation to
// conventional PKI cryptosystems. The SEM half is a Z_q scalar, as in
// mediated GDH, so the SEM is a GdhMediator: its subgroup-checked
// x_sem·T token serves U here and blinded hashes there.
#pragma once

#include "elgamal/ec_elgamal.h"
#include "mediated/mediated_gdh.h"
#include "sim/transport.h"

namespace medcrypt::mediated {

/// User-side endpoint holding x_user and the certified public key Y.
class MediatedElGamalUser {
 public:
  MediatedElGamalUser(elgamal::Params params, std::string identity,
                      BigInt user_key, Point public_key);

  /// x_user is the additive share of the decryption exponent; scrub it
  /// when the holder dies.
  ~MediatedElGamalUser() { user_key_.wipe(); }
  MediatedElGamalUser(const MediatedElGamalUser&) = default;
  MediatedElGamalUser(MediatedElGamalUser&&) = default;
  MediatedElGamalUser& operator=(const MediatedElGamalUser&) = default;
  MediatedElGamalUser& operator=(MediatedElGamalUser&&) = default;

  const std::string& identity() const { return identity_; }
  const Point& public_key() const { return public_key_; }

  /// Mediated decryption. Throws RevokedError or DecryptionError.
  Bytes decrypt(const elgamal::FoCiphertext& ct, const GdhMediator& sem,
                sim::Transport* transport = nullptr) const;

 private:
  elgamal::Params params_;
  std::string identity_;
  BigInt user_key_;
  Point public_key_;
};

/// CA-side enrollment: samples the split key, installs the SEM half,
/// returns the user endpoint (whose public_key() the CA would certify).
MediatedElGamalUser enroll_elgamal_user(const elgamal::Params& params,
                                        GdhMediator& sem,
                                        std::string identity,
                                        RandomSource& rng);

}  // namespace medcrypt::mediated
