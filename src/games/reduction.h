// The Theorem 4.1 reduction, operationally.
//
// The paper proves IND-mID-wCCA security of the mediated IBE by building,
// from any adversary A against the mediated scheme, an adversary B
// against plain FullIdent with the SAME advantage. This class IS that B:
// it exposes the mediated game's oracle surface to A, but answers every
// query by consulting an IndIdCcaGame challenger and a self-maintained
// list L_sem of simulated SEM key halves — exactly the simulation in the
// proof:
//
//   - hash/decryption queries  -> forwarded to the CCA challenger;
//   - user key extraction      -> extract d_ID from the challenger,
//                                 return d_ID - d_ID,sem (L_sem entry,
//                                 created fresh-random if absent);
//   - SEM query / SEM key extraction -> served entirely from L_sem
//                                 (fresh random d_ID,sem on first use);
//   - challenge and guess      -> forwarded verbatim.
//
// Tests validate the proof's crux — that A's view under B is distributed
// identically to a real mediated challenger's — by checking the mutual
// consistency of all oracle answers, and that B's win condition tracks
// A's guess exactly.
#pragma once

#include <map>
#include <string>

#include "games/ind_id_cca.h"

namespace medcrypt::games {

/// Adversary B of Theorem 4.1: a mediated-game challenger implemented by
/// simulation against a plain IND-ID-CCA challenger.
class WccaToCcaReduction {
 public:
  /// Wraps an existing CCA challenger (B "receives the BF system
  /// parameters from its challenger"). The challenger must be fresh.
  /// `seed` drives B's own randomness (the simulated SEM halves).
  WccaToCcaReduction(IndIdCcaGame& challenger, std::uint64_t seed);

  const ibe::SystemParams& params() const { return challenger_.params(); }

  // --- the mediated-game oracle surface exposed to A ---------------------------

  Bytes decrypt(std::string_view identity, const ibe::FullCiphertext& ct);
  ec::Point extract_user_key(std::string_view identity);
  field::Fp2 sem_query(std::string_view identity,
                       const ibe::FullCiphertext& ct);
  ec::Point extract_sem_key(std::string_view identity);
  const ibe::FullCiphertext& challenge(std::string_view identity, BytesView m0,
                                       BytesView m1);

  /// A's guess becomes B's guess; returns whether B won ITS game
  /// ("our new turing machine B has thus the same advantage as A").
  bool submit_guess(int b);

  /// Pairing computations B performed for SEM queries (the reduction
  /// cost q_S·t_E of the theorem statement).
  std::uint64_t pairings_computed() const { return pairings_computed_; }

  /// G1 additions B performed for user key extractions (q_E·t_A).
  std::uint64_t additions_computed() const { return additions_computed_; }

 private:
  /// L_sem lookup with fresh-random insertion.
  const ec::Point& sem_half(std::string_view identity);

  IndIdCcaGame& challenger_;
  hash::HmacDrbg rng_;
  std::map<std::string, ec::Point, std::less<>> l_sem_;
  std::uint64_t pairings_computed_ = 0;
  std::uint64_t additions_computed_ = 0;
};

}  // namespace medcrypt::games
