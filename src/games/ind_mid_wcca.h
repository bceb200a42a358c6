// Definition 3 (§4.1): the IND-mID-wCCA game against the mediated
// Boneh–Franklin IBE — "weak" semantic security against insider attacks.
//
// The adversary models a coalition of dishonest users WITH the SEM:
// it may extract the *user* halves of any identity except the challenge
// one, and the *SEM* halves (and per-ciphertext SEM tokens) of EVERY
// identity including the challenge one. After the challenge it may even
// request the SEM token for the challenge ciphertext itself — everything
// short of the challenge user's own key half.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "games/game_common.h"
#include "hash/drbg.h"
#include "ibe/pkg.h"

namespace medcrypt::games {

/// Challenger for IND-mID-wCCA (Definition 3).
class IndMidWccaGame {
 public:
  IndMidWccaGame(pairing::ParamSet group, std::size_t message_len,
                 std::uint64_t seed);

  const ibe::SystemParams& params() const { return pkg_.params(); }

  // --- oracles (Definition 3, step 2) ----------------------------------------

  /// Decryption query: the challenger generates both halves and returns
  /// the decryption of C (or throws DecryptionError on invalid C).
  /// Forbidden on the exact challenge pair in phase 2.
  Bytes decrypt(std::string_view identity, const ibe::FullCiphertext& ct);

  /// User key extraction d_ID,user. Forbidden on the challenge identity.
  ec::Point extract_user_key(std::string_view identity);

  /// SEM query: the token ê(U, d_ID,sem) for (identity, C). Allowed on
  /// the challenge pair — the "w" in wCCA.
  field::Fp2 sem_query(std::string_view identity,
                       const ibe::FullCiphertext& ct);

  /// SEM key extraction d_ID,sem. Allowed for every identity.
  ec::Point extract_sem_key(std::string_view identity);

  // --- challenge / guess --------------------------------------------------------

  const ibe::FullCiphertext& challenge(std::string_view identity,
                                       BytesView m0, BytesView m1);

  bool submit_guess(int b);

  Phase phase() const { return phase_; }

 private:
  /// Lazily fixes the (user, sem) split for an identity — queries about
  /// the same identity must be mutually consistent.
  const ibe::SplitKey& split_for(std::string_view identity);

  hash::HmacDrbg rng_;
  ibe::Pkg pkg_;
  std::map<std::string, ibe::SplitKey, std::less<>> splits_;
  Phase phase_ = Phase::kQuery1;
  std::set<std::string, std::less<>> user_extracted_;
  std::optional<std::string> challenge_identity_;
  std::optional<ibe::FullCiphertext> challenge_ct_;
  int coin_ = 0;
};

}  // namespace medcrypt::games
