#include "games/ind_mid_wcca.h"

namespace medcrypt::games {

IndMidWccaGame::IndMidWccaGame(pairing::ParamSet group,
                               std::size_t message_len, std::uint64_t seed)
    : rng_(seed), pkg_(std::move(group), message_len, rng_) {}

const ibe::SplitKey& IndMidWccaGame::split_for(std::string_view identity) {
  const auto it = splits_.find(identity);
  if (it != splits_.end()) return it->second;
  auto [inserted, ok] =
      splits_.emplace(std::string(identity), pkg_.extract_split(identity, rng_));
  return inserted->second;
}

Bytes IndMidWccaGame::decrypt(std::string_view identity,
                              const ibe::FullCiphertext& ct) {
  if (phase_ == Phase::kFinished) {
    throw GameViolation("IND-mID-wCCA: game already finished");
  }
  if (phase_ == Phase::kQuery2 && challenge_identity_ &&
      *challenge_identity_ == identity && challenge_ct_ &&
      challenge_ct_->to_bytes() == ct.to_bytes()) {
    throw GameViolation(
        "IND-mID-wCCA: cannot decrypt the challenge ciphertext");
  }
  const ibe::SplitKey& split = split_for(identity);
  const pairing::TatePairing& pairing = *pkg_.params().group.pairing;
  const auto g = pairing.pair(ct.u, split.user) * pairing.pair(ct.u, split.sem);
  return ibe::full_decrypt_with_mask(pkg_.params(), g, ct);
}

ec::Point IndMidWccaGame::extract_user_key(std::string_view identity) {
  if (phase_ == Phase::kFinished) {
    throw GameViolation("IND-mID-wCCA: game already finished");
  }
  if (challenge_identity_ && *challenge_identity_ == identity) {
    throw GameViolation(
        "IND-mID-wCCA: cannot extract the challenge identity's user key");
  }
  user_extracted_.insert(std::string(identity));
  return split_for(identity).user;
}

field::Fp2 IndMidWccaGame::sem_query(std::string_view identity,
                                     const ibe::FullCiphertext& ct) {
  if (phase_ == Phase::kFinished) {
    throw GameViolation("IND-mID-wCCA: game already finished");
  }
  // Allowed on everything, including the challenge pair (Definition 3,
  // step 5: "It is allowed to make a SEM request on C* for ID*").
  return pkg_.params().group.pairing->pair(ct.u, split_for(identity).sem);
}

ec::Point IndMidWccaGame::extract_sem_key(std::string_view identity) {
  if (phase_ == Phase::kFinished) {
    throw GameViolation("IND-mID-wCCA: game already finished");
  }
  return split_for(identity).sem;
}

const ibe::FullCiphertext& IndMidWccaGame::challenge(std::string_view identity,
                                                     BytesView m0,
                                                     BytesView m1) {
  if (phase_ != Phase::kQuery1) {
    throw GameViolation("IND-mID-wCCA: challenge already issued");
  }
  if (user_extracted_.contains(std::string(identity))) {
    throw GameViolation(
        "IND-mID-wCCA: challenge identity's user key was extracted");
  }
  if (m0.size() != m1.size() || m0.size() != pkg_.params().message_len) {
    throw GameViolation("IND-mID-wCCA: challenge messages must be message_len");
  }
  std::uint8_t byte;
  rng_.fill(std::span(&byte, 1));
  coin_ = byte & 1;
  challenge_identity_ = std::string(identity);
  challenge_ct_ =
      ibe::full_encrypt(pkg_.params(), identity, coin_ ? m1 : m0, rng_);
  phase_ = Phase::kQuery2;
  return *challenge_ct_;
}

bool IndMidWccaGame::submit_guess(int b) {
  if (phase_ != Phase::kQuery2) {
    throw GameViolation("IND-mID-wCCA: no outstanding challenge");
  }
  phase_ = Phase::kFinished;
  return b == coin_;
}

}  // namespace medcrypt::games
