#include "games/reduction.h"

namespace medcrypt::games {

WccaToCcaReduction::WccaToCcaReduction(IndIdCcaGame& challenger,
                                       std::uint64_t seed)
    : challenger_(challenger), rng_(seed) {}

const ec::Point& WccaToCcaReduction::sem_half(std::string_view identity) {
  const auto it = l_sem_.find(identity);
  if (it != l_sem_.end()) return it->second;
  // "B chooses a random point d_IDi,sem and puts the entry into L_sem."
  const auto& params = challenger_.params();
  ec::Point fresh =
      params.group.mul_g(bigint::BigInt::random_unit(rng_, params.order()));
  return l_sem_.emplace(std::string(identity), std::move(fresh)).first->second;
}

Bytes WccaToCcaReduction::decrypt(std::string_view identity,
                                  const ibe::FullCiphertext& ct) {
  // "Every decryption query is forwarded by B to its challenger."
  return challenger_.decrypt(identity, ct);
}

ec::Point WccaToCcaReduction::extract_user_key(std::string_view identity) {
  // "B first forwards it to its challenger. When it receives d_ID, it
  // computes d_ID,user = d_ID - d_ID,sem."
  const ec::Point d_full = challenger_.extract(identity);
  const ec::Point& d_sem = sem_half(identity);
  ++additions_computed_;
  return d_full - d_sem;
}

field::Fp2 WccaToCcaReduction::sem_query(std::string_view identity,
                                         const ibe::FullCiphertext& ct) {
  // "B ... computes the pairing ê(U, d_IDi,sem) which is sent to A."
  ++pairings_computed_;
  return challenger_.params().group.pairing->pair(ct.u, sem_half(identity));
}

ec::Point WccaToCcaReduction::extract_sem_key(std::string_view identity) {
  return sem_half(identity);
}

const ibe::FullCiphertext& WccaToCcaReduction::challenge(
    std::string_view identity, BytesView m0, BytesView m1) {
  // "B forwards m0 and m1 to its challenger and chooses ID as challenge
  // identity ... and forwards it as a challenge to A."
  return challenger_.challenge(identity, m0, m1);
}

bool WccaToCcaReduction::submit_guess(int b) {
  // "B produces the same result b' as A."
  return challenger_.submit_guess(b);
}

}  // namespace medcrypt::games
