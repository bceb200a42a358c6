#include "mediated/mediated_elgamal.h"

namespace medcrypt::mediated {

MediatedElGamalUser::MediatedElGamalUser(elgamal::Params params,
                                         std::string identity, BigInt user_key,
                                         Point public_key)
    : params_(std::move(params)), identity_(std::move(identity)),
      user_key_(std::move(user_key)), public_key_(std::move(public_key)) {}

Bytes MediatedElGamalUser::decrypt(const elgamal::FoCiphertext& ct,
                                   const GdhMediator& sem,
                                   sim::Transport* transport) const {
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + ct.u.to_bytes().size());
  }
  const Point s_sem = sem.issue_token(identity_, ct.u);
  if (transport != nullptr) {
    transport->send_to_client(s_sem.to_bytes().size());
  }
  const Point shared = s_sem + ct.u.mul(user_key_);
  return elgamal::fo_decrypt_with_shared(params_, shared, ct);
}

MediatedElGamalUser enroll_elgamal_user(const elgamal::Params& params,
                                        GdhMediator& sem,
                                        std::string identity,
                                        RandomSource& rng) {
  auto [x_user, public_key] =
      enroll_scalar_halves(params.group, sem, identity, rng);
  return MediatedElGamalUser(params, std::move(identity), std::move(x_user),
                             std::move(public_key));
}

}  // namespace medcrypt::mediated
