#include "mediated/mediated_elgamal.h"

#include "common/error.h"

namespace medcrypt::mediated {

ElGamalMediator::ElGamalMediator(elgamal::Params params,
                                 std::shared_ptr<RevocationList> revocations)
    : MediatorBase<BigInt>(std::move(revocations)), params_(std::move(params)) {}

Point ElGamalMediator::issue_token(std::string_view identity,
                                   const Point& c1) const {
  // x_sem·T for T of order dividing h would leak x_sem mod that order.
  if (c1.is_infinity() || !c1.in_subgroup()) {
    throw InvalidArgument("ElGamalMediator: C1 not in the subgroup");
  }
  return with_key(identity,
                  [&](const BigInt& x_sem) { return c1.mul(x_sem); });
}

MediatedElGamalUser::MediatedElGamalUser(elgamal::Params params,
                                         std::string identity, BigInt user_key,
                                         Point public_key)
    : params_(std::move(params)), identity_(std::move(identity)),
      user_key_(std::move(user_key)), public_key_(std::move(public_key)) {}

Bytes MediatedElGamalUser::decrypt(const elgamal::FoCiphertext& ct,
                                   const ElGamalMediator& sem,
                                   sim::Transport* transport) const {
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + ct.c1.to_bytes().size());
  }
  const Point s_sem = sem.issue_token(identity_, ct.c1);
  if (transport != nullptr) {
    transport->send_to_client(s_sem.to_bytes().size());
  }
  const Point shared = s_sem + ct.c1.mul(user_key_);
  return elgamal::fo_decrypt_with_shared(params_, shared, ct);
}

MediatedElGamalUser enroll_elgamal_user(const elgamal::Params& params,
                                        ElGamalMediator& sem,
                                        std::string identity,
                                        RandomSource& rng) {
  const BigInt x_user = BigInt::random_unit(rng, params.order());
  BigInt x_sem = BigInt::random_unit(rng, params.order());
  const Point public_key =
      params.group.mul_g(x_user.add_mod(x_sem, params.order()));
  sem.install_key(identity, std::move(x_sem));
  return MediatedElGamalUser(params, std::move(identity), x_user, public_key);
}

}  // namespace medcrypt::mediated
