#include "mediated/mediated_ibs.h"

#include "obs/span.h"

namespace medcrypt::mediated {

IbsMediator::IbsMediator(ibe::SystemParams params,
                         std::shared_ptr<RevocationList> revocations)
    : MediatorBase<IbsSemKey>(std::move(revocations)),
      params_(std::move(params)) {}

void IbsMediator::install_key(std::string identity, ec::Point d_sem) {
  IbsSemKey record(ec::FixedBaseTable(d_sem, params_.order()));
  d_sem.wipe();
  MediatorBase<IbsSemKey>::install_key(std::move(identity), std::move(record));
}

ec::Point IbsMediator::issue_token(std::string_view identity,
                                   BytesView message,
                                   BytesView commitment) const {
  // The SEM derives the challenge itself — it never multiplies its key
  // half by a caller-chosen scalar.
  const bigint::BigInt v = ibs::hess_challenge(
      params_, message,
      field::gt_from_bytes(params_.curve()->field(), commitment));
  return with_key(identity, [&](const IbsSemKey& key) {
    obs::Span span(obs::Stage::kScalarMul);
    return key.table.mul(v);
  });
}

MediatedIbsUser::MediatedIbsUser(ibe::SystemParams params,
                                 std::string identity, ec::Point user_key)
    : params_(std::move(params)), identity_(std::move(identity)),
      user_key_(std::move(user_key)) {}

ibs::HessSignature MediatedIbsUser::sign(BytesView message,
                                         const IbsMediator& sem,
                                         RandomSource& rng,
                                         sim::Transport* transport) const {
  const bigint::BigInt k = bigint::BigInt::random_unit(rng, params_.order());
  const Fp2 r =
      field::pow_unitary(params_.group.gpp, k, params_.order().bit_length());

  // Request: identity + message + commitment (one compressed G2
  // element).
  const Bytes r_wire = field::gt_to_bytes(r);
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + message.size() +
                              r_wire.size());
  }
  const ec::Point token = sem.issue_token(identity_, message, r_wire);
  if (transport != nullptr) {
    transport->send_to_client(token.to_bytes().size());
  }

  ibs::HessSignature sig;
  sig.v = ibs::hess_challenge(params_, message, r);
  sig.u = user_key_.mul(sig.v) + token + params_.group.mul_g(k);

  if (!ibs::hess_verify(params_, identity_, message, sig)) {
    throw Error("MediatedIbsUser::sign: assembled signature invalid");
  }
  return sig;
}

MediatedIbsUser enroll_ibs_user(const ibe::Pkg& pkg, IbsMediator& sem,
                                std::string identity, RandomSource& rng) {
  const ibe::SplitKey split = pkg.extract_split(identity, rng);
  sem.install_key(identity, split.sem);
  return MediatedIbsUser(pkg.params(), std::move(identity), split.user);
}

}  // namespace medcrypt::mediated
