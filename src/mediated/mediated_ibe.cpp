#include "mediated/mediated_ibe.h"

#include "obs/span.h"

namespace medcrypt::mediated {

IbeMediator::IbeMediator(ibe::SystemParams params,
                         std::shared_ptr<RevocationList> revocations)
    : MediatorBase<IbeSemKey>(std::move(revocations)),
      params_(std::move(params)) {}

void IbeMediator::install_key(std::string identity, Point d_sem) {
  IbeSemKey record(params_.group.pairing->prepare(d_sem));
  d_sem.wipe();
  MediatorBase<IbeSemKey>::install_key(std::move(identity), std::move(record));
}

Fp2 IbeMediator::issue_token(std::string_view identity, const Point& u) const {
  // Sampled end-to-end trace of one issuance; the nested stage spans
  // (token_issue, pairing.miller, pairing.final_exp) attach to it.
  obs::TraceScope trace("ibe.issue_token");
  return token_at(*revocations()->snapshot(), identity, u);
}

std::vector<std::optional<Fp2>> IbeMediator::issue_tokens(
    std::span<const TokenRequest> requests) const {
  // One trace brackets the fan-in, so every request's token_issue,
  // pairing.miller and pairing.final_exp spans land in the same trace.
  return issue_batch("ibe.issue_tokens", requests,
                     [&](const RevocationList::Snapshot& snapshot,
                         const TokenRequest& request) {
                       if (request.u == nullptr) {
                         throw InvalidArgument("IbeMediator: null U");
                       }
                       return token_at(snapshot, request.identity,
                                       *request.u);
                     });
}

Fp2 IbeMediator::token_at(const RevocationList::Snapshot& snapshot,
                          std::string_view identity, const Point& u) const {
  // The whole pairing runs under the shard's shared lock, which only an
  // install_key on the same shard waits for.
  return with_key_at(snapshot, identity, [&](const IbeSemKey& key) {
    return params_.group.pairing->pair_with(key.prepared, u);
  });
}

MediatedIbeUser::MediatedIbeUser(ibe::SystemParams params,
                                 std::string identity, Point user_key)
    : params_(std::move(params)), identity_(std::move(identity)),
      user_key_(std::move(user_key)),
      user_prepared_(params_.group.pairing->prepare(user_key_)) {}

Fp2 MediatedIbeUser::partial(const Point& u) const {
  return params_.group.pairing->pair_with(user_prepared_, u);
}

Bytes MediatedIbeUser::decrypt(const ibe::FullCiphertext& ct,
                               const IbeMediator& sem,
                               sim::Transport* transport) const {
  // Request: identity + the U component (the SEM needs nothing else and
  // in particular never sees V, W or any user partial computation).
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + ct.u.to_bytes().size());
  }
  // Response: the token compressed to one F_p element.
  const Bytes wire = field::gt_to_bytes(sem.issue_token(identity_, ct.u));
  if (transport != nullptr) transport->send_to_client(wire.size());

  // The user's half runs in parallel with the SEM in the paper; the
  // sequential order here does not change what either side learns.
  const Fp2 g = field::gt_from_bytes(params_.curve()->field(), wire) *
                partial(ct.u);
  return ibe::full_decrypt_with_mask(params_, g, ct);
}

MediatedIbeUser enroll_ibe_user(const ibe::Pkg& pkg, IbeMediator& sem,
                                std::string identity, RandomSource& rng) {
  const ibe::SplitKey split = pkg.extract_split(identity, rng);
  sem.install_key(identity, split.sem);
  return MediatedIbeUser(pkg.params(), std::move(identity), split.user);
}

}  // namespace medcrypt::mediated
