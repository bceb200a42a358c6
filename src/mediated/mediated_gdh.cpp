#include "mediated/mediated_gdh.h"

#include "ec/hash_to_point.h"
#include "obs/span.h"

namespace medcrypt::mediated {

GdhMediator::GdhMediator(pairing::ParamSet group,
                         std::shared_ptr<RevocationList> revocations)
    : MediatorBase<BigInt>(std::move(revocations)), group_(std::move(group)) {}

Point GdhMediator::issue_token(std::string_view identity,
                               BytesView message) const {
  // Mediator entry point: allocate (or inherit) the request's trace.
  obs::TraceScope trace("gdh.issue_token");
  return token_at(*revocations()->snapshot(), identity, message);
}

std::vector<std::optional<Point>> GdhMediator::issue_tokens(
    std::span<const SignRequest> requests) const {
  // One trace brackets the whole fan-in, so every request's
  // hash_to_point, token_issue and scalar_mul spans land in the same
  // trace.
  return issue_batch("gdh.issue_tokens", requests,
                     [&](const RevocationList::Snapshot& snapshot,
                         const SignRequest& request) {
                       return token_at(snapshot, request.identity,
                                       request.message);
                     });
}

Point GdhMediator::token_at(const RevocationList::Snapshot& snapshot,
                            std::string_view identity,
                            BytesView message) const {
  // Hash outside the lock scope — only the scalar multiplication needs
  // the lent key half. h(M) is public and names no identity, so it is
  // cached under the hash's own domain; with_key_at enforces revocation.
  const Point h =
      ec::hash_to_subgroup_cached(group_.curve, gdh::kHashDomain, message);
  return scalar_half_at(snapshot, identity, h);
}

Point GdhMediator::issue_token(std::string_view identity,
                               const Point& t) const {
  if (t.is_infinity() || !t.in_subgroup()) {
    throw InvalidArgument("GdhMediator: point not in the subgroup");
  }
  return scalar_half_at(*revocations()->snapshot(), identity, t);
}

Point GdhMediator::scalar_half_at(const RevocationList::Snapshot& snapshot,
                                  std::string_view identity,
                                  const Point& t) const {
  return with_key_at(snapshot, identity, [&](const BigInt& x_sem) {
    obs::Span span(obs::Stage::kScalarMul);
    return t.mul(x_sem);
  });
}

MediatedGdhUser::MediatedGdhUser(pairing::ParamSet group, std::string identity,
                                 BigInt user_key, Point public_key)
    : group_(std::move(group)), identity_(std::move(identity)),
      user_key_(std::move(user_key)), public_key_(std::move(public_key)) {}

Point MediatedGdhUser::sign(BytesView message, const GdhMediator& sem,
                            sim::Transport* transport) const {
  // Request: identity + hash commitment of the message. The paper has the
  // user send h(M); we account the compressed point size.
  const Point h = gdh::hash_message(group_, message);
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + h.to_bytes().size());
  }
  const Point s_sem = sem.issue_token(identity_, message);
  if (transport != nullptr) {
    transport->send_to_client(s_sem.to_bytes().size());
  }

  const Point signature = s_sem + h.mul(user_key_);
  // §5 protocol step 3: the user checks validity before releasing,
  // against the h(M) already in hand. The G1 check inside stays: s_sem
  // crosses the SEM trust boundary, and a SEM-added small-order point
  // would pass the pairing equation but fail every relying party.
  if (!gdh::verify_prehashed(group_, public_key_, h, signature)) {
    throw Error("MediatedGdhUser::sign: assembled signature invalid");
  }
  return signature;
}

std::pair<BigInt, Point> enroll_scalar_halves(const pairing::ParamSet& group,
                                              GdhMediator& sem,
                                              const std::string& identity,
                                              RandomSource& rng) {
  // §5 Keygen: the TA samples both halves directly.
  BigInt x_user = BigInt::random_unit(rng, group.order());
  BigInt x_sem = BigInt::random_unit(rng, group.order());
  BigInt x = x_user.add_mod(x_sem, group.order());  // the full key
  const bigint::ScopedWipe wipe_x(x);
  Point public_key = group.mul_g(x);
  sem.install_key(identity, std::move(x_sem));
  return {std::move(x_user), std::move(public_key)};
}

MediatedGdhUser enroll_gdh_user(const pairing::ParamSet& group,
                                GdhMediator& sem, std::string identity,
                                RandomSource& rng) {
  auto [x_user, public_key] = enroll_scalar_halves(group, sem, identity, rng);
  return MediatedGdhUser(group, std::move(identity), std::move(x_user),
                         std::move(public_key));
}

}  // namespace medcrypt::mediated
