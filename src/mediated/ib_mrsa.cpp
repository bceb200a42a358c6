#include "mediated/ib_mrsa.h"

#include "hash/kdf.h"

namespace medcrypt::mediated {

namespace {

rsa::PublicKey identity_key(const IbMRsaParams& params,
                            std::string_view identity) {
  return rsa::PublicKey{params.modulus, identity_exponent(params, identity)};
}

}  // namespace

BigInt identity_exponent(const IbMRsaParams& params,
                         std::string_view identity) {
  if (params.hash_bits + 1 >= params.modulus_bits) {
    throw InvalidArgument("identity_exponent: hash too wide for modulus");
  }
  // l-bit hash of the identity, then append a 1 bit on the right:
  // e_ID = 0^s || H(ID) || 1.
  const std::size_t l = params.hash_bits;
  const Bytes digest =
      hash::expand("IBmRSA.H", str_bytes(identity), (l + 7) / 8);
  BigInt h = BigInt::from_bytes_be(digest);
  // Trim to exactly l bits.
  const std::size_t extra = digest.size() * 8 - l;
  if (extra > 0) h = h >> extra;
  return (h << 1) + BigInt(1);
}

Bytes ib_mrsa_encrypt(const IbMRsaParams& params, std::string_view identity,
                      BytesView message, RandomSource& rng) {
  return mrsa_encrypt(identity_key(params, identity), message, rng);
}

bool ib_mrsa_verify(const IbMRsaParams& params, std::string_view identity,
                    BytesView message, const BigInt& signature) {
  return mrsa_verify(identity_key(params, identity), message, signature,
                     kIbMRsaFdhDomain);
}

IbMRsaSystem::IbMRsaSystem(const Options& options, RandomSource& rng) {
  rsa::KeyGenOptions kg;
  kg.modulus_bits = options.modulus_bits;
  kg.safe_primes = options.safe_primes;
  // The per-user exponent is identity-derived, so the keygen's own e is
  // irrelevant; 65537 merely satisfies the generator's invariants.
  const rsa::PrivateKey key = rsa::generate_key(kg, rng);
  params_.modulus = key.pub.n;
  params_.modulus_bits = options.modulus_bits;
  params_.hash_bits = options.hash_bits;
  phi_ = key.phi;
}

BigInt IbMRsaSystem::full_exponent(std::string_view identity) const {
  const BigInt e = identity_exponent(params_, identity);
  if (BigInt::gcd(e, phi_) != BigInt(1)) {
    throw Error("IbMRsaSystem: identity exponent not invertible (negligible "
                "event; re-run setup)");
  }
  return e.mod_inverse(phi_);
}

MRsaKeys IbMRsaSystem::issue(std::string_view identity,
                             RandomSource& rng) const {
  // d_ID with the public e_ID factors the common modulus.
  BigInt d = full_exponent(identity);
  const bigint::ScopedWipe wipe_d(d);
  auto [d_user, d_sem] = rsa::split_exponent(d, phi_, rng);
  return MRsaKeys{identity_key(params_, identity), std::move(d_user),
                  std::move(d_sem)};
}

MRsaUser enroll_mrsa_user(const IbMRsaSystem& system, MRsaMediator& sem,
                          std::string identity, RandomSource& rng) {
  MRsaKeys keys = system.issue(identity, rng);
  return enroll_mrsa_keys(std::move(keys), sem, std::move(identity),
                          kIbMRsaFdhDomain);
}

}  // namespace medcrypt::mediated
