#include "mediated/mrsa.h"

#include "hash/kdf.h"

namespace medcrypt::mediated {

MRsaKeys mrsa_keygen(std::size_t modulus_bits, RandomSource& rng) {
  rsa::KeyGenOptions opts;
  opts.modulus_bits = modulus_bits;
  const rsa::PrivateKey key = rsa::generate_key(opts, rng);
  // The paper's additive split d = d_user + d_sem (mod φ(n)) runs once
  // at keygen on a freshly generated key; BigInt's variable-time mod is
  // accepted here (see ROADMAP: constant-time RSA exponentiation).
  // medlint: allow(ct-variable-time)
  auto [d_user, d_sem] = rsa::split_exponent(key.d, key.phi, rng);
  return MRsaKeys{key.pub, std::move(d_user), std::move(d_sem)};
}

Bytes mrsa_encrypt(const rsa::PublicKey& pub, BytesView message,
                   RandomSource& rng) {
  const std::size_t k = pub.byte_size();
  const BigInt block = rsa::oaep_encode(message, k, rng);
  return rsa::public_op(pub, block).to_bytes_be_padded(k);
}

BigInt mrsa_fdh(const rsa::PublicKey& pub, BytesView message,
                std::string_view domain) {
  const Bytes wide = hash::expand(domain, message, pub.byte_size() + 16);
  return BigInt::from_bytes_be(wide).mod(pub.n);
}

bool mrsa_verify(const rsa::PublicKey& pub, BytesView message,
                 const BigInt& signature, std::string_view domain) {
  if (signature.is_negative() || signature >= pub.n) return false;
  return rsa::public_op(pub, signature) == mrsa_fdh(pub, message, domain);
}

BigInt MRsaMediator::issue_token(std::string_view identity,
                                 const BigInt& c) const {
  return with_key(identity, [&](const MRsaSemRecord& record) {
    // The range check needs the identity's modulus, so it runs under the
    // lent record; a failure here is counted as neither issued nor
    // denied.
    if (c.is_negative() || c >= record.modulus) {
      throw InvalidArgument("MRsaMediator: input out of range");
    }
    return c.pow_mod(record.d_sem, record.modulus);
  });
}

MRsaUser::MRsaUser(rsa::PublicKey pub, std::string identity, BigInt user_key,
                   std::string_view fdh_domain)
    : pub_(std::move(pub)), identity_(std::move(identity)),
      user_key_(std::move(user_key)), fdh_domain_(fdh_domain) {}

Bytes MRsaUser::decrypt(const Bytes& ciphertext, const MRsaMediator& sem,
                        sim::Transport* transport) const {
  const std::size_t k = pub_.byte_size();
  if (ciphertext.size() != k) {
    throw InvalidArgument("MRsaUser::decrypt: wrong ciphertext length");
  }
  const BigInt c = BigInt::from_bytes_be(ciphertext);
  if (c >= pub_.n) {
    throw InvalidArgument("MRsaUser::decrypt: ciphertext out of range");
  }
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + ciphertext.size());
  }
  const BigInt m_sem = sem.issue_token(identity_, c);
  if (transport != nullptr) transport->send_to_client(k);
  const BigInt m_user = c.pow_mod(user_key_, pub_.n);
  return rsa::oaep_decode(m_sem.mul_mod(m_user, pub_.n), k);
}

BigInt MRsaUser::sign(BytesView message, const MRsaMediator& sem,
                      sim::Transport* transport) const {
  const BigInt h = mrsa_fdh(pub_, message, fdh_domain_);
  if (transport != nullptr) {
    transport->send_to_server(identity_.size() + pub_.byte_size());
  }
  const BigInt s_sem = sem.issue_token(identity_, h);
  if (transport != nullptr) transport->send_to_client(pub_.byte_size());
  const BigInt signature =
      s_sem.mul_mod(h.pow_mod(user_key_, pub_.n), pub_.n);
  if (!mrsa_verify(pub_, message, signature, fdh_domain_)) {
    throw Error("MRsaUser::sign: assembled signature invalid");
  }
  return signature;
}

MRsaUser enroll_mrsa_keys(MRsaKeys&& keys, MRsaMediator& sem,
                          std::string identity, std::string_view fdh_domain) {
  sem.install_key(identity, MRsaSemRecord{keys.pub.n, std::move(keys.d_sem)});
  return MRsaUser(std::move(keys.pub), std::move(identity),
                  std::move(keys.d_user), fdh_domain);
}

MRsaUser enroll_per_user_mrsa(std::size_t modulus_bits, MRsaMediator& sem,
                              std::string identity, RandomSource& rng) {
  return enroll_mrsa_keys(mrsa_keygen(modulus_bits, rng), sem,
                          std::move(identity), kMRsaFdhDomain);
}

}  // namespace medcrypt::mediated
