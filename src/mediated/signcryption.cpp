#include "mediated/signcryption.h"

namespace medcrypt::mediated {

Bytes signcryption_binding(BytesView message, std::string_view sender,
                           std::string_view recipient) {
  Bytes out;
  out.reserve(12 + message.size() + sender.size() + recipient.size());
  append_framed(out, message);
  append_framed(out, str_bytes(sender));
  append_framed(out, str_bytes(recipient));
  return out;
}

SigncryptionParams make_signcryption_params(const ibe::SystemParams& ibe,
                                            pairing::ParamSet sig_group,
                                            std::size_t message_len) {
  SigncryptionParams params;
  params.ibe = ibe;
  params.sig_group = std::move(sig_group);
  params.message_len = message_len;
  if (ibe.message_len != params.payload_len()) {
    throw InvalidArgument(
        "make_signcryption_params: IBE block must fit message + signature "
        "(use make_signcryption_pkg)");
  }
  return params;
}

ibe::Pkg make_signcryption_pkg(const pairing::ParamSet& ibe_group,
                               const pairing::ParamSet& sig_group,
                               std::size_t message_len, RandomSource& rng) {
  return ibe::Pkg(ibe_group,
                  message_len + sig_group.curve->compressed_size(), rng);
}

Signcrypter::Signcrypter(SigncryptionParams params, MediatedGdhUser signer)
    : params_(std::move(params)), signer_(std::move(signer)) {}

Signcrypted Signcrypter::signcrypt(BytesView message,
                                   std::string_view recipient,
                                   const GdhMediator& sig_sem,
                                   RandomSource& rng,
                                   sim::Transport* transport) const {
  if (message.size() != params_.message_len) {
    throw InvalidArgument("Signcrypter: message must be message_len bytes");
  }
  // 1. Mediated signature over the sender/recipient-bound statement.
  const Bytes statement =
      signcryption_binding(message, signer_.identity(), recipient);
  const ec::Point sigma = signer_.sign(statement, sig_sem, transport);

  // 2. FullIdent-encrypt M ‖ σ to the recipient identity.
  const Bytes payload = concat(message, sigma.to_bytes());
  return Signcrypted{signer_.identity(),
                     ibe::full_encrypt(params_.ibe, recipient, payload, rng)};
}

Unsigncrypter::Unsigncrypter(SigncryptionParams params,
                             MediatedIbeUser receiver)
    : params_(std::move(params)), receiver_(std::move(receiver)) {}

Bytes Unsigncrypter::unsigncrypt(const Signcrypted& msg,
                                 const ec::Point& sender_key,
                                 const IbeMediator& ibe_sem,
                                 sim::Transport* transport) const {
  // 1. Mediated decryption (revocation checked by the SEM).
  const Bytes payload = receiver_.decrypt(msg.ct, ibe_sem, transport);
  if (payload.size() != params_.payload_len()) {
    throw DecryptionError("Unsigncrypter: malformed payload");
  }
  const Bytes message(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(
                                            params_.message_len));
  const BytesView sig_bytes(payload.data() + params_.message_len,
                            payload.size() - params_.message_len);
  ec::Point sigma;
  try {
    sigma = params_.sig_group.curve->decompress(sig_bytes);
  } catch (const InvalidArgument&) {
    throw ProofError("Unsigncrypter: embedded signature is not a point");
  }

  // 2. Verify under the claimed sender.
  if (!verify_opened(params_, message, sigma, msg.sender,
                     receiver_.identity(), sender_key)) {
    throw ProofError("Unsigncrypter: signature verification failed");
  }
  return message;
}

bool verify_opened(const SigncryptionParams& params, BytesView message,
                   const ec::Point& signature, std::string_view sender,
                   std::string_view recipient, const ec::Point& sender_key) {
  const Bytes statement = signcryption_binding(message, sender, recipient);
  return gdh::verify(params.sig_group, sender_key, statement, signature);
}

}  // namespace medcrypt::mediated
