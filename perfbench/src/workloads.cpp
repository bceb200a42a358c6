// The four workloads: one per protocol family of the paper, plus the
// SEM operator's batch view with revocation writes in the traffic.
// README.md says why each was chosen and which layer it stresses.
#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ec/hash_to_point.h"
#include "gdh/bls.h"
#include "harness.h"
#include "hash/drbg.h"
#include "ibe/pkg.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "threshold/threshold_ibe.h"

namespace perfbench {
namespace {

using namespace medcrypt;

constexpr std::size_t kUsers = 256;
constexpr std::size_t kDocuments = 4096;
constexpr std::size_t kDocumentLen = 64;
constexpr std::size_t kMessageLen = 32;

// Rng64 stream ids: one per purpose, so adding a draw to one stream never
// shifts another.
enum Stream : std::uint64_t {
  kIdentityStream = 1,
  kChoiceStream,
  kDocumentStream,
  kMessageStream,
  kScheduleStream,
  kWarmStream,
  kBlockStream,
};

/// Fixed-length identity ("user-<12 hex>@corp.example", 30 bytes), so
/// every request carries the same number of identity bytes.
std::string make_identity(Rng64& rng) {
  return "user-" + to_hex(rng.bytes(6)) + "@corp.example";
}

std::vector<std::string> make_identities(std::uint64_t seed, std::size_t n,
                                         Env& env) {
  Rng64 rng(seed, kIdentityStream);
  std::vector<std::string> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    std::string id = make_identity(rng);
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
    env.inputs.add(id);
    ids.push_back(std::move(id));
  }
  return ids;
}

std::vector<Bytes> make_documents(std::uint64_t seed, Env& env) {
  Rng64 rng(seed, kDocumentStream);
  std::vector<Bytes> docs(kDocuments);
  for (Bytes& d : docs) {
    d = rng.bytes(kDocumentLen);
    env.inputs.add(d);
  }
  return docs;
}

/// The library's own randomness (encryption σ, key splits, NIZK
/// commitments), also derived from the seed.
hash::HmacDrbg library_rng(std::uint64_t seed) {
  return hash::HmacDrbg(seed * 0x100000001B3ull + 0x5EED);
}

// ---------------------------------------------------------------------------
// ibe_decrypt — paper §4: FullIdent encryption, mediated decryption.
// ---------------------------------------------------------------------------

class IbeDecrypt final : public Workload {
 public:
  IbeDecrypt(std::uint64_t seed, Env& env)
      : rng_(library_rng(seed)),
        choices_(seed, kChoiceStream),
        messages_(seed, kMessageStream),
        zipf_(kUsers),
        pkg_(pairing::paper_params(), kMessageLen, rng_),
        sem_(pkg_.params(), std::make_shared<mediated::RevocationList>()) {
    for (std::string& id : make_identities(seed, kUsers, env)) {
      users_.push_back(mediated::enroll_ibe_user(pkg_, sem_, std::move(id), rng_));
    }
  }

  void prepare(Env& env) override {
    recipient_ = zipf_.next(choices_);
    message_ = messages_.bytes(kMessageLen);
    env.inputs.add(recipient_);
    env.inputs.add(message_);
  }

  void execute(Env& env) override {
    const mediated::MediatedIbeUser& user = users_[recipient_];
    ibe::FullCiphertext ct;
    {
      ScopedSpan span(env.rec, SpanName::kIbeEncrypt);
      ct = ibe::full_encrypt(pkg_.params(), user.identity(), message_, rng_);
    }
    const Bytes wire = ct.to_bytes();
    env.extra_wire_bytes += wire.size();
    ibe::FullCiphertext received;
    {
      ScopedSpan span(env.rec, SpanName::kIbeCtDecode);
      received = ibe::FullCiphertext::from_bytes(pkg_.params(), wire);
    }
    Bytes plaintext;
    {
      ScopedSpan span(env.rec, SpanName::kMediatedDecrypt);
      plaintext = user.decrypt(received, sem_, &env.transport);
    }
    if (plaintext != message_) {
      throw CheckFailure("ibe_decrypt: plaintext differs from the message sent");
    }
  }

  std::uint64_t sem_denials() const override { return sem_.stats().denials; }
  std::uint64_t window_ops() const override { return 64; }

 private:
  hash::HmacDrbg rng_;
  Rng64 choices_;
  Rng64 messages_;
  Zipf zipf_;
  ibe::Pkg pkg_;
  mediated::IbeMediator sem_;
  std::vector<mediated::MediatedIbeUser> users_;
  std::size_t recipient_ = 0;
  Bytes message_;
};

// ---------------------------------------------------------------------------
// gdh_sign_verify — paper §5: mediated GDH signing, independent verify.
// ---------------------------------------------------------------------------

class GdhSignVerify final : public Workload {
 public:
  // Every window of kWindow signatures asks the SEM for kFresh documents
  // whose h(M) it has not cached (misses) and for kWindow − kFresh it has
  // (hits), so every window does the same hashing work, as the quietest-
  // window statistics assume. The signatures' documents are still Zipf
  // draws: a draw of the wrong kind is redrawn.
  static constexpr std::size_t kWindow = 24;
  static constexpr std::size_t kFresh = 8;
  // Documents the SEM hashes at set-up, so the first window has hits.
  static constexpr std::size_t kWarm = 32;
  // Cached documents before the cache is emptied and warmed again (between
  // windows, untimed); a quarter of the cache's 4,096 entries, so none is
  // ever evicted and a cached document always hits.
  static constexpr std::size_t kMaxCached = 1024;

  GdhSignVerify(std::uint64_t seed, Env& env)
      : rng_(library_rng(seed)),
        choices_(seed, kChoiceStream),
        warm_seed_(seed),
        signer_zipf_(kUsers),
        doc_zipf_(kDocuments),
        group_(pairing::paper_params()),
        sem_(group_, std::make_shared<mediated::RevocationList>()),
        docs_(make_documents(seed, env)) {
    for (std::string& id : make_identities(seed, kUsers, env)) {
      users_.push_back(
          mediated::enroll_gdh_user(group_, sem_, std::move(id), rng_));
    }
    warm();
  }

  void prepare(Env& env) override {
    if (op_ % kWindow == 0) start_window();
    const bool fresh = fresh_slot_[op_ % kWindow] != 0;
    ++op_;
    signer_ = signer_zipf_.next(choices_);
    do {
      doc_ = doc_zipf_.next(choices_);
    } while (cached_[doc_] == fresh);
    if (fresh) {
      cached_[doc_] = true;
      ++n_cached_;
    }
    env.inputs.add(signer_);
    env.inputs.add(doc_);
  }

  void execute(Env& env) override {
    const mediated::MediatedGdhUser& user = users_[signer_];
    const Bytes& doc = docs_[doc_];
    ec::Point sig;
    {
      ScopedSpan span(env.rec, SpanName::kMediatedSign);
      sig = user.sign(doc, sem_, &env.transport);
    }
    const Bytes wire = sig.to_bytes();
    env.extra_wire_bytes += wire.size();
    ec::Point received;
    {
      ScopedSpan span(env.rec, SpanName::kGdhSigDecode);
      ScopedSpan inner(env.rec, SpanName::kEcDecompress);
      received = group_.curve->decompress(wire);
    }
    bool ok = false;
    {
      ScopedSpan span(env.rec, SpanName::kGdhVerify);
      ok = gdh::verify(group_, user.public_key(), doc, received);
    }
    if (!ok) throw CheckFailure("gdh_sign_verify: signature does not verify");
  }

  std::uint64_t sem_denials() const override { return sem_.stats().denials; }
  std::uint64_t window_ops() const override { return kWindow; }

 private:
  // Seeded choice of the window's fresh slots; warms the cache again
  // first if the next kFresh documents would pass kMaxCached.
  void start_window() {
    if (n_cached_ + kFresh > kMaxCached) warm();
    fresh_slot_.assign(kWindow, 0);
    std::fill_n(fresh_slot_.begin(), kFresh, 1);
    for (std::size_t i = kWindow - 1; i > 0; --i) {
      std::swap(fresh_slot_[i], fresh_slot_[choices_.below(i + 1)]);
    }
  }

  // Empties the SEM's h(M) cache, then has the SEM hash the first kWarm
  // distinct documents of a seeded Zipf stream (the same ones every time).
  void warm() {
    ec::identity_point_cache().clear();
    cached_.assign(kDocuments, false);
    n_cached_ = 0;
    Rng64 warm_rng(warm_seed_, kWarmStream);
    while (n_cached_ < kWarm) {
      const std::size_t d = doc_zipf_.next(warm_rng);
      if (cached_[d]) continue;
      cached_[d] = true;
      ++n_cached_;
      (void)sem_.issue_token(users_.front().identity(), docs_[d]);
    }
  }

  hash::HmacDrbg rng_;
  Rng64 choices_;
  std::uint64_t warm_seed_;
  Zipf signer_zipf_;
  Zipf doc_zipf_;
  const pairing::ParamSet& group_;
  mediated::GdhMediator sem_;
  std::vector<Bytes> docs_;
  std::vector<mediated::MediatedGdhUser> users_;
  std::vector<bool> cached_;  // documents whose h(M) the SEM has cached
  std::size_t n_cached_ = 0;
  std::vector<std::uint8_t> fresh_slot_;  // 1 = this op's document is fresh
  std::uint64_t op_ = 0;
  std::size_t signer_ = 0;
  std::size_t doc_ = 0;
};

// ---------------------------------------------------------------------------
// threshold_robust — paper §3/§3.2: robust (3,5) threshold decryption.
// ---------------------------------------------------------------------------

class ThresholdRobust final : public Workload {
 public:
  static constexpr std::size_t kT = 3;
  static constexpr std::size_t kN = 5;
  static constexpr std::size_t kResponders = 4;
  static constexpr std::size_t kIdentities = 16;
  static constexpr std::size_t kCheatPeriod = 8;  // one cheater per 8 ops

  ThresholdRobust(std::uint64_t seed, Env& env)
      : rng_(library_rng(seed)),
        choices_(seed, kChoiceStream),
        messages_(seed, kMessageStream),
        schedule_(seed, kScheduleStream),
        dealer_(pairing::paper_params(), kMessageLen, kT, kN, rng_),
        ids_(make_identities(seed, kIdentities, env)) {
    const threshold::ThresholdSetup& setup = dealer_.setup();
    for (const std::string& id : ids_) {
      std::vector<threshold::KeyShare> shares = dealer_.extract_shares(id);
      for (const threshold::KeyShare& share : shares) {
        // Paper §3 Keygen: every player checks its key share.
        if (!threshold::verify_key_share(setup, id, share)) {
          throw std::runtime_error("threshold setup: key share fails its check");
        }
      }
      key_shares_.push_back(std::move(shares));
    }
  }

  void prepare(Env& env) override {
    const threshold::ThresholdSetup& setup = dealer_.setup();
    identity_ = choices_.below(kIdentities);
    message_ = messages_.bytes(kMessageLen);
    // The sender's ciphertext is this op's input: made outside the timed
    // window, it reaches the combiner as bytes.
    ct_wire_ = ibe::full_encrypt(setup.params, ids_[identity_], message_, rng_)
                   .to_bytes();
    // Four of the five players answer, in a seeded order.
    std::vector<std::uint32_t> players = {1, 2, 3, 4, 5};
    for (std::size_t i = players.size() - 1; i > 0; --i) {
      std::swap(players[i], players[choices_.below(i + 1)]);
    }
    responders_.assign(players.begin(), players.begin() + kResponders);
    // One op in each block of kCheatPeriod has a cheater, always among
    // the first t responders so the combiner must examine its share.
    if (op_ % kCheatPeriod == 0) {
      cheat_op_ = schedule_.below(kCheatPeriod);
      cheat_slot_ = schedule_.below(kT);
    }
    cheater_ = op_ % kCheatPeriod == cheat_op_ ? responders_[cheat_slot_] : 0;
    ++op_;
    env.inputs.add(identity_);
    env.inputs.add(message_);
    for (const std::uint32_t p : responders_) env.inputs.add(p);
    env.inputs.add(cheater_);
  }

  void execute(Env& env) override {
    const threshold::ThresholdSetup& setup = dealer_.setup();
    const auto& curve = setup.params.curve();
    env.transport.send_to_server(ct_wire_.size());
    ibe::FullCiphertext ct;
    {
      ScopedSpan span(env.rec, SpanName::kIbeCtDecode);
      ct = ibe::FullCiphertext::from_bytes(setup.params, ct_wire_);
    }
    const Bytes u_wire = ct.u.to_bytes();

    // Responders: each receives U as bytes, computes its share with the
    // §3.2 proof, and returns both as bytes.
    std::vector<Bytes> share_wires;
    for (const std::uint32_t player : responders_) {
      env.transport.send_to_client(u_wire.size());
      ec::Point u;
      {
        ScopedSpan span(env.rec, SpanName::kEcDecompress);
        u = curve->decompress(u_wire);
      }
      threshold::DecryptionShare share;
      {
        ScopedSpan span(env.rec, SpanName::kThresholdShare);
        share = threshold::compute_decryption_share(
            setup, key_shares_[identity_][player - 1], u, /*prove=*/true, rng_);
      }
      // A cheating player publishes S² under the honest proof.
      if (player == cheater_) share.value = share.value.square();
      share_wires.push_back(encode_share(share));
      env.transport.send_to_server(share_wires.back().size());
    }

    // Combiner: decode, select t provably valid shares, recombine.
    std::vector<threshold::DecryptionShare> shares;
    for (const Bytes& wire : share_wires) {
      ScopedSpan span(env.rec, SpanName::kThresholdShareDecode);
      shares.push_back(decode_share(setup, wire, env.rec));
    }
    std::vector<threshold::DecryptionShare> valid;
    {
      ScopedSpan span(env.rec, SpanName::kThresholdSelect);
      valid = threshold::select_valid_shares(setup, ids_[identity_], ct.u,
                                             shares);
    }
    if (valid.size() != kT) {
      throw CheckFailure("threshold_robust: select_valid_shares returned " +
                         std::to_string(valid.size()) + " shares");
    }
    if (cheater_ != 0) {
      for (const threshold::DecryptionShare& s : valid) {
        if (s.index == cheater_) {
          throw CheckFailure("threshold_robust: cheating share was selected");
        }
      }
      ++env.cheaters_named;
    }
    Bytes plaintext;
    {
      ScopedSpan span(env.rec, SpanName::kThresholdCombine);
      plaintext = threshold::threshold_full_decrypt(setup, valid, ct);
    }
    if (plaintext != message_) {
      throw CheckFailure("threshold_robust: plaintext differs from the message");
    }
  }

  std::uint64_t window_ops() const override { return kCheatPeriod; }

 private:
  // Wire form of a share: index (4, big-endian) ‖ S ‖ w1 ‖ w2 ‖ e ‖ V.
  Bytes encode_share(const threshold::DecryptionShare& share) const {
    const threshold::ShareProof& proof = *share.proof;
    const std::size_t e_len = (dealer_.setup().params.order().bit_length() + 7) / 8;
    Bytes out = {static_cast<std::uint8_t>(share.index >> 24),
                 static_cast<std::uint8_t>(share.index >> 16),
                 static_cast<std::uint8_t>(share.index >> 8),
                 static_cast<std::uint8_t>(share.index)};
    for (const Bytes& part :
         {share.value.to_bytes(), proof.w1.to_bytes(), proof.w2.to_bytes(),
          proof.e.to_bytes_be_padded(e_len), proof.v.to_bytes()}) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  static threshold::DecryptionShare decode_share(
      const threshold::ThresholdSetup& setup, BytesView wire, Recorder* rec) {
    const auto& field = setup.params.curve()->field();
    const std::size_t fp2_len = 2 * field->byte_size();
    const std::size_t e_len = (setup.params.order().bit_length() + 7) / 8;
    const std::size_t point_len = setup.params.curve()->compressed_size();
    if (wire.size() != 4 + 3 * fp2_len + e_len + point_len) {
      throw CheckFailure("threshold_robust: share has the wrong length");
    }
    threshold::DecryptionShare share;
    share.index = (std::uint32_t{wire[0]} << 24) | (std::uint32_t{wire[1]} << 16) |
                  (std::uint32_t{wire[2]} << 8) | std::uint32_t{wire[3]};
    std::size_t at = 4;
    const auto take = [&](std::size_t n) {
      const BytesView part = wire.subspan(at, n);
      at += n;
      return part;
    };
    share.value = field::Fp2::from_bytes(field, take(fp2_len));
    threshold::ShareProof proof;
    proof.w1 = field::Fp2::from_bytes(field, take(fp2_len));
    proof.w2 = field::Fp2::from_bytes(field, take(fp2_len));
    proof.e = bigint::BigInt::from_bytes_be(take(e_len));
    {
      ScopedSpan span(rec, SpanName::kEcDecompress);
      proof.v = setup.params.curve()->decompress(take(point_len));
    }
    share.proof = std::move(proof);
    return share;
  }

  hash::HmacDrbg rng_;
  Rng64 choices_;
  Rng64 messages_;
  Rng64 schedule_;
  threshold::ThresholdDealer dealer_;
  std::vector<std::string> ids_;
  std::vector<std::vector<threshold::KeyShare>> key_shares_;
  std::size_t identity_ = 0;
  Bytes message_;
  Bytes ct_wire_;
  std::vector<std::uint32_t> responders_;
  std::uint64_t op_ = 0;
  std::size_t cheat_op_ = 0;
  std::size_t cheat_slot_ = 0;
  std::uint32_t cheater_ = 0;  // 0 = every responder is honest
};

// ---------------------------------------------------------------------------
// sem_gateway_churn — the SEM operator's batch view under revocation.
// ---------------------------------------------------------------------------

class SemGatewayChurn final : public Workload {
 public:
  static constexpr std::size_t kBatch = 8;
  static constexpr std::uint64_t kWritePeriod = 16;  // ticks per write
  static constexpr std::size_t kMaxRevoked = 8;
  static constexpr std::size_t kBlockDocs = 87;

  SemGatewayChurn(std::uint64_t seed, Env& env)
      : rng_(library_rng(seed)),
        choices_(seed, kChoiceStream),
        messages_(seed, kMessageStream),
        schedule_(seed, kScheduleStream),
        user_zipf_(kUsers),
        doc_zipf_(kDocuments),
        group_(pairing::paper_params()),
        pkg_(group_, kMessageLen, rng_),
        revocations_(std::make_shared<mediated::RevocationList>()),
        ibe_sem_(pkg_.params(), revocations_),
        gdh_sem_(group_, revocations_),
        ids_(make_identities(seed, kUsers, env)),
        docs_(make_documents(seed, env)) {
    // The GDH requests repeat one seeded block of kWritePeriod ticks in
    // every window. Each window opens with a revocation write whose epoch
    // bump invalidates the SEM's cached h(M) (the first opens with an empty
    // cache), so every window hashes the same documents: the same work, as
    // the quietest-window statistics assume. The block is drawn again until
    // it names kBlockDocs distinct documents (the mean for 128 Zipf draws),
    // so every seed hashes as many per window.
    Rng64 block_rng(seed, kBlockStream);
    std::set<std::size_t> block_docs;
    while (block_docs.size() != kBlockDocs) {
      gdh_block_.clear();
      block_docs.clear();
      for (std::size_t i = 0; i < kWritePeriod * kBatch; ++i) {
        const std::size_t user = user_zipf_.next(block_rng);
        gdh_block_.emplace_back(user, doc_zipf_.next(block_rng));
        block_docs.insert(gdh_block_.back().second);
      }
    }
    for (const std::string& id : ids_) {
      users_.push_back(mediated::enroll_ibe_user(pkg_, ibe_sem_, id, rng_));
      // §5 key split made here; the SEM half goes in through install_key
      // and x_sem·P is what each returned half must verify against.
      const bigint::BigInt secret = bigint::BigInt::random_unit(rng_, group_.order());
      auto [x_user, x_sem] = gdh::split_key(secret, group_.order(), rng_);
      x_user.wipe();
      sem_pub_.push_back(group_.mul_g(x_sem));
      gdh_sem_.install_key(id, std::move(x_sem));
    }
  }

  void prepare(Env& env) override {
    // Revocation write for this tick, applied inside the timed window.
    // It opens every window of kWritePeriod ticks but the first.
    const std::uint64_t slot = tick_ % kWritePeriod;
    write_ = Write::kNone;
    if (tick_ > 0 && slot == 0) {
      const bool revoke = revoked_stack_.empty() ||
                          (revoked_stack_.size() < kMaxRevoked &&
                           schedule_.below(2) == 0);
      if (revoke) {
        // Uniform, not Zipf: the denial rate (and with it the work per
        // tick) then varies little from seed to seed.
        std::size_t target = schedule_.below(kUsers);
        while (revoked_.count(target) != 0) target = (target + 1) % kUsers;
        write_ = Write::kRevoke;
        write_target_ = target;
      } else {
        write_ = Write::kUnrevoke;
        write_target_ = revoked_stack_.back();
      }
      env.inputs.add(static_cast<std::uint64_t>(write_));
      env.inputs.add(write_target_);
    }
    ++tick_;

    ibe_.clear();
    gdh_.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      IbeRequest r;
      r.user = user_zipf_.next(choices_);
      r.message = messages_.bytes(kMessageLen);
      r.ct = ibe::full_encrypt(pkg_.params(), ids_[r.user], r.message, rng_);
      r.frame = frame(ids_[r.user], r.ct.u.to_bytes());
      env.inputs.add(r.user);
      env.inputs.add(r.message);
      ibe_.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      GdhRequest r;
      std::tie(r.user, r.doc) = gdh_block_[slot * kBatch + i];
      r.frame = frame(ids_[r.user], docs_[r.doc]);
      env.inputs.add(r.user);
      env.inputs.add(r.doc);
      gdh_.push_back(std::move(r));
    }
  }

  void execute(Env& env) override {
    if (write_ != Write::kNone) {
      ScopedSpan span(env.rec, SpanName::kMediatedRevoke);
      const std::string& id = ids_[write_target_];
      if (write_ == Write::kRevoke) {
        revocations_->revoke(id);
      } else {
        revocations_->unrevoke(id);
      }
    }
    if (write_ == Write::kRevoke) {
      revoked_.insert(write_target_);
      revoked_stack_.push_back(write_target_);
    } else if (write_ == Write::kUnrevoke) {
      revoked_.erase(write_target_);
      revoked_stack_.pop_back();
    }

    // IBE: decode identity + U, one batch, encode the tokens.
    std::vector<ec::Point> us(kBatch);
    std::vector<mediated::IbeMediator::TokenRequest> ibe_requests(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      env.transport.send_to_server(ibe_[i].frame.size() - 1);
      const auto [identity, payload] = unframe(ibe_[i].frame);
      {
        ScopedSpan span(env.rec, SpanName::kEcDecompress);
        us[i] = group_.curve->decompress(payload);
      }
      ibe_requests[i] = {identity, &us[i]};
    }
    std::vector<std::optional<field::Fp2>> ibe_tokens;
    {
      ScopedSpan span(env.rec, SpanName::kMediatedIbeBatch);
      ibe_tokens = ibe_sem_.issue_tokens(ibe_requests);
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      ibe_[i].response = ibe_tokens[i] ? ibe_tokens[i]->to_bytes() : Bytes{};
      if (!ibe_[i].response.empty()) {
        env.transport.send_to_client(ibe_[i].response.size());
      }
    }

    // GDH: decode identity + message, one batch, encode the halves.
    std::vector<mediated::GdhMediator::SignRequest> gdh_requests(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      env.transport.send_to_server(gdh_[i].frame.size() - 1);
      const auto [identity, payload] = unframe(gdh_[i].frame);
      gdh_requests[i] = {identity, payload};
    }
    std::vector<std::optional<ec::Point>> gdh_tokens;
    {
      ScopedSpan span(env.rec, SpanName::kMediatedGdhBatch);
      gdh_tokens = gdh_sem_.issue_tokens(gdh_requests);
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      gdh_[i].response = gdh_tokens[i] ? gdh_tokens[i]->to_bytes() : Bytes{};
      if (!gdh_[i].response.empty()) {
        env.transport.send_to_client(gdh_[i].response.size());
      }
    }
  }

  void check(Env& env) override {
    const auto& field = group_.curve->field();
    for (const IbeRequest& r : ibe_) {
      if (expect_denied(r.user, r.response, env)) continue;
      const field::Fp2 token = field::Fp2::from_bytes(field, r.response);
      const field::Fp2 g = token * users_[r.user].partial(r.ct.u);
      if (ibe::full_decrypt_with_mask(pkg_.params(), g, r.ct) != r.message) {
        throw CheckFailure("sem_gateway_churn: IBE token gives wrong plaintext");
      }
    }
    for (const GdhRequest& r : gdh_) {
      if (expect_denied(r.user, r.response, env)) continue;
      const ec::Point half = group_.curve->decompress(r.response);
      if (!gdh::verify(group_, sem_pub_[r.user], docs_[r.doc], half)) {
        throw CheckFailure("sem_gateway_churn: GDH half does not verify");
      }
    }
  }

  std::uint64_t sem_denials() const override {
    return ibe_sem_.stats().denials + gdh_sem_.stats().denials;
  }
  std::uint64_t window_ops() const override { return kWritePeriod; }

 private:
  enum class Write : std::uint8_t { kNone, kRevoke, kUnrevoke };

  struct IbeRequest {
    std::size_t user = 0;
    Bytes message;
    ibe::FullCiphertext ct;
    Bytes frame;
    Bytes response;
  };
  struct GdhRequest {
    std::size_t user = 0;
    std::size_t doc = 0;
    Bytes frame;
    Bytes response;
  };

  // Request frame: identity length (1 byte) ‖ identity ‖ payload.
  static Bytes frame(const std::string& identity, BytesView payload) {
    Bytes out;
    out.reserve(1 + identity.size() + payload.size());
    out.push_back(static_cast<std::uint8_t>(identity.size()));
    out.insert(out.end(), identity.begin(), identity.end());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
  }

  static std::pair<std::string_view, BytesView> unframe(BytesView frame) {
    if (frame.empty() || frame.size() < 1u + frame[0]) {
      throw CheckFailure("sem_gateway_churn: truncated request frame");
    }
    const std::size_t n = frame[0];
    return {std::string_view(reinterpret_cast<const char*>(frame.data()) + 1, n),
            frame.subspan(1 + n)};
  }

  // True when the request was refused; throws unless that matches the
  // revocation state at request time.
  bool expect_denied(std::size_t user, const Bytes& response, Env& env) const {
    const bool revoked = revoked_.count(user) != 0;
    if (revoked != response.empty()) {
      throw CheckFailure(revoked ? "sem_gateway_churn: revoked identity served"
                                 : "sem_gateway_churn: identity wrongly denied");
    }
    if (revoked) ++env.denied;
    return revoked;
  }

  hash::HmacDrbg rng_;
  Rng64 choices_;
  Rng64 messages_;
  Rng64 schedule_;
  Zipf user_zipf_;
  Zipf doc_zipf_;
  const pairing::ParamSet& group_;
  ibe::Pkg pkg_;
  std::shared_ptr<mediated::RevocationList> revocations_;
  mediated::IbeMediator ibe_sem_;
  mediated::GdhMediator gdh_sem_;
  std::vector<std::string> ids_;
  std::vector<Bytes> docs_;
  std::vector<mediated::MediatedIbeUser> users_;
  std::vector<ec::Point> sem_pub_;  // x_sem·P per identity
  std::vector<std::pair<std::size_t, std::size_t>> gdh_block_;  // (user, doc)

  std::uint64_t tick_ = 0;
  Write write_ = Write::kNone;
  std::size_t write_target_ = 0;
  std::set<std::size_t> revoked_;
  std::vector<std::size_t> revoked_stack_;
  std::vector<IbeRequest> ibe_;
  std::vector<GdhRequest> gdh_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, Env& env) {
  if (name == "ibe_decrypt") return std::make_unique<IbeDecrypt>(seed, env);
  if (name == "gdh_sign_verify") return std::make_unique<GdhSignVerify>(seed, env);
  if (name == "threshold_robust") return std::make_unique<ThresholdRobust>(seed, env);
  if (name == "sem_gateway_churn") return std::make_unique<SemGatewayChurn>(seed, env);
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace perfbench
