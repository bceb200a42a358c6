// Experiment T3 — signature generation and verification costs.
//
// Paper claims reproduced (§5):
//   - mediated GDH signing costs ONE scalar multiplication per side;
//   - its verification costs two pairings ("this computation overhead is
//     the only disadvantage of mediated GDH when compared to the mRSA
//     signature");
//   - mRSA signing costs one half-exponentiation per side, and its
//     verification one (cheap, short-exponent) public operation.
#include <cstdio>

#include "bench_util.h"
#include "ibs/hess.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibs.h"
#include "mediated/signcryption.h"
#include "pairing/params.h"

int main() {
  using namespace medcrypt;
  using benchutil::Table, benchutil::time_us, benchutil::fmt_us;
  benchutil::JsonReport jr("sign");

  hash::HmacDrbg rng(3002);
  const int kIters = benchutil::bench_iters(10);
  const Bytes msg = str_bytes("the quick brown fox signs the lazy dog");

  std::printf("== T3: sign/verify latency @ paper parameters ==\n\n");

  auto revocations = std::make_shared<mediated::RevocationList>();

  // --- GDH (plain + mediated) ------------------------------------------------
  const auto& group = pairing::paper_params();
  const gdh::KeyPair kp = gdh::keygen(group, rng);
  const ec::Point direct_sig = gdh::sign(group, kp.secret, msg);

  mediated::GdhMediator gdh_sem(group, revocations);
  auto gdh_user = enroll_gdh_user(group, gdh_sem, "signer", rng);

  // --- IB-mRSA ---------------------------------------------------------------
  std::printf("generating 1024-bit IB-mRSA modulus...\n");
  auto mrsa = benchutil::bench_mrsa_system(rng, {"signer"});
  mediated::MRsaMediator mrsa_sem(revocations);
  auto mrsa_user = enroll_mrsa_user(mrsa, mrsa_sem, "signer", rng);
  const bigint::BigInt mrsa_sig = mrsa_user.sign(msg, mrsa_sem);

  Table t({"operation", "scheme", "latency", "notes"});
  t.add_row({"Sign", "GDH (direct key)",
             fmt_us(jr.time_us("sign/gdh_direct", kIters, [&] {
               (void)gdh::sign(group, kp.secret, msg);
             })),
             "1 hash-to-group + 1 scalar mult"});
  t.add_row({"Sign", "mediated GDH (user+SEM)",
             fmt_us(jr.time_us("sign/gdh_mediated", kIters, [&] {
               (void)gdh_user.sign(msg, gdh_sem);
             })),
             "2 scalar mults + user-side verify (1 pair_many + G1 check)"});
  t.add_row({"Sign", "IB-mRSA (user+SEM)",
             fmt_us(jr.time_us("sign/ib_mrsa_mediated", kIters, [&] {
               (void)mrsa_user.sign(msg, mrsa_sem);
             })),
             "2 half-exps + user-side verify"});
  t.add_row({"Verify", "GDH",
             fmt_us(jr.time_us("verify/gdh", kIters, [&] {
               (void)gdh::verify(group, kp.pub, msg, direct_sig);
             })),
             "1 pair_many (2 Miller loops, 1 final exp) + G1 check"});
  t.add_row({"Verify", "IB-mRSA",
             fmt_us(jr.time_us("verify/ib_mrsa", kIters, [&] {
               (void)ib_mrsa_verify(mrsa.params(), "signer", msg, mrsa_sig);
             })),
             "1 public op, ~161-bit exponent"});

  // --- identity-based signing (Hess, extension) -------------------------------
  hash::HmacDrbg ibs_rng(3012);
  ibe::Pkg pkg(pairing::paper_params(), 32, ibs_rng);
  const auto d_signer = pkg.extract("signer");
  mediated::IbsMediator ibs_sem(pkg.params(), revocations);
  auto ibs_user = enroll_ibs_user(pkg, ibs_sem, "signer", ibs_rng);
  const auto hess_sig = ibs::hess_sign(pkg.params(), d_signer, msg, ibs_rng);

  t.add_row({"Sign", "Hess IBS (direct key)",
             fmt_us(jr.time_us("sign/hess_direct", kIters, [&] {
               (void)ibs::hess_sign(pkg.params(), d_signer, msg, ibs_rng);
             })),
             "Fp2 exp of e(P,P) + 1 ladder + 1 fixed-base mult"});
  t.add_row({"Sign", "mediated Hess IBS (user+SEM)",
             fmt_us(jr.time_us("sign/hess_mediated", kIters, [&] {
               (void)ibs_user.sign(msg, ibs_sem, ibs_rng);
             })),
             "+1 SEM scalar mult + user-side verify"});
  t.add_row({"Verify", "Hess IBS",
             fmt_us(jr.time_us("verify/hess", kIters, [&] {
               (void)ibs::hess_verify(pkg.params(), "signer", msg, hess_sig);
             })),
             "1 pair_many (2 Miller loops, 1 final exp) + G1 check"});

  // --- mediated signcryption (extension, §7) ----------------------------------
  hash::HmacDrbg sc_rng(3013);
  ibe::Pkg sc_pkg = mediated::make_signcryption_pkg(
      pairing::paper_params(), pairing::paper_params(), 32, sc_rng);
  mediated::IbeMediator sc_ibe_sem(sc_pkg.params(), revocations);
  mediated::GdhMediator sc_sig_sem(pairing::paper_params(), revocations);
  const auto sc_params = mediated::make_signcryption_params(
      sc_pkg.params(), pairing::paper_params(), 32);
  mediated::Signcrypter sc_alice(
      sc_params, enroll_gdh_user(pairing::paper_params(), sc_sig_sem,
                                 "sc-alice", sc_rng));
  mediated::Unsigncrypter sc_bob(
      sc_params, enroll_ibe_user(sc_pkg, sc_ibe_sem, "sc-bob", sc_rng));
  Bytes sc_msg(32);
  sc_rng.fill(sc_msg);
  const auto sc_ct = sc_alice.signcrypt(sc_msg, "sc-bob", sc_sig_sem, sc_rng);

  t.add_row({"Signcrypt", "mediated GDH + FullIdent",
             fmt_us(jr.time_us("signcrypt", kIters, [&] {
               (void)sc_alice.signcrypt(sc_msg, "sc-bob", sc_sig_sem, sc_rng);
             })),
             "mediated sign + IBE encrypt (1 SEM trip)"});
  t.add_row({"Unsigncrypt", "mediated GDH + FullIdent",
             fmt_us(jr.time_us("unsigncrypt", kIters, [&] {
               (void)sc_bob.unsigncrypt(sc_ct, sc_alice.verification_key(),
                                        sc_ibe_sem);
             })),
             "mediated decrypt + GDH verify (1 SEM trip)"});
  t.print();

  std::printf("\nsignature sizes: GDH = %zu bytes (one compressed point), "
              "IB-mRSA = %zu bytes\n",
              direct_sig.to_bytes().size(), mrsa.params().byte_size());
  return 0;
}
