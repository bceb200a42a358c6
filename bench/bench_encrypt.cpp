// Experiment T2 — end-to-end encryption/decryption latency, and
// ablation A2 — the Fujisaki–Okamoto transform's cost (BasicIdent vs
// FullIdent).
//
// Paper claims reproduced:
//   §4: "the Boneh-Franklin IBE is significantly less efficient than
//        IB-mRSA" (it is: pairings beat 1024-bit exponentiations only at
//        encryption, never at decryption);
//   §4: the mediated variants add one SEM round trip, identical in
//        structure across schemes (1 RTT), so the network regime (LAN vs
//        WAN) dominates at high latency.
//
// Rows print: compute-only latency per operation, plus end-to-end
// mediated decryption under the LAN and WAN models of sim/transport.h.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "elgamal/ec_elgamal.h"
#include "mediated/mediated_elgamal.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"

int main() {
  using namespace medcrypt;
  using benchutil::Table, benchutil::time_us, benchutil::fmt_us;
  benchutil::JsonReport jr("encrypt");

  hash::HmacDrbg rng(3001);
  const int kIters = benchutil::bench_iters(10);
  Bytes msg(32);
  rng.fill(msg);

  std::printf("== T2: encrypt/decrypt latency @ paper parameters "
              "(512-bit p / 160-bit q, 1024-bit RSA) ==\n\n");

  // --- Boneh–Franklin (plain + mediated) -----------------------------------
  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(pkg.params(), revocations);
  auto alice = enroll_ibe_user(pkg, sem, "alice", rng);
  const auto d_alice = pkg.extract("alice");

  const auto basic_ct = ibe::basic_encrypt(pkg.params(), "alice", msg, rng);
  const auto full_ct = ibe::full_encrypt(pkg.params(), "alice", msg, rng);

  // --- IB-mRSA ---------------------------------------------------------------
  std::printf("generating 1024-bit IB-mRSA modulus...\n");
  auto mrsa = benchutil::bench_mrsa_system(rng, {"alice"});
  mediated::MRsaMediator mrsa_sem(revocations);
  auto mrsa_alice = enroll_mrsa_user(mrsa, mrsa_sem, "alice", rng);
  const Bytes mrsa_ct = ib_mrsa_encrypt(mrsa.params(), "alice", msg, rng);

  // --- mediated FO-ElGamal ----------------------------------------------------
  elgamal::Params eg_params{pairing::paper_params(), 32};
  mediated::GdhMediator eg_sem(eg_params.group, revocations);
  auto eg_alice = enroll_elgamal_user(eg_params, eg_sem, "alice", rng);
  const auto eg_ct = elgamal::fo_encrypt(eg_params, eg_alice.public_key(), msg, rng);

  Table t({"operation", "scheme", "compute latency"});

  t.add_row({"Encrypt", "BF BasicIdent (CPA)",
             fmt_us(jr.time_us("encrypt/bf_basic", kIters, [&] {
               (void)ibe::basic_encrypt(pkg.params(), "alice", msg, rng);
             }))});
  t.add_row({"Encrypt", "BF FullIdent (CCA)",
             fmt_us(jr.time_us("encrypt/bf_full", kIters, [&] {
               (void)ibe::full_encrypt(pkg.params(), "alice", msg, rng);
             }))});
  // A fresh identity per iteration: H1(ID) and g_ID = ê(P_pub, Q_ID) both
  // miss their caches, as on a sender's first message to a recipient.
  int cold_ids = 0;
  t.add_row({"Encrypt", "BF FullIdent, new recipient",
             fmt_us(jr.time_us("encrypt/bf_full_cold", kIters, [&] {
               (void)ibe::full_encrypt(pkg.params(),
                                       "cold" + std::to_string(cold_ids++),
                                       msg, rng);
             }))});
  t.add_row({"Encrypt", "IB-mRSA / OAEP",
             fmt_us(jr.time_us("encrypt/ib_mrsa", kIters, [&] {
               (void)ib_mrsa_encrypt(mrsa.params(), "alice", msg, rng);
             }))});
  t.add_row({"Encrypt", "FO-ElGamal",
             fmt_us(jr.time_us("encrypt/fo_elgamal", kIters, [&] {
               (void)elgamal::fo_encrypt(eg_params, eg_alice.public_key(), msg, rng);
             }))});

  t.add_row({"Decrypt (direct key)", "BF BasicIdent",
             fmt_us(jr.time_us("decrypt_direct/bf_basic", kIters, [&] {
               (void)ibe::basic_decrypt(pkg.params(), d_alice, basic_ct);
             }))});
  t.add_row({"Decrypt (direct key)", "BF FullIdent",
             fmt_us(jr.time_us("decrypt_direct/bf_full", kIters, [&] {
               (void)ibe::full_decrypt(pkg.params(), d_alice, full_ct);
             }))});

  t.add_row({"Decrypt (mediated)", "BF-IBE + SEM (2 pairings total)",
             fmt_us(jr.time_us("decrypt_mediated/bf_ibe", kIters, [&] {
               (void)alice.decrypt(full_ct, sem);
             }))});
  t.add_row({"Decrypt (mediated)", "IB-mRSA + SEM (2 half-exps)",
             fmt_us(jr.time_us("decrypt_mediated/ib_mrsa", kIters, [&] {
               (void)mrsa_alice.decrypt(mrsa_ct, mrsa_sem);
             }))});
  t.add_row({"Decrypt (mediated)", "FO-ElGamal + SEM (2 scalar mults)",
             fmt_us(jr.time_us("decrypt_mediated/fo_elgamal", kIters, [&] {
               (void)eg_alice.decrypt(eg_ct, eg_sem);
             }))});

  t.print();

  // --- End-to-end mediated decryption under network models --------------------
  std::printf("\n-- end-to-end mediated decryption (compute + 1 SEM round "
              "trip, virtual network) --\n\n");
  Table net({"scheme", "network", "compute", "network time", "total"});
  struct Row {
    const char* name;
    std::function<void(sim::Transport*)> op;
  };
  const std::vector<Row> rows = {
      {"BF-IBE + SEM", [&](sim::Transport* tr) { (void)alice.decrypt(full_ct, sem, tr); }},
      {"IB-mRSA + SEM", [&](sim::Transport* tr) { (void)mrsa_alice.decrypt(mrsa_ct, mrsa_sem, tr); }},
      {"FO-ElGamal + SEM", [&](sim::Transport* tr) { (void)eg_alice.decrypt(eg_ct, eg_sem, tr); }},
  };
  for (const auto& row : rows) {
    for (const auto& [net_name, model] :
         {std::pair{"LAN", sim::LatencyModel::lan()},
          std::pair{"WAN", sim::LatencyModel::wan()}}) {
      const double compute = jr.time_us(
          std::string("e2e_compute/") + row.name, kIters,
          [&] { row.op(nullptr); });
      sim::SimClock clock;
      sim::Transport transport(&clock, model);
      row.op(&transport);
      const double network_us = static_cast<double>(clock.now_ns()) / 1000.0;
      net.add_row({row.name, net_name, fmt_us(compute), fmt_us(network_us),
                   fmt_us(compute + network_us)});
    }
  }
  net.print();

  // --- Ablation A2: the FO transform's cost -----------------------------------
  std::printf("\n-- A2: Fujisaki-Okamoto transform overhead (BF-IBE) --\n\n");
  Table fo({"variant", "encrypt", "decrypt", "integrity"});
  fo.add_row({"BasicIdent",
              fmt_us(jr.time_us("fo_ablation/basic_encrypt", kIters, [&] {
                (void)ibe::basic_encrypt(pkg.params(), "alice", msg, rng);
              })),
              fmt_us(jr.time_us("fo_ablation/basic_decrypt", kIters, [&] {
                (void)ibe::basic_decrypt(pkg.params(), d_alice, basic_ct);
              })),
              "none (malleable)"});
  fo.add_row({"FullIdent",
              fmt_us(jr.time_us("fo_ablation/full_encrypt", kIters, [&] {
                (void)ibe::full_encrypt(pkg.params(), "alice", msg, rng);
              })),
              fmt_us(jr.time_us("fo_ablation/full_decrypt", kIters, [&] {
                (void)ibe::full_decrypt(pkg.params(), d_alice, full_ct);
              })),
              "U = H3(sigma,M)P check"});
  fo.print();
  return 0;
}
