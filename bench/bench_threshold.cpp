// Experiment F1 — threshold BF-IBE decryption latency across (t, n), and
// ablation A1 — the cost of the §3.2 robustness machinery.
//
// Paper claims reproduced (§3): threshold decryption is practical — per
// server one pairing; the recombiner pays t Fp2 exponentiations; a
// robustness proof costs each server two G_T powers and a point ladder on
// top of its one pairing, and the recombiner one batched check
// (docs/PERF.md §6); the proofs let the recombiner exclude cheating
// servers.
#include <cstdio>

#include "bench_util.h"
#include "pairing/params.h"
#include "threshold/threshold_ibe.h"

int main() {
  using namespace medcrypt;
  using benchutil::Table, benchutil::time_us, benchutil::fmt_us;
  benchutil::JsonReport jr("threshold");

  hash::HmacDrbg rng(3004);
  const int kIters = benchutil::bench_iters(5);
  Bytes msg(32);
  rng.fill(msg);

  std::printf("== F1: threshold BF-IBE decryption vs (t, n) @ paper "
              "parameters ==\n\n");

  Table t({"(t, n)", "server share", "combine+decrypt", "robust share",
           "robust verify x t", "end-to-end plain", "end-to-end robust"});

  const std::vector<std::pair<std::size_t, std::size_t>> grid = {
      {2, 3}, {3, 5}, {5, 9}, {8, 15}};

  for (const auto& [threshold, players] : grid) {
    threshold::ThresholdDealer dealer(pairing::paper_params(), 32, threshold,
                                      players, rng);
    const auto& setup = dealer.setup();
    const auto keys = dealer.extract_shares("vault");
    const auto ct = ibe::full_encrypt(setup.params, "vault", msg, rng);

    // Individual costs.
    const std::string cfg =
        std::to_string(threshold) + "," + std::to_string(players);
    const double share_us = jr.time_us("share/" + cfg, kIters, [&] {
      (void)compute_decryption_share(setup, keys[0], ct.u, false, rng);
    });
    const double robust_share_us = jr.time_us("robust_share/" + cfg, kIters, [&] {
      (void)compute_decryption_share(setup, keys[0], ct.u, true, rng);
    });

    std::vector<threshold::DecryptionShare> plain_shares, robust_shares;
    for (std::size_t i = 0; i < threshold; ++i) {
      plain_shares.push_back(
          compute_decryption_share(setup, keys[i], ct.u, false, rng));
      robust_shares.push_back(
          compute_decryption_share(setup, keys[i], ct.u, true, rng));
    }
    const double combine_us = jr.time_us("combine/" + cfg, kIters, [&] {
      (void)threshold_full_decrypt(setup, plain_shares, ct);
    });
    const double verify_us = jr.time_us("verify/" + cfg, kIters, [&] {
      (void)select_valid_shares(setup, "vault", ct.u, robust_shares);
    });

    // End-to-end: t servers compute shares (modeled sequentially; a real
    // deployment parallelizes, divide by t), recombiner combines.
    const double e2e_plain = share_us * threshold + combine_us;
    const double e2e_robust = robust_share_us * threshold + verify_us + combine_us;

    t.add_row({"(" + std::to_string(threshold) + ", " + std::to_string(players) + ")",
               fmt_us(share_us), fmt_us(combine_us), fmt_us(robust_share_us),
               fmt_us(verify_us), fmt_us(e2e_plain), fmt_us(e2e_robust)});
  }
  t.print();

  // --- cheater handling cost ---------------------------------------------------
  std::printf("\n-- A1: robustness in anger: 1 cheater among t+1 responders "
              "(t = 3, n = 5) --\n\n");
  threshold::ThresholdDealer dealer(pairing::paper_params(), 32, 3, 5, rng);
  const auto& setup = dealer.setup();
  const auto keys = dealer.extract_shares("vault");
  const auto ct = ibe::full_encrypt(setup.params, "vault", msg, rng);

  std::vector<threshold::DecryptionShare> shares;
  for (std::size_t i = 0; i < 4; ++i) {
    shares.push_back(compute_decryption_share(setup, keys[i], ct.u, true, rng));
  }
  shares[0].value = shares[0].value.square();  // cheat

  const double detect_and_decrypt = jr.time_us("detect_and_decrypt", kIters, [&] {
    const auto valid = select_valid_shares(setup, "vault", ct.u, shares);
    (void)threshold_full_decrypt(setup, valid, ct);
  });
  const double recover_us = jr.time_us("recover_key_share", kIters, [&] {
    const std::vector<threshold::KeyShare> honest = {keys[1], keys[2], keys[3]};
    (void)recover_key_share(setup, honest, 1);
  });
  std::printf("detect cheater + decrypt from honest shares: %s\n",
              fmt_us(detect_and_decrypt).c_str());
  std::printf("reconstruct cheater's key share (t honest):  %s\n",
              fmt_us(recover_us).c_str());
  return 0;
}
