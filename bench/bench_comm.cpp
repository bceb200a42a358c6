// Experiment T4 — communication and size comparison.
//
// Paper claims reproduced (§4, §5):
//   - mediated GDH: "the SEM only has to send 160 bits to the user with
//     respect to 1024 bits for the mRSA signature";
//   - mediated IBE: "does not offer a reduction of communication cost
//     (since about 1000 bits have to be sent by the SEM)" vs IB-mRSA;
//   - private keys: "one can currently have 512 or even 160 bits private
//     keys ... against 1024 for IB-mRSA", using point compression;
//   - ciphertexts "can also be shorter than those produced by its RSA
//     counterpart".
//
// NOTE on absolute numbers: our supersingular curve has embedding degree
// 2 with a 512-bit base field, so one compressed G1 point is 520 bits.
// The literal 160-bit figures in the paper assume the characteristic-3
// curves of [6] where group elements fit in ~|q| bits. The *ordering*
// (GDH token < mRSA token; pairing keys < RSA keys) is what this table
// demonstrates. One deviation: the IBE token crosses the wire compressed
// to one F_p element (field::gt_to_bytes), half the mRSA token, where the
// paper's uncompressed ~1000 bits matched it. See EXPERIMENTS.md.
#include <cstdio>

#include "bench_util.h"
#include "elgamal/ec_elgamal.h"
#include "mediated/mediated_elgamal.h"
#include "mediated/mediated_gdh.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"

int main() {
  using namespace medcrypt;
  using benchutil::Table;
  benchutil::JsonReport jr("comm");

  hash::HmacDrbg rng(3003);
  Bytes msg(32);
  rng.fill(msg);

  std::printf("== T4: per-operation SEM communication and object sizes ==\n\n");

  auto revocations = std::make_shared<mediated::RevocationList>();

  // Build one of everything.
  ibe::Pkg pkg(pairing::paper_params(), 32, rng);
  mediated::IbeMediator ibe_sem(pkg.params(), revocations);
  auto ibe_user = enroll_ibe_user(pkg, ibe_sem, "alice", rng);
  const auto ibe_ct = ibe::full_encrypt(pkg.params(), "alice", msg, rng);

  mediated::GdhMediator gdh_sem(pairing::paper_params(), revocations);
  auto gdh_user = enroll_gdh_user(pairing::paper_params(), gdh_sem, "alice", rng);

  std::printf("generating 1024-bit IB-mRSA modulus...\n");
  auto mrsa = benchutil::bench_mrsa_system(rng, {"alice"});
  mediated::MRsaMediator mrsa_sem(revocations);
  auto mrsa_user = enroll_mrsa_user(mrsa, mrsa_sem, "alice", rng);
  const Bytes mrsa_ct = ib_mrsa_encrypt(mrsa.params(), "alice", msg, rng);

  elgamal::Params eg_params{pairing::paper_params(), 32};
  mediated::GdhMediator eg_sem(eg_params.group, revocations);
  auto eg_user = enroll_elgamal_user(eg_params, eg_sem, "alice", rng);
  const auto eg_ct = elgamal::fo_encrypt(eg_params, eg_user.public_key(), msg, rng);

  // --- per-operation wire traffic ---------------------------------------------
  Table wire({"mediated operation", "user->SEM", "SEM->user (token)",
              "token bits"});
  std::uint64_t ibe_token_bytes = 0;
  {
    sim::Transport tr;
    (void)ibe_user.decrypt(ibe_ct, ibe_sem, &tr);
    ibe_token_bytes = tr.stats().to_client.bytes;
    jr.add("token_bytes/bf_ibe_decrypt",
           static_cast<double>(tr.stats().to_client.bytes), 1, "bytes");
    wire.add_row({"BF-IBE decrypt",
                  std::to_string(tr.stats().to_server.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes * 8)});
  }
  {
    sim::Transport tr;
    (void)mrsa_user.decrypt(mrsa_ct, mrsa_sem, &tr);
    jr.add("token_bytes/ib_mrsa_decrypt",
           static_cast<double>(tr.stats().to_client.bytes), 1, "bytes");
    wire.add_row({"IB-mRSA decrypt",
                  std::to_string(tr.stats().to_server.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes * 8)});
  }
  {
    sim::Transport tr;
    (void)gdh_user.sign(msg, gdh_sem, &tr);
    jr.add("token_bytes/gdh_sign",
           static_cast<double>(tr.stats().to_client.bytes), 1, "bytes");
    wire.add_row({"GDH sign",
                  std::to_string(tr.stats().to_server.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes * 8)});
  }
  {
    sim::Transport tr;
    (void)mrsa_user.sign(msg, mrsa_sem, &tr);
    jr.add("token_bytes/mrsa_sign",
           static_cast<double>(tr.stats().to_client.bytes), 1, "bytes");
    wire.add_row({"mRSA sign",
                  std::to_string(tr.stats().to_server.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes * 8)});
  }
  {
    sim::Transport tr;
    (void)eg_user.decrypt(eg_ct, eg_sem, &tr);
    jr.add("token_bytes/fo_elgamal_decrypt",
           static_cast<double>(tr.stats().to_client.bytes), 1, "bytes");
    wire.add_row({"FO-ElGamal decrypt",
                  std::to_string(tr.stats().to_server.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes) + " B",
                  std::to_string(tr.stats().to_client.bytes * 8)});
  }
  wire.print();

  // --- object sizes -------------------------------------------------------------
  std::printf("\n-- key / ciphertext / signature sizes (point compression on) "
              "--\n\n");
  const std::size_t point = pkg.params().curve()->compressed_size();
  Table sizes({"object", "pairing schemes", "IB-mRSA (1024)"});
  sizes.add_row({"user private-key half",
                 std::to_string(point) + " B (compressed G1 point)",
                 std::to_string(mrsa.params().byte_size()) + " B (exponent)"});
  sizes.add_row({"ciphertext (32-B message)",
                 std::to_string(ibe_ct.to_bytes().size()) + " B (U,V,W)",
                 std::to_string(mrsa_ct.size()) + " B (one RSA block)"});
  sizes.add_row({"signature",
                 std::to_string(point) + " B (GDH)",
                 std::to_string(mrsa.params().byte_size()) + " B"});
  sizes.add_row({"public system params",
                 std::to_string(2 * point) + " B (P, Ppub)",
                 std::to_string(mrsa.params().byte_size()) + " B (n)"});
  sizes.print();
  jr.add("size/compressed_point", static_cast<double>(point), 1, "bytes");
  jr.add("size/ibe_ciphertext",
         static_cast<double>(ibe_ct.to_bytes().size()), 1, "bytes");
  jr.add("size/mrsa_block", static_cast<double>(mrsa_ct.size()), 1, "bytes");

  std::printf("\npaper shape check: GDH token (%zu B) < mRSA token (%zu B); "
              "deviation: the compressed IBE token (%llu B) is half the mRSA "
              "token, not ~equal to it; with [6]'s char-3 curves the GDH "
              "token shrinks to ~20 B (160 bits).\n",
              pkg.params().curve()->compressed_size(),
              mrsa.params().byte_size(),
              static_cast<unsigned long long>(ibe_token_bytes));
  return 0;
}
