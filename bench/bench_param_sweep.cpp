// Experiment F3 — the security/size/performance trade-off across
// parameter sets (§4–§5's size discussion).
//
// Sweeps the named parameter sets from 128-bit to 512-bit field primes
// and reports pairing cost, scalar multiplication, mediated decryption,
// the Miller work fixed by q (NAF weight, prepared-program steps and
// bytes), and the wire sizes that scale with |p|. The paper's qualitative
// claim: pairing-based object sizes scale with the curve field (hence the
// point-compression wins over RSA at matched security), while pairing
// cost grows superlinearly with |p|.
#include <cstdio>

#include "bench_util.h"
#include "mediated/mediated_ibe.h"
#include "pairing/params.h"
#include "pairing/tate.h"

namespace {

// Nonzero digits in the non-adjacent form of n > 0.
std::size_t naf_weight(medcrypt::bigint::BigInt n) {
  using medcrypt::bigint::BigInt;
  std::size_t weight = 0;
  while (!n.is_zero()) {
    if (n.is_odd()) {
      n = n.bit(1) ? n + BigInt(1) : n - BigInt(1);
      ++weight;
    }
    n = n >> 1;
  }
  return weight;
}

}  // namespace

int main() {
  using namespace medcrypt;
  using benchutil::Table, benchutil::time_us, benchutil::fmt_us;
  benchutil::JsonReport jr("param_sweep");

  const int kIters = benchutil::bench_iters(10);
  std::printf("== F3: parameter sweep (pairing group sizes) ==\n\n");

  Table t({"set", "|p| bits", "|q| bits", "NAF wt(q)", "Miller steps",
           "program bytes", "pairing", "scalar mult", "mediated decrypt",
           "token bytes", "ciphertext bytes"});

  for (const char* name : {"toy64", "mid128", "sweep384", "sec80"}) {
    const auto& params = pairing::named_params(name);
    hash::HmacDrbg rng(5001);

    ibe::Pkg pkg(params, 32, rng);
    auto revocations = std::make_shared<mediated::RevocationList>();
    mediated::IbeMediator sem(pkg.params(), revocations);
    auto user = enroll_ibe_user(pkg, sem, "alice", rng);

    Bytes msg(32);
    rng.fill(msg);
    const auto ct = ibe::full_encrypt(pkg.params(), "alice", msg, rng);

    const pairing::TatePairing engine(params.curve);
    const auto q_id = ibe::map_identity(pkg.params(), "alice");
    const bigint::BigInt k = bigint::BigInt::random_unit(rng, params.order());

    const double pair_us = jr.time_us(std::string("pairing/") + name, kIters, [&] {
      (void)engine.pair(pkg.params().p_pub, q_id);
    });
    const double mul_us = jr.time_us(std::string("scalar_mul/") + name, kIters, [&] {
      (void)params.generator.mul(k);
    });
    const double dec_us = jr.time_us(std::string("mediated_decrypt/") + name, kIters, [&] {
      (void)user.decrypt(ct, sem);
    });

    // The SEM token crosses the wire compressed: one F_p element.
    const pairing::PreparedPairing& program = *params.generator_program;
    t.add_row({name,
               std::to_string(params.curve->field()->modulus().bit_length()),
               std::to_string(params.order().bit_length()),
               std::to_string(naf_weight(params.order())),
               std::to_string(program.step_count()),
               std::to_string(program.heap_bytes()), fmt_us(pair_us),
               fmt_us(mul_us), fmt_us(dec_us),
               std::to_string(params.curve->field()->byte_size()),
               std::to_string(ct.to_bytes().size())});
  }
  t.print();

  std::printf("\nshape check: pairing cost grows ~|p|^2..3 (limb arithmetic), "
              "sizes grow linearly in |p|; sec80 is the paper's setting.\n");
  return 0;
}
