// gen_params — generates and prints a supersingular pairing parameter
// set (field prime p = h·q − 1, subgroup order q, generator), plus a
// self-check of the pairing laws on the fresh set.
//
//   gen_params <p_bits> <q_bits> [seed]
//
// With a seed the output is reproducible (HMAC-DRBG); without one, OS
// entropy is used. Useful for adding new named sets to
// src/pairing/params.cpp or for sizing experiments.
#include <cstdlib>
#include <iostream>

#include "hash/drbg.h"
#include "pairing/param_gen.h"
#include "pairing/tate.h"

int main(int argc, char** argv) {
  using namespace medcrypt;
  if (argc != 3 && argc != 4) {
    std::cerr << "usage: gen_params <p_bits> <q_bits> [seed]\n";
    return 2;
  }
  const std::size_t p_bits = std::strtoul(argv[1], nullptr, 10);
  const std::size_t q_bits = std::strtoul(argv[2], nullptr, 10);

  std::unique_ptr<RandomSource> rng;
  if (argc == 4) {
    rng = std::make_unique<hash::HmacDrbg>(
        static_cast<std::uint64_t>(std::strtoull(argv[3], nullptr, 10)));
  } else {
    rng = std::make_unique<hash::SystemRandom>();
  }

  try {
    const pairing::ParamSet params =
        pairing::generate_params(p_bits, q_bits, *rng);
    const auto& p = params.curve->field()->modulus();
    std::cout << "curve     y^2 = x^3 + x over F_p\n"
              << "p         " << p.to_hex() << "  (" << p.bit_length()
              << " bits, p = 3 mod 4)\n"
              << "q         " << params.order().to_hex() << "  ("
              << params.order().bit_length() << " bits, q | p+1)\n"
              << "cofactor  " << params.curve->cofactor().to_hex() << "\n"
              << "generator " << to_hex(params.generator.to_bytes())
              << "  (compressed)\n";

    // Self-check: bilinearity on the fresh set.
    const pairing::TatePairing& e = *params.pairing;
    const bigint::BigInt a = bigint::BigInt::random_unit(*rng, params.order());
    const bigint::BigInt b = bigint::BigInt::random_unit(*rng, params.order());
    const bool ok =
        e.pair(params.generator.mul(a), params.generator.mul(b)) ==
        e.pair(params.generator, params.generator)
            .pow(a.mul_mod(b, params.order()));
    std::cout << "self-check (bilinearity): " << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}
