#include "pairing/param_gen.h"

#include "bigint/prime.h"
#include "common/error.h"

namespace medcrypt::pairing {

ParamSet generate_params(std::size_t p_bits, std::size_t q_bits,
                         RandomSource& rng) {
  if (p_bits < q_bits + 3) {
    throw InvalidArgument("generate_params: p_bits must exceed q_bits + 2");
  }
  const BigInt q = bigint::generate_prime(q_bits, rng);

  // Search for h with h ≡ 0 (mod 4) such that p = h q - 1 is prime with
  // exactly p_bits bits. Then p ≡ 3 (mod 4) because h q ≡ 0 (mod 4).
  const std::size_t h_bits = p_bits - q_bits;
  BigInt p, h;
  // Prime search over public system parameters — (p, q, h) are all
  // published with the ParamSet.  medlint: allow(ct-variable-time)
  for (;;) {
    h = BigInt::random_bits(rng, h_bits - 2) + (BigInt(1) << (h_bits - 2));
    h = h << 2;  // multiple of 4 with top bit in place
    p = h * q - BigInt(1);
    if (p.bit_length() != p_bits) continue;
    if (h.mod(q).is_zero()) continue;  // h must be invertible mod q
    if (bigint::is_probable_prime(p, rng)) break;
  }

  auto field = field::PrimeField::make(p);
  auto curve = Curve::make(field, q, h);

  // Generator: random point cleared by the cofactor. The generator is a
  // public parameter.  medlint: allow(ct-variable-time)
  for (;;) {
    const field::Fp x = field->random(rng);
    std::optional<field::Fp> y = curve->rhs(x).try_sqrt();
    if (!y) continue;
    const Point candidate = curve->point(x, std::move(*y)).mul(h);
    if (candidate.is_infinity()) continue;
    // With q prime, any non-identity multiple of h has exact order q.
    const Point inv_cofactor = candidate.mul(h.mod_inverse(q));
    auto engine = std::make_shared<const TatePairing>(curve);
    auto program = std::make_shared<const PreparedPairing>(
        engine->prepare(candidate));
    auto inv_cofactor_program = std::make_shared<const PreparedPairing>(
        engine->prepare(inv_cofactor));
    Fp2 gpp = engine->pair_with(*program, candidate);
    return ParamSet{curve,
                    candidate,
                    std::make_shared<ec::FixedBaseTable>(candidate, q),
                    inv_cofactor,
                    std::move(engine),
                    std::move(program),
                    std::move(inv_cofactor_program),
                    std::move(gpp)};
  }
}

}  // namespace medcrypt::pairing
