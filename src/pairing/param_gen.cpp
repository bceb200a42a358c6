#include "pairing/param_gen.h"

#include "bigint/prime.h"
#include "common/error.h"

namespace medcrypt::pairing {

namespace {

// The Solinas prime q = 2^q_bits − 2^b − 1 with the smallest b ≥ 1 that
// makes it prime. For b ≥ 2 its NAF is +1 at q_bits, −1 at b and −1 at 0,
// and the last digit's line is vertical, so a Miller loop over it makes
// one addition step. Pollard rho in the order-q group does not depend on
// the form of q.
BigInt solinas_order(std::size_t q_bits, RandomSource& rng) {
  const BigInt top = BigInt(1) << q_bits;
  for (std::size_t b = 1; b + 1 < q_bits; ++b) {
    const BigInt q = top - (BigInt(1) << b) - BigInt(1);
    if (bigint::is_probable_prime(q, rng)) return q;
  }
  throw InvalidArgument("generate_params: no Solinas prime of this size");
}

}  // namespace

ParamSet generate_params(std::size_t p_bits, std::size_t q_bits,
                         RandomSource& rng) {
  if (p_bits < q_bits + 3) {
    throw InvalidArgument("generate_params: p_bits must exceed q_bits + 2");
  }
  const BigInt q = solinas_order(q_bits, rng);

  // p = h q − 1 with h = 4 h' and h' uniform in
  // [⌈2^(p_bits−1)/4q⌉, ⌊(2^p_bits − 1)/4q⌋], so p has exactly p_bits
  // bits (4 h' q is never a power of two) and p ≡ 3 (mod 4). h stays
  // random so that p is a generic prime: a sparse p would open F_{p^2}
  // to the special number field sieve.
  const BigInt four_q = q << 2;
  const BigInt h_min =
      ((BigInt(1) << (p_bits - 1)) + four_q - BigInt(1)) / four_q;
  const BigInt h_span = ((BigInt(1) << p_bits) - BigInt(1)) / four_q - h_min +
                        BigInt(1);
  BigInt p, h;
  // A draw gives a prime p with probability about 2/(p_bits ln 2) when
  // the range is wide, so 64·p_bits draws all fail with probability
  // about e^-180. A narrow range (p_bits near q_bits + 3 leaves a
  // handful of h) may hold no prime at all; the bound makes that an
  // error instead of an endless loop.
  const std::size_t max_draws = 64 * p_bits;
  // Prime search over public system parameters — (p, q, h) are all
  // published with the ParamSet.  medlint: allow(ct-variable-time)
  for (std::size_t draw = 0;; ++draw) {
    if (draw == max_draws) {
      throw InvalidArgument(
          "generate_params: no prime p = hq - 1 in range; widen p_bits - "
          "q_bits");
    }
    h = (h_min + BigInt::random_below(rng, h_span)) << 2;
    if (h.mod(q).is_zero()) continue;  // h must be invertible mod q
    p = h * q - BigInt(1);
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
