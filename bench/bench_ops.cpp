// Experiment T1 — primitive operation costs (google-benchmark).
//
// Paper claim (§4/§5): pairing evaluation dominates everything; the
// mediated BF-IBE pays 1 pairing per side per decryption while IB-mRSA
// pays one half-size modular exponentiation per side, which is why
// "IB-mRSA is more efficient"; GDH signing is one scalar multiplication
// per side and verification two pairings.
//
// Also carries the coordinate-system ablation (the x-only ladder vs the
// affine reference) called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "bigint/montgomery.h"
#include "ec/jacobian.h"
#include "ec/hash_to_point.h"
#include "hash/drbg.h"
#include "hash/sha256.h"
#include "pairing/params.h"
#include "pairing/tate.h"
#include "rsa/rsa.h"

namespace {

using namespace medcrypt;

const pairing::ParamSet& params() { return pairing::paper_params(); }

struct PairingFixture {
  PairingFixture()
      : engine(params().curve), rng(1),
        a(bigint::BigInt::random_unit(rng, params().order())),
        p(params().generator), q(params().generator.mul(a)) {}

  pairing::TatePairing engine;
  hash::HmacDrbg rng;
  bigint::BigInt a;
  ec::Point p, q;
};

PairingFixture& fixture() {
  static PairingFixture f;
  return f;
}

void BM_TatePairing_sec80(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.engine.pair(f.p, f.q));
}
BENCHMARK(BM_TatePairing_sec80);

void BM_PreparedPairing_sec80(benchmark::State& state) {
  // A pairing against a fixed first argument whose Miller-loop program
  // was recorded once (the SEM's d_sem).
  auto& f = fixture();
  const pairing::PreparedPairing prep = f.engine.prepare(f.p);
  for (auto _ : state) benchmark::DoNotOptimize(f.engine.pair_with(prep, f.q));
}
BENCHMARK(BM_PreparedPairing_sec80);

// prepare() alone: the Miller chain of one first argument recorded as
// a two-coefficient line program, including the one batched inversion
// that scales every line's imaginary coefficient to 1. The SEM pays it
// per enrolled identity.
void BM_PreparePairing_sec80(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.engine.prepare(f.q));
}
BENCHMARK(BM_PreparePairing_sec80);

// The Miller replay alone (miller_with, no final exponentiation): per
// NAF digit one F_p² squaring, then 4 F_p multiplies per recorded line.
void BM_MillerReplay_sec80(benchmark::State& state) {
  auto& f = fixture();
  const pairing::PreparedPairing prep = f.engine.prepare(f.p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.engine.miller_with(prep, f.q));
  }
}
BENCHMARK(BM_MillerReplay_sec80);

void BM_PairManyTwoPrepared_sec80(benchmark::State& state) {
  // The GDH verification shape ê(P, σ)·ê(−pk, h): two prepared factors
  // over one shared Miller loop and one final exponentiation.
  auto& f = fixture();
  const ec::Point neg_q = -f.q;
  const pairing::PreparedPairing prep_p = f.engine.prepare(f.p);
  const pairing::PreparedPairing prep_neg_q = f.engine.prepare(neg_q);
  const pairing::TatePairing::PairTerm terms[] = {
      {nullptr, &prep_p, &f.q}, {nullptr, &prep_neg_q, &f.p}};
  for (auto _ : state) benchmark::DoNotOptimize(f.engine.pair_many(terms));
}
BENCHMARK(BM_PairManyTwoPrepared_sec80);

// Point::mul by a secret 160-bit scalar: the x-only ladder, y-recovery
// and the one inversion to affine. The name predates the ladder and is
// kept so the row lines up with the committed baseline.
void BM_ScalarMul_Jacobian_sec80(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.p.mul(f.a));
}
BENCHMARK(BM_ScalarMul_Jacobian_sec80);

// The G1 check every verifier runs on σ: x(2^160·P) = x((2^31 + 1)·P)
// by a 32-step x-only ladder and 129 x-only doublings (ec::
// in_subgroup_chain), no y-recovery and no inversion.
void BM_InSubgroup_sec80(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.q.in_subgroup());
}
BENCHMARK(BM_InSubgroup_sec80);

// The G_T check the robust combiner runs on S, w1 and w2: norm 1, then
// Re(x^(2^160)) = Re(x^(2^31 + 1)) by a 32-step trace ladder and 129
// trace doublings (field::in_gt).
void BM_InGt_sec80(benchmark::State& state) {
  auto& f = fixture();
  const field::Fp2 x = f.engine.pair(f.p, f.q);
  const field::OrderChain& chain = params().curve->chain();
  for (auto _ : state) benchmark::DoNotOptimize(field::in_gt(x, chain));
}
BENCHMARK(BM_InGt_sec80);

void BM_ScalarMul_FixedBase_sec80(benchmark::State& state) {
  // k·P through the generator's precomputed window table — the path
  // every mul_g() call site (encrypt, sign, share commitments) takes.
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(params().mul_g(f.a));
}
BENCHMARK(BM_ScalarMul_FixedBase_sec80);

void BM_ScalarMul_AffineAblation_sec80(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(f.p.mul_affine(f.a));
}
BENCHMARK(BM_ScalarMul_AffineAblation_sec80);

// Σ ρ_i·V_i for three public 80-bit weights and points, the robust
// combiner's batch left-hand side at t = 3: one Straus pass over
// width-w NAF digits (ec::multi_mul) in place of three 160-step ladders.
void BM_MultiMul_3x80_sec80(benchmark::State& state) {
  hash::HmacDrbg rng(2);
  std::vector<ec::Point> points;
  std::vector<bigint::BigInt> weights;
  for (int i = 0; i < 3; ++i) {
    points.push_back(
        params().mul_g(bigint::BigInt::random_unit(rng, params().order())));
    weights.push_back(
        bigint::BigInt::random_below(rng, bigint::BigInt(1) << 80));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::multi_mul(points, weights));
  }
}
BENCHMARK(BM_MultiMul_3x80_sec80);

// Π g_j^e_j over 12 G_T bases and 160-bit public exponents, the robust
// combiner's batch right-hand side at t = 3: interleaved sliding
// windows over one squaring chain (field::multi_pow).
void BM_MultiPow_12x160_sec80(benchmark::State& state) {
  auto& f = fixture();
  hash::HmacDrbg rng(3);
  const field::Fp2 g = f.engine.pair(f.p, f.q);
  const std::size_t bits = params().order().bit_length();
  std::vector<field::Fp2> bases;
  std::vector<bigint::BigInt> exps;
  for (int i = 0; i < 12; ++i) {
    bases.push_back(field::pow_unitary(
        g, bigint::BigInt::random_unit(rng, params().order()), bits));
    exps.push_back(bigint::BigInt::random_unit(rng, params().order()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::multi_pow(bases, exps));
  }
}
BENCHMARK(BM_MultiPow_12x160_sec80);

// g^a for a G_T value g and a secret 160-bit a, the power BF encryption
// and the Hess commitments pay: the unitary Lucas ladder plus its one
// recovery inversion.
void BM_Fp2Exponentiation_sec80(benchmark::State& state) {
  auto& f = fixture();
  const field::Fp2 g = f.engine.pair(f.p, f.q);
  const std::size_t bits = params().order().bit_length();
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::pow_unitary(g, f.a, bits));
  }
}
BENCHMARK(BM_Fp2Exponentiation_sec80);

// The final exponentiation alone: the (p−1) step and the 352-bit
// (p+1)/q tail ladder, one F_p inversion between them.
void BM_FinalExponentiation_sec80(benchmark::State& state) {
  auto& f = fixture();
  const pairing::PreparedPairing prep = f.engine.prepare(f.p);
  const field::Fp2 miller = f.engine.miller_with(prep, f.q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.engine.final_exponentiation(miller));
  }
}
BENCHMARK(BM_FinalExponentiation_sec80);

void BM_HashToGroup_sec80(benchmark::State& state) {
  int counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::hash_to_subgroup(
        params().curve, "bench", str_bytes(std::to_string(counter++))));
  }
}
BENCHMARK(BM_HashToGroup_sec80);

void BM_FpInverse_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp x = field->random(f.rng);
  for (auto _ : state) {
    x = x.inverse() + field->one();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FpInverse_sec80);

// 64 random elements of the sec80 field, which the rows below take in
// turn so no branch predictor learns one input.
std::vector<field::Fp> random_elements() {
  auto& f = fixture();
  std::vector<field::Fp> xs;
  for (int i = 0; i < 64; ++i) {
    xs.push_back(params().curve->field()->random(f.rng));
  }
  return xs;
}

// The Legendre symbol that rejects a non-residue hash candidate
// (Fp::legendre, variable-time posdivsteps) before try_sqrt's one power
// by (p+1)/4, the next row.
void BM_Jacobi_sec80(benchmark::State& state) {
  const std::vector<field::Fp> xs = random_elements();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i++ % xs.size()].legendre());
  }
}
BENCHMARK(BM_Jacobi_sec80);

void BM_FpTrySqrt_sec80(benchmark::State& state) {
  const std::vector<field::Fp> xs = random_elements();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i++ % xs.size()].try_sqrt());
  }
}
BENCHMARK(BM_FpTrySqrt_sec80);

void BM_FpMul_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp x = field->random(f.rng), y = field->random(f.rng);
  for (auto _ : state) {
    x = x * y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FpMul_sec80);

// The modular add and subtract kernels as dependent chains, in place as
// the Fp2 and point formulas run them.
void BM_FpAdd_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp x = field->random(f.rng), y = field->random(f.rng);
  for (auto _ : state) {
    x += y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FpAdd_sec80);

void BM_FpSub_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp x = field->random(f.rng), y = field->random(f.rng);
  for (auto _ : state) {
    x -= y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FpSub_sec80);

// The in-place Fp2 operations the Miller loop and the final
// exponentiation run: one Karatsuba multiply (3 Fp multiplies) and one
// complex squaring (2 Fp multiplies).
void BM_Fp2Mul_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp2 x = field::Fp2::random(field, f.rng);
  const field::Fp2 y = field::Fp2::random(field, f.rng);
  for (auto _ : state) {
    x.mul_inplace(y);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Fp2Mul_sec80);

void BM_Fp2Sqr_sec80(benchmark::State& state) {
  auto& f = fixture();
  auto field = params().curve->field();
  field::Fp2 x = field::Fp2::random(field, f.rng);
  for (auto _ : state) {
    x.square_inplace();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Fp2Sqr_sec80);

// One Montgomery multiply through Montgomery::mul_limbs at 4, 8 and 16
// limbs (the mid128, sec80 and RSA-1024 widths). The modulus is random,
// odd and full width; the operands are reduced.
void run_mont_mul(benchmark::State& state, std::size_t bits) {
  hash::HmacDrbg rng(3);
  bigint::BigInt n = bigint::BigInt::random_bits(rng, bits - 1) +
                     (bigint::BigInt(1) << (bits - 1));
  if (n.is_even()) n += bigint::BigInt(1);
  const bigint::Montgomery mont(n);
  std::vector<std::uint64_t> x(mont.limbs()), y(mont.limbs());
  mont.to_mont_limbs(bigint::BigInt::random_below(rng, n), x.data());
  mont.to_mont_limbs(bigint::BigInt::random_below(rng, n), y.data());
  for (auto _ : state) {
    mont.mul_limbs(x.data(), y.data(), x.data());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}

void BM_MontMul_256(benchmark::State& state) { run_mont_mul(state, 256); }
BENCHMARK(BM_MontMul_256);

void BM_MontMul_512(benchmark::State& state) { run_mont_mul(state, 512); }
BENCHMARK(BM_MontMul_512);

void BM_MontMul_1024(benchmark::State& state) { run_mont_mul(state, 1024); }
BENCHMARK(BM_MontMul_1024);

struct RsaFixture {
  RsaFixture() : rng(2) {
    rsa::KeyGenOptions opts;
    opts.modulus_bits = 1024;
    key = rsa::generate_key(opts, rng);
    half_exponent = bigint::BigInt::random_bits(rng, 512);
    message = bigint::BigInt::random_below(rng, key.pub.n);
  }
  hash::HmacDrbg rng;
  rsa::PrivateKey key;
  bigint::BigInt half_exponent;
  bigint::BigInt message;
};

RsaFixture& rsa_fixture() {
  static RsaFixture f;
  return f;
}

void BM_RsaPublicOp_1024(benchmark::State& state) {
  auto& f = rsa_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::public_op(f.key.pub, f.message));
  }
}
BENCHMARK(BM_RsaPublicOp_1024);

void BM_RsaPrivateOp_1024(benchmark::State& state) {
  auto& f = rsa_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa::private_op(f.key, f.message));
  }
}
BENCHMARK(BM_RsaPrivateOp_1024);

void BM_RsaHalfExponent_1024(benchmark::State& state) {
  // Meant as the per-side cost of a mediated RSA operation, shown
  // separately for the T2 decomposition. It times a 512-bit exponent
  // (RsaFixture::half_exponent), while rsa::split_exponent draws d_user
  // uniformly below phi(n), so each mediated side really pays a ~1024-bit
  // exponent, like private_op; this row understates that cost.
  auto& f = rsa_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.message.pow_mod(f.half_exponent, f.key.pub.n));
  }
}
BENCHMARK(BM_RsaHalfExponent_1024);

void BM_Sha256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(hash::Sha256::digest(data));
}
BENCHMARK(BM_Sha256_1KiB);

// Console output plus a BENCH_core.json mirror of every run (median of
// the repetitions when --benchmark_repetitions is used; otherwise the
// single run's per-iteration time).
class JsonConsoleReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonConsoleReporter(benchutil::JsonReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      const std::string name = run.benchmark_name();
      // Skip non-median aggregates; a "_median" aggregate overwrites
      // the iteration run recorded under the plain name.
      if (name.find("_mean") != std::string::npos ||
          name.find("_stddev") != std::string::npos ||
          name.find("_cv") != std::string::npos) {
        continue;
      }
      std::string key = name;
      const std::size_t pos = key.rfind("_median");
      if (pos != std::string::npos) key.erase(pos);
      // Default time unit is ns, so the adjusted real time is ns/iter.
      report_->add(key, run.GetAdjustedRealTime(),
                   static_cast<long>(run.iterations));
    }
  }

 private:
  benchutil::JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchutil::JsonReport report("core");
  JsonConsoleReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.write();
  return 0;
}
