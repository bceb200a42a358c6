// Tests for the modified Tate pairing: bilinearity, non-degeneracy,
// symmetry, subgroup order of outputs, and the BDH-style consistency the
// Boneh–Franklin constructions rely on.
#include <gtest/gtest.h>

#include "bigint/prime.h"
#include "common/bytes.h"
#include "common/error.h"
#include "ec/hash_to_point.h"
#include "hash/drbg.h"
#include "pairing/params.h"
#include "pairing/tate.h"

namespace medcrypt::pairing {
namespace {

using bigint::BigInt;
using ec::hash_to_subgroup;
using field::Fp2;
using hash::HmacDrbg;

class PairingTest : public ::testing::Test {
 protected:
  const ParamSet& params() const { return toy_params(); }
  TatePairing engine() const { return TatePairing(params().curve); }
};

TEST_F(PairingTest, NonDegenerate) {
  const auto e = engine();
  const Fp2 g = e.pair(params().generator, params().generator);
  EXPECT_FALSE(g.is_one());
  EXPECT_FALSE(g.is_zero());
}

TEST_F(PairingTest, OutputHasOrderQ) {
  const auto e = engine();
  const Fp2 g = e.pair(params().generator, params().generator);
  EXPECT_TRUE(g.pow(params().order()).is_one());
}

TEST_F(PairingTest, InfinityMapsToOne) {
  const auto e = engine();
  EXPECT_TRUE(e.pair(params().curve->infinity(), params().generator).is_one());
  EXPECT_TRUE(e.pair(params().generator, params().curve->infinity()).is_one());
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  const auto e = engine();
  HmacDrbg rng(40);
  const auto& P = params().generator;
  const BigInt a = BigInt::random_unit(rng, params().order());
  EXPECT_EQ(e.pair(P.mul(a), P), e.pair(P, P).pow(a));
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  const auto e = engine();
  HmacDrbg rng(41);
  const auto& P = params().generator;
  const BigInt b = BigInt::random_unit(rng, params().order());
  EXPECT_EQ(e.pair(P, P.mul(b)), e.pair(P, P).pow(b));
}

TEST_F(PairingTest, FullBilinearity) {
  const auto e = engine();
  HmacDrbg rng(42);
  const auto& P = params().generator;
  const BigInt a = BigInt::random_unit(rng, params().order());
  const BigInt b = BigInt::random_unit(rng, params().order());
  const Fp2 lhs = e.pair(P.mul(a), P.mul(b));
  const Fp2 rhs = e.pair(P, P).pow(a.mul_mod(b, params().order()));
  EXPECT_EQ(lhs, rhs);
}

TEST_F(PairingTest, Symmetry) {
  // The modified pairing with both arguments in G1 is symmetric.
  const auto e = engine();
  HmacDrbg rng(43);
  const auto& P = params().generator;
  const auto Q = P.mul(BigInt::random_unit(rng, params().order()));
  EXPECT_EQ(e.pair(P, Q), e.pair(Q, P));
}

TEST_F(PairingTest, AdditiveInFirstArgument) {
  const auto e = engine();
  HmacDrbg rng(44);
  const auto& P = params().generator;
  const auto A = P.mul(BigInt::random_unit(rng, params().order()));
  const auto B = P.mul(BigInt::random_unit(rng, params().order()));
  EXPECT_EQ(e.pair(A + B, P), e.pair(A, P) * e.pair(B, P));
}

TEST_F(PairingTest, BdhConsistency) {
  // The identity the Boneh–Franklin scheme uses at every decryption:
  //   ê(rP, s Q_ID) = ê(sP, Q_ID)^r
  const auto e = engine();
  HmacDrbg rng(45);
  const auto& P = params().generator;
  const BigInt& q = params().order();
  const BigInt s = BigInt::random_unit(rng, q);  // master key
  const BigInt r = BigInt::random_unit(rng, q);  // encryption randomness
  const auto Q_id = hash_to_subgroup(params().curve, "H1", str_bytes("alice"));

  const Fp2 left = e.pair(P.mul(r), Q_id.mul(s));   // user side
  const Fp2 right = e.pair(P.mul(s), Q_id).pow(r);  // sender side
  EXPECT_EQ(left, right);
}

TEST_F(PairingTest, TwoOfTwoKeySplitRecombines) {
  // The mediated-IBE identity (§4): for d_ID = d_user + d_sem,
  //   ê(U, d_user) * ê(U, d_sem) = ê(U, d_ID).
  const auto e = engine();
  HmacDrbg rng(46);
  const auto& P = params().generator;
  const BigInt& q = params().order();
  const auto d_id = hash_to_subgroup(params().curve, "H1", str_bytes("bob"))
                        .mul(BigInt::random_unit(rng, q));
  const auto d_user = P.mul(BigInt::random_unit(rng, q));
  const auto d_sem = d_id - d_user;
  const auto U = P.mul(BigInt::random_unit(rng, q));
  EXPECT_EQ(e.pair(U, d_user) * e.pair(U, d_sem), e.pair(U, d_id));
}

TEST_F(PairingTest, RejectsForeignCurvePoints) {
  const auto e = engine();
  const auto& other = named_params("mid128");
  EXPECT_THROW(e.pair(other.generator, other.generator), InvalidArgument);
}

TEST(TatePairing, PaperParamsSmokeTest) {
  // One pairing at the paper's 512-bit setting to keep runtimes sane.
  const auto& params = paper_params();
  const TatePairing e(params.curve);
  HmacDrbg rng(47);
  const BigInt a = BigInt::random_unit(rng, params.order());
  const auto& P = params.generator;
  EXPECT_EQ(e.pair(P.mul(a), P), e.pair(P, P.mul(a)));
}

// --- Prepared (fixed-first-argument) pairing -------------------------------

TEST_F(PairingTest, PreparedMatchesDirectPairing) {
  const auto e = engine();
  HmacDrbg rng(49);
  const auto& P = params().generator;
  const BigInt a = BigInt::random_unit(rng, params().order());
  const Point pa = P.mul(a);
  const PreparedPairing prep = e.prepare(pa);
  EXPECT_FALSE(prep.empty());
  // One prepared program serves many second arguments.
  for (int i = 0; i < 4; ++i) {
    const BigInt b = BigInt::random_unit(rng, params().order());
    const Point q = P.mul(b);
    EXPECT_EQ(e.pair_with(prep, q), e.pair(pa, q));
  }
}

TEST_F(PairingTest, PreparedIsBilinear) {
  const auto e = engine();
  HmacDrbg rng(50);
  const auto& P = params().generator;
  const BigInt b = BigInt::random_unit(rng, params().order());
  const PreparedPairing prep = e.prepare(P);
  EXPECT_EQ(e.pair_with(prep, P.mul(b)), e.pair(P, P).pow(b));
}

TEST_F(PairingTest, PreparedInfinityPairsToOne) {
  const auto e = engine();
  const PreparedPairing prep_inf = e.prepare(params().curve->infinity());
  EXPECT_TRUE(e.pair_with(prep_inf, params().generator).is_one());
  const PreparedPairing prep = e.prepare(params().generator);
  EXPECT_TRUE(e.pair_with(prep, params().curve->infinity()).is_one());
}

TEST_F(PairingTest, PreparedRejectsMismatchesAndWipedPrograms) {
  const auto e = engine();
  // Unprepared/default program.
  EXPECT_THROW(e.pair_with(PreparedPairing(), params().generator),
               InvalidArgument);
  // Prepared for another curve.
  const auto& other = named_params("mid128");
  const TatePairing other_engine(other.curve);
  const PreparedPairing foreign = other_engine.prepare(other.generator);
  EXPECT_THROW(e.pair_with(foreign, params().generator), InvalidArgument);
  // Preparing a foreign point.
  EXPECT_THROW(e.prepare(other.generator), InvalidArgument);
  // Wiping returns the program to the empty state (the SEM relies on
  // this to scrub d_sem-derived coefficients).
  PreparedPairing prep = e.prepare(params().generator);
  EXPECT_GT(prep.step_count(), 0u);
  prep.wipe();
  EXPECT_TRUE(prep.empty());
  EXPECT_EQ(prep.step_count(), 0u);
  EXPECT_THROW(e.pair_with(prep, params().generator), InvalidArgument);
}

// wipe() scrubs and frees the program's limbs, not only its binding.
TEST_F(PairingTest, WipeReleasesTheProgram) {
  const auto e = engine();
  PreparedPairing prep = e.prepare(params().generator);
  EXPECT_GT(prep.heap_bytes(), 0u);
  prep.wipe();
  EXPECT_EQ(prep.heap_bytes(), 0u);
  EXPECT_THROW(e.pair_with(prep, params().generator), InvalidArgument);
  EXPECT_THROW(e.miller_with(prep, params().generator), InvalidArgument);
}

// The program walks the NAF of q: per digit below the top one squaring
// and one doubling line, plus an addition line per nonzero digit, less
// the final addition, whose line is vertical. Checks a program of P
// against the NAF of the curve's order, recoded here digit by digit, and
// pins its step count; each line is 2k limbs. Returns the number of +1
// digits below the top one.
std::size_t expect_program_follows_naf(const ec::Curve* curve,
                                       const ec::Point& P, std::size_t steps,
                                       const char* what) {
  const TatePairing e(curve);
  const PreparedPairing prep = e.prepare(P);
  EXPECT_EQ(prep.step_count(), steps) << what;

  BigInt n = curve->order();
  std::size_t digits = 0, nonzero = 0, positive = 0;
  while (!n.is_zero()) {
    if (n.is_odd()) {
      if (n.bit(1)) {
        n = n + BigInt(1);
      } else {
        n = n - BigInt(1);
        ++positive;
      }
      ++nonzero;
    }
    n = n >> 1;
    ++digits;
  }
  const std::size_t lines = (digits - 1) + (nonzero - 1) - 1;
  EXPECT_EQ(prep.step_count(), (digits - 1) + lines) << what;
  const std::size_t line_bytes =
      2 * curve->field()->limb_count() * sizeof(std::uint64_t);
  EXPECT_GE(prep.heap_bytes(), lines * line_bytes) << what;
  EXPECT_LE(prep.heap_bytes(), (lines + 1) * line_bytes + digits) << what;
  return positive - 1;
}

// Every named set has q = 2^n − 2^b − 1, whose NAF is +1 at n, −1 at b
// and −1 at 0: one addition line. Pinned on the paper's sec80 (binary
// walk: 400 steps, 241 lines) and on toy64.
TEST(TatePairing, PreparedProgramFollowsTheNafOfQ) {
  struct Pin {
    const char* set;
    std::size_t steps;
  };
  for (const Pin pin : {Pin{"toy64", 129}, Pin{"sec80", 321}}) {
    const auto& params = named_params(pin.set);
    EXPECT_EQ(expect_program_follows_naf(params.curve, params.generator,
                                         pin.steps, pin.set),
              0u)
        << pin.set;
  }
}

TEST_F(PairingTest, PairManyMatchesProductOfPairs) {
  const auto e = engine();
  HmacDrbg rng(51);
  const auto& P = params().generator;
  const BigInt a = BigInt::random_unit(rng, params().order());
  const BigInt b = BigInt::random_unit(rng, params().order());
  const BigInt c = BigInt::random_unit(rng, params().order());
  const ec::Point pa = P.mul(a), pb = P.mul(b), pc = P.mul(c);
  const ec::Point qa = P.mul(b), qb = P.mul(c), qc = P.mul(a);

  const TatePairing::PairTerm terms[] = {
      {&pa, nullptr, &qa}, {&pb, nullptr, &qb}, {&pc, nullptr, &qc}};
  EXPECT_EQ(e.pair_many(terms),
            e.pair(pa, qa) * e.pair(pb, qb) * e.pair(pc, qc));
}

TEST_F(PairingTest, PairManyAcceptsPreparedAndRawTermsMixed) {
  const auto e = engine();
  HmacDrbg rng(52);
  const auto& P = params().generator;
  const BigInt a = BigInt::random_unit(rng, params().order());
  const ec::Point pa = P.mul(a);
  const ec::Point q = P.mul(BigInt::random_unit(rng, params().order()));
  const PreparedPairing prep = e.prepare(pa);

  // The same factor contributed raw and prepared must agree, and mix
  // freely with identity factors (which contribute 1 to the product).
  const ec::Point inf = params().curve->infinity();
  const TatePairing::PairTerm terms[] = {
      {&pa, nullptr, &q}, {nullptr, &prep, &q}, {&inf, nullptr, &q}};
  EXPECT_EQ(e.pair_many(terms), e.pair(pa, q).square());
}

TEST_F(PairingTest, PairManyVerifiesBlsStyleEquation) {
  // The verification-equation shape pair_many exists for:
  // ê(P, σ) · ê(−pk, h) == 1 iff σ = x·h for pk = x·P.
  const auto e = engine();
  HmacDrbg rng(53);
  const auto& P = params().generator;
  const BigInt x = BigInt::random_unit(rng, params().order());
  const ec::Point pk = P.mul(x);
  const ec::Point h = P.mul(BigInt::random_unit(rng, params().order()));
  const ec::Point sig = h.mul(x);
  const ec::Point neg_pk = -pk;

  const TatePairing::PairTerm good[] = {{&P, nullptr, &sig},
                                        {&neg_pk, nullptr, &h}};
  EXPECT_TRUE(e.pair_many(good).is_one());

  const ec::Point bad_sig = sig + P;
  const TatePairing::PairTerm bad[] = {{&P, nullptr, &bad_sig},
                                       {&neg_pk, nullptr, &h}};
  EXPECT_FALSE(e.pair_many(bad).is_one());
}

TEST_F(PairingTest, PairManyRejectsMalformedTerms) {
  const auto e = engine();
  const auto& P = params().generator;
  const PreparedPairing prep = e.prepare(P);

  // Both p and prepared set, neither set, and a null q all throw.
  const TatePairing::PairTerm both[] = {{&P, &prep, &P}};
  EXPECT_THROW(e.pair_many(both), InvalidArgument);
  const TatePairing::PairTerm neither[] = {{nullptr, nullptr, &P}};
  EXPECT_THROW(e.pair_many(neither), InvalidArgument);
  const TatePairing::PairTerm no_q[] = {{&P, nullptr, nullptr}};
  EXPECT_THROW(e.pair_many(no_q), InvalidArgument);
  // An empty product is the empty G2 product: one.
  EXPECT_TRUE(e.pair_many({}).is_one());
}

TEST_F(PairingTest, FinalExponentiationOfSubfieldValuesIsOne) {
  // f in F_p or i·F_p has f^(p-1) = ±1, and 4 divides (p+1)/q, so the
  // final exponentiation maps it to 1 (the path that skips the shared
  // inversion of 2cd·N, which is zero there).
  const auto e = engine();
  const auto& field = params().curve->field();
  const Fp2 real(field->from_u64(7));
  const Fp2 imaginary(field->zero(), field->from_u64(5));
  for (const Fp2& f : {real, imaginary}) {
    EXPECT_TRUE(e.final_exponentiation(f).is_one());
  }
}

// Golden vectors: to_bytes() of ê(P, P) and ê(aP, bP) for fixed a, b.
// Pairing values reach the wire (SEM tokens, G_T commitments and proof
// values), so a change to the Miller loop, the final exponentiation or
// the field arithmetic must reproduce them bit for bit.
TEST(TatePairing, GoldenVectors) {
  struct Vector {
    const char* set;
    const char* pp;  // ê(P, P)
    const char* ab;  // ê(aP, bP)
  };
  constexpr Vector kVectors[] = {
      {"toy64",
       "7a7c2af6ad2b3040a4f83e334282fd450f469b93383dc77749103492b83d8c65",
       "967a94685c2dc2aee42d3b2cdcdd5c610229cc977c7cb6a9710af2bd9610d603"},
      {"sec80",
       "43615679782b4db640e2d355c3c4735dcd71c2c50588f83fb272c073f1fe45ee"
       "16bce2469aa4cd84c412932da617057d4309dfa2282399ec33f4293eece6743b"
       "73147da0819fcc17ca31d8e0489200723d3ba17145b3e76156ceefc546a17b4c"
       "c5297b1fbed512c06e03acd59674a0489b23b54777a2770da8745b143573f61e",
       "21bd73b526c2da86e0ff1a154e5c64829ee6fc451ed82313d124dc2a56e65114"
       "d98811d8e286b25a8d5d6b0d068ee76cefc0e4b40afb1bad741b82c3525fe407"
       "16d79f5d5d813de4da894ce9e7f29a658536f91c13d21a54f85e045eb82cc64d"
       "2eedd5fbc1fae360f9c8ef9dacdcdbf7fbcb2f342a407d9ec8901bc8855bf2ba"},
  };
  const BigInt a = BigInt::from_hex("1234567");
  const BigInt b = BigInt::from_hex("89abcdef");
  for (const Vector& v : kVectors) {
    const auto& params = named_params(v.set);
    const TatePairing e(params.curve);
    const auto& P = params.generator;
    EXPECT_EQ(to_hex(e.pair(P, P).to_bytes()), v.pp) << v.set;
    EXPECT_EQ(to_hex(e.pair(P.mul(a), P.mul(b)).to_bytes()), v.ab) << v.set;

    // The same values by independent paths: the prepared replay, a
    // one-term pair_many, ê(P, P)^(ab), and aP, bP from the affine
    // double-and-add oracle.
    const ec::Point aP = P.mul_affine(a), bP = P.mul_affine(b);
    const PreparedPairing prep_p = e.prepare(P), prep_a = e.prepare(aP);
    const TatePairing::PairTerm pp_term[] = {{&P, nullptr, &P}};
    const TatePairing::PairTerm ab_term[] = {{nullptr, &prep_a, &bP}};
    const Fp2 pp = Fp2::from_bytes(params.curve->field(), from_hex(v.pp));
    EXPECT_EQ(e.pair_with(prep_p, P), pp) << v.set;
    EXPECT_EQ(e.pair_many(pp_term), pp) << v.set;
    EXPECT_EQ(to_hex(e.pair_with(prep_a, bP).to_bytes()), v.ab) << v.set;
    EXPECT_EQ(to_hex(e.pair_many(ab_term).to_bytes()), v.ab) << v.set;
    EXPECT_EQ(to_hex(pp.pow(a * b).to_bytes()), v.ab) << v.set;
  }
}

// Pairing laws across parameter sets.
class PairingParamSweep : public ::testing::TestWithParam<const char*> {};

void expect_bilinear(const ec::Curve* curve, const ec::Point& P) {
  const TatePairing e(curve);
  HmacDrbg rng(48);
  const BigInt a = BigInt::random_unit(rng, curve->order());
  const BigInt b = BigInt::random_unit(rng, curve->order());
  EXPECT_EQ(e.pair(P.mul(a), P.mul(b)),
            e.pair(P, P).pow(a.mul_mod(b, curve->order())));
}

TEST_P(PairingParamSweep, BilinearityHolds) {
  const auto& params = named_params(GetParam());
  expect_bilinear(params.curve, params.generator);
}

// Every entry point runs the same Miller loop, raw or prepared, alone or
// in a product; they must agree for first arguments whose chains end on
// either NAF digit and pass through ±P (P, −P, 2P, (q−1)·P, O and a
// random A), against a random B, the first argument itself, its
// negation and O.
void expect_entry_points_agree(const ec::Curve* curve, const ec::Point& P) {
  const TatePairing e(curve);
  HmacDrbg rng(56);
  const BigInt& q = curve->order();
  const ec::Point A = P.mul(BigInt::random_unit(rng, q));
  const ec::Point B = P.mul(BigInt::random_unit(rng, q));
  const ec::Point inf = curve->infinity();
  const PreparedPairing prep_inf = e.prepare(inf);
  const Fp2 pb = e.pair(P, B);

  const ec::Point firsts[] = {P, -P, P.mul(BigInt(2)),
                              P.mul(q - BigInt(1)), inf, A};
  for (const ec::Point& a : firsts) {
    const PreparedPairing prep_a = e.prepare(a);
    for (const ec::Point& b : {B, a, -a, inf}) {
      const Fp2 expected = e.pair(a, b);
      EXPECT_EQ(e.pair_with(prep_a, b), expected);
      EXPECT_EQ(e.final_exponentiation(e.miller_with(prep_a, b)), expected);
      const TatePairing::PairTerm raw[] = {{&a, nullptr, &b}};
      EXPECT_EQ(e.pair_many(raw), expected);
      const TatePairing::PairTerm prepared[] = {
          {nullptr, &prep_a, &b}, {&inf, nullptr, &b}, {nullptr, &prep_inf, &b}};
      EXPECT_EQ(e.pair_many(prepared), expected);
      // A raw and a prepared factor over one shared accumulator.
      const TatePairing::PairTerm mixed[] = {{&a, nullptr, &B},
                                             {nullptr, &prep_a, &b}};
      EXPECT_EQ(e.pair_many(mixed), e.pair(a, B) * expected);
    }
  }
  // The outputs themselves, from bilinearity in the first argument.
  EXPECT_EQ(e.pair(-P, B), pb.conjugate());
  EXPECT_EQ(e.pair(P.mul(BigInt(2)), B), pb.square());
  EXPECT_EQ(e.pair(P.mul(q - BigInt(1)), B), pb.conjugate());
  EXPECT_FALSE(e.pair(A, A).is_one());
  EXPECT_TRUE((e.pair(A, -A) * e.pair(A, A)).is_one());
  EXPECT_TRUE(e.pair(inf, B).is_one());
  EXPECT_TRUE(e.pair_with(prep_inf, B).is_one());
}

TEST_P(PairingParamSweep, EntryPointsAgree) {
  const auto& params = named_params(GetParam());
  expect_entry_points_agree(params.curve, params.generator);
}

// The context generate_params builds once per set agrees with a fresh
// engine: the programs of P and P~ against a random G1 point, a raw hash
// candidate (a point of E(F_p) outside G1, as the GDH verifier pairs it)
// and O, and ê(P, P).
void expect_context_matches_fresh(const ParamSet& params, std::uint64_t seed) {
  ASSERT_EQ(params.pairing->curve(), params.curve);
  const TatePairing fresh(params.curve);
  HmacDrbg rng(seed);
  const auto& P = params.generator;
  const auto& P_inv = params.inv_cofactor_generator;
  const ec::Point qs[] = {
      P.mul(BigInt::random_unit(rng, params.order())),
      ec::hash_to_curve_candidate(params.curve, "ctx", str_bytes("Q")),
      params.curve->infinity()};
  for (const ec::Point& q : qs) {
    EXPECT_EQ(params.pairing->pair_with(*params.generator_program, q),
              fresh.pair(P, q));
    EXPECT_EQ(params.pairing->pair_with(*params.inv_cofactor_program, q),
              fresh.pair(P_inv, q));
  }
  EXPECT_EQ(params.gpp, fresh.pair(P, P));
}

TEST_P(PairingParamSweep, ContextMatchesFreshComputation) {
  expect_context_matches_fresh(named_params(GetParam()), 57);
}

TEST(TatePairing, GeneratedSetContextMatchesFreshComputation) {
  HmacDrbg rng(58);
  expect_context_matches_fresh(generate_params(96, 48, rng), 59);
}

// Two generate_params runs from one seed find the same (p, q, h), so they
// share the interned curve and their generators compare equal.
TEST(ParamGen, SameSeedSharesOneCurveContext) {
  HmacDrbg rng1(62), rng2(62);
  const ParamSet a = generate_params(96, 48, rng1);
  const ParamSet b = generate_params(96, 48, rng2);
  EXPECT_EQ(a.curve, b.curve);
  EXPECT_EQ(a.curve->field(), b.curve->field());
  EXPECT_EQ(a.generator, b.generator);
  EXPECT_EQ(a.pairing->curve(), b.curve);
  EXPECT_EQ(a.gpp, b.gpp);
}

// The parameter rule of every named set: q = 2^n − 2^b − 1 with the
// smallest b ≥ 1 that makes it prime, a prime p = h·q − 1 of exactly
// p_bits bits, h ≡ 0 (mod 4) and prime to q, and a p that is not sparse:
// its popcount lies in [0.35, 0.65]·p_bits (a sparse p would open
// F_{p^2} to the special number field sieve).
TEST(ParamGen, NamedSetsHaveSolinasOrders) {
  struct Spec {
    const char* set;
    std::size_t p_bits, q_bits, b;
  };
  HmacDrbg rng(64);
  for (const Spec spec :
       {Spec{"toy64", 128, 64, 8}, Spec{"mid128", 256, 128, 18},
        Spec{"sweep384", 384, 160, 31}, Spec{"sec80", 512, 160, 31}}) {
    const auto& params = named_params(spec.set);
    const BigInt& p = params.curve->field()->modulus();
    const BigInt& q = params.order();
    const BigInt& h = params.curve->cofactor();
    const auto solinas = [&](std::size_t b) {
      return (BigInt(1) << spec.q_bits) - (BigInt(1) << b) - BigInt(1);
    };
    EXPECT_EQ(q, solinas(spec.b)) << spec.set;
    for (std::size_t b = 1; b < spec.b; ++b) {
      EXPECT_FALSE(bigint::is_probable_prime(solinas(b), rng))
          << spec.set << " b = " << b;
    }
    EXPECT_TRUE(bigint::is_probable_prime(q, rng)) << spec.set;
    EXPECT_TRUE(bigint::is_probable_prime(p, rng)) << spec.set;
    EXPECT_EQ(p.bit_length(), spec.p_bits) << spec.set;
    EXPECT_EQ(p, h * q - BigInt(1)) << spec.set;
    EXPECT_TRUE(h.mod(BigInt(4)).is_zero()) << spec.set;
    EXPECT_FALSE(h.mod(q).is_zero()) << spec.set;
    std::size_t ones = 0;
    for (std::size_t i = 0; i < spec.p_bits; ++i) ones += p.bit(i) ? 1 : 0;
    EXPECT_GE(100 * ones, 35 * spec.p_bits) << spec.set;
    EXPECT_LE(100 * ones, 65 * spec.p_bits) << spec.set;
  }
}

// The membership chain of every named set (field::OrderChain): q =
// 2^n − c with c − 1 = 2^b, so the ladder over c − 1 also yields the
// first b doublings, and g = gcd(2^n + c, h), pinned: 1 at sec80 and
// mid128, whose membership tests reject no small order; 13 at toy64,
// whose tests exercise the rejection; 5 at sweep384.
TEST(ParamGen, NamedSetsPinTheirMembershipChain) {
  struct Spec {
    const char* set;
    std::size_t q_bits, b;
    std::uint64_t g;
  };
  for (const Spec spec :
       {Spec{"toy64", 64, 8, 13}, Spec{"mid128", 128, 18, 1},
        Spec{"sweep384", 160, 31, 5}, Spec{"sec80", 160, 31, 1}}) {
    const auto& params = named_params(spec.set);
    const BigInt& q = params.order();
    const field::OrderChain& chain = params.curve->chain();
    EXPECT_EQ(chain.n, spec.q_bits) << spec.set;
    EXPECT_EQ(chain.ladder, BigInt(1) << spec.b) << spec.set;
    EXPECT_EQ(chain.head, spec.b) << spec.set;
    EXPECT_EQ(chain.g, BigInt(spec.g)) << spec.set;
    EXPECT_EQ(chain.g, BigInt::gcd((BigInt(1) << (spec.q_bits + 1)) - q,
                                   params.curve->cofactor()))
        << spec.set;
  }
}

// At p_bits = q_bits + 3 the range of h/4 holds one value, 2, and
// 8q − 1 is composite for the 64-bit Solinas q, so no p exists. The
// bounded h search reports that instead of looping forever.
TEST(ParamGen, NarrowGapThrows) {
  HmacDrbg rng(65);
  EXPECT_THROW(generate_params(67, 64, rng), InvalidArgument);
}

// Contexts are never freed, so a point outlives the set it came from
// (the ASan job would report a use after free otherwise).
TEST(ParamGen, PointOutlivesItsParamSet) {
  Point p;
  BigInt q;
  Bytes expected;
  {
    HmacDrbg rng(63);
    const ParamSet params = generate_params(96, 48, rng);
    p = params.generator;
    q = params.order();
    expected = params.generator.mul(BigInt(5)).to_bytes();
  }
  EXPECT_EQ(p.mul(BigInt(5)).to_bytes(), expected);
  EXPECT_TRUE(p.mul(q).is_infinity());
  EXPECT_EQ(p.curve()->decompress(p.to_bytes()), p);
}

INSTANTIATE_TEST_SUITE_P(Sets, PairingParamSweep,
                         ::testing::Values("toy64", "mid128", "sec80",
                                           "sweep384"));

// With every named q of the form 2^n − 2^b − 1, no named set has a +1
// NAF digit below the top, so the +P addition line of the Miller walk
// runs only on a random q. This is the toy64 set as it was before the
// Solinas rule (random 64-bit q), built by hand from its hex.
TEST(TatePairing, RandomOrderWalksEveryNafDigit) {
  const field::PrimeField* field = field::PrimeField::make(
      BigInt::from_hex("ce7c28b2b0847d35502747e7b9645fe3"));
  const ec::Curve* curve =
      ec::Curve::make(field, BigInt::from_hex("b96d0ed2c7bdac6f"),
                      BigInt::from_hex("11d12fa9e0ff0185c"));
  const ec::Point P =
      curve->decompress(from_hex("031193dad3caab6350f2623e4943c30cc9"));
  ASSERT_TRUE(P.mul(curve->order()).is_infinity());
  EXPECT_GT(expect_program_follows_naf(curve, P, 150, "random-q toy64"), 0u);
  expect_bilinear(curve, P);
  expect_entry_points_agree(curve, P);
}


// The G_T exponentiation helpers of the field layer: pow_unitary (and
// its trace half pow_unitary_re) must agree with the square-and-multiply
// Fp2::pow on pairing outputs, on random norm-1 values and on ±1, for
// every exponent shape; multi_pow with the product of single powers.
class GtPowTest : public ::testing::TestWithParam<const char*> {
 protected:
  const ParamSet& params() const { return named_params(GetParam()); }
  Fp2 gt_element(const BigInt& k) const {
    const TatePairing e(params().curve);
    return e.pair(params().generator, params().generator).pow(k);
  }
  // z^(p-1) = conj(z)/z for a random z: uniform over the norm-1 group,
  // whose order p + 1 is a multiple of q.
  Fp2 random_unitary(HmacDrbg& rng) const {
    const Fp2 z = Fp2::random(params().curve->field(), rng);
    return z.conjugate() * z.inverse();
  }
};

TEST_P(GtPowTest, UnitaryLadderMatchesPow) {
  const auto& field = params().curve->field();
  const BigInt& q = params().order();
  const BigInt& p = field->modulus();
  const BigInt one(std::uint64_t{1});
  HmacDrbg rng(60);
  std::vector<Fp2> bases = {gt_element(BigInt::random_unit(rng, q)),
                            gt_element(BigInt::random_unit(rng, q)),
                            random_unitary(rng), random_unitary(rng),
                            Fp2::one(field), -Fp2::one(field)};
  std::vector<BigInt> ks = {BigInt(), one, BigInt(std::uint64_t{2}),
                            q - one, q, q + one, (p + one) / q};
  for (int i = 0; i < 10; ++i) {
    ks.push_back(BigInt::random_bits(rng, 160));
    ks.push_back(BigInt::random_bits(rng, 352));
  }
  for (const Fp2& base : bases) {
    for (const BigInt& k : ks) {
      const Fp2 expected = base.pow(k);
      const std::size_t bits = k.bit_length();
      EXPECT_EQ(field::pow_unitary(base, k, bits), expected) << k;
      // Leading zero bits leave the ladder where it was.
      EXPECT_EQ(field::pow_unitary(base, k, bits + 65), expected) << k;
      EXPECT_EQ(field::pow_unitary_re(base, k, bits + 1), expected.re()) << k;
      if (!base.im().is_zero()) {
        const Fp im_inv = base.im().inverse();
        EXPECT_EQ(field::pow_unitary(base, k, bits, &im_inv), expected) << k;
      }
    }
  }
  // A width that is not a multiple of anything: 7-bit exponents.
  for (std::uint64_t k : {0u, 1u, 64u, 127u}) {
    EXPECT_EQ(field::pow_unitary(bases[0], BigInt(k), 7),
              bases[0].pow(BigInt(k)));
  }
}

TEST_P(GtPowTest, UnitaryLadderRejectsOtherNorms) {
  const auto& field = params().curve->field();
  HmacDrbg rng(62);
  const BigInt k(std::uint64_t{5});
  Fp2 z = Fp2::random(field, rng);
  while (z.norm().is_one()) z = Fp2::random(field, rng);
  for (const Fp2& base : {z, Fp2(field->zero()), Fp2(field->from_u64(2))}) {
    EXPECT_THROW(field::pow_unitary(base, k, 3), InvalidArgument);
    EXPECT_THROW(field::pow_unitary_re(base, k, 3), InvalidArgument);
  }
  EXPECT_THROW(field::pow_unitary(Fp2::one(field), BigInt(-1), 1),
               InvalidArgument);
}

TEST_P(GtPowTest, MultiPowMatchesProductOfPowers) {
  const BigInt& q = params().order();
  HmacDrbg rng(61);
  std::vector<Fp2> bases;
  std::vector<BigInt> exps;
  for (int i = 0; i < 5; ++i) {
    bases.push_back(gt_element(BigInt::random_unit(rng, q)));
    exps.push_back(BigInt::random_below(rng, q));
  }
  exps[1] = BigInt();                    // a zero exponent
  exps[3] = BigInt(std::uint64_t{3});    // a short one
  Fp2 expected = Fp2::one(params().curve->field());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    expected *= bases[i].pow(exps[i]);
  }
  EXPECT_EQ(field::multi_pow(bases, exps), expected);
  EXPECT_EQ(field::multi_pow(std::span(bases).first(1),
                             std::span(exps).first(1)),
            bases[0].pow(exps[0]));
}

// The G_T membership test (field::in_gt) against Re(x^q) = 1 from the
// trace ladder over q, on pairing outputs, random norm-1 values, values
// whose order divides g (g = 13 on toy64; 1 at sec80) and their
// products with pairing outputs, ±1 and values of other norms.
TEST_P(GtPowTest, InGtMatchesLadderOverQ) {
  const auto& field = params().curve->field();
  const BigInt& q = params().order();
  const field::OrderChain& chain = params().curve->chain();
  const BigInt order = field->modulus() + BigInt(1);  // of the norm-1 group
  HmacDrbg rng(66);
  Fp2 other = Fp2::random(field, rng);
  while (other.norm().is_one()) other = Fp2::random(field, rng);
  std::vector<Fp2> xs = {Fp2::one(field), -Fp2::one(field), other,
                         Fp2(field->zero()), Fp2(field->from_u64(2))};
  for (int i = 0; i < 8; ++i) {
    const Fp2 gt = gt_element(BigInt::random_unit(rng, q));
    const Fp2 z = random_unitary(rng);
    const Fp2 small = z.pow(order / chain.g);  // order divides g
    xs.insert(xs.end(), {gt, z, small, gt * small, -gt, z.pow(q)});
  }
  int members = 0, small_order = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Fp2& x = xs[i];
    const bool member = x.norm().is_one() &&
                        field::pow_unitary_re(x, q, q.bit_length()).is_one();
    EXPECT_EQ(field::in_gt(x, chain), member) << i;
    members += member;
    small_order += !x.is_one() && x.pow(chain.g).is_one();
  }
  EXPECT_GE(members, 9);  // 1 and the 8 pairing outputs
  EXPECT_LT(members, static_cast<int>(xs.size()) - 8);
  if (chain.g > BigInt(1)) {
    EXPECT_GE(small_order, 4);  // ~12/13 of the 8 `small`
  }
}

INSTANTIATE_TEST_SUITE_P(NamedSets, GtPowTest,
                         ::testing::Values("toy64", "sec80"));

// The G_T wire codec (field::gt_to_bytes / gt_from_bytes): one F_p
// element per value, the identity as zero bytes, and a typed error for
// everything else.
class GtCodecTest : public GtPowTest {};

TEST_P(GtCodecTest, RoundTripsGtValues) {
  const auto& field = params().curve->field();
  const BigInt& q = params().order();
  HmacDrbg rng(63);
  std::vector<Fp2> xs;
  for (int i = 0; i < 10; ++i) xs.push_back(gt_element(BigInt::random_unit(rng, q)));
  for (int i = 0; i < 10; ++i) xs.push_back(random_unitary(rng));
  for (const Fp2& x : xs) {
    const Bytes wire = field::gt_to_bytes(x);
    EXPECT_EQ(wire.size(), field->byte_size());
    EXPECT_EQ(field::gt_from_bytes(field, wire), x);
  }
  // Every m < p decodes to a norm-1 value that encodes back to m.
  for (int i = 0; i < 10; ++i) {
    const Bytes m = field->random(rng).to_bytes();
    const Fp2 x = field::gt_from_bytes(field, m);
    EXPECT_TRUE(x.norm().is_one());
    EXPECT_EQ(field::gt_to_bytes(x), m);
  }
}

TEST_P(GtCodecTest, IdentityIsZeroBytesAndMinusOneIsRejected) {
  const auto& field = params().curve->field();
  const Bytes zeros(field->byte_size(), 0);
  EXPECT_EQ(field::gt_to_bytes(Fp2::one(field)), zeros);
  EXPECT_TRUE(field::gt_from_bytes(field, zeros).is_one());
  EXPECT_THROW(field::gt_to_bytes(-Fp2::one(field)), InvalidArgument);
  HmacDrbg rng(64);
  Fp2 z = Fp2::random(field, rng);
  while (z.norm().is_one()) z = Fp2::random(field, rng);
  EXPECT_THROW(field::gt_to_bytes(z), InvalidArgument);
  EXPECT_THROW(field::gt_to_bytes(Fp2(field->zero())), InvalidArgument);
}

TEST_P(GtCodecTest, DecoderRejectsMalformedEncodings) {
  const auto& field = params().curve->field();
  const std::size_t len = field->byte_size();
  const BigInt& p = field->modulus();
  EXPECT_THROW(field::gt_from_bytes(field, p.to_bytes_be_padded(len)),
               InvalidArgument);
  EXPECT_THROW(field::gt_from_bytes(field, Bytes(len, 0xff)), InvalidArgument);
  // Lengths ±1 around a valid encoding, empty, and the 2-element
  // Fp2::to_bytes form of the same value.
  HmacDrbg rng(65);
  const Fp2 x = gt_element(BigInt::random_unit(rng, params().order()));
  const Bytes wire = field::gt_to_bytes(x);
  Bytes longer = wire;
  longer.push_back(0);
  for (const Bytes& bad : {Bytes(wire.begin(), wire.end() - 1), longer,
                           Bytes(), x.to_bytes()}) {
    EXPECT_THROW(field::gt_from_bytes(field, bad), InvalidArgument)
        << bad.size();
  }
}

INSTANTIATE_TEST_SUITE_P(NamedSets, GtCodecTest,
                         ::testing::Values("toy64", "sec80"));

}  // namespace
}  // namespace medcrypt::pairing
