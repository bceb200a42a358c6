// Differential fuzz suite for the dispatched limb kernels
// (src/bigint/kernels/): every tier the CPU can execute is run against
// the portable reference and must be BIT-identical — including on
// unreduced operands up to R-1, where the single conditional
// subtraction leaves a partially reduced residue that all tiers must
// agree on. Inputs cover random values (reduced and unreduced) plus the
// edge set {0, 1, p-1, R-1, R mod p} for every named parameter set, and
// the lazy-reduction WideAcc paths are checked against plain Fp chains.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/kernels/kernels.h"
#include "bigint/montgomery.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "field/lazy.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt {
namespace {

using bigint::BigInt;
using bigint::Montgomery;
using field::Fp;
using field::PrimeField;
using field::WideAcc;
using field::WideProduct;
using hash::HmacDrbg;
namespace kernels = bigint::kernels;
using kernels::Kind;
using u64 = std::uint64_t;

constexpr const char* kNamedSets[] = {"toy64", "mid128", "sweep384",
                                      "sec80"};

std::vector<Kind> available_kinds() {
  std::vector<Kind> out;
  for (const Kind kind : {Kind::kPortable, Kind::kBmi2}) {
    if (kernels::cpu_supports(kind)) out.push_back(kind);
  }
  return out;
}

// Pads an arbitrary value < 2^(64k) into a k-limb little-endian array.
std::vector<u64> to_limbs(const BigInt& v, std::size_t k) {
  std::vector<u64> out(k, 0);
  const auto& limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size() && i < k; ++i) out[i] = limbs[i];
  return out;
}

// The fuzz operand pool for one field: the edge set the issue names,
// reduced randoms, and unreduced randoms anywhere in [0, R).
std::vector<std::vector<u64>> operand_pool(const Montgomery& mont,
                                           HmacDrbg& rng, int randoms) {
  const std::size_t k = mont.limbs();
  const BigInt& p = mont.modulus();
  const BigInt r = BigInt(1) << (64 * k);
  std::vector<std::vector<u64>> pool;
  pool.push_back(std::vector<u64>(k, 0));                     // 0
  pool.push_back(to_limbs(BigInt(1), k));                     // 1
  pool.push_back(to_limbs(p - BigInt(1), k));                 // p-1
  pool.push_back(std::vector<u64>(k, ~u64{0}));               // R-1
  pool.push_back(to_limbs(mont.one(), k));                    // R mod p
  for (int i = 0; i < randoms; ++i) {
    pool.push_back(to_limbs(BigInt::random_below(rng, p), k));
    pool.push_back(to_limbs(BigInt::random_below(rng, r), k));
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Fixed-width Montgomery multiply: every tier vs portable, bit for bit
// ---------------------------------------------------------------------------

TEST(KernelDiff, FixedWidthMulBitIdenticalAcrossKernels) {
  HmacDrbg rng(7101);
  const auto kinds = available_kinds();
  for (const char* name : kNamedSets) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    if (k != 4 && k != 8) continue;  // only these widths are dispatched
    const auto pool = operand_pool(mont, rng, 12);
    const u64* n = mont.modulus_limbs();
    const u64 n0 = mont.n0inv();
    for (const auto& a : pool) {
      for (const auto& b : pool) {
        std::vector<u64> ref(k);
        const auto& pt = kernels::portable_table();
        (k == 4 ? pt.mul4 : pt.mul8)(a.data(), b.data(), n, n0, ref.data());
        for (const Kind kind : kinds) {
          const auto& t = kernels::table(kind);
          std::vector<u64> out(k, 0xa5a5a5a5a5a5a5a5ull);
          (k == 4 ? t.mul4 : t.mul8)(a.data(), b.data(), n, n0, out.data());
          EXPECT_EQ(out, ref) << name << " mul" << k << " diverges on "
                              << kernels::kind_name(kind);
        }
      }
    }
  }
}

TEST(KernelDiff, FixedWidthMulAllowsAliasedOutput) {
  HmacDrbg rng(7102);
  for (const char* name : {"mid128", "sec80"}) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    const auto pool = operand_pool(mont, rng, 6);
    const u64* n = mont.modulus_limbs();
    const u64 n0 = mont.n0inv();
    for (const Kind kind : available_kinds()) {
      const auto& t = kernels::table(kind);
      const auto mul = (k == 4 ? t.mul4 : t.mul8);
      for (const auto& a : pool) {
        for (const auto& b : pool) {
          std::vector<u64> ref(k);
          mul(a.data(), b.data(), n, n0, ref.data());
          std::vector<u64> x = a;  // out aliases a
          mul(x.data(), b.data(), n, n0, x.data());
          EXPECT_EQ(x, ref);
          std::vector<u64> y = b;  // out aliases b
          mul(a.data(), y.data(), n, n0, y.data());
          EXPECT_EQ(y, ref);
          std::vector<u64> z = a;  // squaring, all three alias
          mul(z.data(), z.data(), n, n0, z.data());
          std::vector<u64> sq(k);
          mul(a.data(), a.data(), n, n0, sq.data());
          EXPECT_EQ(z, sq);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wide multiply and standalone reduction
// ---------------------------------------------------------------------------

TEST(KernelDiff, WideMulBitIdenticalAcrossKernels) {
  HmacDrbg rng(7103);
  const auto kinds = available_kinds();
  for (const char* name : kNamedSets) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    if (k != 4 && k != 8) continue;
    const auto pool = operand_pool(mont, rng, 12);
    for (const auto& a : pool) {
      for (const auto& b : pool) {
        std::vector<u64> ref(2 * k);
        const auto& pt = kernels::portable_table();
        (k == 4 ? pt.mul4_wide : pt.mul8_wide)(a.data(), b.data(),
                                               ref.data());
        // The generic fallback must agree with the fixed-width entries.
        std::vector<u64> gen(2 * k);
        kernels::mul_wide_generic(a.data(), b.data(), k, gen.data());
        EXPECT_EQ(gen, ref) << name << " generic wide mul diverges";
        for (const Kind kind : kinds) {
          const auto& t = kernels::table(kind);
          std::vector<u64> out(2 * k, 0xa5a5a5a5a5a5a5a5ull);
          (k == 4 ? t.mul4_wide : t.mul8_wide)(a.data(), b.data(),
                                               out.data());
          EXPECT_EQ(out, ref) << name << " wide mul diverges on "
                              << kernels::kind_name(kind);
        }
      }
    }
  }
}

TEST(KernelDiff, RedcBitIdenticalAcrossKernelsUpToBudget) {
  HmacDrbg rng(7104);
  const auto kinds = available_kinds();
  for (const char* name : kNamedSets) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    if (k != 4 && k != 8) continue;
    const auto pool = operand_pool(mont, rng, 8);
    const u64* n = mont.modulus_limbs();
    const u64 n0 = mont.n0inv();
    for (std::size_t trial = 0; trial < pool.size(); ++trial) {
      // Accumulate 1..8 products of pool operands: each is < R·n, so
      // the total exercises the full T < 8·R·n redc contract.
      std::vector<u64> acc(2 * k + 2, 0);
      const std::size_t terms = 1 + trial % 8;
      for (std::size_t j = 0; j < terms; ++j) {
        const auto& a = pool[(trial + j) % pool.size()];
        const auto& b = pool[(trial + 3 * j + 1) % pool.size()];
        std::vector<u64> w(2 * k);
        kernels::mul_wide_generic(a.data(), b.data(), k, w.data());
        u64 carry = 0;
        for (std::size_t i = 0; i < 2 * k + 2; ++i) {
          const unsigned __int128 s =
              static_cast<unsigned __int128>(acc[i]) +
              (i < 2 * k ? w[i] : 0) + carry;
          acc[i] = static_cast<u64>(s);
          carry = static_cast<u64>(s >> 64);
        }
        ASSERT_EQ(carry, 0u);
      }
      std::vector<u64> ref(k);
      std::vector<u64> scratch = acc;  // t is clobbered; feed copies
      const auto& pt = kernels::portable_table();
      (k == 4 ? pt.redc4 : pt.redc8)(scratch.data(), n, n0, ref.data());
      // The reduced value must be canonical and match the generic path.
      EXPECT_TRUE(mont.bigint_from_limbs(ref.data()) < mont.modulus());
      std::vector<u64> gen(k);
      scratch = acc;
      kernels::redc_generic(scratch.data(), n, n0, k, gen.data());
      EXPECT_EQ(gen, ref) << name << " generic redc diverges";
      for (const Kind kind : kinds) {
        const auto& t = kernels::table(kind);
        std::vector<u64> out(k, 0xa5a5a5a5a5a5a5a5ull);
        scratch = acc;
        (k == 4 ? t.redc4 : t.redc8)(scratch.data(), n, n0, out.data());
        EXPECT_EQ(out, ref) << name << " redc diverges on "
                            << kernels::kind_name(kind);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Width-generic add/sub/neg (every tier runs the portable entries)
// ---------------------------------------------------------------------------

TEST(KernelDiff, ModularAddSubNegBitIdenticalAcrossKernels) {
  HmacDrbg rng(7105);
  const auto kinds = available_kinds();
  for (const char* name : kNamedSets) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    const BigInt& p = mont.modulus();
    // add/sub/neg operate on REDUCED operands only; restrict the edge
    // set accordingly (R-1 and unreduced randoms are out of contract).
    std::vector<std::vector<u64>> pool;
    pool.push_back(std::vector<u64>(k, 0));
    pool.push_back(to_limbs(BigInt(1), k));
    pool.push_back(to_limbs(p - BigInt(1), k));
    pool.push_back(to_limbs(mont.one(), k));
    for (int i = 0; i < 16; ++i) {
      pool.push_back(to_limbs(BigInt::random_below(rng, p), k));
    }
    const u64* n = mont.modulus_limbs();
    const auto& pt = kernels::portable_table();
    for (const auto& a : pool) {
      std::vector<u64> nref(k);
      pt.neg(a.data(), n, k, nref.data());
      for (const Kind kind : kinds) {
        const auto& t = kernels::table(kind);
        std::vector<u64> out(k, 0xa5a5a5a5a5a5a5a5ull);
        t.neg(a.data(), n, k, out.data());
        EXPECT_EQ(out, nref) << name << " neg diverges on "
                             << kernels::kind_name(kind);
        std::vector<u64> ali = a;  // aliased in place
        t.neg(ali.data(), n, k, ali.data());
        EXPECT_EQ(ali, nref);
      }
      for (const auto& b : pool) {
        std::vector<u64> aref(k), sref(k);
        pt.add(a.data(), b.data(), n, k, aref.data());
        pt.sub(a.data(), b.data(), n, k, sref.data());
        for (const Kind kind : kinds) {
          const auto& t = kernels::table(kind);
          std::vector<u64> ao(k), so(k);
          t.add(a.data(), b.data(), n, k, ao.data());
          t.sub(a.data(), b.data(), n, k, so.data());
          EXPECT_EQ(ao, aref) << name << " add diverges on "
                              << kernels::kind_name(kind);
          EXPECT_EQ(so, sref) << name << " sub diverges on "
                              << kernels::kind_name(kind);
          std::vector<u64> ali = a;  // out aliases a
          t.add(ali.data(), b.data(), n, k, ali.data());
          EXPECT_EQ(ali, aref);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Montgomery-level correctness of the dispatched multiply
// ---------------------------------------------------------------------------

TEST(KernelDiff, MulMatchesBigIntReferenceOnReducedInputs) {
  HmacDrbg rng(7106);
  for (const char* name : kNamedSets) {
    const auto& mont = pairing::named_params(name).curve->field()->mont();
    const std::size_t k = mont.limbs();
    const BigInt& p = mont.modulus();
    for (int iter = 0; iter < 32; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const BigInt bv = BigInt::random_below(rng, p);
      const auto a = to_limbs(av, k), b = to_limbs(bv, k);
      std::vector<u64> out(k);
      mont.mul_limbs(a.data(), b.data(), out.data());
      // M(a, b) = a·b·R^{-1} = to_mont(from_mont(a)·from_mont(b)).
      const BigInt expect =
          mont.to_mont(mont.from_mont(av).mul_mod(mont.from_mont(bv), p));
      EXPECT_EQ(mont.bigint_from_limbs(out.data()), expect) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Lazy-reduction accumulator vs plain Fp chains
// ---------------------------------------------------------------------------

TEST(KernelDiff, WideAccMatchesFpChains) {
  HmacDrbg rng(7107);
  for (const char* name : kNamedSets) {
    const auto field = pairing::named_params(name).curve->field();
    ASSERT_TRUE(WideAcc::supports(*field)) << name;
    for (int iter = 0; iter < 32; ++iter) {
      const Fp a = field->random(rng), b = field->random(rng);
      const Fp c = field->random(rng), d = field->random(rng);
      const Fp e = field->random(rng), g = field->random(rng);

      // a·b - c·d + e - g through the accumulator...
      WideAcc acc(*field);
      Fp got = a;
      acc.add_product(a, b);
      acc.sub_product(c, d);
      acc.add_shifted(e);
      acc.sub_shifted(g);
      acc.reduce_into(got);
      // ...vs the reduced chain.
      Fp want = a;
      want *= b;
      Fp cd = c;
      cd *= d;
      want -= cd;
      want += e;
      want -= g;
      EXPECT_EQ(got, want) << name;

      // Worst-case magnitude: the full 8-unit budget of subtractions,
      // each paying the R·n bias — T peaks just under 8·R·n.
      WideAcc worst(*field);
      Fp got2 = a;
      for (int j = 0; j < 8; ++j) worst.sub_product(a, b);
      worst.reduce_into(got2);
      Fp want2 = a;
      want2 *= b;
      Fp acc8 = field->zero();
      for (int j = 0; j < 8; ++j) acc8 -= want2;
      EXPECT_EQ(got2, acc8) << name << " (8x sub budget)";

      // A reused WideProduct must feed several accumulations.
      WideProduct ab;
      ab.assign(a, b);
      WideAcc reuse(*field);
      Fp got3 = a;
      reuse.add(ab);
      reuse.add(ab);
      reuse.sub(ab);
      reuse.reduce_into(got3);
      Fp want3 = a;
      want3 *= b;
      EXPECT_EQ(got3, want3) << name << " (WideProduct reuse)";
    }
  }
}

#if defined(MEDCRYPT_CHECKED_LAZY) || !defined(NDEBUG)
// The budget check must fire on the (kBudget+1)-th accumulation: via
// assert() in debug builds, via the MEDCRYPT_CHECKED_LAZY abort path
// when assert compiles out. Either way the process dies before
// reduce_into can hand back a wrapped value.
TEST(KernelDiffDeathTest, WideAccBudgetOverflowAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  HmacDrbg rng(7109);
  const auto field = pairing::named_params(kNamedSets[0]).curve->field();
  const Fp a = field->random(rng), b = field->random(rng);
  EXPECT_DEATH(
      {
        WideAcc acc(*field);
        for (unsigned j = 0; j <= WideAcc::kBudget; ++j) acc.sub_product(a, b);
      },
      "budget");
}
#endif

TEST(KernelDiff, LazyFp2MulMatchesSchoolbook) {
  HmacDrbg rng(7108);
  for (const char* name : kNamedSets) {
    const auto field = pairing::named_params(name).curve->field();
    const BigInt& p = field->modulus();
    for (int iter = 0; iter < 24; ++iter) {
      const field::Fp2 x = field::Fp2::random(field, rng);
      const field::Fp2 y = field::Fp2::random(field, rng);
      field::Fp2 got = x;
      got.mul_inplace(y);  // lazy path on every named set (k <= 8)
      // Schoolbook reference over BigInt.
      const BigInt xa = x.re().to_bigint(), xb = x.im().to_bigint();
      const BigInt ya = y.re().to_bigint(), yb = y.im().to_bigint();
      const BigInt re = xa.mul_mod(ya, p).sub_mod(xb.mul_mod(yb, p), p);
      const BigInt im = xa.mul_mod(yb, p).add_mod(xb.mul_mod(ya, p), p);
      EXPECT_EQ(got.re().to_bigint(), re) << name;
      EXPECT_EQ(got.im().to_bigint(), im) << name;
      // Aliased multiply (squaring through mul_inplace).
      field::Fp2 sq = x;
      sq.mul_inplace(sq);
      field::Fp2 sq2 = x;
      sq2.mul_inplace(field::Fp2(x.re(), x.im()));
      EXPECT_EQ(sq, sq2) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch surface
// ---------------------------------------------------------------------------

TEST(KernelDiff, ActiveTableIsAnAvailableTier) {
  const auto& act = kernels::active();
  EXPECT_TRUE(kernels::cpu_supports(act.kind));
  EXPECT_STREQ(act.name, kernels::kind_name(act.kind));
  // Montgomery contexts must have picked up the dispatched table.
  const auto& mont = pairing::named_params("toy64").curve->field()->mont();
  EXPECT_EQ(&mont.kernel(), &act);
}

}  // namespace
}  // namespace medcrypt
