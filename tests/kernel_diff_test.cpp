// Differential fuzz suite for the dispatched limb kernels
// (src/bigint/kernels/): every tier the CPU can execute is run against
// the portable reference and must be BIT-identical — including on
// unreduced operands up to R-1, where the single conditional
// subtraction leaves a partially reduced residue that all tiers must
// agree on. Inputs cover random values (reduced and unreduced) plus the
// edge set {0, 1, p-1, R-1, R mod p}, for every named parameter set and
// for random full-width odd moduli at every width in kSweepWidths (the
// bmi2 asm widths 4 and 8, their neighbours, and wide ones up to
// kMaxLimbs). The Fp2 multiply is checked against a BigInt schoolbook.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/kernels/kernels.h"
#include "bigint/montgomery.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "hash/drbg.h"
#include "pairing/params.h"

namespace medcrypt {
namespace {

using bigint::BigInt;
using bigint::Montgomery;
using field::Fp;
using field::PrimeField;
using hash::HmacDrbg;
namespace kernels = bigint::kernels;
using kernels::Kind;
using u64 = std::uint64_t;

constexpr const char* kNamedSets[] = {"toy64", "mid128", "sweep384",
                                      "sec80"};

constexpr std::size_t kSweepWidths[] = {1,  2,  3,  4,  5,  6, 7,
                                        8,  9,  16, 17, 32, 64};
static_assert(kSweepWidths[std::size(kSweepWidths) - 1] ==
              kernels::kMaxLimbs);

struct Context {
  std::string label;
  Montgomery mont;
};

// The named parameter sets' field contexts, then two random odd moduli
// with the top bit set at every sweep width.
std::vector<Context> sweep_contexts(HmacDrbg& rng) {
  std::vector<Context> out;
  for (const char* name : kNamedSets) {
    out.push_back({name, pairing::named_params(name).curve->field()->mont()});
  }
  for (const std::size_t k : kSweepWidths) {
    for (int i = 0; i < 2; ++i) {
      const std::size_t bits = 64 * k;
      BigInt n =
          BigInt::random_bits(rng, bits - 1) + (BigInt(1) << (bits - 1));
      if (n.is_even()) n += BigInt(1);
      out.push_back({"k=" + std::to_string(k) + " #" + std::to_string(i),
                     Montgomery(n)});
    }
  }
  return out;
}

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
  pool.emplace_back(mont.one_limbs(), mont.one_limbs() + k);  // R mod p
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
  const auto& pt = kernels::portable_table();
  for (const auto& [label, mont] : sweep_contexts(rng)) {
    const std::size_t k = mont.limbs();
    const auto pool = operand_pool(mont, rng, 12);
    const u64* n = mont.modulus_limbs();
    const u64 n0 = mont.n0inv();
    for (const auto& a : pool) {
      for (const auto& b : pool) {
        std::vector<u64> ref(k);
        pt.mul(a.data(), b.data(), n, n0, k, ref.data());
        for (const Kind kind : kinds) {
          const auto& t = kernels::table(kind);
          std::vector<u64> out(k, 0xa5a5a5a5a5a5a5a5ull);
          t.mul(a.data(), b.data(), n, n0, k, out.data());
          EXPECT_EQ(out, ref) << label << " mul diverges on "
                              << kernels::kind_name(kind);
        }
      }
    }
  }
}

TEST(KernelDiff, FixedWidthMulAllowsAliasedOutput) {
  HmacDrbg rng(7102);
  for (const auto& [label, mont] : sweep_contexts(rng)) {
    const std::size_t k = mont.limbs();
    const auto pool = operand_pool(mont, rng, 6);
    const u64* n = mont.modulus_limbs();
    const u64 n0 = mont.n0inv();
    for (const Kind kind : available_kinds()) {
      const auto mul = kernels::table(kind).mul;
      for (const auto& a : pool) {
        for (const auto& b : pool) {
          std::vector<u64> ref(k);
          mul(a.data(), b.data(), n, n0, k, ref.data());
          std::vector<u64> x = a;  // out aliases a
          mul(x.data(), b.data(), n, n0, k, x.data());
          EXPECT_EQ(x, ref) << label;
          std::vector<u64> y = b;  // out aliases b
          mul(a.data(), y.data(), n, n0, k, y.data());
          EXPECT_EQ(y, ref) << label;
          std::vector<u64> z = a;  // squaring, all three alias
          mul(z.data(), z.data(), n, n0, k, z.data());
          std::vector<u64> sq(k);
          mul(a.data(), a.data(), n, n0, k, sq.data());
          EXPECT_EQ(z, sq) << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Modular add/sub/neg: the bmi2 asm at k = 4 and 8, portable elsewhere
// ---------------------------------------------------------------------------

// One tier's add, sub and neg on (a, b), checked against the portable
// reference, with the output in a fresh buffer and aliasing each input
// the contract allows.
void expect_add_sub_neg_match(const kernels::Table& t,
                              const std::vector<u64>& a,
                              const std::vector<u64>& b, const u64* n,
                              const std::string& label) {
  const std::size_t k = a.size();
  const auto& pt = kernels::portable_table();
  std::vector<u64> aref(k), sref(k), nref(k);
  pt.add(a.data(), b.data(), n, k, aref.data());
  pt.sub(a.data(), b.data(), n, k, sref.data());
  pt.neg(a.data(), n, k, nref.data());
  const std::string on = label + " on " + t.name;

  std::vector<u64> out(k, 0xa5a5a5a5a5a5a5a5ull);
  t.add(a.data(), b.data(), n, k, out.data());
  EXPECT_EQ(out, aref) << on << " add";
  std::vector<u64> x = a;  // add, out aliases a
  t.add(x.data(), b.data(), n, k, x.data());
  EXPECT_EQ(x, aref) << on << " add out == a";
  std::vector<u64> y = b;  // add, out aliases b
  t.add(a.data(), y.data(), n, k, y.data());
  EXPECT_EQ(y, aref) << on << " add out == b";

  out.assign(k, 0xa5a5a5a5a5a5a5a5ull);
  t.sub(a.data(), b.data(), n, k, out.data());
  EXPECT_EQ(out, sref) << on << " sub";
  x = a;  // sub, out aliases a
  t.sub(x.data(), b.data(), n, k, x.data());
  EXPECT_EQ(x, sref) << on << " sub out == a";
  y = b;  // sub, out aliases b
  t.sub(a.data(), y.data(), n, k, y.data());
  EXPECT_EQ(y, sref) << on << " sub out == b";

  out.assign(k, 0xa5a5a5a5a5a5a5a5ull);
  t.neg(a.data(), n, k, out.data());
  EXPECT_EQ(out, nref) << on << " neg";
  x = a;  // neg in place
  t.neg(x.data(), n, k, x.data());
  EXPECT_EQ(x, nref) << on << " neg out == a";
}

TEST(KernelDiff, ModularAddSubNegBitIdenticalAcrossKernels) {
  HmacDrbg rng(7105);
  const auto kinds = available_kinds();
  for (const auto& [label, mont] : sweep_contexts(rng)) {
    const std::size_t k = mont.limbs();
    const BigInt& p = mont.modulus();
    const u64* n = mont.modulus_limbs();
    // add/sub/neg operate on REDUCED operands only; restrict the edge
    // set accordingly (R-1 and unreduced randoms are out of contract).
    std::vector<std::vector<u64>> pool;
    pool.push_back(std::vector<u64>(k, 0));
    pool.push_back(to_limbs(BigInt(1), k));
    pool.push_back(to_limbs(p - BigInt(1), k));
    pool.emplace_back(mont.one_limbs(), mont.one_limbs() + k);
    for (int i = 0; i < 16; ++i) {
      pool.push_back(to_limbs(BigInt::random_below(rng, p), k));
    }
    for (const auto& a : pool) {
      for (const auto& b : pool) {
        for (const Kind kind : kinds) {
          expect_add_sub_neg_match(kernels::table(kind), a, b, n, label);
        }
      }
    }

    // Boundary pairs, where the conditional subtraction and the
    // wrap-around add flip: a + b = p-1, p and 2p-2; a - b = 0 and -1;
    // neg of 0 and p-1 (the a-operands of the pairs below).
    const BigInt one(1);
    std::vector<std::pair<BigInt, BigInt>> pairs = {
        {BigInt(0), p - one}, {one, p - one}, {p - one, p - one},
        {BigInt(0), BigInt(0)}, {BigInt(0), one}, {p - one, BigInt(0)}};
    for (int i = 0; i < 8; ++i) {
      const BigInt r = BigInt::random_below(rng, p - one);  // r < p-1
      pairs.push_back({r, p - one - r});       // sum p-1
      pairs.push_back({r + one, p - r - one});  // sum p
      pairs.push_back({r, r});                 // difference 0
      pairs.push_back({r, r + one});           // difference -1
    }
    for (const auto& [av, bv] : pairs) {
      const auto a = to_limbs(av, k), b = to_limbs(bv, k);
      const auto expect = [&](const char* what, const BigInt& want,
                              const std::vector<u64>& got) {
        EXPECT_EQ(mont.bigint_from_limbs(got.data()), want) << label << " "
                                                             << what;
      };
      for (const Kind kind : kinds) {
        const auto& t = kernels::table(kind);
        expect_add_sub_neg_match(t, a, b, n, label);
        std::vector<u64> out(k);
        t.add(a.data(), b.data(), n, k, out.data());
        expect("add", av.add_mod(bv, p), out);
        t.sub(a.data(), b.data(), n, k, out.data());
        expect("sub", av.sub_mod(bv, p), out);
        t.neg(a.data(), n, k, out.data());
        expect("neg", BigInt(0).sub_mod(av, p), out);
      }
    }
  }
}

// Out-of-contract operands (up to R-1) still get one well-defined
// answer, the same on every tier: add subtracts n once when a + b >= n,
// sub adds n once when a < b, neg maps 0 to 0 and a to n - a; all mod R.
TEST(KernelDiff, ModularAddSubNegFixedResultOnUnreducedInputs) {
  HmacDrbg rng(7107);
  const auto kinds = available_kinds();
  for (const auto& [label, mont] : sweep_contexts(rng)) {
    const std::size_t k = mont.limbs();
    const BigInt& p = mont.modulus();
    const BigInt r = BigInt(1) << (64 * k);
    const u64* n = mont.modulus_limbs();
    const auto pool = operand_pool(mont, rng, 4);
    for (const auto& a : pool) {
      const BigInt av = mont.bigint_from_limbs(a.data());
      const BigInt neg_want = av.is_zero() ? av : (p + r - av).mod(r);
      for (const auto& b : pool) {
        const BigInt bv = mont.bigint_from_limbs(b.data());
        const BigInt sum = av + bv;
        const BigInt add_want = (sum >= p ? sum - p : sum).mod(r);
        const BigInt sub_want = (av >= bv ? av - bv : av + r - bv + p).mod(r);
        for (const Kind kind : kinds) {
          const auto& t = kernels::table(kind);
          std::vector<u64> out(k);
          t.add(a.data(), b.data(), n, k, out.data());
          EXPECT_EQ(mont.bigint_from_limbs(out.data()), add_want)
              << label << " add on " << t.name;
          t.sub(a.data(), b.data(), n, k, out.data());
          EXPECT_EQ(mont.bigint_from_limbs(out.data()), sub_want)
              << label << " sub on " << t.name;
          t.neg(a.data(), n, k, out.data());
          EXPECT_EQ(mont.bigint_from_limbs(out.data()), neg_want)
              << label << " neg on " << t.name;
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
  const auto kinds = available_kinds();
  for (const auto& [label, mont] : sweep_contexts(rng)) {
    const std::size_t k = mont.limbs();
    const BigInt& p = mont.modulus();
    const BigInt r_inv = (BigInt(1) << (64 * k)).mod(p).mod_inverse(p);
    for (int iter = 0; iter < 32; ++iter) {
      const BigInt av = BigInt::random_below(rng, p);
      const BigInt bv = BigInt::random_below(rng, p);
      const auto a = to_limbs(av, k), b = to_limbs(bv, k);
      // M(a, b) = a·b·R^{-1} mod p.
      const BigInt expect = av.mul_mod(bv, p).mul_mod(r_inv, p);
      std::vector<u64> out(k);
      mont.mul_limbs(a.data(), b.data(), out.data());
      EXPECT_EQ(mont.bigint_from_limbs(out.data()), expect) << label;
      for (const Kind kind : kinds) {
        std::vector<u64> got(k);
        kernels::table(kind).mul(a.data(), b.data(), mont.modulus_limbs(),
                                 mont.n0inv(), k, got.data());
        EXPECT_EQ(mont.bigint_from_limbs(got.data()), expect)
            << label << " on " << kernels::kind_name(kind);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fp2 multiply vs a BigInt schoolbook
// ---------------------------------------------------------------------------

TEST(KernelDiff, Fp2MulMatchesSchoolbook) {
  HmacDrbg rng(7108);
  for (const char* name : kNamedSets) {
    const auto field = pairing::named_params(name).curve->field();
    const BigInt& p = field->modulus();
    // (xa + xb·i)(ya + yb·i) over BigInt.
    const auto expect_product = [&](const field::Fp2& got,
                                    const field::Fp2& x, const Fp& yre,
                                    const Fp& yim, const char* what) {
      const BigInt xa = x.re().to_bigint(), xb = x.im().to_bigint();
      const BigInt ya = yre.to_bigint(), yb = yim.to_bigint();
      const BigInt re = xa.mul_mod(ya, p).sub_mod(xb.mul_mod(yb, p), p);
      const BigInt im = xa.mul_mod(yb, p).add_mod(xb.mul_mod(ya, p), p);
      EXPECT_EQ(got.re().to_bigint(), re) << name << " " << what;
      EXPECT_EQ(got.im().to_bigint(), im) << name << " " << what;
    };
    for (int iter = 0; iter < 24; ++iter) {
      const field::Fp2 x = field::Fp2::random(field, rng);
      const field::Fp2 y = field::Fp2::random(field, rng);
      field::Fp2 got = x;
      got.mul_inplace(y);
      expect_product(got, x, y.re(), y.im(), "mul_inplace");
      // The Miller loop's line multiply takes bare components.
      field::Fp2 line = x;
      line.mul_line_inplace(y.re(), y.im());
      expect_product(line, x, y.re(), y.im(), "mul_line_inplace");
      // Aliased multiply (squaring through mul_inplace).
      field::Fp2 sq = x;
      sq.mul_inplace(sq);
      expect_product(sq, x, x.re(), x.im(), "aliased mul_inplace");
      // Line components that are the element's own components.
      field::Fp2 own = x;
      own.mul_line_inplace(own.re(), own.im());
      expect_product(own, x, x.re(), x.im(), "aliased mul_line_inplace");
      field::Fp2 swapped = x;
      swapped.mul_line_inplace(swapped.im(), swapped.re());
      expect_product(swapped, x, x.im(), x.re(), "swapped mul_line_inplace");
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
