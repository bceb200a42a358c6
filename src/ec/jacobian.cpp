#include "ec/jacobian.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "common/error.h"

namespace medcrypt::ec {

JacPoint jac_from_affine(const Point& p) {
  if (p.is_infinity()) return JacPoint{};
  const auto& field = p.curve()->field();
  return JacPoint{p.x(), p.y(), field->one(), false};
}

Point jac_to_affine(const Curve* curve, const JacPoint& p) {
  if (p.inf) return curve->infinity();
  const Fp z_inv = p.z.inverse();
  const Fp z_inv_sq = z_inv.square();
  return curve->point(p.x * z_inv_sq, p.y * z_inv_sq * z_inv);
}

std::vector<Point> jac_to_affine_batch(const Curve* curve,
                                       std::span<const JacPoint> pts) {
  std::vector<Point> out(pts.size(), curve->infinity());
  std::vector<std::size_t> finite;  // indices with z != 0
  std::vector<Fp> z_inv;
  finite.reserve(pts.size());
  z_inv.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].inf) continue;
    finite.push_back(i);
    z_inv.push_back(pts[i].z);
  }
  field::batch_inverse(z_inv);
  for (std::size_t j = 0; j < finite.size(); ++j) {
    const JacPoint& p = pts[finite[j]];
    const Fp z_inv_sq = z_inv[j].square();
    out[finite[j]] = curve->point(p.x * z_inv_sq, p.y * z_inv_sq * z_inv[j]);
  }
  return out;
}

JacPoint jac_dbl(const JacPoint& t, DblTrace* trace) {
  if (t.inf || t.y.is_zero()) return JacPoint{};

  // In-place compound ops throughout: every temporary is a fixed-limb
  // stack value, so the Miller loop's doubling steps never allocate.
  Fp y_sq = t.y.square();
  Fp z_sq = t.z.square();
  Fp s = t.x;                                // S = 4XY^2
  s *= y_sq;
  s.dbl_inplace();
  s.dbl_inplace();
  const Fp x_sq = t.x.square();
  Fp m = x_sq.dbl();                         // M = 3X^2 + Z^4 (a = 1),
  m += x_sq;                                 // 3X^2 as 2X^2 + X^2 (no
  m += z_sq.square();                        // small-constant embed)
  Fp x3 = m.square();                        // X' = M^2 - 2S
  x3 -= s;
  x3 -= s;
  Fp y3 = s;                                 // Y' = M(S - X') - 8Y^4
  y3 -= x3;
  y3 *= m;
  Fp y_4th_8 = y_sq.square();
  y_4th_8.dbl_inplace();
  y_4th_8.dbl_inplace();
  y_4th_8.dbl_inplace();
  y3 -= y_4th_8;
  Fp z3 = t.y;                               // Z' = 2YZ
  z3 *= t.z;
  z3.dbl_inplace();

  if (trace != nullptr) {
    trace->zp_zsq = z3;  // 2YZ^3
    trace->zp_zsq *= z_sq;
    trace->m = std::move(m);
    trace->x = t.x;
    trace->y_sq = std::move(y_sq);
    trace->z_sq = std::move(z_sq);
  }
  return JacPoint{std::move(x3), std::move(y3), std::move(z3), false};
}

JacPoint jac_add_mixed(const JacPoint& t, const Point& p, AddTrace* trace) {
  if (p.is_infinity()) {
    throw InvalidArgument("jac_add_mixed: affine addend must be finite");
  }
  if (t.inf) {
    if (trace != nullptr) {
      throw InvalidArgument("jac_add_mixed: no line through infinity");
    }
    return jac_from_affine(p);
  }

  const Fp z_sq = t.z.square();
  Fp u2 = p.x();  // x_P in T's scale
  u2 *= z_sq;
  Fp s2 = p.y();  // y_P in T's scale
  s2 *= z_sq;
  s2 *= t.z;
  Fp h = std::move(u2);
  h -= t.x;
  Fp r = std::move(s2);
  r -= t.y;

  if (h.is_zero()) {
    if (r.is_zero()) {
      // T == P: a doubling. The Miller loop never reaches this; a
      // fixed-base table over a tiny-order base may.
      if (trace != nullptr) {
        throw InvalidArgument("jac_add_mixed: doubling case has no add line");
      }
      return jac_dbl(t);
    }
    // T == -P: vertical line, result is infinity.
    if (trace != nullptr) {
      trace->vertical = true;
      trace->zh = t.z * h;  // zero; unused
      trace->r = r;
    }
    return JacPoint{};
  }

  const Fp h_sq = h.square();
  Fp h_cu = h_sq;
  h_cu *= h;
  Fp v = t.x;  // U1 * H^2
  v *= h_sq;
  Fp x3 = r.square();
  x3 -= h_cu;
  x3 -= v;
  x3 -= v;
  Fp y3 = v;  // r(V - X') - Y1·H^3
  y3 -= x3;
  y3 *= r;
  Fp y1_hcu = t.y;
  y1_hcu *= h_cu;
  y3 -= y1_hcu;
  Fp z3 = t.z;
  z3 *= h;

  if (trace != nullptr) {
    trace->zh = z3;
    trace->r = std::move(r);
    trace->vertical = false;
  }
  return JacPoint{std::move(x3), std::move(y3), std::move(z3), false};
}

namespace {

// The x-only ladder over projective (X : Z), most significant bit first,
// for `bits` >= bits(k) steps. On return (x2 : z2) = k·P and
// (x3 : z3) = (k+1)·P; t0..t3 are scratch for the step and for
// y-recovery. Every member derives from k, so the destructor wipes them
// all, on every exit path. Requires P finite with y != 0 (so
// x(P) != 0) and k >= 0.
struct Ladder {
  Fp x2, z2, x3, z3, t0, t1, t2, t3;

  Ladder(const Point& p, const bigint::BigInt& k, std::size_t bits) {
    const Fp& x1 = p.x();
    const auto& field = x1.field();
    x2 = field->one();  // O = (1 : 0)
    z2 = field->zero();
    x3 = x1;            // P = (x1 : 1)
    z3 = field->one();
    t0 = z2;
    t1 = z2;
    t2 = z2;
    t3 = z2;
    // A set bit maps (R, R + P) to (2R + P, 2R + 2P), the mirror image
    // of a clear bit's (2R, 2R + P): the pair is swapped in, stepped by
    // the clear-bit formulas and swapped back out, and consecutive swaps
    // merge into one by the XOR of adjacent bits.
    std::uint64_t swapped = 0;
    for (std::size_t i = bits; i-- > 0;) {
      const std::uint64_t bit = k.bit(i);
      x2.cswap(x3, swapped ^ bit);
      z2.cswap(z3, swapped ^ bit);
      swapped = bit;
      step(x1);
    }
    x2.cswap(x3, swapped);
    z2.cswap(z3, swapped);
  }

  ~Ladder() {
    for (Fp* f : {&x2, &z2, &x3, &z3, &t0, &t1, &t2, &t3}) f->wipe();
  }

  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  // RFC 7748 §5 with a24 = (A - 2)/4 = -1/2: both of 2R's coordinates
  // are doubled, so X(2R) = 2·AA·BB and Z(2R) = E·(2AA - E) = E·(AA + BB)
  // need no constant multiply. 5M + 4S.
  void step(const Fp& x1) {
    t0 = x2;
    t0 += z2;             // A = X2 + Z2
    x2 -= z2;             // B = X2 - Z2
    t1 = x3;
    t1 += z3;             // C = X3 + Z3
    x3 -= z3;             // D = X3 - Z3
    x3 *= t0;             // DA
    t1 *= x2;             // CB
    t0.square_inplace();  // AA
    x2.square_inplace();  // BB
    z3 = x3;
    z3 -= t1;             // DA - CB
    x3 += t1;             // DA + CB
    x3.square_inplace();  // X(R + P) = (DA + CB)^2
    z3.square_inplace();
    z3 *= x1;             // Z(R + P) = x1·(DA - CB)^2
    z2 = t0;
    z2 -= x2;             // E = AA - BB
    t1 = t0;
    t1 += x2;             // AA + BB
    z2 *= t1;             // Z(2R) = E·(AA + BB)
    x2 *= t0;
    x2.dbl_inplace();     // X(2R) = 2·AA·BB
  }

  // (x2 : z2) ← 2·(x2 : z2) by the step's doubling half alone, 2M + 2S.
  void dbl() {
    t0 = x2;
    t0 += z2;
    t0.square_inplace();  // AA
    x2 -= z2;
    x2.square_inplace();  // BB
    z2 = t0;
    z2 -= x2;             // E = AA - BB
    t1 = t0;
    t1 += x2;
    z2 *= t1;             // E·(AA + BB)
    x2 *= t0;
    x2.dbl_inplace();     // 2·AA·BB
  }
};

}  // namespace

JacPoint ladder_mul(const Point& p, const bigint::BigInt& k) {
  if (!p.curve()) {
    throw InvalidArgument("ladder_mul: default-constructed point");
  }
  if (p.is_infinity()) return JacPoint{};
  if (k.is_negative()) return ladder_mul(-p, -k);
  if (p.y().is_zero()) {  // (0, 0) has order 2
    return k.bit(0) ? jac_from_affine(p) : JacPoint{};
  }
  Ladder l(p, k, std::max(k.bit_length(), p.curve()->order().bit_length()));
  if (l.z2.is_zero()) return JacPoint{};           // kP = O
  if (l.z3.is_zero()) return jac_from_affine(-p);  // (k+1)P = O

  // Okeya–Sakurai with A = 0, B = 1: for Q = kP = (X1 : Z1) and
  // Q + P = (X2 : Z2),
  //   y(Q) = [(x·x_Q + 1)(x_Q + x) - (x_Q - x)^2·x_{Q+P}] / (2y),
  // which over the common denominator D·Z1 with D = 2y·Z1·Z2 is the
  // projective point (D·X1, Y', D·Z1) with
  //   Y' = (X1 + x·Z1)(x·X1 + Z1)·Z2 - (X1 - x·Z1)^2·X2.
  // Jacobian (X', Y', Z') with Z' = D·Z1 is (D·X1·Z', Y'·Z'^2, Z').
  const Fp& x = p.x();
  l.t0 = x;
  l.t0 *= l.z2;             // x·Z1
  l.t1 = l.x2;
  l.t1 -= l.t0;
  l.t1.square_inplace();
  l.t1 *= l.x3;             // (X1 - x·Z1)^2·X2
  l.t0 += l.x2;             // X1 + x·Z1
  l.t2 = x;
  l.t2 *= l.x2;
  l.t2 += l.z2;             // x·X1 + Z1
  l.t0 *= l.t2;
  l.t0 *= l.z3;
  l.t0 -= l.t1;             // Y'
  l.t3 = p.y();
  l.t3.dbl_inplace();
  l.t3 *= l.z2;
  l.t3 *= l.z3;             // D
  Fp z = l.t3;
  z *= l.z2;                // Z' = D·Z1
  Fp xj = l.t3;
  xj *= l.x2;
  xj *= z;                  // D·X1·Z'
  Fp yj = z.square();
  yj *= l.t0;               // Y'·Z'^2
  return JacPoint{std::move(xj), std::move(yj), std::move(z), false};
}

bool in_subgroup_chain(const Point& p) {
  if (!p.curve()) {
    throw InvalidArgument("in_subgroup_chain: default-constructed point");
  }
  if (p.is_infinity()) return true;
  const bigint::BigInt& q = p.curve()->order();
  if (p.y().is_zero()) return !q.bit(0);  // (0, 0) has order 2
  const field::OrderChain& chain = p.curve()->chain();
  // (x2 : z2) = (c−1)·P and (x3 : z3) = c·P; with a head, (c−1)·P is
  // 2^head·P, else the doublings start from P.
  Ladder l(p, chain.ladder, chain.ladder.bit_length());
  if (chain.head == 0) {
    l.x2 = p.x();
    l.z2 = l.x2.field()->one();
  }
  for (std::size_t i = chain.head; i < chain.n; ++i) l.dbl();
  l.t0 = l.x2;  // x(2^n·P) = x(c·P), projectively
  l.t0 *= l.z3;
  l.t1 = l.x3;
  l.t1 *= l.z2;
  if (!(l.t0 == l.t1)) return false;
  return !Ladder(p, chain.g, chain.g.bit_length()).z2.is_zero();
}

namespace {

// NAF width for a public scalar of `bits` bits. A width-w table costs
// 2^(w-1) - 2 mixed additions (P + P, then +P up to (2^(w-1) - 1)·P),
// and the digits cost one addition per w + 1 bits on average, so each
// width wins from where its saved additions pay for its table.
unsigned naf_width(std::size_t bits) {
  if (bits < 24) return 2;
  if (bits < 80) return 3;
  if (bits < 240) return 4;
  return 5;
}

// Width-w NAF of |k|, least significant digit first: every digit is 0
// or odd with |d| < 2^(w-1), and at least w - 1 zeros follow a nonzero
// one (the carry-propagating scan of libsecp256k1's ecmult_wnaf).
std::vector<int> wnaf(const bigint::BigInt& k, unsigned w) {
  const std::size_t len = k.bit_length();
  std::vector<int> digits(len + 1, 0);
  int carry = 0;
  for (std::size_t bit = 0; bit < len;) {
    if (static_cast<int>(k.bit(bit)) == carry) {
      ++bit;
      continue;
    }
    // The window's low bit differs from the carry, so word is odd.
    const std::size_t now = std::min<std::size_t>(w, len - bit);
    int word = carry;
    for (std::size_t j = 0; j < now; ++j) {
      word += static_cast<int>(k.bit(bit + j)) << j;
    }
    carry = (word >> (w - 1)) & 1;
    digits[bit] = word - (carry << w);
    bit += now;
  }
  digits[len] = carry;
  return digits;
}

}  // namespace

Point multi_mul(std::span<const Point> points,
                std::span<const bigint::BigInt> scalars) {
  if (points.empty() || points.size() != scalars.size()) {
    throw InvalidArgument("multi_mul: need equally long, non-empty spans");
  }
  const Curve* curve = points.front().curve();
  if (curve == nullptr) {
    throw InvalidArgument("multi_mul: default-constructed point");
  }
  // One term per nonzero multiple: the digits of |k| and where its table
  // of odd multiples of sign(k)·P starts in `odd`.
  struct Term {
    std::vector<int> digits;
    std::size_t table;
  };
  std::vector<Term> terms;
  std::vector<JacPoint> odd_jac;
  for (std::size_t j = 0; j < points.size(); ++j) {
    const bigint::BigInt& k = scalars[j];
    if (points[j].is_infinity() || k.is_zero()) continue;
    const Point base = k.is_negative() ? -points[j] : points[j];
    const unsigned w = naf_width(k.bit_length());
    terms.push_back({wnaf(k, w), odd_jac.size()});
    // P, 3P, 5P, ... by repeated mixed additions of P; an intermediate
    // multiple may be O (P of small order), which the additions handle.
    JacPoint multiple = jac_from_affine(base);
    odd_jac.push_back(multiple);
    for (std::size_t m = 2; m < (std::size_t{1} << (w - 1)); ++m) {
      multiple = jac_add_mixed(multiple, base);
      if (m % 2 == 1) odd_jac.push_back(multiple);
    }
  }
  const std::vector<Point> odd = jac_to_affine_batch(curve, odd_jac);

  std::size_t top = 0;
  for (const Term& t : terms) top = std::max(top, t.digits.size());
  JacPoint acc;
  for (std::size_t i = top; i-- > 0;) {
    acc = jac_dbl(acc);
    for (const Term& t : terms) {
      const int d = i < t.digits.size() ? t.digits[i] : 0;
      if (d == 0) continue;
      const Point& m = odd[t.table + static_cast<std::size_t>(std::abs(d)) / 2];
      if (m.is_infinity()) continue;
      acc = d > 0 ? jac_add_mixed(acc, m) : jac_add_mixed(acc, -m);
    }
  }
  return jac_to_affine(curve, acc);
}

}  // namespace medcrypt::ec
