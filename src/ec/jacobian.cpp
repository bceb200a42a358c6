#include "ec/jacobian.h"

#include "common/error.h"

namespace medcrypt::ec {

JacPoint jac_from_affine(const Point& p) {
  if (p.is_infinity()) return JacPoint{};
  const auto& field = p.curve()->field();
  return JacPoint{p.x(), p.y(), field->one(), false};
}

Point jac_to_affine(const std::shared_ptr<const Curve>& curve,
                    const JacPoint& p) {
  if (p.inf) return curve->infinity();
  const Fp z_inv = p.z.inverse();
  const Fp z_inv_sq = z_inv.square();
  return curve->point(p.x * z_inv_sq, p.y * z_inv_sq * z_inv);
}

std::vector<Point> jac_to_affine_batch(
    const std::shared_ptr<const Curve>& curve, std::span<const JacPoint> pts) {
  // Montgomery's trick: prefix products, one inversion, unwind.
  std::vector<Point> out(pts.size());
  std::vector<std::size_t> finite;  // indices with z != 0
  finite.reserve(pts.size());
  std::vector<Fp> prefix;           // running products of z
  prefix.reserve(pts.size());
  Fp running = curve->field()->one();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].inf) {
      out[i] = curve->infinity();
      continue;
    }
    prefix.push_back(running);  // product of all previous finite z's
    finite.push_back(i);
    running = running * pts[i].z;
  }
  if (finite.empty()) return out;

  Fp inv_all = running.inverse();
  for (std::size_t j = finite.size(); j-- > 0;) {
    const JacPoint& p = pts[finite[j]];
    const Fp z_inv = inv_all * prefix[j];  // 1/z_j
    inv_all = inv_all * p.z;               // drop z_j from the tail
    const Fp z_inv_sq = z_inv.square();
    out[finite[j]] = curve->point(p.x * z_inv_sq, p.y * z_inv_sq * z_inv);
  }
  return out;
}

JacPoint jac_dbl(const Curve& curve, const JacPoint& t, DblTrace* trace) {
  if (t.inf || t.y.is_zero()) return JacPoint{};

  // In-place compound ops throughout: every temporary is a fixed-limb
  // stack value, so the Miller loop's doubling steps never allocate.
  const Fp y_sq = t.y.square();
  const Fp z_sq = t.z.square();
  Fp s = t.x;                                // S = 4XY^2
  s *= y_sq;
  s.dbl_inplace();
  s.dbl_inplace();
  const Fp x_sq = t.x.square();
  Fp m = x_sq.dbl();                         // 3X^2 as 2X^2 + X^2 (no
  m += x_sq;                                 // small-constant embed)
  if (curve.a().is_one()) {                  // M = 3X^2 + aZ^4
    m += z_sq.square();
  } else if (!curve.a().is_zero()) {
    Fp az4 = z_sq.square();
    az4 *= curve.a();
    m += az4;
  }
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
    trace->m = m;
    trace->x = t.x;
    trace->y_sq = y_sq;
    trace->z_sq = z_sq;
    trace->zp_zsq = z3;  // 2YZ^3
    trace->zp_zsq *= z_sq;
  }
  return JacPoint{std::move(x3), std::move(y3), std::move(z3), false};
}

JacPoint jac_add_mixed(const Curve& curve, const JacPoint& t, const Point& p,
                       AddTrace* trace) {
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
      // T == P: a doubling. The Miller loop never reaches this; the
      // scalar ladder may on tiny curves.
      if (trace != nullptr) {
        throw InvalidArgument("jac_add_mixed: doubling case has no add line");
      }
      return jac_dbl(curve, t);
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
    trace->r = r;
    trace->vertical = false;
  }
  return JacPoint{std::move(x3), std::move(y3), std::move(z3), false};
}

namespace {

// jac_mul before its final affine conversion.
JacPoint jac_mul_raw(const Point& p, const bigint::BigInt& k) {
  const auto& curve = p.curve();
  if (!curve) throw InvalidArgument("jac_mul: default-constructed point");
  if (k.is_zero() || p.is_infinity()) return JacPoint{};
  if (k.is_negative()) return jac_mul_raw(-p, -k);

  // 4-bit window over an affine table (mixed additions stay cheap).
  // The 2P..15P entries are accumulated in Jacobian form and converted
  // with ONE batched inversion.
  constexpr int kWindow = 4;
  std::vector<JacPoint> jac_table;
  jac_table.reserve((1 << kWindow) - 2);
  {
    JacPoint acc = jac_from_affine(p);
    for (int i = 2; i < (1 << kWindow); ++i) {
      acc = jac_add_mixed(*curve, acc, p);
      jac_table.push_back(acc);
    }
  }
  const std::vector<Point> converted = jac_to_affine_batch(curve, jac_table);
  Point table[1 << kWindow];
  table[1] = p;
  for (int i = 2; i < (1 << kWindow); ++i) table[i] = converted[i - 2];

  const std::size_t nbits = k.bit_length();
  const std::size_t nwindows = (nbits + kWindow - 1) / kWindow;
  JacPoint acc{};
  for (std::size_t w = nwindows; w-- > 0;) {
    for (int i = 0; i < kWindow; ++i) acc = jac_dbl(*curve, acc);
    unsigned idx = 0;
    for (int i = kWindow - 1; i >= 0; --i) {
      idx = (idx << 1) | (k.bit(w * kWindow + i) ? 1u : 0u);
    }
    if (idx != 0) {
      if (table[idx].is_infinity()) continue;  // only if p had tiny order
      acc = jac_add_mixed(*curve, acc, table[idx]);
    }
  }
  return acc;
}

}  // namespace

std::vector<std::int8_t> naf_digits(const bigint::BigInt& k) {
  if (k.is_negative()) throw InvalidArgument("naf_digits: negative scalar");
  std::vector<std::int8_t> digits;
  digits.reserve(k.bit_length() + 1);
  bigint::BigInt rest = k;
  while (!rest.is_zero()) {
    std::int8_t d = 0;
    if (rest.bit(0)) {
      // rest ≡ 1 (mod 4) takes digit 1, rest ≡ 3 takes -1; either way
      // the next digit is then 0.
      d = rest.bit(1) ? -1 : 1;
      rest = d > 0 ? rest - bigint::BigInt(1) : rest + bigint::BigInt(1);
    }
    digits.push_back(d);
    rest = rest >> 1;
  }
  return digits;
}

JacPoint jac_mul_naf(const Point& p, std::span<const std::int8_t> naf) {
  const auto& curve = p.curve();
  if (!curve) throw InvalidArgument("jac_mul_naf: default-constructed point");
  if (p.is_infinity()) return JacPoint{};
  const Point neg = -p;
  JacPoint acc{};
  for (std::size_t i = naf.size(); i-- > 0;) {
    acc = jac_dbl(*curve, acc);
    if (naf[i] != 0) acc = jac_add_mixed(*curve, acc, naf[i] > 0 ? p : neg);
  }
  return acc;
}

Point jac_mul(const Point& p, const bigint::BigInt& k) {
  return jac_to_affine(p.curve(), jac_mul_raw(p, k));
}

}  // namespace medcrypt::ec
