#include "pairing/tate.h"

#include <utility>

#include "common/error.h"
#include "ec/jacobian.h"
#include "obs/span.h"

namespace medcrypt::pairing {

using field::Fp;

namespace {

// The three line-evaluation shapes of the Miller loop, each multiplied
// straight into the accumulator f.

// Doubling step: L = M(X - Z²x') - 2Y² + i·(2YZ³)·y'.
void mul_dbl_line(Fp2& f, const ec::DblTrace& tr, const Fp& xq,
                  const Fp& yq) {
  Fp im = tr.zp_zsq;
  im *= yq;
  Fp re = tr.z_sq;
  re *= xq;
  re.negate_inplace();
  re += tr.x;
  re *= tr.m;
  re -= tr.y_sq;
  re -= tr.y_sq;
  f.mul_line_inplace(re, im);
}

// Addition step: L = r(x_P - x') - ZH·y_P + i·(ZH)·y'.
void mul_add_line(Fp2& f, const ec::AddTrace& tr, const Point& p,
                  const Fp& xq, const Fp& yq) {
  Fp im = tr.zh;
  im *= yq;
  Fp re = p.x();
  re -= xq;
  re *= tr.r;
  Fp tmp = tr.zh;
  tmp *= p.y();
  re -= tmp;
  f.mul_line_inplace(re, im);
}

// Prepared-step replay: L = (c0 - c1·x') + i·(c2·y').
void mul_replay_line(Fp2& f, const Fp& c0, const Fp& c1, const Fp& c2,
                     const Fp& xq, const Fp& yq) {
  Fp im = c2;
  im *= yq;
  Fp re = c1;
  re *= xq;
  re.negate_inplace();
  re += c0;
  f.mul_line_inplace(re, im);
}

// The Jacobian chain of one Miller loop: T starts at P and, per order
// bit below the top, doubles and, on a set bit, adds P. Inversion-free:
// each line is reported through the doubling/addition intermediates,
// scaled by F_p factors that the final exponentiation erases (see
// ec/jacobian.h for the derivations). The Miller loop evaluates the
// lines at Q'; prepare() records them.
struct Chain {
  const Point* p;
  ec::JacPoint t;

  explicit Chain(const Point& base) : p(&base), t(ec::jac_from_affine(base)) {}

  // T <- 2T, then T <- T + P when `bit` is set, calling on_dbl/on_add
  // with the trace of each line that is not skipped.
  template <class OnDbl, class OnAdd>
  void step(bool bit, OnDbl&& on_dbl, OnAdd&& on_add) {
    // No tangent through O or a 2-torsion point.
    const bool have_line = !t.inf && !t.y.is_zero();
    ec::DblTrace dbl_trace;
    t = ec::jac_dbl(t, have_line ? &dbl_trace : nullptr);
    if (have_line) on_dbl(dbl_trace);
    if (!bit) return;
    if (t.inf) {
      t = ec::jac_from_affine(*p);
      return;
    }
    ec::AddTrace add_trace;
    t = ec::jac_add_mixed(t, *p, &add_trace);
    // Vertical line (T = -P): lives in F_p, erased by the final
    // exponentiation — skip.
    if (!add_trace.vertical) on_add(add_trace);
  }
};

}  // namespace

// A raw factor ê(P, Q) of a Miller loop: its live chain and the
// distorted coordinates of Q, x' = -x(Q) in F_p and y' = i·y(Q).
struct TatePairing::RawTerm {
  RawTerm(const Point& p, const Point& q) : chain(p), xq(-q.x()), yq(&q.y()) {}

  Chain chain;
  Fp xq;
  const Fp* yq;
};

// A prepared factor: its program's cursor and the distorted Q'.
struct TatePairing::PrepTerm {
  PrepTerm(const PreparedPairing& prepared, const Point& q)
      : lines_per_bit(prepared.lines_per_bit_.data()),
        line(prepared.lines_.data()), xq(-q.x()), yq(&q.y()) {}

  const std::uint8_t* lines_per_bit;
  const PreparedPairing::Line* line;
  Fp xq;
  const Fp* yq;
};

TatePairing::TatePairing(std::shared_ptr<const Curve> curve)
    : curve_(std::move(curve)) {
  // Curve::make admits only y^2 = x^3 + x with p ≡ 3 (mod 4), so
  // #E(F_p) = p + 1 = h q; the final exponentiation tail is (p+1)/q.
  const BigInt& p = curve_->field()->modulus();
  BigInt r;
  BigInt::divmod(p + BigInt(1), curve_->order(), exp_tail_, r);
  if (!r.is_zero()) {
    throw InvalidArgument("TatePairing: order must divide p + 1");
  }
}

// f^((p²−1)/q) = (f^(p−1))^((p+1)/q). For f = c + d·i, f^p is the
// conjugate, so f^(p−1) = conj(f)/f = conj(f)²/N with N = c² + d²: the
// unitary a + b·i with a = (c² − d²)/N and b = −2cd/N. The tail's
// ladder recovery divides by b, and one inversion pays for both
// divisions: with t = 1/(2cd·N), 1/N = 2cd·t and 1/b = −N²·t.
Fp2 TatePairing::final_exponentiation(const Fp2& f) const {
  obs::Span span(obs::Stage::kPairingFinalExp);
  const std::size_t bits = exp_tail_.bit_length();
  const Fp c_sq = f.re().square();
  const Fp d_sq = f.im().square();
  Fp cd2 = f.re() * f.im();
  cd2.dbl_inplace();
  const Fp n = c_sq + d_sq;
  const Fp denom = n * cd2;
  if (denom.is_zero()) {
    // f in F_p or i·F_p: f^(p−1) = ±1, real — the ladder's b = 0 case.
    return field::pow_unitary(f.conjugate() * f.inverse(), exp_tail_, bits);
  }
  const Fp t = denom.inverse();
  Fp n_inv = cd2;
  n_inv *= t;
  Fp a = c_sq;
  a -= d_sq;
  a *= n_inv;
  Fp b = cd2;
  b *= n_inv;
  b.negate_inplace();
  Fp b_inv = n;
  b_inv.square_inplace();
  b_inv *= t;
  b_inv.negate_inplace();
  return field::pow_unitary(Fp2(std::move(a), std::move(b)), exp_tail_, bits,
                            &b_inv);
}

void PreparedPairing::wipe() {
  for (Line& line : lines_) {
    line.c0.wipe();
    line.c1.wipe();
    line.c2.wipe();
  }
  lines_.clear();
  lines_.shrink_to_fit();
  lines_per_bit_.clear();
  lines_per_bit_.shrink_to_fit();
  curve_.reset();
  infinity_ = false;
}

PreparedPairing TatePairing::prepare(const Point& p) const {
  if (p.curve() != curve_) {
    throw InvalidArgument("TatePairing::prepare: point from another curve");
  }
  PreparedPairing out;
  out.curve_ = curve_;
  if (p.is_infinity()) {
    out.infinity_ = true;
    return out;
  }
  obs::Span span(obs::Stage::kPairingPrepare);

  // Walk the Miller loop's chain, but instead of evaluating the line
  // functions at a concrete Q', record their coefficients:
  //   doubling  L = (M·X - 2Y^2) - (M·Z^2)·x' + i·(2YZ^3)·y'
  //   addition  L = (r·x_P - ZH·y_P) - r·x'   + i·(ZH)·y'
  // so each recorded line is L = (c0 - c1·x') + i·(c2·y').
  const BigInt& order = curve_->order();
  // Exact capacities, so the program never reallocates: at most one
  // doubling line per bit below the top, plus one addition line per set
  // bit there.
  const std::size_t bits = order.bit_length() - 1;
  std::size_t max_lines = bits;
  for (std::size_t i = 0; i < bits; ++i) {
    if (order.bit(i)) ++max_lines;
  }
  out.lines_.reserve(max_lines);
  out.lines_per_bit_.reserve(bits);

  Chain chain(p);
  for (std::size_t i = bits; i-- > 0;) {
    const std::size_t before = out.lines_.size();
    chain.step(
        order.bit(i),
        [&](const ec::DblTrace& tr) {
          out.lines_.push_back({tr.m * tr.x - tr.y_sq.dbl(), tr.m * tr.z_sq,
                                tr.zp_zsq});
        },
        [&](const ec::AddTrace& tr) {
          out.lines_.push_back({tr.r * p.x() - tr.zh * p.y(), tr.r, tr.zh});
        });
    out.lines_per_bit_.push_back(
        static_cast<std::uint8_t>(out.lines_.size() - before));
  }
  return out;
}

bool TatePairing::check_term(const Point* p, const PreparedPairing* prepared,
                             const Point& q) const {
  if (prepared != nullptr && prepared->empty()) {
    throw InvalidArgument("TatePairing: empty prepared argument");
  }
  const auto& p_curve = p != nullptr ? p->curve() : prepared->curve_;
  if (p_curve != curve_ || q.curve() != curve_) {
    throw InvalidArgument("TatePairing: points from another curve");
  }
  const bool p_inf = p != nullptr ? p->is_infinity() : prepared->infinity_;
  return !p_inf && !q.is_infinity();
}

Fp2 TatePairing::miller_loop(std::span<RawTerm> raws,
                             std::span<PrepTerm> preps) const {
  obs::Span span(obs::Stage::kPairingMiller);
  // All factors share ONE accumulator, so the per-bit f² squaring is
  // paid once for the whole product: with F = ∏ f_i, each bit's
  // f_i ← f_i²·L_i collapses to F ← F²·∏L_i. Compound in-place ops keep
  // every temporary in fixed-limb stack storage.
  Fp2 f = Fp2::one(curve_->field());
  const BigInt& order = curve_->order();
  for (std::size_t i = order.bit_length() - 1; i-- > 0;) {
    f.square_inplace();
    for (RawTerm& raw : raws) {
      raw.chain.step(
          order.bit(i),
          [&](const ec::DblTrace& tr) {
            mul_dbl_line(f, tr, raw.xq, *raw.yq);
          },
          [&](const ec::AddTrace& tr) {
            mul_add_line(f, tr, *raw.chain.p, raw.xq, *raw.yq);
          });
    }
    // A program stores, per order bit, how many of its lines follow
    // that bit's squaring.
    for (PrepTerm& prep : preps) {
      for (std::uint8_t k = *prep.lines_per_bit++; k > 0; --k, ++prep.line) {
        mul_replay_line(f, prep.line->c0, prep.line->c1, prep.line->c2,
                        prep.xq, *prep.yq);
      }
    }
  }
  if (f.is_zero()) {
    // Degenerate Miller value can only arise from special positions of
    // P vs Q (e.g. Q' on a tangent of the Miller chain); re-randomizing
    // is the textbook fix, but for the distorted supersingular pairing
    // with both inputs in G1 it cannot occur. Guard anyway.
    throw Error("TatePairing: degenerate Miller value");
  }
  return f;
}

Fp2 TatePairing::pair(const Point& p, const Point& q) const {
  if (!check_term(&p, nullptr, q)) return Fp2::one(curve_->field());
  RawTerm raw(p, q);
  return final_exponentiation(miller_loop({&raw, 1}, {}));
}

Fp2 TatePairing::miller_with(const PreparedPairing& prepared,
                             const Point& q) const {
  if (!check_term(nullptr, &prepared, q)) return Fp2::one(curve_->field());
  PrepTerm prep(prepared, q);
  return miller_loop({}, {&prep, 1});
}

Fp2 TatePairing::pair_with(const PreparedPairing& prepared,
                           const Point& q) const {
  return final_exponentiation(miller_with(prepared, q));
}

Fp2 TatePairing::pair_many(std::span<const PairTerm> terms) const {
  std::vector<RawTerm> raws;
  std::vector<PrepTerm> preps;
  for (const PairTerm& term : terms) {
    if (term.q == nullptr || (term.p == nullptr) == (term.prepared == nullptr)) {
      throw InvalidArgument(
          "TatePairing::pair_many: each term needs q and exactly one of "
          "p/prepared");
    }
    if (!check_term(term.p, term.prepared, *term.q)) continue;
    if (term.p != nullptr) {
      raws.emplace_back(*term.p, *term.q);
    } else {
      preps.emplace_back(*term.prepared, *term.q);
    }
  }
  if (raws.empty() && preps.empty()) return Fp2::one(curve_->field());
  return final_exponentiation(miller_loop(raws, preps));
}

}  // namespace medcrypt::pairing
