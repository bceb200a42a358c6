#include "pairing/tate.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "ec/jacobian.h"
#include "obs/registry.h"
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

// Addition step with A = ±P: L = r(x_A - x') - ZH·y_A + i·(ZH)·y'.
void mul_add_line(Fp2& f, const ec::AddTrace& tr, const Point& a,
                  const Fp& xq, const Fp& yq) {
  Fp im = tr.zh;
  im *= yq;
  Fp re = a.x();
  re -= xq;
  re *= tr.r;
  Fp tmp = tr.zh;
  tmp *= a.y();
  re -= tmp;
  f.mul_line_inplace(re, im);
}

// Prepared-step replay of the k-limb pair (c0, c1) at `line`:
// L = (c0 + c1·x(Q)) + i·y(Q), the imaginary coefficient being 1.
// `re` and `c0` are scratch elements of Q's field.
void mul_replay_line(Fp2& f, const std::uint64_t* line, std::size_t k,
                     const Fp& xq, const Fp& yq, Fp& re, Fp& c0) {
  re.assign_limbs(line + k);
  re *= xq;
  c0.assign_limbs(line);
  re += c0;
  f.mul_line_inplace(re, yq);
}

// The non-adjacent form of n > 0, most significant digit (always 1)
// first: digits in {-1, 0, 1}, no two adjacent ones nonzero. With
// h = 3n, digit i is bit i+1 of h minus bit i+1 of n, so two BigInt
// operations suffice.
std::vector<std::int8_t> naf_digits(const BigInt& n) {
  const BigInt h = n + (n << 1);
  std::vector<std::int8_t> digits;
  digits.reserve(h.bit_length() - 1);
  for (std::size_t i = h.bit_length(); i-- > 1;) {
    digits.push_back(static_cast<std::int8_t>(int{h.bit(i)} - int{n.bit(i)}));
  }
  return digits;
}

// The Jacobian chain of one Miller loop: T starts at P and, per NAF
// digit of q below the top, doubles and, on a digit ±1, adds ±P.
// Inversion-free: each line is reported through the doubling/addition
// intermediates, scaled by F_p factors that the final exponentiation
// erases (see ec/jacobian.h for the derivations). The Miller loop
// evaluates the lines at Q'; prepare() records them.
struct Chain {
  const Point* p;
  Point neg_p;
  ec::JacPoint t;

  explicit Chain(const Point& base)
      : p(&base), neg_p(-base), t(ec::jac_from_affine(base)) {}

  // T <- 2T, then T <- T + digit·P, calling on_dbl(trace) and
  // on_add(trace, ±P) for each line that is not skipped.
  template <class OnDbl, class OnAdd>
  void step(std::int8_t digit, OnDbl&& on_dbl, OnAdd&& on_add) {
    // No tangent through O or a 2-torsion point.
    const bool have_line = !t.inf && !t.y.is_zero();
    ec::DblTrace dbl_trace;
    t = ec::jac_dbl(t, have_line ? &dbl_trace : nullptr);
    if (have_line) on_dbl(dbl_trace);
    if (digit == 0) return;
    const Point& addend = digit > 0 ? *p : neg_p;
    if (t.inf) {
      t = ec::jac_from_affine(addend);
      return;
    }
    ec::AddTrace add_trace;
    t = ec::jac_add_mixed(t, addend, &add_trace);
    // Vertical line (T = -addend): lives in F_p, erased by the final
    // exponentiation — skip. The NAF's own vertical lines, the
    // denominators a digit -1 brings, are skipped for the same reason.
    if (!add_trace.vertical) on_add(add_trace, addend);
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

// A prepared factor: its program's cursor, Q and replay scratch.
struct TatePairing::PrepTerm {
  PrepTerm(const PreparedPairing& prepared, const Point& q)
      : lines_per_digit(prepared.lines_per_digit_.data()),
        line(prepared.limbs_.data()),
        k(q.x().field()->limb_count()), xq(&q.x()), yq(&q.y()), re(q.x()),
        c0(q.x()) {}

  const std::uint8_t* lines_per_digit;
  const std::uint64_t* line;
  std::size_t k;
  const Fp* xq;
  const Fp* yq;
  Fp re, c0;
};

TatePairing::TatePairing(const Curve* curve) : curve_(curve) {
  // Curve::make admits only y^2 = x^3 + x with p ≡ 3 (mod 4), so
  // #E(F_p) = p + 1 = h q; the final exponentiation tail is (p+1)/q.
  const BigInt& p = curve_->field()->modulus();
  BigInt r;
  BigInt::divmod(p + BigInt(1), curve_->order(), exp_tail_, r);
  if (!r.is_zero()) {
    throw InvalidArgument("TatePairing: order must divide p + 1");
  }
  naf_ = naf_digits(curve_->order());
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

std::size_t PreparedPairing::step_count() const {
  if (empty()) return 0;
  const std::size_t line_limbs = 2 * curve_->field()->limb_count();
  return lines_per_digit_.size() + limbs_.size() / line_limbs;
}

void PreparedPairing::wipe() {
  volatile std::uint64_t* d = limbs_.data();
  for (std::size_t i = 0; i < limbs_.size(); ++i) d[i] = 0;
  limbs_.clear();
  limbs_.shrink_to_fit();
  lines_per_digit_.clear();
  lines_per_digit_.shrink_to_fit();
  curve_ = nullptr;
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
  // functions at a concrete Q', record their coefficients (A = ±P):
  //   doubling  L = (M·X - 2Y^2) - (M·Z^2)·x' + i·(2YZ^3)·y'
  //   addition  L = (r·x_A - ZH·y_A) - r·x'   + i·(ZH)·y'
  // so each line is L = (c0 - c1·x') + i·(c2·y'). c0 and c1 go
  // straight into the limb buffer; c2 is kept for the scaling below.
  const bigint::Montgomery& mont = curve_->field()->mont();
  const std::size_t k = curve_->field()->limb_count();
  // At most one doubling line per digit below the top, plus one
  // addition line per nonzero digit there; sized once, so the program
  // never reallocates.
  const std::size_t digits = naf_.size() - 1;
  const std::size_t max_lines =
      digits + static_cast<std::size_t>(std::count_if(
                   naf_.begin() + 1, naf_.end(),
                   [](std::int8_t d) { return d != 0; }));
  out.limbs_.resize(max_lines * 2 * k);
  out.lines_per_digit_.reserve(digits);
  std::vector<Fp> scale;
  scale.reserve(max_lines);

  Chain chain(p);
  for (std::size_t i = 1; i < naf_.size(); ++i) {
    const std::size_t before = scale.size();
    chain.step(
        naf_[i],
        [&](ec::DblTrace& tr) {
          std::uint64_t* c0 = out.limbs_.data() + 2 * k * scale.size();
          mont.mul_limbs(tr.m.limbs(), tr.x.limbs(), c0);
          mont.sub_limbs(c0, tr.y_sq.limbs(), c0);
          mont.sub_limbs(c0, tr.y_sq.limbs(), c0);
          mont.mul_limbs(tr.m.limbs(), tr.z_sq.limbs(), c0 + k);
          scale.push_back(std::move(tr.zp_zsq));
        },
        [&](ec::AddTrace& tr, const Point& a) {
          std::uint64_t* c0 = out.limbs_.data() + 2 * k * scale.size();
          mont.mul_limbs(tr.zh.limbs(), a.y().limbs(), c0 + k);
          mont.mul_limbs(tr.r.limbs(), a.x().limbs(), c0);
          mont.sub_limbs(c0, c0 + k, c0);
          std::copy_n(tr.r.limbs(), k, c0 + k);
          scale.push_back(std::move(tr.zh));
        });
    out.lines_per_digit_.push_back(
        static_cast<std::uint8_t>(scale.size() - before));
  }
  out.limbs_.resize(scale.size() * 2 * k);

  // Divide each line by its c2, an F_p factor the final exponentiation
  // erases, so the replay's imaginary part is y' alone. c2 derives from
  // P, which may be secret, and batch_inverse is constant time.
  field::batch_inverse(scale);
  for (std::size_t j = 0; j < scale.size(); ++j) {
    std::uint64_t* c0 = out.limbs_.data() + 2 * k * j;
    mont.mul_limbs(c0, scale[j].limbs(), c0);
    mont.mul_limbs(c0 + k, scale[j].limbs(), c0 + k);
  }
  return out;
}

bool TatePairing::check_term(const Point* p, const PreparedPairing* prepared,
                             const Point& q) const {
  if (prepared != nullptr && prepared->empty()) {
    throw InvalidArgument("TatePairing: empty prepared argument");
  }
  const Curve* p_curve = p != nullptr ? p->curve() : prepared->curve_;
  if (p_curve != curve_ || q.curve() != curve_) {
    throw InvalidArgument("TatePairing: points from another curve");
  }
  const bool p_inf = p != nullptr ? p->is_infinity() : prepared->infinity_;
  return !p_inf && !q.is_infinity();
}

Fp2 TatePairing::miller_loop(std::span<RawTerm> raws,
                             std::span<PrepTerm> preps) const {
  obs::Span span(obs::Stage::kPairingMiller);
  // One span per call, so a k-term product reads as one loop there; the
  // counter counts the loops themselves.
  static obs::Counter& terms = obs::registry().counter("pairing.miller_terms");
  terms.add(raws.size() + preps.size());
  // All factors share ONE accumulator, so the per-digit f² squaring is
  // paid once for the whole product: with F = ∏ f_i, each digit's
  // f_i ← f_i²·L_i collapses to F ← F²·∏L_i. Compound in-place ops keep
  // every temporary in fixed-limb stack storage.
  Fp2 f = Fp2::one(curve_->field());
  for (std::size_t i = 1; i < naf_.size(); ++i) {
    f.square_inplace();
    for (RawTerm& raw : raws) {
      raw.chain.step(
          naf_[i],
          [&](const ec::DblTrace& tr) {
            mul_dbl_line(f, tr, raw.xq, *raw.yq);
          },
          [&](const ec::AddTrace& tr, const Point& a) {
            mul_add_line(f, tr, a, raw.xq, *raw.yq);
          });
    }
    // A program stores, per NAF digit, how many of its lines follow
    // that digit's squaring.
    for (PrepTerm& prep : preps) {
      for (std::uint8_t n = *prep.lines_per_digit++; n > 0; --n) {
        mul_replay_line(f, prep.line, prep.k, *prep.xq, *prep.yq, prep.re,
                        prep.c0);
        prep.line += 2 * prep.k;
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
