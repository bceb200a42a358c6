#include "pairing/tate.h"

#include <array>
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

}  // namespace

TatePairing::TatePairing(std::shared_ptr<const Curve> curve)
    : curve_(std::move(curve)) {
  const auto& field = curve_->field();
  if (!curve_->a().is_one() || !curve_->b().is_zero()) {
    throw InvalidArgument("TatePairing: curve must be y^2 = x^3 + x");
  }
  const BigInt& p = field->modulus();
  if (!(p.bit(0) && p.bit(1))) {
    throw InvalidArgument("TatePairing: field prime must be 3 mod 4");
  }
  // #E(F_p) = p + 1 = h q; the final exponentiation tail is (p+1)/q.
  BigInt q, r;
  BigInt::divmod(p + BigInt(1), curve_->order(), exp_tail_, r);
  if (!r.is_zero()) {
    throw InvalidArgument("TatePairing: order must divide p + 1");
  }
  // Window schedule of the tail exponent, computed once here instead of
  // per pairing call (h >= 4, so there is at least one nonzero window).
  const std::size_t nwindows = (exp_tail_.bit_length() + 3) / 4;
  tail_digits_.reserve(nwindows);
  for (std::size_t w = nwindows; w-- > 0;) {
    unsigned d = 0;
    for (int i = 3; i >= 0; --i) {
      d = (d << 1) | (exp_tail_.bit(w * 4 + i) ? 1u : 0u);
    }
    tail_digits_.push_back(static_cast<std::uint8_t>(d));
  }
}

Fp2 TatePairing::miller(const Point& p, const Point& q) const {
  obs::Span span(obs::Stage::kPairingMiller);
  const auto& field = curve_->field();

  // Distorted coordinates of Q: x' = -x(Q) in F_p, y' = i * y(Q).
  const Fp xq = -q.x();
  const Fp& yq = q.y();

  // Inversion-free Miller loop: T is tracked in Jacobian coordinates and
  // the line functions are evaluated from the doubling/addition
  // intermediates, scaled by F_p factors that the final exponentiation
  // erases (see ec/jacobian.h for the derivations). Compound in-place
  // ops keep every temporary in fixed-limb stack storage.
  Fp2 f = Fp2::one(field);
  ec::JacPoint t = ec::jac_from_affine(p);
  const BigInt& order = curve_->order();

  for (std::size_t i = order.bit_length() - 1; i-- > 0;) {
    // Doubling step: f <- f^2 * l_{T,T}(Q'); T <- 2T.
    f.square_inplace();
    const bool have_line = !t.inf && !t.y.is_zero();
    ec::DblTrace dbl_trace;
    t = ec::jac_dbl(*curve_, t, have_line ? &dbl_trace : nullptr);
    if (have_line) {
      mul_dbl_line(f, dbl_trace, xq, yq);
    }

    if (order.bit(i)) {
      // Addition step: f <- f * l_{T,P}(Q'); T <- T + P.
      if (t.inf) {
        t = ec::jac_from_affine(p);
      } else {
        ec::AddTrace add_trace;
        t = ec::jac_add_mixed(*curve_, t, p, &add_trace);
        if (!add_trace.vertical) {
          mul_add_line(f, add_trace, p, xq, yq);
        }
        // Vertical line (T = -P): lives in F_p, erased by the final
        // exponentiation — skip.
      }
    }
  }
  return f;
}

Fp2 TatePairing::tail_power(const Fp2& powered) const {
  // Windowed tail exponentiation powered^((p+1)/q) over the schedule
  // precomputed at construction; the 15-entry power table lives on the
  // stack.
  std::array<Fp2, 16> table;
  table[1] = powered;
  for (std::size_t i = 2; i < table.size(); ++i) {
    table[i] = table[i - 1];
    table[i].mul_inplace(powered);
  }
  Fp2 acc;
  bool started = false;
  for (const std::uint8_t d : tail_digits_) {
    if (started) {
      for (int i = 0; i < 4; ++i) acc.square_inplace();
    }
    if (d != 0) {
      if (started) {
        acc.mul_inplace(table[d]);
      } else {
        acc = table[d];
        started = true;
      }
    }
  }
  if (!started) return Fp2::one(curve_->field());
  return acc;
}

Fp2 TatePairing::final_exponentiation(const Fp2& f) const {
  obs::Span span(obs::Stage::kPairingFinalExp);
  // f^((p^2-1)/q) = (f^(p-1))^((p+1)/q); f^p is the conjugate, so
  // f^(p-1) = conj(f) / f.
  Fp2 powered = f.conjugate();
  powered.mul_inplace(f.inverse());
  return tail_power(powered);
}

void TatePairing::final_exponentiation_batch(std::span<Fp2> fs) const {
  if (fs.empty()) return;
  obs::Span span(obs::Stage::kPairingFinalExpBatch);
  // The f^(p-1) = conj(f)/f step is the batch-shareable part: one
  // Montgomery-trick inversion replaces |fs| Fp2 inversions. The tail
  // powers cannot be shared — each element is a distinct output.
  std::vector<Fp2> invs(fs.begin(), fs.end());
  field::batch_inverse(invs);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    Fp2 powered = fs[i].conjugate();
    powered.mul_inplace(invs[i]);
    fs[i] = tail_power(powered);
  }
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

  // Walk the exact control flow of miller(), but instead of evaluating
  // the line functions at a concrete Q', record their coefficients:
  //   doubling  L = (M·X - 2Y^2) - (M·Z^2)·x' + i·(2YZ^3)·y'
  //   addition  L = (r·x_P - ZH·y_P) - r·x'   + i·(ZH)·y'
  // so each recorded line is L = (c0 - c1·x') + i·(c2·y').
  ec::JacPoint t = ec::jac_from_affine(p);
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

  for (std::size_t i = bits; i-- > 0;) {
    std::uint8_t lines = 0;
    const bool have_line = !t.inf && !t.y.is_zero();
    ec::DblTrace dbl_trace;
    t = ec::jac_dbl(*curve_, t, have_line ? &dbl_trace : nullptr);
    if (have_line) {
      out.lines_.push_back({dbl_trace.m * dbl_trace.x - dbl_trace.y_sq.dbl(),
                            dbl_trace.m * dbl_trace.z_sq, dbl_trace.zp_zsq});
      ++lines;
    }

    if (order.bit(i)) {
      if (t.inf) {
        t = ec::jac_from_affine(p);
      } else {
        ec::AddTrace add_trace;
        t = ec::jac_add_mixed(*curve_, t, p, &add_trace);
        if (!add_trace.vertical) {
          out.lines_.push_back({add_trace.r * p.x() - add_trace.zh * p.y(),
                                add_trace.r, add_trace.zh});
          ++lines;
        }
      }
    }
    out.lines_per_bit_.push_back(lines);
  }
  return out;
}

Fp2 TatePairing::miller_with(const PreparedPairing& prepared,
                             const Point& q) const {
  if (prepared.empty()) {
    throw InvalidArgument("TatePairing::pair_with: empty prepared argument");
  }
  if (prepared.curve_ != curve_ || q.curve() != curve_) {
    throw InvalidArgument("TatePairing::pair_with: points from another curve");
  }
  const auto& field = curve_->field();
  if (prepared.infinity_ || q.is_infinity()) return Fp2::one(field);

  // The step replay is this path's Miller loop; it lands in the same
  // stage histogram as the direct evaluation in miller().
  obs::Span span(obs::Stage::kPairingMiller);
  const Fp xq = -q.x();
  const Fp& yq = q.y();
  Fp2 f = Fp2::one(field);
  const PreparedPairing::Line* line = prepared.lines_.data();
  for (const std::uint8_t lines : prepared.lines_per_bit_) {
    f.square_inplace();
    for (std::uint8_t k = 0; k < lines; ++k, ++line) {
      mul_replay_line(f, line->c0, line->c1, line->c2, xq, yq);
    }
  }
  if (f.is_zero()) {
    throw Error("TatePairing: degenerate Miller value");
  }
  return f;
}

Fp2 TatePairing::pair_with(const PreparedPairing& prepared,
                           const Point& q) const {
  return final_exponentiation(miller_with(prepared, q));
}

std::vector<Fp2> TatePairing::pair_with_many(
    std::span<const PreparedPairing* const> prepared,
    std::span<const Point* const> qs) const {
  if (prepared.size() != qs.size()) {
    throw InvalidArgument("TatePairing::pair_with_many: size mismatch");
  }
  std::vector<Fp2> out;
  out.reserve(prepared.size());
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    if (prepared[i] == nullptr || qs[i] == nullptr) {
      throw InvalidArgument("TatePairing::pair_with_many: null entry");
    }
    out.push_back(miller_with(*prepared[i], *qs[i]));
  }
  final_exponentiation_batch(out);
  return out;
}

Fp2 TatePairing::pair_many(std::span<const PairTerm> terms) const {
  const auto& field = curve_->field();

  // A raw term drives a live Jacobian chain, exactly as miller() does;
  // a prepared term replays its recorded program. Both kinds contribute
  // their line evaluations to ONE shared accumulator, so the per-bit
  // f² squaring is paid once for the whole product: with F = ∏ f_i,
  // each bit's f_i ← f_i²·L_i collapses to F ← F²·∏L_i.
  struct RawState {
    const Point* p;
    ec::JacPoint t;
    Fp xq;
    Fp yq;
  };
  struct PrepState {
    const std::uint8_t* lines_per_bit;
    const PreparedPairing::Line* line;
    Fp xq;
    Fp yq;
  };
  std::vector<RawState> raws;
  std::vector<PrepState> preps;
  for (const PairTerm& term : terms) {
    if (term.q == nullptr || (term.p == nullptr) == (term.prepared == nullptr)) {
      throw InvalidArgument(
          "TatePairing::pair_many: each term needs q and exactly one of "
          "p/prepared");
    }
    if (term.q->curve() != curve_) {
      throw InvalidArgument("TatePairing::pair_many: point from another curve");
    }
    if (term.prepared != nullptr) {
      if (term.prepared->empty()) {
        throw InvalidArgument("TatePairing::pair_many: empty prepared term");
      }
      if (term.prepared->curve_ != curve_) {
        throw InvalidArgument(
            "TatePairing::pair_many: prepared term from another curve");
      }
      if (term.prepared->infinity_ || term.q->is_infinity()) continue;
      preps.push_back(PrepState{term.prepared->lines_per_bit_.data(),
                                term.prepared->lines_.data(), -term.q->x(),
                                term.q->y()});
    } else {
      if (term.p->curve() != curve_) {
        throw InvalidArgument(
            "TatePairing::pair_many: point from another curve");
      }
      if (term.p->is_infinity() || term.q->is_infinity()) continue;
      raws.push_back(
          RawState{term.p, ec::jac_from_affine(*term.p), -term.q->x(),
                   term.q->y()});
    }
  }
  if (raws.empty() && preps.empty()) return Fp2::one(field);

  obs::Span span(obs::Stage::kPairingMiller);
  Fp2 f = Fp2::one(field);
  const BigInt& order = curve_->order();
  for (std::size_t i = order.bit_length() - 1; i-- > 0;) {
    f.square_inplace();

    for (RawState& rs : raws) {
      // Doubling step of this factor (see miller() for the derivation).
      const bool have_line = !rs.t.inf && !rs.t.y.is_zero();
      ec::DblTrace dbl_trace;
      rs.t = ec::jac_dbl(*curve_, rs.t, have_line ? &dbl_trace : nullptr);
      if (have_line) {
        mul_dbl_line(f, dbl_trace, rs.xq, rs.yq);
      }
      if (order.bit(i)) {
        if (rs.t.inf) {
          rs.t = ec::jac_from_affine(*rs.p);
        } else {
          ec::AddTrace add_trace;
          rs.t = ec::jac_add_mixed(*curve_, rs.t, *rs.p, &add_trace);
          if (!add_trace.vertical) {
            mul_add_line(f, add_trace, *rs.p, rs.xq, rs.yq);
          }
        }
      }
    }

    for (PrepState& ps : preps) {
      // A program stores, per order bit, how many of its lines follow
      // that bit's squaring (here the shared one above).
      for (std::uint8_t k = 0; k < *ps.lines_per_bit; ++k, ++ps.line) {
        mul_replay_line(f, ps.line->c0, ps.line->c1, ps.line->c2, ps.xq,
                        ps.yq);
      }
      ++ps.lines_per_bit;
    }
  }
  if (f.is_zero()) {
    throw Error("TatePairing: degenerate Miller value");
  }
  span.finish();  // final_exponentiation times itself
  return final_exponentiation(f);
}

Fp2 TatePairing::pair(const Point& p, const Point& q) const {
  if (p.curve() != curve_ || q.curve() != curve_) {
    throw InvalidArgument("TatePairing::pair: points from another curve");
  }
  const auto& field = curve_->field();
  if (p.is_infinity() || q.is_infinity()) return Fp2::one(field);

  const Fp2 f = miller(p, q);
  if (f.is_zero()) {
    // Degenerate Miller value can only arise from special positions of
    // P vs Q (e.g. Q' on a tangent of the Miller chain); re-randomizing
    // is the textbook fix, but for the distorted supersingular pairing
    // with both inputs in G1 it cannot occur. Guard anyway.
    throw Error("TatePairing: degenerate Miller value");
  }
  return final_exponentiation(f);
}

}  // namespace medcrypt::pairing
