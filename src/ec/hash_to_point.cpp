#include "ec/hash_to_point.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "ec/jacobian.h"
#include "hash/kdf.h"
#include "obs/span.h"

namespace medcrypt::ec {

namespace {

// One rejection-sampling attempt, shared by hash_to_subgroup and
// hash_to_curve_candidate so they pick the same candidate (the
// golden-vector test pins this).
// `ctr_input` is the caller's reusable counter ‖ input buffer; only the 4
// counter bytes are rewritten per attempt. Returns true with the affine
// candidate (x, y) — cofactor clearing is the caller's job.
bool derive_candidate(const Curve* curve, std::string_view domain,
                      Bytes& ctr_input, std::uint32_t counter,
                      std::size_t xbytes, Fp& x_out, Fp& y_out) {
  const auto ctr = be32(counter);
  std::copy(ctr.begin(), ctr.end(), ctr_input.begin());
  const Bytes material = hash::expand(domain, ctr_input, xbytes + 1);
  const auto& field = curve->field();
  Fp x = field->from_bigint(
      BigInt::from_bytes_be(BytesView(material.data(), xbytes)));
  const Fp rhs = curve->rhs(x);

  // About half the candidates are non-residues: the Legendre symbol
  // (variable time, on public hash material) rejects them with no power.
  // try_sqrt then pays its one exponentiation only on a square. It
  // accepts rhs == 0, whose order-2 point (x, 0) the callers discard:
  // cofactor clearing kills it, and the raw candidate path skips it
  // explicitly.
  if (rhs.legendre() < 0) return false;
  std::optional<Fp> y = rhs.try_sqrt();
  if (!y) return false;
  // Use one derived bit to pick the root deterministically.
  const bool want_odd = (material[xbytes] & 1) != 0;
  if (y->parity() != want_odd) y->negate_inplace();
  x_out = std::move(x);
  y_out = std::move(*y);
  return true;
}

// counter ‖ input — public hash-to-curve material, not a key seed. Built
// once per hash; derive_candidate patches the counter bytes in place.
Bytes make_ctr_input(BytesView input) {
  Bytes ctr_input(4);
  ctr_input.reserve(4 + input.size());
  ctr_input.insert(ctr_input.end(), input.begin(), input.end());
  return ctr_input;
}

}  // namespace

Point hash_to_subgroup(const Curve* curve, std::string_view domain,
                       BytesView input) {
  // Spans the whole try-and-increment loop, so the histogram exposes the
  // geometric spread of attempts (~2 expected) as latency spread.
  obs::Span span(obs::Stage::kHashToPoint);
  // 128 extra bits make the mod-p bias negligible.
  const std::size_t xbytes = curve->field()->byte_size() + 16;
  Bytes ctr_input = make_ctr_input(input);

  Fp x, y;
  for (std::uint32_t counter = 0;; ++counter) {
    if (!derive_candidate(curve, domain, ctr_input, counter, xbytes, x, y)) {
      continue;
    }
    const JacPoint cleared = ladder_mul(curve->point(x, y), curve->cofactor());
    if (cleared.inf) continue;  // killed by cofactor clearing
    return jac_to_affine(curve, cleared);
  }
}

Point hash_to_curve_candidate(const Curve* curve, std::string_view domain,
                              BytesView input) {
  obs::Span span(obs::Stage::kHashToCurve);
  const std::size_t xbytes = curve->field()->byte_size() + 16;
  Bytes ctr_input = make_ctr_input(input);

  Fp x, y;
  for (std::uint32_t counter = 0;; ++counter) {
    if (!derive_candidate(curve, domain, ctr_input, counter, xbytes, x, y)) {
      continue;
    }
    // (0, 0) is the one candidate hash_to_subgroup always discards; it is
    // also the one point whose distorted image zeroes a Miller line.
    if (y.is_zero()) continue;
    return curve->point(x, y);
  }
}

const ShardedLruCache<Point>& identity_point_cache() {
  // Leaked like the metrics registry: lookups may run during static
  // teardown.
  static const auto* cache = new ShardedLruCache<Point>(
      {.capacity = 4096, .metric_prefix = "sem.cache.h1"});
  return *cache;
}

Point hash_to_subgroup_cached(const Curve* curve, std::string_view domain,
                              BytesView input) {
  return identity_point_cache().get_or_compute(
      domain, input,
      [&] { return hash_to_subgroup(curve, domain, input); },
      // Distinct curve contexts may produce colliding tags; a cached
      // point from another curve is a miss, not a wrong answer.
      [&](const Point& p) { return p.curve() == curve; });
}

}  // namespace medcrypt::ec
