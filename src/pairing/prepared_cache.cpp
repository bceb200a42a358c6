#include "pairing/prepared_cache.h"

namespace medcrypt::pairing {

// Leaked like the metrics registry: lookups may run during static
// teardown. The prepared cache is sized for the public keys of the
// verify-side working set; the pair-value cache, like the H1 cache, for
// one g_ID per recent encryption recipient.
const ec::ShardedLruCache<std::shared_ptr<const PreparedPairing>>&
prepared_program_cache() {
  static const auto* cache =
      new ec::ShardedLruCache<std::shared_ptr<const PreparedPairing>>(
          {.capacity = 1024, .metric_prefix = "sem.cache.prepared"});
  return *cache;
}

const ec::ShardedLruCache<Fp2>& pair_value_cache() {
  static const auto* cache = new ec::ShardedLruCache<Fp2>(
      {.capacity = 4096, .metric_prefix = "sem.cache.gpp"});
  return *cache;
}

std::shared_ptr<const PreparedPairing> shared_prepared(
    const TatePairing& pairing, const Point& p, std::string_view domain) {
  const Bytes encoded = p.to_bytes();
  return prepared_program_cache().get_or_compute(
      domain, encoded,
      [&] {
        return std::make_shared<const PreparedPairing>(pairing.prepare(p));
      },
      [&](const std::shared_ptr<const PreparedPairing>& prep) {
        return prep != nullptr && prep->curve() == pairing.curve();
      });
}

Fp2 cached_pair(const TatePairing& pairing, const Point& p, const Point& q,
                std::string_view domain) {
  const Bytes encoded = concat(p.to_bytes(), q.to_bytes());
  return pair_value_cache().get_or_compute(
      domain, encoded, [&] { return pairing.pair(p, q); },
      [&](const Fp2& v) {
        return v.re().field() == pairing.curve()->field();
      });
}

}  // namespace medcrypt::pairing
