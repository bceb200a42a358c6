// Heap-allocation accounting for the fixed-limb hot paths: once a
// TatePairing (and its operands) exist, pair() / pair_with() and the
// Fp/Fp2 in-place ops must perform ZERO heap allocations — every
// temporary lives in LimbStore's inline buffer or on the stack. The
// test replaces global operator new with a counting shim that is armed
// only around the measured call.
//
// Sanitizer builds (-DMEDCRYPT_SANITIZE=...) interpose their own
// allocator and malloc hooks; the counting shim is compiled out there
// and the tests skip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "bigint/bigint.h"
#include "ec/point.h"
#include "field/fp.h"
#include "field/fp2.h"
#include "hash/drbg.h"
#include "pairing/params.h"
#include "pairing/tate.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEDCRYPT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MEDCRYPT_ALLOC_COUNTING 0
#else
#define MEDCRYPT_ALLOC_COUNTING 1
#endif
#else
#define MEDCRYPT_ALLOC_COUNTING 1
#endif

#if MEDCRYPT_ALLOC_COUNTING

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // MEDCRYPT_ALLOC_COUNTING

namespace medcrypt {
namespace {

using bigint::BigInt;
using ec::Point;
using field::Fp;
using field::Fp2;
using hash::HmacDrbg;

#if MEDCRYPT_ALLOC_COUNTING

struct AllocProbe {
  AllocProbe() {
    g_news.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  // Disarm + read; call exactly once, before any gtest assertion.
  std::size_t stop() {
    g_armed.store(false, std::memory_order_relaxed);
    return g_news.load(std::memory_order_relaxed);
  }
};

TEST(AllocFree, TatePairingPairAllocatesNothing) {
  const pairing::ParamSet& g = pairing::toy_params();
  const pairing::TatePairing tate(g.curve);
  HmacDrbg rng(41);
  const Point a = g.mul_g(BigInt::random_unit(rng, g.order()));
  const Point b = g.mul_g(BigInt::random_unit(rng, g.order()));
  const Fp2 expected = tate.pair(a, b);  // warm-up + reference value

  AllocProbe probe;
  const Fp2 got = tate.pair(a, b);
  const std::size_t news = probe.stop();

  EXPECT_EQ(news, 0u) << "TatePairing::pair heap-allocated";
  EXPECT_EQ(got, expected);
}

TEST(AllocFree, PreparedPairWithAllocatesNothing) {
  const pairing::ParamSet& g = pairing::toy_params();
  const pairing::TatePairing tate(g.curve);
  HmacDrbg rng(42);
  const Point a = g.mul_g(BigInt::random_unit(rng, g.order()));
  const Point b = g.mul_g(BigInt::random_unit(rng, g.order()));
  const pairing::PreparedPairing prepared = tate.prepare(a);
  const Fp2 expected = tate.pair_with(prepared, b);
  const Fp2 expected_miller = tate.miller_with(prepared, b);

  AllocProbe probe;
  const Fp2 got = tate.pair_with(prepared, b);
  const std::size_t news = probe.stop();

  // The batch issuers' per-request step: the replay without the final
  // exponentiation.
  AllocProbe miller_probe;
  const Fp2 got_miller = tate.miller_with(prepared, b);
  const std::size_t miller_news = miller_probe.stop();

  EXPECT_EQ(news, 0u) << "TatePairing::pair_with heap-allocated";
  EXPECT_EQ(got, expected);
  EXPECT_EQ(miller_news, 0u) << "TatePairing::miller_with heap-allocated";
  EXPECT_EQ(got_miller, expected_miller);
}

TEST(AllocFree, FpOpsAllocateNothing) {
  const pairing::ParamSet& g = pairing::toy_params();
  const auto& field = g.curve->field();
  HmacDrbg rng(43);
  const Fp a = field->random(rng);
  const Fp b = field->random(rng);

  AllocProbe probe;
  Fp t = a;
  t *= b;
  t += a;
  t -= b;
  t.square_inplace();
  t.dbl_inplace();
  t.negate_inplace();
  // The power behind hash-to-point's square root.
  t = t.pow(field->sqrt_exponent());
  const std::optional<Fp> root = t.try_sqrt();
  const bool zero = t.is_zero();
  const std::size_t news = probe.stop();

  EXPECT_EQ(news, 0u) << "Fp compound ops heap-allocated";
  EXPECT_EQ(root.has_value(), t.is_square());
  EXPECT_FALSE(zero);  // vanishing probability; keeps t observable
}

TEST(AllocFree, Fp2InplaceOpsAllocateNothing) {
  const pairing::ParamSet& g = pairing::toy_params();
  const auto& field = g.curve->field();
  HmacDrbg rng(44);
  const Fp2 x = Fp2::random(field, rng);
  const Fp2 y = Fp2::random(field, rng);

  AllocProbe probe;
  Fp2 t = x;
  t.mul_inplace(y);
  t.square_inplace();
  t.mul_inplace(t);
  const bool zero = t.is_zero();
  const std::size_t news = probe.stop();

  EXPECT_EQ(news, 0u) << "Fp2 in-place ops heap-allocated";
  EXPECT_FALSE(zero);
}

#else  // !MEDCRYPT_ALLOC_COUNTING

TEST(AllocFree, SkippedUnderSanitizers) {
  GTEST_SKIP() << "allocation counting disabled under sanitizer builds";
}

#endif  // MEDCRYPT_ALLOC_COUNTING

}  // namespace
}  // namespace medcrypt
