// Runtime kernel selection.
//
// Detection runs once, on the first active() call (thread-safe via the
// function-local static): CPUID leaf 7 gates the BMI2+ADX tier, and
// MEDCRYPT_KERNEL=portable|bmi2 forces a tier for testing. A forced
// tier is clamped DOWN to what the CPU supports and the build compiled
// in — never up — so a stray env var cannot SIGILL the process; the
// clamp and its cause are reported once on stderr. The winning tier is
// surfaced as info-style gauges core.kernel.{portable,bmi2} = 0/1 so
// bench baselines and `medcrypt_cli stats` record which path produced
// them.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "bigint/kernels/kernels.h"
#include "obs/registry.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#endif

namespace medcrypt::bigint::kernels {

namespace {

bool detect_bmi2_adx() {
#if defined(__x86_64__) && defined(__GNUC__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  constexpr unsigned kBmi2Bit = 1u << 8;
  constexpr unsigned kAdxBit = 1u << 19;
  return (ebx & kBmi2Bit) != 0 && (ebx & kAdxBit) != 0;
#else
  return false;
#endif
}

// Best supported tier at or below `want` (portable is always supported).
Kind clamp_down(Kind want) {
  return cpu_supports(want) ? want : Kind::kPortable;
}

Kind select() {
  Kind pick = clamp_down(Kind::kBmi2);  // best the CPU offers
  if (const char* env = std::getenv("MEDCRYPT_KERNEL")) {
    bool known = false;
    for (std::size_t i = 0; i < kKindCount; ++i) {
      const Kind kind = static_cast<Kind>(i);
      if (std::string_view(env) == kind_name(kind)) {
        known = true;
        const Kind clamped = clamp_down(kind);
        if (clamped != kind) {
          // A tier's table is the portable one when the build left its
          // code out (e.g. the bmi2 asm under sanitizers).
          const char* why = table(kind).kind != kind
                                ? "not compiled into this build"
                                : "not supported by this CPU";
          std::fprintf(stderr,
                       "medcrypt: MEDCRYPT_KERNEL=%s %s, falling back to "
                       "%s\n",
                       env, why, kind_name(clamped));
        }
        pick = clamped;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr,
                   "medcrypt: ignoring unknown MEDCRYPT_KERNEL=%s "
                   "(expected portable|bmi2)\n",
                   env);
    }
  }
  for (std::size_t i = 0; i < kKindCount; ++i) {
    const Kind kind = static_cast<Kind>(i);
    std::string name = std::string("core.kernel.") + kind_name(kind);
    obs::registry().gauge(name).set(kind == pick ? 1 : 0);
  }
  return pick;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBmi2:
      return "bmi2";
    case Kind::kPortable:
    default:
      return "portable";
  }
}

bool cpu_supports(Kind kind) {
  // A tier counts as supported only when the CPU can execute it AND its
  // table was actually compiled in — the per-tier TUs fall back to the
  // portable table (kind == kPortable) when their target or build mode
  // rules the implementation out (e.g. the bmi2 asm under sanitizers).
  switch (kind) {
    case Kind::kBmi2: {
      static const bool ok =
          detect_bmi2_adx() && bmi2_table().kind == Kind::kBmi2;
      return ok;
    }
    case Kind::kPortable:
    default:
      return true;
  }
}

const Table& table(Kind kind) {
  switch (kind) {
    case Kind::kBmi2:
      return bmi2_table();
    case Kind::kPortable:
    default:
      return portable_table();
  }
}

const Table& active() {
  static const Table& chosen = table(select());
  return chosen;
}

}  // namespace medcrypt::bigint::kernels
