// Named pairing parameter sets.
//
// Each named set is generated deterministically (fixed DRBG seed) on first
// use and cached for the process lifetime, so tests, examples and benches
// across binaries all agree on the same groups without hardcoding hex.
//
//   toy64   p 128-bit, q = 2^64 − 2^8 − 1    — unit tests (fast, no
//            security)
//   mid128  p 256-bit, q = 2^128 − 2^18 − 1  — parameter sweeps
//   sweep384 p 384-bit, q = 2^160 − 2^31 − 1 — parameter sweeps
//   sec80   p 512-bit, q = 2^160 − 2^31 − 1 — the paper's setting (§4:
//            "the same parameters as in [6]": 512-bit p, 160-bit q)
//
// Every q is the Solinas prime 2^n − 2^b − 1 with the smallest b ≥ 1
// that makes it prime (generate_params), so its NAF has one digit below
// the top that costs a Miller-loop addition. p = h·q − 1 is a generic
// prime: h is drawn at random.
#pragma once

#include <string_view>

#include "pairing/param_gen.h"

namespace medcrypt::pairing {

/// Returns the named parameter set (cached, deterministic).
/// Throws InvalidArgument for unknown names.
const ParamSet& named_params(std::string_view name);

/// Convenience accessors.
inline const ParamSet& toy_params() { return named_params("toy64"); }
inline const ParamSet& paper_params() { return named_params("sec80"); }

}  // namespace medcrypt::pairing
