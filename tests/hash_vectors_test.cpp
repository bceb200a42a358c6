// Golden-vector regression tests for hash_to_subgroup (and for the
// cofactor-free hash_to_curve_candidate and point decompression, which
// must agree with it).
//
// The compressed encodings below are those of the reference
// try-and-increment construction (per-counter hash::expand, Euler
// criterion + sqrt, cofactor clearing), checked against the affine
// double-and-add oracle when the named sets moved to Solinas orders. The
// optimized paths — fused sqrt-and-check, cofactor clearing by the
// x-only ladder, and the identity-point cache — MUST reproduce them
// bit for bit: these outputs are a wire-format contract (both sides of
// every mediated protocol hash the same identity/message strings), so
// any drift silently breaks interop with previously issued keys.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "ec/hash_to_point.h"
#include "pairing/params.h"

namespace medcrypt::ec {
namespace {

std::string hex(const Bytes& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

struct GoldenVector {
  const char* domain;
  const char* id;
  const char* expect;  // hex of the compressed point
};

// toy64: the parameter set every fast test runs on; covers both hash
// domains the mediators use, the empty string, and the identities the
// cache/bench suites replay.
constexpr GoldenVector kToy64[] = {
    {"BF.H1", "alice@example.com", "023b72967a02f4d90298f78350f2348e22"},
    {"BF.H1", "bob@example.com", "0284b665a2192b2b7798f51f7f196daa75"},
    {"BF.H1", "carol", "0217d00ef491380ce329e93d48f95cedfc"},
    {"BF.H1", "", "030b913148550c4b48f60b2de12f2d46a8"},
    {"BF.H1", "revoked-and-back", "036c8b5290738e80b2c22cc89917c1cfc6"},
    {"BF.H1", "zipf-head-0", "0208c31be6a314107fcf0eedd111b14a32"},
    {"GDH.h", "alice@example.com", "0327c357f8c30cf8bb75b8f7bf67dafabd"},
    {"GDH.h", "bob@example.com", "034c93298359f2279674baa6213c977b89"},
    {"GDH.h", "carol", "026b546a368298332b0424028c967a8ab5"},
    {"GDH.h", "", "023de1c119ea57224577cc32d0eba52d40"},
    {"GDH.h", "revoked-and-back", "029b7a71771005ffd44b03c604b9c9a9c1"},
    {"GDH.h", "zipf-head-0", "02593f702f0a09c92153bdb42df2a1bb1f"},
};

// sec80: one vector per hash domain at a cryptographic field size, so
// the fused sqrt exponent path ((p+1)/4 at 512-bit p) is pinned too.
constexpr GoldenVector kSec80[] = {
    {"BF.H1", "alice@example.com",
     "0377e98bb6a03ba04b1cd410dfd156eef7e97c05721e083f7e90bd1956cab15836b990"
     "53a616237fc60da45719901537c366040a44e5ee51a7377e46351e4b34aa"},
    {"GDH.h", "alice@example.com",
     "025dda36cfb5f13b29d5aad3022a66c51873d258a9b2a8e0e35608b5ee7a0c89f05663"
     "2ab19bbfeab3a480728a29f0bf9f2b3070cb60decdd14601a07e0a45555f"},
    {"Hess.H1", "dave@example.com",
     "026ccdbfa3a1bfcab5a1c9b99e9bc1d008a57cbcb214e4cfd24ba5aebb64958c19d77f"
     "1036e67832c35f406023921a38406eeac8b73cb74b958b6ec9eee5501326"},
};

TEST(HashVectors, Toy64MatchesSeedEncodings) {
  const auto& params = pairing::named_params("toy64");
  for (const GoldenVector& v : kToy64) {
    const Point p = hash_to_subgroup(params.curve, v.domain, str_bytes(v.id));
    EXPECT_EQ(hex(p.to_bytes()), v.expect)
        << v.domain << "(\"" << v.id << "\")";
  }
}

TEST(HashVectors, Sec80MatchesSeedEncodings) {
  const auto& params = pairing::named_params("sec80");
  for (const GoldenVector& v : kSec80) {
    const Point p = hash_to_subgroup(params.curve, v.domain, str_bytes(v.id));
    EXPECT_EQ(hex(p.to_bytes()), v.expect)
        << v.domain << "(\"" << v.id << "\")";
  }
}

// Every golden vector, with its parameter set.
std::vector<std::pair<const char*, GoldenVector>> all_vectors() {
  std::vector<std::pair<const char*, GoldenVector>> out;
  for (const GoldenVector& v : kToy64) out.push_back({"toy64", v});
  for (const GoldenVector& v : kSec80) out.push_back({"sec80", v});
  return out;
}

TEST(HashVectors, CandidateTimesCofactorIsTheHash) {
  // hash_to_curve_candidate is hash_to_subgroup without the cofactor
  // multiplication: same counter, same root, same sign choice.
  for (const auto& [name, v] : all_vectors()) {
    const auto& params = pairing::named_params(name);
    const Point candidate =
        hash_to_curve_candidate(params.curve, v.domain, str_bytes(v.id));
    EXPECT_FALSE(candidate.is_infinity());
    EXPECT_FALSE(candidate.y().is_zero());
    EXPECT_EQ(hex(candidate.mul(params.curve->cofactor()).to_bytes()),
              v.expect)
        << name << " " << v.domain << "(\"" << v.id << "\")";
    // The affine double-and-add oracle clears the cofactor to the same
    // point.
    EXPECT_EQ(hex(candidate.mul_affine(params.curve->cofactor()).to_bytes()),
              v.expect)
        << name << " " << v.domain << "(\"" << v.id << "\")";
  }
}

TEST(HashVectors, CompressedVectorsRoundTrip) {
  // Decompression (one fused square root) reproduces every golden point
  // and re-encodes it to the same bytes.
  for (const auto& [name, v] : all_vectors()) {
    const auto& params = pairing::named_params(name);
    const Point decoded = params.curve->decompress(from_hex(v.expect));
    EXPECT_EQ(decoded,
              hash_to_subgroup(params.curve, v.domain, str_bytes(v.id)))
        << name << " " << v.id;
    EXPECT_EQ(hex(decoded.to_bytes()), v.expect) << name << " " << v.id;
  }
}

TEST(HashVectors, CachedPathMatchesAndHits) {
  const auto& params = pairing::named_params("toy64");
  const Bytes id = str_bytes("alice@example.com");
  const auto before = identity_point_cache().stats();
  const Point first = hash_to_subgroup_cached(params.curve, "BF.H1", id);
  const Point second = hash_to_subgroup_cached(params.curve, "BF.H1", id);
  const auto after = identity_point_cache().stats();
  EXPECT_EQ(hex(first.to_bytes()), "023b72967a02f4d90298f78350f2348e22");
  EXPECT_EQ(first, second);
  // At least one of the two lookups hit (the first may or may not,
  // depending on what earlier tests in this process cached).
  EXPECT_GE(after.hits, before.hits + 1);
}

}  // namespace
}  // namespace medcrypt::ec
