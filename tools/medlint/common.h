// Shared vocabulary for medlint: the diagnostic record and the name/type
// classification heuristics used by both the lexical checks (medlint.cpp)
// and the dataflow checks (taint.cpp).
//
// The sets below encode the repository's secret taxonomy (see
// docs/SECRET_HYGIENE.md): which type names hold key halves, which
// identifier components mark a value as secret, and which suffixes mark a
// value as public metadata (lengths, counts, indices) even when a secret
// word appears earlier in the name.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace medlint {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string check;
  std::string message;
};

// Types whose definitions must wipe their secrets on destruction. Names
// match the paper's secret holders: §3 Shamir/threshold shares, §4
// d_ID halves, §5 x halves, the DRBG state, and RSA private material.
inline const std::set<std::string> kSecretTypes = {
    "PrivateKey",     "SplitKey",       "KeyPair",        "KeyShare",
    "GdhKeyShare",    "ElGamalKeyShare", "Sharing",       "HmacDrbg",
    "Pkg",            "DkgParticipant", "ThresholdDealer", "SemHalfKey",
    "MRsaKeys",       "MRsaSemRecord",  "IbeSemKey",      "IbsSemKey",
    "LimbStore",
};

// Types that hold a SEM-side key half (sem_server.h's lend-don't-copy
// contract): a by-value return of one copies registry secrets onto the
// caller's stack. "KeyHalf" is MediatorBase's template parameter, so the
// generic machinery itself stays covered.
inline const std::set<std::string> kSecretReturnTypes = {
    "KeyHalf",
    "IbeSemKey",
    "SemHalfKey",
    "MRsaSemRecord",
};

// Identifier components that mark a name as secret for *comparison*
// purposes (timing): includes tags and MACs, which are public on the
// wire but must still be compared in constant time.
inline const std::set<std::string> kSecretWords = {
    "key",    "keys",   "secret", "secrets", "seed",     "seeds",
    "token",  "tokens", "tag",    "tags",    "mac",      "macs",
    "share",  "shares", "priv",   "password", "passwd",
};

// Components that mark a name as secret for *storage* purposes
// (confidentiality): excludes tag/mac/token — those live in ciphertexts
// and wire messages, so holding them in plain Bytes is fine.
inline const std::set<std::string> kSecretStorageWords = {
    "key",   "keys",   "secret",   "secrets",  "seed",   "seeds",
    "share", "shares", "priv",     "password", "passwd", "half",
    "halves",
};

// Leading components that mark a value as blinded/public even when a
// secret word follows (masked_seed is a ciphertext component).
inline const std::set<std::string> kPublicPrefixes = {"masked", "pub", "public"};

// Trailing components that mark a name as public *metadata about* a
// secret rather than the secret itself: lengths, counts and positions
// are public by the ct_equal contract (common/bytes.h).
inline const std::set<std::string> kBenignTails = {
    "len",  "size", "count", "bits", "index", "idx",
    "id",   "ok",   "valid", "found", "present",
    // System parameters are public by definition (the IBE/IBS "public
    // params" the PKG publishes); pkg.params carries no key material.
    "param", "params",
};

inline std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// "pkg.master_key_" -> "master_key_"; "sem->d_sem" -> "d_sem".
inline std::string last_member(const std::string& path) {
  std::size_t pos = path.size();
  for (const char* sep : {".", "->", "::"}) {
    const std::size_t p = path.rfind(sep);
    if (p != std::string::npos) {
      const std::size_t after = p + std::string(sep).size();
      pos = std::min(pos, path.size() - after);
    }
  }
  return path.substr(path.size() - pos);
}

// Splits snake_case/camelCase into lowercase components.
inline std::vector<std::string> name_components(const std::string& name) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : name) {
    if (c == '_') {
      if (!cur.empty()) parts.push_back(to_lower(cur));
      cur.clear();
    } else if (std::isupper(static_cast<unsigned char>(c)) && !cur.empty() &&
               std::islower(static_cast<unsigned char>(cur.back()))) {
      parts.push_back(to_lower(cur));
      cur.assign(1, c);
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(to_lower(cur));
  return parts;
}

inline bool is_secret_name(const std::string& identifier_path) {
  for (const std::string& part : name_components(last_member(identifier_path))) {
    if (kSecretWords.count(part)) return true;
  }
  return false;
}

// True when the *tail* of the name marks it as public metadata
// (key_len, share_count, seed_index, ...).
inline bool has_benign_tail(const std::string& name) {
  const std::vector<std::string> parts = name_components(name);
  return !parts.empty() && kBenignTails.count(parts.back()) != 0;
}

inline bool is_secret_storage_name(const std::string& name) {
  const std::vector<std::string> parts = name_components(name);
  if (!parts.empty() && kPublicPrefixes.count(parts.front())) return false;
  for (const std::string& part : parts) {
    if (kSecretStorageWords.count(part)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Call vocabulary shared by the dataflow (taint.cpp) and summary
// (summary.cpp) passes. Both must traverse expressions identically:
// a call that declassifies for the intraprocedural engine must also
// declassify when the summary pass asks "does this argument carry the
// parameter's value".
// ---------------------------------------------------------------------------

// Keywords that may precede '(' without naming a callee or a function.
inline const std::set<std::string> kControlKeywords = {
    "if",     "while",    "for",      "switch",        "catch",
    "return", "sizeof",   "alignof",  "throw",         "new",
    "delete", "case",     "default",  "else",          "do",
    "using",  "typedef",  "goto",     "static_assert", "decltype",
    "noexcept", "alignas", "defined", "requires",
};

inline const std::set<std::string> kCvWords = {
    "const",    "constexpr", "static",       "volatile", "mutable",
    "typename", "struct",    "inline",       "register", "thread_local",
    "unsigned", "signed",    "virtual",      "explicit", "friend",
};

// Accessors whose results are public metadata even on a tainted object:
// lengths/counts are public by the ct_equal contract, and to_bytes() is
// the *named* serialization boundary (secure_buffer.h) — calling it is an
// explicit, reviewable decision, so its result is treated as declassified.
inline const std::set<std::string> kPublicAccessors = {
    "size",     "empty",      "length",    "count",    "capacity",
    "max_size", "bit_length", "bit_count", "npos",     "to_bytes",
    "find",     "contains",   "has_value", "end",      "cend",
};
// "end" is public (an iterator sentinel for lookup-miss tests) but
// "begin" deliberately is not: Bytes(key.begin(), key.end()) is the
// copy-the-secret idiom the escape check exists to catch.

// Calls whose result is public and whose arguments are exactly the vetted
// constant-time/wiping internals — never scanned for sink violations.
inline const std::set<std::string> kSanitizerCalls = {
    "ct_equal", "secure_wipe", "wipe", "sizeof", "alignof", "assert",
};

// Calls that merely combine or forward bytes: result tainted iff an
// argument is (so their argument lists are scanned). Everything not
// listed here is assumed to *transform* its inputs (hash, encrypt, ...)
// and does not propagate taint through its return value — unless its
// function summary says otherwise (summary.cpp).
inline const std::set<std::string> kPropagatorCalls = {
    "concat", "xor_bytes", "move",    "forward", "min",  "max",
    "subspan", "view",     "span",    "data",    "get",  "ref",
    "cref",   "first",     "last",    "to_hex",  "swap",
};

inline bool secret_type_ident(const std::string& id) {
  return id == "SecureBuffer" || kSecretTypes.count(id) != 0 ||
         kSecretReturnTypes.count(id) != 0;
}

// Protocol verification predicates: a leading verify/check/validate
// component marks a call whose boolean verdict is public by design
// (Feldman complaints, share-proof checks, signature verification are all
// published). Their verdicts may gate branches; their arguments are not
// scanned. Deliberately narrow — is_/has_ predicates are NOT included,
// because parity/zero tests on secrets (is_odd) are classic leaks.
inline bool verification_call(const std::string& name) {
  const std::vector<std::string> parts = name_components(name);
  if (parts.empty()) return false;
  // Leading (verify_share) or trailing (hess_verify, mrsa_verify): both
  // snake_case conventions put the verb at an edge.
  for (const std::string* p : {&parts.front(), &parts.back()}) {
    if (*p == "verify" || *p == "check" || *p == "validate") return true;
  }
  return false;
}

// kCamelCase constant convention: compile-time constants are baked into
// the binary, not runtime secrets (obs::Stage::kTokenIssue *names* a
// stage; kShareExtract carries no share).
inline bool constant_name(const std::string& id) {
  return id.size() >= 2 && id[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(id[1]));
}

inline bool secret_fn_name(const std::string& name) {
  return !constant_name(name) && is_secret_storage_name(name) &&
         !has_benign_tail(name);
}

// Type name spelled with a public prefix (PublicKey, MaskedShare):
// declaring a variable of such a type declassifies its secret-looking
// name — `const PublicKey& key` carries only public components.
inline bool public_prefixed(const std::string& name) {
  const std::vector<std::string> parts = name_components(name);
  return !parts.empty() && kPublicPrefixes.count(parts.front()) != 0;
}

}  // namespace medlint
