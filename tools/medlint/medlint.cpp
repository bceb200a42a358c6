// medlint — secret-hygiene static analysis for the medcrypt tree.
//
// The paper's security model (Libert–Quisquater §4–§5) rests on each
// secret being *split*: the SEM holds d_ID,sem / x_sem, the user holds
// d_ID,user / x_user, and threshold players hold Shamir shares f(i).
// Any half-key that leaks through a non-wiped buffer or a variable-time
// comparison silently voids the revocation guarantee, so this checker
// enforces the repository's secret-handling rules over every PR.
//
// v3 is interprocedural: a structural pass (callgraph.cpp) models every
// function/class/global in each TU, a facts pass (summary.cpp) computes
// per-function summaries (param escapes into return values, stores into
// members/globals beyond the call, out-parameter flows, wipes) that are
// linked and fixpointed into a whole-program view, and the dataflow
// engine (taint.cpp) consumes those summaries at call sites.
//
// lexical (line/regex over the stripped view):
//   secret-memcmp          byte-wise libc comparisons are banned; use
//                          medcrypt::ct_equal
//   secret-equality        operator==/!= on secret-named identifiers
//   secret-vector          raw Bytes/std::vector<uint8_t> declarations
//                          with secret-bearing names — use SecureBuffer
//   banned-randomness      direct rand()/std::random_device/std::mt19937;
//                          all randomness flows through RandomSource
//   missing-wipe-dtor      known secret-bearing types must wipe in their
//                          destructor
//   secret-return-by-value a function returning a SEM key-half type by
//                          value copies stored secrets onto every
//                          caller's stack; lend const T& (with_key)
//
// dataflow (interprocedural taint over the token stream):
//   secret-taint-escape    tainted value copied into Bytes/std::string,
//                          streamed, logged, thrown, or stored beyond
//                          the call through a callee's summary
//   secret-extern-call     tainted value passed to a function with no
//                          visible definition/declaration (or through a
//                          function pointer); allowlist vetted externs
//                          with --extern-allowlist
//   secret-branch          branch condition / loop bound / ternary /
//                          array index derived from a tainted value
//   leaky-early-return     early return/throw skips a wipe the main
//                          path performs
//   secret-param-by-value  secret-typed or secret-named parameter taken
//                          by value across a call boundary
//
// constant time (on the same two-pass machinery):
//   ct-variable-time       secret operand reaches a variable-latency
//                          operation (division/modulus, shift amount,
//                          loop trip count, early exit) directly or
//                          through a call chain; unbounded loops with
//                          data-dependent exits (cttime.cpp)
//
// Properties with a runtime guard have no check here: the SEM's lock
// and epoch contracts run under TSan (SemStress* suites), and the asm
// kernels are diffed bit for bit against portable (kernel_diff_test).
//
// Suppression, most specific first:
//   * `// medlint: allow(<check-id>)` on the finding's line or the line
//     directly above — for single vetted sites (preferred: the
//     justification sits next to the code).
//   * --baseline <file>: accepted findings awaiting a fix; every entry
//     MUST carry a justification comment directly above it or loading
//     fails. Entries are `path-suffix:check-id`.
//   * --allowlist <file>: permanent design-level exemptions (e.g. the
//     RandomSource implementation using std::random_device).
//
// Usage:
//   medlint --src <dir|file> [--src <dir|file> ...] [--allowlist <file>]
//           [--baseline <file>] [--extern-allowlist <file>]
//           [--sarif <file>] [--stats] [--check <id,id,...>] [--verbose]
//   medlint --list-checks
//
// --check restricts reporting (and stale-baseline enforcement) to the
// named check ids.
//
// Exit status: 0 clean, 1 violations found, 2 usage/IO error (including
// a stale --baseline entry that matches no current finding).

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "common.h"
#include "cttime.h"
#include "lexer.h"
#include "summary.h"
#include "taint.h"

namespace {

namespace fs = std::filesystem;

using medlint::Violation;

struct CheckInfo {
  const char* id;
  const char* summary;
};

constexpr CheckInfo kChecks[] = {
    {"secret-memcmp",
     "libc byte comparison (memcmp/bcmp/strcmp/strncmp); use "
     "medcrypt::ct_equal for secret data"},
    {"secret-equality",
     "operator==/!= on a secret-named buffer; use medcrypt::ct_equal"},
    {"secret-vector",
     "raw Bytes/std::vector<uint8_t> holding secret material; use "
     "medcrypt::SecureBuffer"},
    {"banned-randomness",
     "direct rand()/std::random_device/std::mt19937; route randomness "
     "through medcrypt::RandomSource"},
    {"missing-wipe-dtor",
     "secret-bearing type lacks a wiping destructor (call wipe() or hold "
     "SecureBuffer members)"},
    {"secret-return-by-value",
     "SEM key-half type returned by value, leaving an unwiped copy on "
     "the caller's stack; lend const T& in a guarded scope (with_key "
     "pattern)"},
    {"secret-taint-escape",
     "tainted secret flows into a non-wiping Bytes/std::string, an "
     "output stream, a log call, or a thrown exception"},
    {"secret-branch",
     "branch condition, loop bound, ternary, or array index derived from "
     "a tainted secret (constant-time discipline)"},
    {"leaky-early-return",
     "early return/throw skips the wipe of a tainted local that the main "
     "path performs"},
    {"secret-param-by-value",
     "secret-typed or secret-named parameter passed by value, copying "
     "key material across the call boundary"},
    {"obs-secret-arg",
     "secret-named value passed to an obs:: record/span API; metrics "
     "labels and trace payloads must never carry key material"},
    {"secret-extern-call",
     "tainted secret passed to a function with no visible definition or "
     "declaration (or through a function pointer); its wipe discipline "
     "is unknowable — allowlist vetted externs with --extern-allowlist"},
    {"ct-variable-time",
     "secret operand reaches a variable-latency operation "
     "(division/modulus, shift amount, loop trip count, early exit) "
     "directly or through a call chain; or an unbounded loop with a "
     "data-dependent exit"},
};

bool known_check(const std::string& id) {
  for (const CheckInfo& c : kChecks)
    if (id == c.id) return true;
  return id == "*";
}

// ---------------------------------------------------------------------------
// per-line lexical checks (over the lexer's stripped view)
// ---------------------------------------------------------------------------

const std::regex kMemcmpRe(R"(\b(memcmp|bcmp|strcmp|strncmp)\s*\()");
// Note: a bare `random(` is NOT banned — the field/point layers expose
// `Fp random(RandomSource&)` methods, which are exactly the sanctioned
// path. Only the std/libc generators are.
const std::regex kRandomRe(
    R"((std::random_device|std::mt19937|std::minstd_rand|\bsrand\s*\(|\brand\s*\(|\bdrand48\b))");
// Terminators deliberately exclude '(' so `Bytes make_key(...)` function
// declarations and paren-initialized locals don't match; members and
// assignments (`Bytes key_;`, `Bytes k = ...`) do.
const std::regex kSecretVecRe(
    R"(\b(?:medcrypt::)?(Bytes|std::vector<\s*(?:std::)?uint8_t\s*>)\s+([A-Za-z_]\w*)\s*[;={])");
const std::regex kCompareRe(
    R"(([A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*)\s*(==|!=)\s*([A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*|[0-9]\w*|""|''))");
// Function declaration/definition shape: optional specifiers, a plain
// (possibly qualified/templated) return type with no '&'/'*', then the
// function name directly followed by '('. Lexical by design: multi-line
// declarations with the return type on its own line are not seen (the
// tree's style keeps them on one line).
const std::regex kFnDeclRe(
    R"(^\s*(?:(?:virtual|static|inline|constexpr|explicit|friend|const)\s+)*((?:::)?[A-Za-z_][\w:]*(?:<[^;()&*]*>)?)\s+([A-Za-z_]\w*)\s*\()");

// Leading name components that mark a function as a *factory*: it mints
// a fresh secret and must hand it to the new owner by value (the caller
// becomes responsible for wiping). Accessors of *stored* secrets have no
// such excuse.
const std::set<std::string> kFactoryVerbs = {
    "make",    "create", "generate",    "derive",  "extract", "issue",
    "split",   "enroll", "keygen",      "gen",     "random",  "sample",
    "reconstruct",       "recover",     "from",    "to",      "parse",
    "decrypt", "encrypt", "sign",       "unwrap",  "wrap",
};

// True if any identifier token of a (possibly qualified/templated)
// return-type spelling names a secret key-half type, so that
// `std::vector<KeyHalf>` and `mediated::IbeSemKey` are caught too.
bool is_secret_return_type(const std::string& type_spelling) {
  std::string token;
  for (const char c : type_spelling + " ") {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      token.push_back(c);
    } else {
      if (medlint::kSecretReturnTypes.count(token)) return true;
      token.clear();
    }
  }
  return false;
}

bool is_benign_operand(const std::string& op) {
  if (op.empty()) return true;
  if (std::isdigit(static_cast<unsigned char>(op[0]))) return true;  // literal
  if (op == "nullptr" || op == "true" || op == "false" || op == "\"\"" ||
      op == "''") {
    return true;
  }
  const std::string last = medlint::last_member(op);
  // Iterator/size protocol names compare handles, not contents.
  if (last == "end" || last == "begin" || last == "size" || last == "empty" ||
      last == "length" || last == "npos") {
    return true;
  }
  // Quantity-valued names (message_len, kSessionKeyLen, share_count) are
  // public metadata even when a secret word appears earlier in the name.
  const std::vector<std::string> parts = medlint::name_components(last);
  if (parts.empty()) return false;
  const std::string& tail = parts.back();
  return tail == "len" || tail == "size" || tail == "count" ||
         tail == "bits" || tail == "bytes" || tail == "index";
}

// Identifier path shape shared with kCompareRe's operands.
const std::regex kIdentPathRe(
    R"([A-Za-z_]\w*(?:(?:\.|->|::)[A-Za-z_]\w*)*)");

// obs-secret-arg: flags secret-named identifier paths inside the
// argument parens of an obs:: call on this line. The obs layer's own
// vocabulary is exempt — obs::Stage::kTokenIssue *names* the token-
// issuance stage, it does not carry a token — as are callee positions
// (`h.mul(...)`: `mul` names a function) and public-metadata tails
// (`key_len`). Line-lexical by design, like the other checks here: the
// registry taint engine is not wired to cross statement boundaries, so
// aliasing an obs handle into a local defeats it — code review owns
// that residue (docs/SECRET_HYGIENE.md).
void check_obs_args(const std::string& file, std::size_t lineno,
                    const std::string& code, std::vector<Violation>& out) {
  // Anchor on a qualified obs:: call, or on the tracing entry points
  // that are routinely called unqualified (TraceScope adoption at a
  // pipeline boundary, trace_annotate baggage): baggage values and
  // histogram exemplars are exported in cleartext exactly like metric
  // samples, so they get the same vetting. npos is the max size_t, so
  // min() picks the earliest present anchor.
  const std::size_t obs_pos =
      std::min({code.find("obs::"), code.find("trace_annotate"),
                code.find("TraceScope")});
  if (obs_pos == std::string::npos) return;
  const std::size_t open = code.find('(', obs_pos);
  if (open == std::string::npos) return;

  // Paren depth at each position, counted from the obs call's opening
  // paren; identifiers outside it (depth 0) belong to other statements.
  std::vector<int> depth(code.size(), 0);
  int d = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++d;
    if (code[i] == ')') d = std::max(0, d - 1);
    depth[i] = d;
  }

  for (auto it = std::sregex_iterator(code.begin(), code.end(), kIdentPathRe);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (pos <= open || depth[pos] < 1) continue;
    const std::string path = it->str();
    if (path.rfind("obs::", 0) == 0 ||
        path.rfind("medcrypt::obs::", 0) == 0) {
      continue;
    }
    // Callee position: the next non-space character is '('.
    std::size_t after = pos + it->length();
    while (after < code.size() && code[after] == ' ') ++after;
    if (after < code.size() && code[after] == '(') continue;
    const std::string last = medlint::last_member(path);
    if (medlint::has_benign_tail(last)) continue;
    if (medlint::is_secret_name(path)) {
      out.push_back({file, lineno, "obs-secret-arg",
                     "'" + path + "' is secret-named and flows into an "
                     "obs:: instrumentation call; metric labels and trace "
                     "payloads are exported in cleartext and must never "
                     "carry key material"});
    }
  }
}

void check_line(const std::string& file, std::size_t lineno,
                const std::string& code, std::vector<Violation>& out) {
  std::smatch m;
  if (std::regex_search(code, m, kMemcmpRe)) {
    out.push_back({file, lineno, "secret-memcmp",
                   m[1].str() + "() is banned: byte comparisons on "
                   "key/share/token material leak timing; use "
                   "medcrypt::ct_equal (common/bytes.h)"});
  }
  if (std::regex_search(code, m, kRandomRe)) {
    out.push_back({file, lineno, "banned-randomness",
                   "direct libc/std randomness is banned outside the "
                   "RandomSource implementation; take a RandomSource& "
                   "(common/random_source.h)"});
  }
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kSecretVecRe);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[2].str();
    if (medlint::is_secret_storage_name(name)) {
      out.push_back({file, lineno, "secret-vector",
                     "'" + (*it)[1].str() + " " + name +
                         "' holds secret material in a non-wiping buffer; "
                         "use medcrypt::SecureBuffer "
                         "(common/secure_buffer.h)"});
    }
  }
  if (std::regex_search(code, m, kFnDeclRe)) {
    const std::string ret = m[1].str();
    const std::string name = m[2].str();
    // Both conjuncts are needed: the type gate keeps ubiquitous value
    // types quiet, and the secret-named gate skips paren-initialized
    // locals (`IbeSemKey record(...)`) that the declaration regex
    // cannot tell apart from a function signature.
    if (is_secret_return_type(ret) && medlint::is_secret_storage_name(name)) {
      const std::vector<std::string> parts = medlint::name_components(name);
      if (parts.empty() || !kFactoryVerbs.count(parts.front())) {
        out.push_back({file, lineno, "secret-return-by-value",
                       "'" + ret + " " + name +
                           "(...)' returns a SEM key-half type by value; "
                           "every call leaves an unwiped copy on the "
                           "caller's stack — lend a const reference inside "
                           "a guarded scope (MediatorBase::with_key) or "
                           "allowlist if this is a vetted factory"});
      }
    }
  }
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCompareRe);
       it != std::sregex_iterator(); ++it) {
    const std::string lhs = (*it)[1].str();
    const std::string rhs = (*it)[3].str();
    if (is_benign_operand(lhs) || is_benign_operand(rhs)) continue;
    if (medlint::is_secret_name(lhs) || medlint::is_secret_name(rhs)) {
      out.push_back({file, lineno, "secret-equality",
                     "'" + lhs + " " + (*it)[2].str() + " " + rhs +
                         "' compares secret-named values with a "
                         "short-circuiting operator; use medcrypt::ct_equal "
                         "on byte views"});
    }
  }
}

// ---------------------------------------------------------------------------
// struct/class body check: missing-wipe-dtor
// ---------------------------------------------------------------------------

const std::regex kTypeDefRe(R"(^\s*(?:struct|class)\s+([A-Za-z_]\w*))");

void check_secret_types(const std::string& file,
                        const std::vector<std::string>& code,
                        std::vector<Violation>& out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(code[i], m, kTypeDefRe)) continue;
    const std::string name = m[1].str();
    if (!medlint::kSecretTypes.count(name)) continue;

    // Find the opening brace; a ';' first means a forward declaration.
    std::size_t line = i;
    std::size_t col = static_cast<std::size_t>(m.position(0)) + m.length(0);
    int depth = 0;
    bool found_open = false;
    bool fwd_decl = false;
    while (line < code.size() && !found_open && !fwd_decl) {
      for (; col < code[line].size(); ++col) {
        const char c = code[line][col];
        if (c == '{') {
          found_open = true;
          ++col;
          break;
        }
        if (c == ';') {
          fwd_decl = true;
          break;
        }
      }
      if (!found_open && !fwd_decl) {
        ++line;
        col = 0;
      }
    }
    if (!found_open) continue;

    // Collect the brace-matched body.
    std::string body;
    depth = 1;
    for (; line < code.size() && depth > 0; ++line, col = 0) {
      for (; col < code[line].size(); ++col) {
        const char c = code[line][col];
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (depth == 0) break;
        }
        body.push_back(c);
      }
      body.push_back('\n');
    }

    const bool wipes = body.find("~" + name) != std::string::npos &&
                       (body.find("wipe") != std::string::npos ||
                        body.find("SecureBuffer") != std::string::npos);
    const bool delegates = body.find("SecureBuffer") != std::string::npos &&
                           body.find("~" + name) == std::string::npos;
    if (!wipes && !delegates) {
      out.push_back(
          {file, i + 1, "missing-wipe-dtor",
           "secret-bearing type '" + name +
               "' must zeroize on destruction: declare ~" + name +
               "() calling wipe() on secret members, or hold them in "
               "SecureBuffer"});
    }
  }
}

// ---------------------------------------------------------------------------
// suppression: allowlist, baseline, inline comments
// ---------------------------------------------------------------------------

struct AllowEntry {
  std::string path_suffix;
  std::string check;  // "*" allows every check for the file
};

// Loads a suppression file of `path-suffix:check-id` entries. When
// `require_justification` (the --baseline contract), every entry must be
// directly preceded by a comment block explaining why the finding is
// accepted; a bare entry is a hard error.
std::vector<AllowEntry> load_suppressions(const std::string& path,
                                          bool require_justification) {
  std::vector<AllowEntry> entries;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "medlint: cannot open suppression file: " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t lineno = 0;
  bool prev_was_comment = false;
  while (std::getline(in, line)) {
    ++lineno;
    std::string stripped = line;
    const std::size_t hash = stripped.find('#');
    const bool has_comment = hash != std::string::npos &&
                             stripped.find_first_not_of(" \t") == hash;
    if (hash != std::string::npos) stripped.erase(hash);
    while (!stripped.empty() &&
           std::isspace(static_cast<unsigned char>(stripped.back())))
      stripped.pop_back();
    std::size_t start = 0;
    while (start < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[start])))
      ++start;
    stripped.erase(0, start);
    if (stripped.empty()) {
      prev_was_comment = has_comment;
      continue;
    }
    const std::size_t colon = stripped.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "medlint: malformed entry (want path:check) at " << path
                << ":" << lineno << ": " << stripped << "\n";
      std::exit(2);
    }
    const std::string check = stripped.substr(colon + 1);
    if (!known_check(check)) {
      std::cerr << "medlint: unknown check id '" << check << "' at " << path
                << ":" << lineno << "\n";
      std::exit(2);
    }
    if (require_justification && !prev_was_comment) {
      std::cerr << "medlint: baseline entry at " << path << ":" << lineno
                << " has no justification comment directly above it; every "
                   "accepted finding must say why (see "
                   "docs/SECRET_HYGIENE.md)\n";
      std::exit(2);
    }
    entries.push_back({stripped.substr(0, colon), check});
    prev_was_comment = false;
  }
  return entries;
}

constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

// Index of the first matching entry, or kNoMatch. The index (not a bool)
// is the point: --baseline tracks per-entry hit counts so stale entries
// — accepted findings whose code has since been fixed or moved — are a
// hard error instead of silently rotting in the file.
std::size_t match_index(const Violation& v,
                        const std::vector<AllowEntry>& allow) {
  for (std::size_t i = 0; i < allow.size(); ++i) {
    const AllowEntry& e = allow[i];
    if (e.check != "*" && e.check != v.check) continue;
    if (v.file.size() >= e.path_suffix.size() &&
        v.file.compare(v.file.size() - e.path_suffix.size(),
                       e.path_suffix.size(), e.path_suffix) == 0) {
      return i;
    }
  }
  return kNoMatch;
}

// Loads --extern-allowlist: one vetted external function name per line,
// each with a justification comment directly above it (the same contract
// as --baseline — an unexplained "trust this extern" entry is worthless
// at review time).
std::set<std::string> load_extern_allowlist(const std::string& path) {
  std::set<std::string> names;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "medlint: cannot open extern allowlist: " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t lineno = 0;
  bool prev_was_comment = false;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    const bool has_comment =
        hash != std::string::npos && line.find_first_not_of(" \t") == hash;
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t b = line.find_first_not_of(" \t");
    const std::size_t e = line.find_last_not_of(" \t");
    if (b == std::string::npos) {
      prev_was_comment = has_comment;
      continue;
    }
    const std::string name = line.substr(b, e - b + 1);
    if (name.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") != std::string::npos) {
      std::cerr << "medlint: malformed extern-allowlist entry (want a bare "
                   "function name) at " << path << ":" << lineno << ": "
                << name << "\n";
      std::exit(2);
    }
    if (!prev_was_comment) {
      std::cerr << "medlint: extern-allowlist entry at " << path << ":"
                << lineno << " has no justification comment directly above "
                   "it; every vetted extern must say why it is safe to "
                   "receive secrets\n";
      std::exit(2);
    }
    names.insert(name);
    prev_was_comment = false;
  }
  return names;
}

// `// medlint: allow(check-a, check-b)` — suppresses those checks on the
// comment's own line (trailing form) and on the line directly below
// (standalone form).
const std::regex kInlineAllowRe(
    R"(medlint:\s*allow\(\s*([A-Za-z0-9_,\s-]+)\s*\))");

std::map<std::size_t, std::set<std::string>> inline_suppressions(
    const std::vector<std::string>& comments) {
  std::map<std::size_t, std::set<std::string>> by_line;
  for (std::size_t i = 0; i < comments.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(comments[i], m, kInlineAllowRe)) continue;
    std::stringstream ids(m[1].str());
    std::string id;
    while (std::getline(ids, id, ',')) {
      const std::size_t b = id.find_first_not_of(" \t");
      const std::size_t e = id.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::string trimmed = id.substr(b, e - b + 1);
      by_line[i + 1].insert(trimmed);  // the comment's own line (1-based)
      by_line[i + 2].insert(trimmed);  // the line below
    }
  }
  return by_line;
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output (for CI annotation upload)
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void write_sarif(const std::string& path,
                 const std::vector<Violation>& violations) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "medlint: cannot write SARIF file: " << path << "\n";
    std::exit(2);
  }
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"medlint\",\n"
      << "      \"informationUri\": \"docs/SECRET_HYGIENE.md\",\n"
      << "      \"rules\": [\n";
  bool first = true;
  for (const CheckInfo& c : kChecks) {
    if (!first) out << ",\n";
    first = false;
    out << "        {\"id\": \"" << c.id
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(c.summary)
        << "\"}}";
  }
  out << "\n      ]\n    }},\n    \"results\": [\n";
  first = true;
  for (const Violation& v : violations) {
    if (!first) out << ",\n";
    first = false;
    out << "      {\"ruleId\": \"" << v.check
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(v.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(v.file) << "\"}, \"region\": {\"startLine\": "
        << v.line << "}}}]}";
  }
  out << "\n    ]\n  }]\n}\n";
}

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".h" || ext == ".hpp";
}

std::vector<std::string> read_lines(const fs::path& p) {
  std::ifstream in(p);
  if (!in) {
    std::cerr << "medlint: cannot read " << p << "\n";
    std::exit(2);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> src_paths;
  std::string allowlist_path;
  std::string baseline_path;
  std::string extern_allow_path;
  std::string sarif_path;
  bool verbose = false;
  bool stats = false;
  std::set<std::string> enabled;  // empty = every check
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--src" && i + 1 < argc) {
      src_paths.push_back(argv[++i]);
    } else if (arg == "--allowlist" && i + 1 < argc) {
      allowlist_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--extern-allowlist" && i + 1 < argc) {
      extern_allow_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--check" && i + 1 < argc) {
      std::stringstream ids(argv[++i]);
      std::string id;
      while (std::getline(ids, id, ',')) {
        const std::size_t b = id.find_first_not_of(" \t");
        const std::size_t e = id.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        const std::string trimmed = id.substr(b, e - b + 1);
        if (!known_check(trimmed) || trimmed == "*") {
          std::cerr << "medlint: unknown check id in --check: " << trimmed
                    << "\n";
          return 2;
        }
        enabled.insert(trimmed);
      }
    } else if (arg == "--list-checks") {
      for (const CheckInfo& c : kChecks)
        std::cout << c.id << "\t" << c.summary << "\n";
      return 0;
    } else {
      std::cerr << "usage: medlint --src <dir|file> [--src <dir|file>...] "
                   "[--allowlist <file>] [--baseline <file>] "
                   "[--extern-allowlist <file>] [--sarif <file>] [--stats] "
                   "[--check <id,...>] [--verbose] [--list-checks]\n";
      return 2;
    }
  }
  if (src_paths.empty()) {
    std::cerr << "medlint: no --src path given\n";
    return 2;
  }

  std::vector<AllowEntry> allow;
  if (!allowlist_path.empty())
    allow = load_suppressions(allowlist_path, /*require_justification=*/false);
  std::vector<AllowEntry> baseline;
  if (!baseline_path.empty())
    baseline = load_suppressions(baseline_path, /*require_justification=*/true);
  std::set<std::string> extern_allow;
  if (!extern_allow_path.empty())
    extern_allow = load_extern_allowlist(extern_allow_path);

  // A --src names a directory (linted recursively) or one source file.
  std::vector<fs::path> files;
  for (const std::string& src : src_paths) {
    if (fs::is_regular_file(src) && scannable(src)) {
      files.push_back(src);
    } else if (fs::is_directory(src)) {
      for (const auto& entry : fs::recursive_directory_iterator(src)) {
        if (entry.is_regular_file() && scannable(entry.path()))
          files.push_back(entry.path());
      }
    } else {
      std::cerr << "medlint: not a directory or C++ source file: " << src
                << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  const auto t0 = std::chrono::steady_clock::now();

  // Pass 1: lex every file once, build its structural model, and compute
  // its function facts. Linking merges the per-file facts and runs the
  // store/return fixpoint so that pass 2 sees every callee's summary
  // regardless of file order.
  struct Unit {
    fs::path path;
    medlint::LexedFile lf;
    medlint::FileModel model;
  };
  std::vector<Unit> units;
  std::vector<medlint::FileFacts> all_facts;
  units.reserve(files.size());
  all_facts.reserve(files.size());
  for (const fs::path& file : files) {
    Unit u;
    u.path = file;
    u.lf = medlint::lex_file(read_lines(file));
    u.model = medlint::build_file_model(u.lf);
    all_facts.push_back(medlint::compute_file_facts(u.lf, u.model));
    units.push_back(std::move(u));
  }
  medlint::Program prog = medlint::link_program(all_facts);
  prog.extern_allow = std::move(extern_allow);

  const auto check_on = [&enabled](const char* id) {
    return enabled.empty() || enabled.count(id) != 0;
  };

  // Pass 2: per-file checks, with the linked program in scope.
  std::vector<Violation> violations;
  std::size_t allowlisted = 0;
  std::size_t baselined = 0;
  std::size_t inline_suppressed = 0;
  std::vector<std::size_t> baseline_hits(baseline.size(), 0);
  std::map<std::string, std::size_t> per_check;
  for (const Unit& u : units) {
    const std::string file = u.path.string();
    std::vector<Violation> found;
    for (std::size_t i = 0; i < u.lf.stripped.size(); ++i) {
      check_line(file, i + 1, u.lf.stripped[i], found);
      check_obs_args(file, i + 1, u.lf.stripped[i], found);
    }
    check_secret_types(file, u.lf.stripped, found);
    medlint::run_dataflow_checks(file, u.lf, u.model, prog, found);
    if (check_on("ct-variable-time"))
      medlint::run_cttime_checks(file, u.lf, u.model, prog, found);
    if (!enabled.empty()) {
      found.erase(std::remove_if(found.begin(), found.end(),
                                 [&](const Violation& v) {
                                   return enabled.count(v.check) == 0;
                                 }),
                  found.end());
    }
    const auto inline_allow = inline_suppressions(u.lf.comments);
    for (Violation& v : found) {
      ++per_check[v.check];
      const auto it = inline_allow.find(v.line);
      const std::size_t bi = match_index(v, baseline);
      if (it != inline_allow.end() &&
          (it->second.count(v.check) || it->second.count("*"))) {
        ++inline_suppressed;
        if (verbose)
          std::cout << v.file << ":" << v.line << ": inline-allowed ["
                    << v.check << "]\n";
      } else if (match_index(v, allow) != kNoMatch) {
        ++allowlisted;
        if (verbose)
          std::cout << v.file << ":" << v.line << ": allowlisted [" << v.check
                    << "]\n";
      } else if (bi != kNoMatch) {
        ++baseline_hits[bi];
        ++baselined;
        if (verbose)
          std::cout << v.file << ":" << v.line << ": baselined [" << v.check
                    << "]\n";
      } else {
        violations.push_back(std::move(v));
      }
    }
  }

  const auto t1 = std::chrono::steady_clock::now();

  // A baseline entry that no longer matches anything is debt already
  // paid: keeping it would let a *new* finding of the same shape slip
  // through unreviewed. Hard error so the file only ever shrinks.
  // --check runs see only a slice of the findings, so enforcement is
  // scoped to the enabled checks.
  bool stale = false;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (!enabled.empty() && baseline[i].check != "*" &&
        enabled.count(baseline[i].check) == 0)
      continue;
    if (baseline_hits[i] == 0) {
      std::cerr << "medlint: stale baseline entry (matches no current "
                   "finding): " << baseline[i].path_suffix << ":"
                << baseline[i].check << "\n";
      stale = true;
    }
  }
  if (stale) {
    std::cerr << "medlint: prune the stale entries from " << baseline_path
              << "; the baseline may only shrink\n";
    return 2;
  }

  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const Violation& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.check << "] "
              << v.message << "\n";
  }
  if (!sarif_path.empty()) write_sarif(sarif_path, violations);
  if (stats) {
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
    std::cout << "medlint stats:\n"
              << "  analysis time: " << ms << " ms over " << files.size()
              << " file(s)\n"
              << "  findings by check (pre-suppression):\n";
    if (per_check.empty()) std::cout << "    (none)\n";
    for (const auto& [check, n] : per_check)
      std::cout << "    " << check << ": " << n << "\n";
  }
  std::cout << "medlint: scanned " << files.size() << " file(s), "
            << violations.size() << " violation(s), " << allowlisted
            << " allowlisted, " << baselined << " baselined, "
            << inline_suppressed << " inline-suppressed\n";
  return violations.empty() ? 0 : 1;
}
