// ct-variable-time engine. See cttime.h for the model; the short version:
// a secret value must never pick the latency of an instruction or the
// trip count of a loop. Pass 1 (add_vartime_param_facts) runs inside the
// summary walk alongside the other facts; pass 2
// (run_cttime_checks) re-scans each file with the linked Program in
// scope so call sites inherit their callees' vartime bits.

#include "cttime.h"

#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace medlint {
namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool path_glue(const Token& t) {
  return is_punct(t, ".") || is_punct(t, "->") || is_punct(t, "::");
}

// Matches a ')' or ']' backwards to its opener; kNpos when unbalanced.
std::size_t match_group_rev(const Tokens& toks, std::size_t close) {
  const bool paren = is_punct(toks[close], ")");
  const char* c = paren ? ")" : "]";
  const char* o = paren ? "(" : "[";
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(toks[i], c)) ++depth;
    else if (is_punct(toks[i], o) && --depth == 0) return i;
  }
  return kNpos;
}

// Start of the operand expression ending just before `op`: identifiers,
// literals, member paths and balanced groups extend it leftwards;
// any other operator or statement boundary stops it. `f(a, b) / key`
// therefore yields exactly `f(a, b)`, and `x + key / 2` yields `key`.
std::size_t left_extent(const Tokens& toks, std::size_t lo, std::size_t op) {
  std::size_t i = op;
  while (i > lo) {
    const Token& t = toks[i - 1];
    if (is_punct(t, ")") || is_punct(t, "]")) {
      const std::size_t open = match_group_rev(toks, i - 1);
      if (open == kNpos || open < lo) break;
      i = open;
      continue;
    }
    if ((is_ident(t) && kControlKeywords.count(t.text) == 0) ||
        t.kind == TokKind::kNumber || path_glue(t)) {
      --i;
      continue;
    }
    break;
  }
  return i;
}

// One past the end of the operand starting at `start` (just after `op`).
std::size_t right_extent(const Tokens& toks, std::size_t start,
                         std::size_t hi) {
  std::size_t i = start;
  bool lead = true;  // unary -,+,!,~,*,& allowed only at the front
  while (i < hi) {
    const Token& t = toks[i];
    if (is_punct(t, "(") || is_punct(t, "[")) {
      const std::size_t close = match_group(toks, i);
      if (close >= hi) break;
      i = close + 1;
      lead = false;
      continue;
    }
    if ((is_ident(t) && kControlKeywords.count(t.text) == 0) ||
        t.kind == TokKind::kNumber) {
      ++i;
      lead = false;
      continue;
    }
    if (path_glue(t)) {
      ++i;
      continue;
    }
    if (lead && (is_punct(t, "-") || is_punct(t, "+") || is_punct(t, "!") ||
                 is_punct(t, "~") || is_punct(t, "*") || is_punct(t, "&"))) {
      ++i;
      continue;
    }
    break;
  }
  return i;
}

bool range_has_string(const Tokens& toks, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi && i < toks.size(); ++i)
    if (toks[i].kind == TokKind::kString) return true;
  return false;
}

// Stream receivers: `os << secret` is insertion, not a shift — the taint
// engine owns that shape as secret-taint-escape.
bool stream_receiver(const Tokens& toks, std::size_t lo, std::size_t hi) {
  static const std::set<std::string> kStreams = {
      "cout", "cerr",    "clog",    "os", "out", "oss", "ss",
      "ls",   "stream",  "ostream", "in", "is",  "iss", "istream",
      "log",  "logger",  "sink",    "dst"};
  for (std::size_t i = lo; i < hi && i < toks.size(); ++i)
    if (is_ident(toks[i]) && kStreams.count(to_lower(toks[i].text)) != 0)
      return true;
  return false;
}

// Returns the matched name when [lo, hi) reads the *value* of a watched
// secret, "" otherwise.
using Matcher = std::function<std::string(std::size_t, std::size_t)>;

struct Use {
  std::size_t line = 0;
  std::string desc;
  std::string name;
};

// The shared sink walk: division/modulus operands, shift amounts and
// loop conditions. Used by pass 1 (matcher = "is it this parameter") and
// pass 2 (matcher = "is it anything tainted").
void scan_vartime_ops(const Tokens& toks, std::size_t lo, std::size_t hi,
                      const Matcher& reads, std::vector<Use>* out) {
  hi = std::min(hi, toks.size());
  for (std::size_t j = lo; j < hi; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kPunct) {
      const std::string& p = t.text;
      const bool divmod = p == "/" || p == "%" || p == "/=" || p == "%=";
      const bool shift = p == "<<" || p == ">>" || p == "<<=" || p == ">>=";
      if (!divmod && !shift) continue;
      if (j > lo && is_ident(toks[j - 1], "operator")) continue;  // defn
      const std::size_t exl = left_extent(toks, lo, j);
      const std::size_t exr = right_extent(toks, j + 1, hi);
      if (shift) {
        // A shift by a *constant* is fine; only the amount's operand
        // matters. Stream chains and string-bearing statements are
        // insertion/extraction, not arithmetic.
        if (range_has_string(toks, exl, exr) || stream_receiver(toks, exl, j))
          continue;
        const std::string who = reads(j + 1, exr);
        if (!who.empty())
          out->push_back({t.line, "variable-latency shift amount", who});
        continue;
      }
      std::string who = reads(exl, j);
      if (who.empty()) who = reads(j + 1, exr);
      if (!who.empty())
        out->push_back(
            {t.line, "variable-latency division/modulus operand", who});
      continue;
    }
    if (is_ident(t, "for") && j + 1 < hi && is_punct(toks[j + 1], "(")) {
      const std::size_t close = match_group(toks, j + 1);
      if (close >= hi) continue;
      const std::size_t s1 = stmt_end(toks, j + 2, close);
      if (s1 >= close) continue;  // range-for has no condition clause
      std::size_t s2 = stmt_end(toks, s1 + 1, close);
      if (s2 > close) s2 = close;
      const std::string who = reads(s1 + 1, s2);
      if (!who.empty()) out->push_back({t.line, "loop trip count", who});
      continue;
    }
    if (is_ident(t, "while") && j + 1 < hi && is_punct(toks[j + 1], "(")) {
      const std::size_t close = match_group(toks, j + 1);
      if (close >= hi) continue;
      const std::string who = reads(j + 2, close);
      if (!who.empty()) out->push_back({t.line, "loop trip count", who});
      continue;
    }
  }
}

bool contains_exit(const Tokens& toks, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_ident(t, "return") || is_ident(t, "break") ||
        is_ident(t, "continue") || is_ident(t, "throw") ||
        is_ident(t, "goto"))
      return true;
  }
  return false;
}

// One past the end of the statement-or-block starting at i.
std::size_t branch_end(const Tokens& toks, std::size_t i, std::size_t hi) {
  if (i < hi && is_punct(toks[i], "{")) {
    const std::size_t close = match_group(toks, i);
    return close >= hi ? hi : close + 1;
  }
  const std::size_t end = stmt_end(toks, i, hi);
  return end >= hi ? hi : end + 1;
}

// `for (init;;step)` / `while (true)` / `while (1)` whose body holds a
// conditional exit: the trip count depends on runtime data with no
// static bound (try-and-increment, rejection sampling).
void scan_unbounded_loops(const Tokens& toks, std::size_t lo, std::size_t hi,
                          std::vector<std::size_t>* lines) {
  hi = std::min(hi, toks.size());
  for (std::size_t j = lo; j + 1 < hi; ++j) {
    const Token& t = toks[j];
    if (!is_punct(toks[j + 1], "(")) continue;
    std::size_t close = kNpos;
    bool unbounded = false;
    if (is_ident(t, "for")) {
      close = match_group(toks, j + 1);
      if (close >= hi) continue;
      const std::size_t s1 = stmt_end(toks, j + 2, close);
      if (s1 >= close) continue;
      const std::size_t s2 = stmt_end(toks, s1 + 1, close);
      unbounded = s2 == s1 + 1;  // empty condition clause
    } else if (is_ident(t, "while")) {
      close = match_group(toks, j + 1);
      if (close >= hi) continue;
      unbounded = close == j + 3 &&
                  (is_ident(toks[j + 2], "true") ||
                   (toks[j + 2].kind == TokKind::kNumber &&
                    toks[j + 2].text == "1"));
    }
    if (!unbounded || close == kNpos) continue;
    const std::size_t bend = branch_end(toks, close + 1, hi);
    if (contains_exit(toks, close + 1, bend)) lines->push_back(t.line);
  }
}

// Secret-typed for timing purposes. LimbStore is deliberately excluded:
// it is the limb container *inside* the constant-time field layer —
// seeding on it would taint every Fp internal the kernel tests already
// police, drowning the real findings.
bool ct_secret_type(const std::vector<std::string>& type_idents) {
  for (const std::string& id : type_idents) {
    if (public_prefixed(id)) return false;  // PublicKey, MaskedShare
    if (id != "LimbStore" && secret_type_ident(id)) return true;
  }
  return false;
}

// A secret-*named* value mentioned in [lo, hi): covers member paths
// (`rec.d_sem`) the per-name reads_value matcher cannot see. Skips
// callee names, kCamelCase constants, type names (leading uppercase),
// names in `declassified` (parameters whose declared type is
// public-prefixed — `const PublicKey& key` carries only public
// components) and mentions declassified by a public-metadata accessor.
std::string secret_mention(const Tokens& toks, std::size_t lo, std::size_t hi,
                           const std::set<std::string>& declassified) {
  hi = std::min(hi, toks.size());
  for (std::size_t j = lo; j < hi; ++j) {
    const Token& t = toks[j];
    if (!is_ident(t)) continue;
    const std::string& id = t.text;
    if (j + 1 < hi && is_punct(toks[j + 1], "(")) {
      // A call. Sanitizer/verification gates (ct_equal, verify_*) and
      // public-metadata accessors declassify their arguments — their
      // boolean/size result is a deliberate public verdict, exactly as
      // reads_value treats them.
      if (kSanitizerCalls.count(id) != 0 || verification_call(id) ||
          kPublicAccessors.count(id) != 0) {
        const std::size_t close = match_group(toks, j + 1);
        if (close < hi) {
          j = close;
          continue;
        }
      }
      continue;  // callee name itself is not a mention
    }
    if (constant_name(id) || kControlKeywords.count(id) != 0) continue;
    if (declassified.count(id) != 0) continue;
    if (std::isupper(static_cast<unsigned char>(id[0]))) continue;  // type
    if (!secret_fn_name(id)) continue;
    // `key.size()` / `seed.bit_length()` declassify the mention.
    if (j + 2 < hi && (is_punct(toks[j + 1], ".") ||
                       is_punct(toks[j + 1], "->")) &&
        is_ident(toks[j + 2])) {
      const std::string& mem = toks[j + 2].text;
      if (kPublicAccessors.count(mem) != 0 || has_benign_tail(mem) ||
          public_prefixed(mem))
        continue;
    }
    return id;
  }
  return std::string();
}

// Seeds the tainted-name set from parameters and grows it through plain
// `lhs = <expr reading a tainted name>` assignments/initializations.
void seed_and_propagate(const Tokens& toks, std::size_t lo, std::size_t hi,
                        const FnInfo& fn, std::set<std::string>* tainted,
                        const std::set<std::string>& declassified) {
  for (const auto& p : fn.params) {
    if (p.name.empty() || declassified.count(p.name) != 0) continue;
    if (secret_fn_name(p.name) || ct_secret_type(p.type_idents))
      tainted->insert(p.name);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t j = lo + 1; j < hi && j < toks.size(); ++j) {
      if (!is_punct(toks[j], "=")) continue;  // ==, +=, ... lex as one token
      if (!is_ident(toks[j - 1])) continue;
      if (j >= 2 && path_glue(toks[j - 2])) continue;  // member store
      const std::string& lhs = toks[j - 1].text;
      if (kControlKeywords.count(lhs) != 0 || tainted->count(lhs) != 0)
        continue;
      const std::size_t end = std::min(stmt_end(toks, j + 1, hi), hi);
      bool hit = !secret_mention(toks, j + 1, end, declassified).empty();
      for (const std::string& src : *tainted) {
        if (hit) break;
        hit = reads_value(toks, j + 1, end, src);
      }
      if (hit) {
        tainted->insert(lhs);
        changed = true;
      }
    }
  }
}

}  // namespace

void add_vartime_param_facts(const Tokens& toks, std::size_t lo,
                             std::size_t hi, FnFacts& f) {
  if (f.params.empty()) return;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < f.param_names.size() && i < f.params.size();
       ++i)
    if (!f.param_names[i].empty()) index[f.param_names[i]] = i;
  if (index.empty()) return;
  const Matcher m = [&](std::size_t a, std::size_t b) -> std::string {
    for (const auto& entry : index)
      if (reads_value(toks, a, b, entry.first)) return entry.first;
    return std::string();
  };
  std::vector<Use> uses;
  scan_vartime_ops(toks, lo, hi, m, &uses);
  for (const Use& u : uses) {
    ParamFacts& pf = f.params[index[u.name]];
    if (pf.vartime) continue;
    pf.vartime = true;
    pf.vartime_line = u.line;
    pf.vartime_desc = u.desc;
  }
}

void run_cttime_checks(const std::string& file, const LexedFile& lf,
                       const FileModel& model, const Program& prog,
                       std::vector<Violation>& out) {
  const Tokens& toks = lf.tokens;
  std::set<std::pair<std::size_t, std::string>> seen;
  const auto emit = [&](std::size_t line, const std::string& msg) {
    if (seen.insert({line, msg}).second)
      out.push_back({file, line, "ct-variable-time", msg});
  };

  for (const FnInfo& fn : model.fns) {
    if (!fn.is_definition || fn.is_dtor) continue;
    const std::size_t lo = fn.body_open + 1;
    const std::size_t hi = std::min(fn.body_close, toks.size());
    if (fn.body_open >= toks.size() || lo >= hi) continue;

    std::set<std::string> declassified;
    for (const auto& p : fn.params) {
      if (p.name.empty()) continue;
      for (const std::string& id : p.type_idents)
        if (public_prefixed(id)) declassified.insert(p.name);
    }
    std::set<std::string> tainted;
    seed_and_propagate(toks, lo, hi, fn, &tainted, declassified);
    const Matcher m = [&](std::size_t a, std::size_t b) -> std::string {
      const std::string direct = secret_mention(toks, a, b, declassified);
      if (!direct.empty()) return direct;
      for (const std::string& name : tainted)
        if (reads_value(toks, a, b, name)) return name;
      return std::string();
    };

    // Direct sinks.
    std::vector<Use> uses;
    scan_vartime_ops(toks, lo, hi, m, &uses);
    for (const Use& u : uses)
      emit(u.line, "secret '" + u.name + "' reaches a " + u.desc);

    // Secret-controlled early exits: the branch's presence/absence of a
    // return/break/continue makes iteration timing a function of the
    // secret even when the branch bodies are balanced.
    for (std::size_t j = lo; j + 1 < hi; ++j) {
      if (!is_ident(toks[j], "if") || !is_punct(toks[j + 1], "(")) continue;
      const std::size_t close = match_group(toks, j + 1);
      if (close >= hi) continue;
      const std::string who = m(j + 2, close);
      if (who.empty()) continue;
      const std::size_t bend = branch_end(toks, close + 1, hi);
      if (contains_exit(toks, close + 1, bend))
        emit(toks[j].line,
             "secret '" + who + "' controls an early exit (branch timing "
             "leaks it)");
    }

    // Interprocedural: an argument whose value is secret, passed to a
    // parameter whose linked summary says it reaches a variable-latency
    // operation somewhere down the call chain.
    for (std::size_t j = lo; j + 1 < hi; ++j) {
      if (!is_ident(toks[j]) || !is_punct(toks[j + 1], "(")) continue;
      const std::string& callee = toks[j].text;
      if (kControlKeywords.count(callee) != 0 ||
          kSanitizerCalls.count(callee) != 0 || verification_call(callee))
        continue;
      // `IbeSemKey record(...)` is a declaration, not a call to record().
      if (j > lo && is_ident(toks[j - 1]) &&
          std::isupper(static_cast<unsigned char>(toks[j - 1].text[0])))
        continue;
      const FnSummary* sum = prog.summary(callee);
      if (sum == nullptr) continue;
      const std::size_t close = match_group(toks, j + 1);
      if (close >= hi) continue;
      const auto args = split_args(toks, j + 1, close);
      for (std::size_t ai = 0; ai < args.size(); ++ai) {
        if (ai >= sum->params.size() || !sum->params[ai].vartime) continue;
        const std::string who = m(args[ai].first, args[ai].second);
        if (who.empty()) continue;
        emit(toks[j].line, "secret '" + who + "' reaches a " +
                               sum->params[ai].vartime_desc + " through '" +
                               callee + "()'");
      }
      j = close;  // args already scanned; don't re-enter for nested calls
    }

    // Structural rule: fires on the loop shape alone (no taint needed) —
    // this is what catches try-and-increment hash-to-point and rejection
    // sampling. Bounded-by-contract sites carry justified suppressions.
    std::vector<std::size_t> loops;
    scan_unbounded_loops(toks, lo, hi, &loops);
    for (const std::size_t line : loops)
      emit(line,
           "unbounded loop with a data-dependent exit: the trip count is "
           "input-dependent (not constant-time)");
  }
}

}  // namespace medlint
