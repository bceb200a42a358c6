#include "callgraph.h"

#include <cctype>

#include "common.h"

namespace medlint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------------------
// generic declaration shape: [cv]* Type[::T]*[<...>] [&|*]* name, used for
// class members and namespace-scope globals. Terminators: ';' '=' '{'.
// A '(' after the name means function — rejected here.
// ---------------------------------------------------------------------------

struct ParsedDecl {
  std::vector<std::string> type_idents;
  std::string name;
  std::size_t term = 0;  // token index of the terminator
};

std::optional<ParsedDecl> parse_decl(const Tokens& toks, std::size_t i,
                                     std::size_t hi) {
  // Structural keywords open class bodies / alias declarations, not the
  // variable shape this parser models; `class C {` must not read as a
  // global named C (skip_statement would then swallow the whole body).
  static const std::set<std::string> kNotADecl = {
      "class",   "struct",  "union",    "enum",   "using",
      "typedef", "template", "typename", "friend", "namespace",
      "static_assert", "include", "define", "ifdef", "ifndef", "pragma",
  };
  std::vector<std::vector<std::string>> groups;
  std::size_t j = i;
  while (j < hi && is_ident(toks[j])) {
    const std::string& id = toks[j].text;
    if (kControlKeywords.count(id) || id == "operator") return std::nullopt;
    if (kNotADecl.count(id)) return std::nullopt;
    std::vector<std::string> g{id};
    ++j;
    while (j + 1 < hi && is_punct(toks[j], "::") && is_ident(toks[j + 1])) {
      g.push_back(toks[j + 1].text);
      j += 2;
    }
    if (j < hi && is_punct(toks[j], "<")) {
      const std::size_t tclose = match_angle(toks, j);
      if (tclose == kNpos) return std::nullopt;
      for (std::size_t k = j + 1; k < tclose; ++k)
        if (is_ident(toks[k])) g.push_back(toks[k].text);
      j = tclose + 1;
    }
    groups.push_back(std::move(g));
    while (j < hi && (is_punct(toks[j], "&") || is_punct(toks[j], "&&") ||
                      is_punct(toks[j], "*")))
      ++j;
  }
  if (groups.size() < 2 || j >= hi) return std::nullopt;
  if (groups.back().size() != 1) return std::nullopt;
  const Token& term = toks[j];
  if (!is_punct(term, ";") && !is_punct(term, "=") && !is_punct(term, "{"))
    return std::nullopt;
  ParsedDecl d;
  d.name = groups.back()[0];
  d.term = j;
  bool has_real_type = false;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g)
    for (const std::string& id : groups[g]) {
      d.type_idents.push_back(id);
      if (!kCvWords.count(id)) has_real_type = true;
    }
  if (!has_real_type) return std::nullopt;
  return d;
}

// Skips from a declaration-ish start to just past its statement: matches
// groups, stops after the ';' closing it (or after a matched '{...}'
// body followed by an optional ';').
std::size_t skip_statement(const Tokens& toks, std::size_t i, std::size_t hi) {
  std::size_t j = i;
  while (j < hi) {
    if (is_punct(toks[j], "(") || is_punct(toks[j], "[")) {
      j = match_group(toks, j);
      if (j >= hi) return hi;
      ++j;
      continue;
    }
    if (is_punct(toks[j], "{")) {
      j = match_group(toks, j);
      if (j >= hi) return hi;
      ++j;
      if (j < hi && is_punct(toks[j], ";")) ++j;
      return j;
    }
    if (is_punct(toks[j], ";")) return j + 1;
    if (is_punct(toks[j], "}")) return j;  // ran into the enclosing close
    ++j;
  }
  return hi;
}

// Scans a destructor body for `m.wipe()` / `m.clear()` / `secure_wipe(m)`
// and records the wiped member names.
void collect_wipes(const Tokens& toks, std::size_t lo, std::size_t hi,
                   std::vector<std::string>* out) {
  for (std::size_t j = lo; j + 2 < hi; ++j) {
    if (!is_ident(toks[j])) continue;
    if ((is_punct(toks[j + 1], ".") || is_punct(toks[j + 1], "->")) &&
        j + 3 < hi &&
        (is_ident(toks[j + 2], "wipe") || is_ident(toks[j + 2], "clear")) &&
        is_punct(toks[j + 3], "(")) {
      out->push_back(toks[j].text);
    } else if (is_ident(toks[j], "secure_wipe") && is_punct(toks[j + 1], "(") &&
               is_ident(toks[j + 2])) {
      out->push_back(toks[j + 2].text);
    }
  }
}

struct ClassRange {
  std::string name;
  std::size_t open;   // '{' token index
  std::size_t close;  // matching '}'
};

}  // namespace

std::optional<std::vector<Param>> parse_params(const Tokens& toks,
                                               std::size_t open,
                                               std::size_t close) {
  std::vector<Param> params;
  std::size_t start = open + 1;
  int angle = 0;
  for (std::size_t j = open + 1; j <= close; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kNumber || t.kind == TokKind::kString ||
        t.kind == TokKind::kChar) {
      return std::nullopt;
    }
    if (t.kind == TokKind::kPunct) {
      const std::string& p = t.text;
      if (p == "<") ++angle;
      else if (p == ">") angle = std::max(0, angle - 1);
      else if (p == ">>") angle = std::max(0, angle - 2);
      else if (p == "=") {
        // default argument: skip to the ',' / ')' closing this param
        int d = 0;
        while (j < close) {
          const Token& u = toks[j];
          if (is_punct(u, "(") || is_punct(u, "[") || is_punct(u, "{")) ++d;
          else if (is_punct(u, ")") || is_punct(u, "]") || is_punct(u, "}")) --d;
          else if (d == 0 && is_punct(u, ",")) break;
          ++j;
        }
        // fall through to the ','/close handling below
      } else if (angle > 0 && (p == "(" || p == ")")) {
        // function-type template argument: std::function<void(const B&)>
      } else if (p != "," && p != "::" && p != "&" && p != "&&" && p != "*" &&
                 p != "..." && p != ")" && p != "[" && p != "]") {
        return std::nullopt;  // '.', '->', arithmetic, nested '(' ...
      }
    }
    const bool at_split =
        j == close || (angle == 0 && is_punct(toks[j], ","));
    if (!at_split) continue;

    // one parameter span: [start, j)
    Param prm;
    std::vector<std::size_t> ident_idx;
    for (std::size_t k = start; k < j; ++k) {
      if (is_ident(toks[k])) ident_idx.push_back(k);
      else if (is_punct(toks[k], "&") || is_punct(toks[k], "&&") ||
               is_punct(toks[k], "*")) {
        prm.by_value = false;
      }
    }
    start = j + 1;
    if (ident_idx.empty()) continue;  // "void", "...", empty
    prm.line = toks[ident_idx.front()].line;
    const std::size_t last = ident_idx.back();
    const bool named = ident_idx.size() >= 2 && last > 0 &&
                       !is_punct(toks[last - 1], "::") &&
                       (last + 1 == j || is_punct(toks[last + 1], "["));
    for (std::size_t k : ident_idx) {
      if (named && k == last) continue;
      prm.type_idents.push_back(toks[k].text);
    }
    if (named) prm.name = toks[last].text;
    if (prm.type_idents.size() == 1 && prm.type_idents[0] == "void") continue;
    params.push_back(std::move(prm));
  }
  return params;
}

FileModel build_file_model(const LexedFile& lf) {
  const Tokens& toks = lf.tokens;
  FileModel model;

  // -- classes ---------------------------------------------------------
  std::vector<ClassRange> class_ranges;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "struct") && !is_ident(toks[i], "class")) continue;
    if (i > 0 && (is_ident(toks[i - 1], "enum") ||
                  is_punct(toks[i - 1], "<") || is_punct(toks[i - 1], ",")))
      continue;  // enum class / template parameter
    std::size_t j = i + 1;
    // skip alignas(...)/attribute groups before the name
    while (j < toks.size()) {
      if (is_ident(toks[j], "alignas") && j + 1 < toks.size() &&
          is_punct(toks[j + 1], "(")) {
        j = match_group(toks, j + 1) + 1;
      } else if (is_punct(toks[j], "[")) {
        j = match_group(toks, j) + 1;
      } else {
        break;
      }
    }
    if (j >= toks.size() || !is_ident(toks[j])) continue;
    const std::string name = toks[j].text;
    // find '{' (definition) or ';' (fwd decl / elaborated type) next
    std::size_t k = j + 1;
    std::size_t open = kNpos;
    while (k < toks.size()) {
      if (is_punct(toks[k], "{")) {
        open = k;
        break;
      }
      if (is_punct(toks[k], ";") || is_punct(toks[k], "(") ||
          is_punct(toks[k], ")") || is_punct(toks[k], "="))
        break;  // fwd decl, or `struct X` used as a type in a signature
      ++k;
    }
    if (open == kNpos) continue;
    const std::size_t close = match_group(toks, open);
    if (close >= toks.size()) continue;
    class_ranges.push_back({name, open, close});

    ClassInfo& ci = model.classes[name];
    ci.name = name;

    // -- members at class depth 0 --------------------------------------
    std::size_t m = open + 1;
    while (m < close) {
      const Token& t = toks[m];
      if (is_punct(t, "~") && m + 2 < close && is_ident(toks[m + 1], name.c_str()) &&
          is_punct(toks[m + 2], "(")) {
        // in-class destructor: record which members it wipes
        std::size_t b = match_group(toks, m + 2) + 1;
        while (b < close && !is_punct(toks[b], "{") && !is_punct(toks[b], ";") &&
               !is_punct(toks[b], "="))
          ++b;
        if (b < close && is_punct(toks[b], "{")) {
          const std::size_t bc = match_group(toks, b);
          std::vector<std::string> wiped;
          collect_wipes(toks, b + 1, bc, &wiped);
          for (std::string& w : wiped) ci.dtor_wiped.insert(std::move(w));
          m = bc + 1;
        } else {
          m = skip_statement(toks, b, close);
        }
        continue;
      }
      if (!is_ident(t)) {
        if (is_punct(t, "{") || is_punct(t, "(") || is_punct(t, "[")) {
          m = match_group(toks, m) + 1;
          continue;
        }
        ++m;
        continue;
      }
      const std::string& w = t.text;
      if (w == "public" || w == "private" || w == "protected") {
        m += 2;  // "public" ":"
        continue;
      }
      if (w == "using" || w == "typedef" || w == "friend" ||
          w == "static_assert") {
        m = skip_statement(toks, m, close);
        continue;
      }
      if (w == "template") {
        ++m;
        if (m < close && is_punct(toks[m], "<")) {
          const std::size_t tc = match_angle(toks, m);
          m = (tc == kNpos) ? m + 1 : tc + 1;
        }
        continue;
      }
      if (auto d = parse_decl(toks, m, close)) {
        MemberInfo mi;
        mi.type_idents = d->type_idents;
        ci.members[d->name] = std::move(mi);
        m = skip_statement(toks, d->term, close);
        continue;
      }
      m = skip_statement(toks, m, close);
    }
  }

  auto lexical_class_at = [&](std::size_t idx) -> std::string {
    std::string best;
    std::size_t best_span = kNpos;
    for (const ClassRange& cr : class_ranges) {
      if (idx > cr.open && idx < cr.close && cr.close - cr.open < best_span) {
        best = cr.name;
        best_span = cr.close - cr.open;
      }
    }
    return best;
  };

  // -- namespace-scope globals ----------------------------------------
  {
    struct Scope {
      std::size_t close;
      bool transparent;  // namespace / extern "C" block
    };
    std::vector<Scope> scopes;
    std::size_t i = 0;
    while (i < toks.size()) {
      while (!scopes.empty() && i > scopes.back().close) scopes.pop_back();
      const Token& t = toks[i];
      if (is_punct(t, "#")) {
        // preprocessor directive: consume the rest of its line so
        // `#include <atomic>` never reads as a declaration
        const std::size_t ln = t.line;
        while (i < toks.size() && toks[i].line == ln) ++i;
        continue;
      }
      if (is_ident(t, "namespace")) {
        std::size_t j = i + 1;
        while (j < toks.size() &&
               (is_ident(toks[j]) || is_punct(toks[j], "::")))
          ++j;
        if (j < toks.size() && is_punct(toks[j], "{")) {
          const std::size_t close = match_group(toks, j);
          scopes.push_back({close, true});
          i = j + 1;
          continue;
        }
        i = j + 1;  // namespace alias
        continue;
      }
      if (is_ident(t, "extern") && i + 2 < toks.size() &&
          toks[i + 1].kind == TokKind::kString && is_punct(toks[i + 2], "{")) {
        scopes.push_back({match_group(toks, i + 2), true});
        i += 3;
        continue;
      }
      if (is_punct(t, "{")) {
        const std::size_t close = match_group(toks, i);
        scopes.push_back({close >= toks.size() ? toks.size() : close, false});
        i += 1;
        continue;
      }
      bool at_file_scope = true;
      for (const Scope& s : scopes) at_file_scope &= s.transparent;
      if (at_file_scope && is_ident(t) && !is_ident(t, "template")) {
        if (auto d = parse_decl(toks, i, toks.size())) {
          MemberInfo gi;
          gi.type_idents = d->type_idents;
          model.globals[d->name] = std::move(gi);
          i = skip_statement(toks, d->term, toks.size());
          continue;
        }
      }
      ++i;
    }
  }

  // -- functions (the signature walk formerly in taint.cpp) ------------
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "(")) continue;
    if (i == 0 || !is_ident(toks[i - 1])) continue;
    const std::string& fname = toks[i - 1].text;
    if (kControlKeywords.count(fname)) continue;
    const std::size_t close = match_group(toks, i);
    if (close >= toks.size()) continue;
    std::size_t j = close + 1;
    while (j < toks.size()) {
      if (is_ident(toks[j]) &&
          (toks[j].text == "const" || toks[j].text == "override" ||
           toks[j].text == "final" || toks[j].text == "mutable")) {
        ++j;
        continue;
      }
      if (is_ident(toks[j], "noexcept")) {
        ++j;
        if (j < toks.size() && is_punct(toks[j], "("))
          j = match_group(toks, j) + 1;
        continue;
      }
      if (is_punct(toks[j], "&") || is_punct(toks[j], "&&")) {
        ++j;
        continue;
      }
      break;
    }
    if (j < toks.size() && is_punct(toks[j], "->")) {
      ++j;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";") && !is_punct(toks[j], "="))
        ++j;
    }
    std::vector<MemberInit> inits;
    if (j < toks.size() && is_punct(toks[j], ":")) {
      // constructor member-init list: ident[(...)|{...}] (, ...)* then '{'
      std::vector<MemberInit> pending;
      std::size_t k = j + 1;
      bool ok = true;
      while (k < toks.size()) {
        if (!is_ident(toks[k])) {
          ok = false;
          break;
        }
        MemberInit mi;
        mi.member = toks[k].text;
        mi.line = toks[k].line;
        ++k;
        while (k + 1 < toks.size() && is_punct(toks[k], "::") &&
               is_ident(toks[k + 1])) {
          mi.member = toks[k + 1].text;  // Base::Base style: last component
          k += 2;
        }
        if (k < toks.size() && is_punct(toks[k], "<")) {
          const std::size_t tc = match_angle(toks, k);
          if (tc == kNpos) {
            ok = false;
            break;
          }
          k = tc + 1;
        }
        if (k < toks.size() &&
            (is_punct(toks[k], "(") || is_punct(toks[k], "{"))) {
          mi.args_lo = k + 1;
          const std::size_t gc = match_group(toks, k);
          if (gc >= toks.size()) {
            ok = false;
            break;
          }
          mi.args_hi = gc;
          k = gc + 1;
        } else {
          ok = false;
          break;
        }
        pending.push_back(std::move(mi));
        if (k < toks.size() && is_punct(toks[k], ",")) {
          ++k;
          continue;
        }
        break;
      }
      if (ok && k < toks.size() && is_punct(toks[k], "{")) {
        j = k;
        inits = std::move(pending);
      } else {
        continue;  // ternary or bitfield, not a constructor
      }
    }
    const bool is_def = j < toks.size() && is_punct(toks[j], "{");
    const bool is_decl =
        j < toks.size() && (is_punct(toks[j], ";") || is_punct(toks[j], "="));
    if (!is_def && !is_decl) continue;
    if (!is_def) {
      // A bare `name(args);` is a statement-level CALL, not a declaration;
      // registering it would make the callee "known" and blind the
      // secret-extern-call sink. A real prototype carries a return type
      // (or ~/:: qualifier) right before the name; constructors are
      // exempt via the Uppercase naming convention.
      bool typed = false;
      if (i >= 2) {
        const Token& b = toks[i - 2];
        typed = (b.kind == TokKind::kIdent && !kControlKeywords.count(b.text))
                || is_punct(b, "~") || is_punct(b, "::") ||
                is_punct(b, ">") || is_punct(b, "*") || is_punct(b, "&");
      }
      if (!typed && (fname.empty() ||
                     !std::isupper(static_cast<unsigned char>(fname[0]))))
        continue;
    }
    auto params = parse_params(toks, i, close);
    if (!params) continue;  // expression/call site, not a signature

    FnInfo fn;
    fn.name = fname;
    fn.sig_line = toks[i - 1].line;
    fn.params = std::move(*params);
    fn.inits = std::move(inits);
    fn.is_definition = is_def;
    fn.ctor_like =
        !fname.empty() && std::isupper(static_cast<unsigned char>(fname[0]));
    std::size_t q = i - 1;  // walk back over ~ and Cls:: qualifiers
    if (q > 0 && is_punct(toks[q - 1], "~")) {
      fn.is_dtor = true;
      --q;
    }
    if (q >= 2 && is_punct(toks[q - 1], "::") && is_ident(toks[q - 2]))
      fn.qualifier = toks[q - 2].text;
    fn.lexical_class = lexical_class_at(i);
    if (is_def) {
      fn.body_open = j;
      fn.body_close = match_group(toks, j);
      if (fn.body_close >= toks.size()) continue;
      if (fn.is_dtor)
        collect_wipes(toks, fn.body_open + 1, fn.body_close,
                      &fn.wiped_members);
    }
    model.declared_fns.insert(fn.name);
    model.fns.push_back(std::move(fn));
  }
  return model;
}

}  // namespace medlint
