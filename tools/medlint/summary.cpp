// Function-summary computation (per file) and whole-program linking with a
// fixpoint over call edges.
//
// The facts walk mirrors find_tainted's expression traversal (taint.cpp):
// sanitizers and public accessors hide their arguments, propagators and
// uppercase constructors are transparent, and every other call transforms
// its inputs — its contribution to a summary flows through a CallFact
// edge that the link-time fixpoint resolves against the callee's own
// summary. Keeping the two traversals aligned is what makes a call-site
// verdict ("stash(k) stores k") agree with the definition-site verdict
// ("stash's parameter lands in member 'k_' of Holder").
#include "summary.h"

#include <algorithm>
#include <cctype>

#include "common.h"
#include "cttime.h"

namespace medlint {

namespace {

using Tokens = std::vector<Token>;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// Mutator methods through which an argument's bytes land in the
// receiver's storage: registry_.insert({id, key}) stores key in registry_.
const std::set<std::string> kStoreCalls = {
    "insert",  "insert_or_assign", "push_back",     "emplace",
    "emplace_back", "assign",      "try_emplace",   "push_front",
    "emplace_front", "store",      "set",
};

}  // namespace

// Does [lo, hi) read `name`'s *value*? (Not its public metadata, and not
// through a transforming call.) Exported (summary.h) so cttime.cpp walks
// expressions identically.
bool reads_value(const Tokens& toks, std::size_t lo, std::size_t hi,
                 const std::string& name) {
  std::size_t j = lo;
  hi = std::min(hi, toks.size());
  while (j < hi) {
    const Token& t = toks[j];
    if (!is_ident(t)) {
      ++j;
      continue;
    }
    if (j > lo && (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->"))) {
      ++j;  // member of some other object, not our parameter
      continue;
    }
    std::size_t k = j;
    while (k + 2 < hi && is_punct(toks[k + 1], "::") && is_ident(toks[k + 2]))
      k += 2;
    const std::string& id = toks[k].text;
    if (k + 1 < hi && is_punct(toks[k + 1], "(")) {
      const std::size_t close = match_group(toks, k + 1);
      if (kSanitizerCalls.count(id) || kPublicAccessors.count(id) ||
          verification_call(id)) {
        j = close + 1;  // vetted: arguments hidden
        continue;
      }
      if (kPropagatorCalls.count(id) ||
          (!id.empty() && std::isupper(static_cast<unsigned char>(id[0])))) {
        j = k + 2;  // transparent: scan the arguments
        continue;
      }
      j = close + 1;  // transform: a CallFact edge covers it
      continue;
    }
    if (id == name) {
      bool value = true;  // p.size() / p.key_len declassify the mention
      std::size_t pos = k;
      while (pos + 2 < hi &&
             (is_punct(toks[pos + 1], ".") || is_punct(toks[pos + 1], "->")) &&
             is_ident(toks[pos + 2])) {
        const std::string& mem = toks[pos + 2].text;
        value = !(kPublicAccessors.count(mem) || has_benign_tail(mem) ||
                  public_prefixed(mem));
        pos += 2;
        if (pos + 1 < hi && is_punct(toks[pos + 1], "(")) {
          const std::size_t c = match_group(toks, pos + 1);
          if (c >= hi) break;
          pos = c;
        }
      }
      if (value) return true;
      j = pos + 1;
      continue;
    }
    j = k + 1;
  }
  return false;
}

namespace {

// Exactly `p`, `std::move(p)`, `move(p)` or `std::forward<T>(p)`.
bool is_direct_arg(const Tokens& toks, std::size_t lo, std::size_t hi,
                   const std::string& name) {
  std::size_t j = lo;
  hi = std::min(hi, toks.size());
  if (j + 1 < hi && is_ident(toks[j], "std") && is_punct(toks[j + 1], "::"))
    j += 2;
  if (j >= hi) return false;
  if (hi - j == 1) return is_ident(toks[j], name.c_str());
  if (!is_ident(toks[j], "move") && !is_ident(toks[j], "forward"))
    return false;
  ++j;
  if (j < hi && is_punct(toks[j], "<")) {
    const std::size_t tc = match_angle(toks, j);
    if (tc == kNpos || tc >= hi) return false;
    j = tc + 1;
  }
  if (j >= hi || !is_punct(toks[j], "(")) return false;
  return j + 2 < hi && is_ident(toks[j + 1], name.c_str()) &&
         is_punct(toks[j + 2], ")");
}

// `IbeSemKey record(args...)` is a declaration, not a call to record():
// true when the token before the would-be callee spells a type, so the
// call-fact builder does not link such names to unrelated functions.
bool type_like_ident(const Token& t) {
  static const std::set<std::string> kBuiltins = {
      "auto",  "bool",   "char",     "short", "int",
      "long",  "signed", "unsigned", "float", "double",
  };
  if (!is_ident(t)) return false;
  const std::string& s = t.text;
  if (std::isupper(static_cast<unsigned char>(s[0]))) return true;
  if (kBuiltins.count(s) != 0) return true;
  return s.size() > 2 && s.compare(s.size() - 2, 2, "_t") == 0;
}

// Names declared as locals in the body: a store into one of these is not
// a store into a member or global of the same name (shadowing).
void collect_locals(const Tokens& toks, std::size_t lo, std::size_t hi,
                    std::set<std::string>* out) {
  bool stmt_start = true;
  std::size_t i = lo;
  while (i < hi) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) {
      if (t.kind == TokKind::kPunct) {
        const std::string& p = t.text;
        if (p == "{" || p == "}" || p == ";" || p == "(") stmt_start = true;
        else if (p != ",") stmt_start = false;
      }
      ++i;
      continue;
    }
    if (!stmt_start || kControlKeywords.count(t.text)) {
      // range-for variable: `for (T x : c)` — caught via '(' stmt_start
      ++i;
      stmt_start = false;
      continue;
    }
    // decl shape: [cv]* Type[::T]*[<...>] [&|*]* name (= ; ( { :)
    std::vector<std::string> last_group;
    std::size_t groups = 0;
    std::size_t j = i;
    bool ok = true;
    while (j < hi && is_ident(toks[j])) {
      if (kControlKeywords.count(toks[j].text)) {
        ok = false;
        break;
      }
      last_group.assign(1, toks[j].text);
      ++j;
      while (j + 1 < hi && is_punct(toks[j], "::") && is_ident(toks[j + 1])) {
        last_group.assign(1, toks[j + 1].text);
        j += 2;
      }
      if (j < hi && is_punct(toks[j], "<")) {
        const std::size_t tc = match_angle(toks, j);
        if (tc == kNpos) break;
        j = tc + 1;
      }
      ++groups;
      while (j < hi && (is_punct(toks[j], "&") || is_punct(toks[j], "&&") ||
                        is_punct(toks[j], "*")))
        ++j;
    }
    if (ok && groups >= 2 && j < hi && last_group.size() == 1 &&
        (is_punct(toks[j], "=") || is_punct(toks[j], ";") ||
         is_punct(toks[j], "(") || is_punct(toks[j], "{") ||
         is_punct(toks[j], ":"))) {
      out->insert(last_group[0]);
      i = j;
      stmt_start = false;
      continue;
    }
    ++i;
    stmt_start = false;
  }
}

}  // namespace

bool member_wiping(const ClassInfo& cls, const std::string& member) {
  // A type registered as a secret holder (kSecretTypes / SecureBuffer)
  // is the designated wiping owner by contract — missing-wipe-dtor
  // enforces that its destructor scrubs — so its own member functions
  // storing into its own members is custody transfer, not an escape.
  if (secret_type_ident(cls.name)) return true;
  if (cls.dtor_wiped.count(member)) return true;
  const auto it = cls.members.find(member);
  if (it == cls.members.end()) return false;
  for (const std::string& tid : it->second.type_idents)
    if (secret_type_ident(tid)) return true;  // self-wiping holder type
  return false;
}

FileFacts compute_file_facts(const LexedFile& lf, const FileModel& model) {
  const Tokens& toks = lf.tokens;
  FileFacts ff;
  ff.classes = model.classes;
  ff.globals = model.globals;
  ff.declared = model.declared_fns;

  for (const FnInfo& fn : model.fns) {
    // Out-of-line destructor (~C() in the .cpp, class in the .h): carry
    // its wipes on the class record so linking sees the split definition.
    if (fn.is_dtor && fn.is_definition) {
      const std::string& cname = fn.enclosing_class();
      if (!cname.empty()) {
        ClassInfo& ci = ff.classes[cname];
        if (ci.name.empty()) ci.name = cname;
        for (const std::string& w : fn.wiped_members) ci.dtor_wiped.insert(w);
      }
    }
    if (!fn.is_definition || fn.is_dtor) continue;

    FnFacts f;
    f.name = fn.name;
    f.cls = fn.enclosing_class();
    std::map<std::string, unsigned> pidx;
    for (const Param& p : fn.params) {
      if (!p.name.empty())
        pidx[p.name] = static_cast<unsigned>(f.params.size());
      f.param_names.push_back(p.name);
      f.params.emplace_back();
    }

    // Constructor init-list: member entries are stores; entries that turn
    // out to be base classes resolve through the CallFact instead (the
    // linker skips a StoreFact whose member is not in the owner class).
    for (const MemberInit& mi : fn.inits) {
      for (const auto& [pname, pi] : pidx) {
        if (reads_value(toks, mi.args_lo, mi.args_hi, pname))
          f.params[pi].stores.push_back({f.cls, mi.member, mi.line});
      }
      if (mi.args_lo > 0) {
        CallFact c;
        c.callee = mi.member;
        c.line = mi.line;
        const auto args = split_args(toks, mi.args_lo - 1, mi.args_hi);
        for (std::size_t a = 0; a < args.size(); ++a) {
          for (const auto& [pname, pi] : pidx) {
            if (reads_value(toks, args[a].first, args[a].second, pname))
              c.flows.push_back(
                  {static_cast<unsigned>(a), pi,
                   is_direct_arg(toks, args[a].first, args[a].second, pname)});
          }
        }
        if (!c.flows.empty()) f.calls.push_back(std::move(c));
      }
    }

    const std::size_t lo = fn.body_open + 1;
    const std::size_t hi = std::min(fn.body_close, toks.size());
    std::set<std::string> locals;
    collect_locals(toks, lo, hi, &locals);

    std::vector<std::pair<std::size_t, std::size_t>> ret_ranges;
    std::size_t i = lo;
    while (i < hi) {
      const Token& t = toks[i];
      if (!is_ident(t)) {
        ++i;
        continue;
      }
      if (i > lo && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                     is_punct(toks[i - 1], "::"))) {
        ++i;  // handled from the chain's base identifier
        continue;
      }
      const std::string& w = t.text;
      if (w == "return") {
        const std::size_t rend = stmt_end(toks, i + 1, hi);
        for (const auto& [pname, pi] : pidx) {
          if (reads_value(toks, i + 1, rend, pname))
            f.params[pi].escapes_return = true;
        }
        ret_ranges.push_back({i + 1, rend});
        ++i;
        continue;
      }
      if (w == "secure_wipe" && i + 2 < hi && is_punct(toks[i + 1], "(") &&
          is_ident(toks[i + 2])) {
        const auto it = pidx.find(toks[i + 2].text);
        if (it != pidx.end()) f.params[it->second].wiped = true;
      }
      if (pidx.count(w) && i + 3 < hi &&
          (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
          (is_ident(toks[i + 2], "wipe") || is_ident(toks[i + 2], "clear")) &&
          is_punct(toks[i + 3], "(")) {
        f.params[pidx[w]].wiped = true;
      }

      // qualified-call prefix: walk to the last component
      std::size_t base = i;
      while (base + 2 < hi && is_punct(toks[base + 1], "::") &&
             is_ident(toks[base + 2]))
        base += 2;
      std::vector<std::string> path{toks[base].text};
      std::size_t j = base + 1;
      while (j + 1 < hi &&
             (is_punct(toks[j], ".") || is_punct(toks[j], "->")) &&
             is_ident(toks[j + 1])) {
        path.push_back(toks[j + 1].text);
        j += 2;
        if (j < hi && is_punct(toks[j], "[")) break;  // subscript below
      }
      while (j < hi && is_punct(toks[j], "[")) {
        const std::size_t c = match_group(toks, j);
        if (c >= hi) break;
        j = c + 1;
      }
      const std::string& head = path.front();

      if (j < hi && toks[j].kind == TokKind::kPunct) {
        const std::string& op = toks[j].text;
        if (op == "=" || op == "+=" || op == "-=" || op == "|=" ||
            op == "&=" || op == "^=") {
          const std::size_t end = stmt_end(toks, j, hi);
          std::string member;
          bool candidate = false;
          if (head == "this" && path.size() >= 2) {
            member = path[1];
            candidate = true;
          } else if (path.size() == 1 && !locals.count(head) &&
                     !pidx.count(head) && !kControlKeywords.count(head)) {
            member = head;
            candidate = true;
          }
          if (pidx.count(head) && path.size() == 1) {
            // by-ref parameter as an out-channel: out = secret
            const unsigned tgt = pidx[head];
            if (tgt < fn.params.size() && !fn.params[tgt].by_value) {
              for (const auto& [pname, pi] : pidx) {
                if (pi == tgt) continue;
                if (!reads_value(toks, j + 1, end, pname)) continue;
                auto& of = f.params[pi].out_flows;
                if (std::find(of.begin(), of.end(), tgt) == of.end())
                  of.push_back(tgt);
              }
            }
          } else if (candidate) {
            for (const auto& [pname, pi] : pidx) {
              if (reads_value(toks, j + 1, end, pname))
                f.params[pi].stores.push_back({f.cls, member, t.line});
            }
          }
          ++i;
          continue;  // rhs still scanned token-wise for nested calls
        }
        if (op == "(") {
          const std::size_t close = match_group(toks, j);
          if (close < hi) {
            const std::string& callee = path.back();
            const auto args = split_args(toks, j, close);
            if (path.size() >= 2 && kStoreCalls.count(callee)) {
              // mutator store: receiver_.insert(..., key) keeps the bytes
              std::string member;
              bool candidate = false;
              if (head == "this" && path.size() >= 3) {
                member = path[1];
                candidate = true;
              } else if (path.size() == 2 && !locals.count(head) &&
                         !pidx.count(head)) {
                member = head;
                candidate = true;
              }
              const bool ref_param_recv =
                  path.size() == 2 && pidx.count(head) &&
                  pidx[head] < fn.params.size() &&
                  !fn.params[pidx[head]].by_value;
              for (const auto& [pname, pi] : pidx) {
                bool hit = false;
                for (const auto& [alo, ahi] : args)
                  if (reads_value(toks, alo, ahi, pname)) hit = true;
                if (!hit) continue;
                if (candidate) {
                  f.params[pi].stores.push_back({f.cls, member, t.line});
                } else if (ref_param_recv && pidx[head] != pi) {
                  auto& of = f.params[pi].out_flows;
                  if (std::find(of.begin(), of.end(), pidx[head]) == of.end())
                    of.push_back(pidx[head]);
                }
              }
            } else if (!kControlKeywords.count(callee) &&
                       !kSanitizerCalls.count(callee) &&
                       !kPublicAccessors.count(callee) &&
                       !kPropagatorCalls.count(callee) &&
                       !verification_call(callee) &&
                       !(!callee.empty() &&
                         std::isupper(static_cast<unsigned char>(callee[0]))) &&
                       !(i > lo && type_like_ident(toks[i - 1]))) {
              CallFact c;
              c.callee = callee;
              c.line = t.line;
              for (const auto& [rlo, rhi] : ret_ranges) {
                if (i >= rlo && i < rhi) c.result_to_return = true;
              }
              for (std::size_t a = 0; a < args.size(); ++a) {
                for (const auto& [pname, pi] : pidx) {
                  if (reads_value(toks, args[a].first, args[a].second,
                                     pname))
                    c.flows.push_back({static_cast<unsigned>(a), pi,
                                       is_direct_arg(toks, args[a].first,
                                                     args[a].second, pname)});
                }
              }
              if (!c.flows.empty()) f.calls.push_back(std::move(c));
            }
          }
        }
      }
      ++i;
    }
    // v4: direct variable-latency uses of each parameter (division,
    // shift amounts, loop bounds) — the per-TU seed the ct-variable-time
    // fixpoint chains across call edges (cttime.cpp).
    add_vartime_param_facts(toks, lo, hi, f);
    ff.fns.push_back(std::move(f));
  }
  return ff;
}

Program link_program(const std::vector<FileFacts>& files) {
  Program prog;

  // -- merge classes / globals / declared names ------------------------
  for (const FileFacts& ff : files) {
    for (const auto& [name, ci] : ff.classes) {
      ClassInfo& dst = prog.classes[name];
      if (dst.name.empty()) {
        dst = ci;
        continue;
      }
      for (const std::string& w : ci.dtor_wiped) dst.dtor_wiped.insert(w);
      for (const auto& [mn, mi] : ci.members) dst.members.emplace(mn, mi);
    }
    for (const auto& [name, gi] : ff.globals) {
      if (!prog.globals.count(name)) prog.globals[name] = gi;
    }
    for (const std::string& d : ff.declared) prog.declared.insert(d);
  }

  // -- seed summaries from direct facts --------------------------------
  std::vector<const FnFacts*> flat;
  for (const FileFacts& ff : files) {
    for (const FnFacts& f : ff.fns) {
      flat.push_back(&f);
      FnSummary& s = prog.fns[f.name];
      s.has_definition = true;
      if (s.params.size() < f.params.size()) s.params.resize(f.params.size());
      for (std::size_t p = 0; p < f.params.size(); ++p) {
        ParamFx& fx = s.params[p];
        const ParamFacts& pf = f.params[p];
        fx.escapes_return |= pf.escapes_return;
        fx.wiped |= pf.wiped;
        if (pf.vartime && !fx.vartime) {
          fx.vartime = true;
          fx.vartime_desc = pf.vartime_desc;
          fx.vartime_line = pf.vartime_line;
        }
        for (unsigned o : pf.out_flows) {
          if (std::find(fx.out_flows.begin(), fx.out_flows.end(), o) ==
              fx.out_flows.end())
            fx.out_flows.push_back(o);
        }
        for (const StoreFact& st : pf.stores) {
          if (!st.owner.empty()) {
            const auto ci = prog.classes.find(st.owner);
            if (ci != prog.classes.end() &&
                ci->second.members.count(st.member)) {
              if (member_wiping(ci->second, st.member)) {
                fx.stored_wiped = true;
              } else if (!fx.stored_unwiped) {
                fx.stored_unwiped = true;
                fx.store_desc =
                    "member '" + st.member + "' of " + st.owner;
                fx.store_line = st.line;
              }
              continue;
            }
          }
          // Class-like init entries (delegating/base constructors) carry
          // a type name, not a variable; the CallFact resolves those.
          if (!st.member.empty() &&
              std::isupper(static_cast<unsigned char>(st.member[0])))
            continue;
          const auto gi = prog.globals.find(st.member);
          if (gi != prog.globals.end()) {
            bool self_wiping = false;
            for (const std::string& tid : gi->second.type_idents)
              if (secret_type_ident(tid)) self_wiping = true;
            if (self_wiping) {
              fx.stored_wiped = true;
            } else if (!fx.stored_unwiped) {
              fx.stored_unwiped = true;
              fx.store_desc = "namespace-scope global '" + st.member + "'";
              fx.store_line = st.line;
            }
          }
          // neither a visible member nor a known global: a base-class
          // init entry or a shadowed name — resolved via CallFacts or
          // dropped as unknowable
        }
      }
    }
  }

  // -- fixpoint: stores and return-escapes propagate along call edges --
  for (int sweep = 0; sweep < 20; ++sweep) {
    bool changed = false;
    for (const FnFacts* f : flat) {
      FnSummary& s = prog.fns[f->name];
      for (const CallFact& c : f->calls) {
        const auto cs = prog.fns.find(c.callee);
        if (cs == prog.fns.end()) continue;
        for (const CallFact::ArgFlow& fl : c.flows) {
          if (fl.arg >= cs->second.params.size()) continue;
          if (fl.param >= s.params.size()) continue;
          const ParamFx& callee_fx = cs->second.params[fl.arg];
          ParamFx& fx = s.params[fl.param];
          if (c.result_to_return && callee_fx.escapes_return &&
              !fx.escapes_return) {
            fx.escapes_return = true;
            changed = true;
          }
          if (callee_fx.stored_unwiped && !fx.stored_unwiped) {
            fx.stored_unwiped = true;
            fx.store_desc =
                callee_fx.store_desc + " (via " + c.callee + "())";
            fx.store_line = c.line;
            changed = true;
          }
          // A secret reaching a division three calls deep is flagged at
          // the entry site with the chain named, exactly like stores.
          if (callee_fx.vartime && !fx.vartime) {
            fx.vartime = true;
            fx.vartime_desc =
                callee_fx.vartime_desc + " (via " + c.callee + "())";
            fx.vartime_line = c.line;
            changed = true;
          }
        }
      }
    }
    if (!changed) break;
  }
  return prog;
}

}  // namespace medlint
