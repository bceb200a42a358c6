// Structural pass over one translation unit: functions, classes, and
// file-scope globals, extracted from the lexer's token stream.
//
// This is the shared substrate of the interprocedural engine. The taint
// pass (taint.cpp) used to locate function signatures itself; that logic
// now lives here so the summary pass (summary.cpp) and the dataflow pass
// walk the *same* model of the file: every function with its parameter
// list, body token range and constructor member-init entries; every class
// with its members and the set of members its destructor wipes; and the
// file-scope variables that a helper could stash a secret into.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace medlint {

struct Param {
  std::vector<std::string> type_idents;
  std::string name;     // empty for unnamed params
  bool by_value = true;
  std::size_t line = 0;
};

// Parses "(...)" as a parameter list. Returns nullopt when the span reads
// as an expression (numbers, strings, arithmetic, member access, nested
// calls) — which is how call sites are told apart from declarations.
std::optional<std::vector<Param>> parse_params(const std::vector<Token>& toks,
                                               std::size_t open,
                                               std::size_t close);

// One constructor member-init-list entry: member_(args...) / member_{...}.
struct MemberInit {
  std::string member;
  std::size_t args_lo = 0;  // token range inside the parens/braces
  std::size_t args_hi = 0;
  std::size_t line = 0;
};

struct FnInfo {
  std::string name;           // unqualified (last component)
  std::string qualifier;      // Cls in `Cls::name(...)`, last component
  std::string lexical_class;  // class body this signature sits inside
  std::vector<Param> params;
  std::vector<MemberInit> inits;
  std::vector<std::string> wiped_members;  // dtor bodies: members wiped
  bool is_definition = false;
  bool is_dtor = false;
  bool ctor_like = false;  // uppercase first letter: constructor/factory
  std::size_t sig_line = 0;
  std::size_t body_open = 0;   // '{' token index (definitions only)
  std::size_t body_close = 0;  // matching '}' token index

  // Out-of-line definitions carry the class in the qualifier; in-class
  // ones carry it lexically. Either way this is the owning class name.
  const std::string& enclosing_class() const {
    return lexical_class.empty() ? qualifier : lexical_class;
  }
};

struct MemberInfo {
  std::vector<std::string> type_idents;
};

struct ClassInfo {
  std::string name;
  std::map<std::string, MemberInfo> members;
  std::set<std::string> dtor_wiped;  // members wiped in an in-class dtor
};

struct FileModel {
  std::vector<FnInfo> fns;
  std::map<std::string, ClassInfo> classes;
  std::map<std::string, MemberInfo> globals;  // namespace-scope variables
  std::set<std::string> declared_fns;  // every name declared *or* defined
};

FileModel build_file_model(const LexedFile& lf);

}  // namespace medlint
