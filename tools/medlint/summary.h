// Pass 1 of the interprocedural engine: per-function summaries and the
// linked whole-program view the dataflow passes consume.
//
// For every function definition the facts pass records, per parameter:
//   - escapes into the return value (directly, or through a call chain
//     whose callees' summaries say the value flows back out);
//   - is stored beyond the call into a class member or a namespace-scope
//     global (directly, or transitively through callees) — resolved at
//     link time into "wiped" (SecureBuffer / dtor-wiped member) versus
//     "unwiped" storage;
//   - flows into a by-reference out-parameter;
//   - is wiped by the function (secure_wipe / .wipe() / .clear()).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "callgraph.h"

namespace medlint {

// One store of a parameter's value into long-lived state, recorded
// against raw names; wiped/unwiped classification happens at link time
// when every class definition is visible.
struct StoreFact {
  std::string owner;   // enclosing class of the storing function ("" = free)
  std::string member;  // assigned member or global name
  std::size_t line = 0;
};

struct ParamFacts {
  bool escapes_return = false;
  bool wiped = false;
  std::vector<StoreFact> stores;
  std::vector<unsigned> out_flows;  // by-ref param indices this value reaches
  // v4 constant-time facts: the parameter's value reaches a
  // variable-latency operation (division/modulus, a shift amount, a loop
  // trip count) somewhere in this function's body.
  bool vartime = false;
  std::size_t vartime_line = 0;
  std::string vartime_desc;  // "division operand" / "loop bound" / ...
};

// A call inside a function that forwards one of the function's own
// parameters — the edges the link-time fixpoint propagates over.
struct CallFact {
  std::string callee;
  std::size_t line = 0;
  bool result_to_return = false;
  struct ArgFlow {
    unsigned arg;    // callee argument position
    unsigned param;  // caller parameter index
    bool direct;     // arg is the bare param / std::move(param)
  };
  std::vector<ArgFlow> flows;
};

struct FnFacts {
  std::string name;
  std::string cls;  // effective enclosing class ("" for free functions)
  std::vector<std::string> param_names;
  std::vector<ParamFacts> params;
  std::vector<CallFact> calls;
};

struct FileFacts {
  std::vector<FnFacts> fns;
  std::map<std::string, ClassInfo> classes;
  std::map<std::string, MemberInfo> globals;
  std::set<std::string> declared;
};

// Linked, fixpointed view of one parameter as call sites see it.
struct ParamFx {
  bool escapes_return = false;
  bool wiped = false;
  bool stored_unwiped = false;
  bool stored_wiped = false;
  std::string store_desc;  // "member 'x_' of C" / "global 'g'" / via-chain
  std::size_t store_line = 0;
  std::vector<unsigned> out_flows;
  // ct-variable-time: this parameter's value reaches a variable-latency
  // operation, directly or through a callee chain (the desc names it).
  bool vartime = false;
  std::size_t vartime_line = 0;
  std::string vartime_desc;
};

struct FnSummary {
  std::vector<ParamFx> params;
  bool has_definition = false;
};

struct Program {
  std::map<std::string, FnSummary> fns;  // merged over overload sets
  std::map<std::string, ClassInfo> classes;
  std::map<std::string, MemberInfo> globals;
  std::set<std::string> declared;
  std::set<std::string> extern_allow;

  const FnSummary* summary(const std::string& name) const {
    const auto it = fns.find(name);
    return it == fns.end() ? nullptr : &it->second;
  }
  // A name with any visible declaration or definition is not "external":
  // the conservative extern-call sink only fires on truly unknown names.
  bool known(const std::string& name) const {
    return declared.count(name) != 0 || fns.count(name) != 0;
  }
  const ClassInfo* find_class(const std::string& name) const {
    const auto it = classes.find(name);
    return it == classes.end() ? nullptr : &it->second;
  }
};

// True when storing into this member of this class keeps the bytes
// wipe-disciplined: SecureBuffer / a self-wiping secret holder type / a
// member the destructor wipes.
bool member_wiping(const ClassInfo& cls, const std::string& member);

// Does [lo, hi) read `name`'s *value*? Not its public metadata
// (size()/bit_length()/_len tails declassify) and not through a
// transforming call. This is the expression traversal every pass must
// share — exported so the ct-variable-time engine (cttime.cpp) asks the
// same question the summary pass does.
bool reads_value(const std::vector<Token>& toks, std::size_t lo,
                 std::size_t hi, const std::string& name);

FileFacts compute_file_facts(const LexedFile& lf, const FileModel& model);

// Merges per-file facts, runs the store/return fixpoint over call edges,
// and resolves stores against the merged class table.
Program link_program(const std::vector<FileFacts>& files);

}  // namespace medlint
