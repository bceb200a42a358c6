// ct-variable-time: interprocedural tracking of secret operands into
// variable-latency operations — pass 2 engine plus the pass-1 facts hook.
//
// The paper's mediated schemes assume SEM and user key-half operations
// leak nothing through timing. Division and modulus retire in a
// data-dependent number of cycles on every x86 core the tree targets,
// shifts by a secret amount are variable-latency on pre-BMI2 parts, and
// a loop whose trip count or early exit depends on a secret leaks it
// outright. This engine reports four shapes under one check id
// (`ct-variable-time`):
//
//   - a secret-tainted value used as an operand of `/`, `%`, `/=`, `%=`
//     (BigInt::operator/ and operator% are exactly this at call sites);
//   - a secret-tainted value used as a shift amount (`<<`, `>>`, `<<=`,
//     `>>=`; stream inserters are recognized and skipped — the taint
//     engine owns those as secret-taint-escape);
//   - a loop condition or `if`-guarded early exit derived from a secret;
//   - structurally unbounded loops (`for (;;)`, `while (true)`) with a
//     conditional exit: the trip count depends on the loop's inputs, so
//     the site must either be rewritten (the SSWU roadmap item retires
//     try-and-increment) or carry a justified suppression.
//
// Interprocedural: pass 1 records, per function parameter, whether its
// value reaches a variable-latency operation (add_vartime_param_facts,
// called from summary.cpp's facts walk alongside the other facts);
// link_program fixpoints those bits across call edges with the
// chain named, so a secret scalar reaching a division three calls deep
// is flagged at the entry call site as
//   "... variable-latency division/modulus operand (via f() ) (via g())".
#pragma once

#include <string>
#include <vector>

#include "callgraph.h"
#include "common.h"
#include "lexer.h"
#include "summary.h"

namespace medlint {

// Pass-1 hook: scans [lo, hi) (a function body) for direct
// variable-latency uses of each of f's parameters and records the first
// one per parameter in f.params[i].vartime{,_line,_desc}.
void add_vartime_param_facts(const std::vector<Token>& toks, std::size_t lo,
                             std::size_t hi, FnFacts& f);

// Pass-2 engine: reports ct-variable-time findings for one file with the
// linked program in scope.
void run_cttime_checks(const std::string& file, const LexedFile& lf,
                       const FileModel& model, const Program& prog,
                       std::vector<Violation>& out);

}  // namespace medlint
