// medlint integration tests: run the real binary against fixture trees
// with known violations and assert the diagnostics (file:line and check
// id), the exit codes, and the allowlist behavior.
//
// MEDLINT_BIN and MEDLINT_FIXTURES are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_medlint(const std::string& args) {
  const std::string cmd = std::string(MEDLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to spawn: " << cmd;
  RunResult r;
  if (!pipe) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixtures(const std::string& sub) {
  return std::string(MEDLINT_FIXTURES) + "/" + sub;
}

TEST(Medlint, FlagsEveryViolationWithFileAndLine) {
  const RunResult r = run_medlint("--src " + fixtures("bad"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // One diagnostic per planted violation, each at its exact line.
  EXPECT_NE(r.output.find("viol.cpp:8: [missing-wipe-dtor]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("viol.cpp:9: [secret-vector]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("viol.cpp:13: [secret-memcmp]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("viol.cpp:17: [banned-randomness]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("viol.cpp:22: [secret-equality]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("viol.cpp:29: [secret-return-by-value]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("6 violation(s)"), std::string::npos) << r.output;
}

TEST(Medlint, CommentsAndStringsDoNotFire) {
  // bad/viol.cpp plants memcmp( in a comment and rand( in a string;
  // the exact count of 6 above already proves neither fired. This test
  // pins the property on the clean tree too.
  const RunResult r = run_medlint("--src " + fixtures("clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(Medlint, WipingDestructorSatisfiesSecretTypeCheck) {
  // clean/ok.cpp defines PrivateKey *with* a wiping destructor and
  // compares only _len-suffixed metadata: zero findings.
  const RunResult r = run_medlint("--src " + fixtures("clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(Medlint, AllowlistSuppressesVettedFindings) {
  const RunResult r = run_medlint("--src " + fixtures("bad") +
                                  " --allowlist " + fixtures("allow.txt"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s), 6 allowlisted"), std::string::npos)
      << r.output;
}

TEST(Medlint, ListChecksEnumeratesAllThirteen) {
  const RunResult r = run_medlint("--list-checks");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* id :
       {"secret-memcmp", "secret-equality", "secret-vector",
        "banned-randomness", "missing-wipe-dtor", "secret-return-by-value",
        "secret-taint-escape", "secret-branch", "leaky-early-return",
        "secret-param-by-value", "obs-secret-arg", "secret-extern-call",
        "ct-variable-time"}) {
    EXPECT_NE(r.output.find(id), std::string::npos) << id;
  }
  std::size_t lines = 0;
  for (const char c : r.output) lines += c == '\n';
  EXPECT_EQ(lines, 13u) << r.output;
}

// ---------------------------------------------------------------------------
// obs-secret-arg: instrumentation must never see key material
// ---------------------------------------------------------------------------

TEST(Medlint, ObsSecretArgFlagsSecretNamesInObsCalls) {
  const RunResult r = run_medlint("--src " + fixtures("obs_bad"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("obs_viol.cpp:18: [obs-secret-arg]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("obs_viol.cpp:19: [obs-secret-arg]"),
            std::string::npos)
      << r.output;
  // The benign-metadata tail (key_len) on line 20 must stay quiet.
  EXPECT_EQ(r.output.find("obs_viol.cpp:20"), std::string::npos) << r.output;
  // Trace-baggage lines: the bare trace_annotate call (29) and the
  // qualified one (30) are flagged; the public-metadata one (31) is not.
  EXPECT_NE(r.output.find("obs_viol.cpp:29: [obs-secret-arg]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("obs_viol.cpp:30: [obs-secret-arg]"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("obs_viol.cpp:31"), std::string::npos) << r.output;
}

TEST(Medlint, ObsSecretArgIgnoresStageEnumsCalleesAndMetadata) {
  const RunResult r = run_medlint("--src " + fixtures("obs_clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("obs-secret-arg"), std::string::npos) << r.output;
}

TEST(Medlint, BadUsageExitsTwo) {
  EXPECT_EQ(run_medlint("--nonsense").exit_code, 2);
  EXPECT_EQ(run_medlint("--src /nonexistent-medlint-dir").exit_code, 2);
  // A file that is not C++ source must be a clean usage error, not a crash.
  EXPECT_EQ(run_medlint("--src " + fixtures("allow.txt")).exit_code, 2);
}

TEST(Medlint, SrcAcceptsASingleSourceFile) {
  // The tier-1 gate lints the CLI tools file by file next to src/.
  const RunResult r = run_medlint("--src " + fixtures("bad/viol.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("viol.cpp:13: [secret-memcmp]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("scanned 1 file(s), 6 violation(s)"),
            std::string::npos)
      << r.output;
}

// ---------------------------------------------------------------------------
// v2: dataflow checks
// ---------------------------------------------------------------------------

TEST(MedlintDataflow, FlagsEveryTaintEscapeSink) {
  const RunResult r = run_medlint("--src " + fixtures("taint_bad"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Bytes copy, throw, stream, log call, assignment — one per sink.
  for (const char* hit :
       {"escape.cpp:8: [secret-taint-escape]",
        "escape.cpp:13: [secret-taint-escape]",
        "escape.cpp:17: [secret-taint-escape]",
        "escape.cpp:21: [secret-taint-escape]",
        "escape.cpp:25: [secret-taint-escape]"}) {
    EXPECT_NE(r.output.find(hit), std::string::npos) << hit << "\n" << r.output;
  }
}

TEST(MedlintDataflow, FlagsSecretDependentControlFlow) {
  const RunResult r = run_medlint("--src " + fixtures("taint_bad"));
  // if condition, array index, ternary, loop condition.
  for (const char* hit :
       {"branch.cpp:6: [secret-branch]", "branch.cpp:13: [secret-branch]",
        "branch.cpp:17: [secret-branch]", "branch.cpp:22: [secret-branch]"}) {
    EXPECT_NE(r.output.find(hit), std::string::npos) << hit << "\n" << r.output;
  }
}

TEST(MedlintDataflow, FlagsWipeSkippingEarlyExit) {
  const RunResult r = run_medlint("--src " + fixtures("taint_bad"));
  EXPECT_NE(r.output.find("leaky.cpp:12: [leaky-early-return]"),
            std::string::npos)
      << r.output;
}

TEST(MedlintDataflow, FlagsSecretParamsTakenByValue) {
  const RunResult r = run_medlint("--src " + fixtures("taint_bad"));
  EXPECT_NE(r.output.find("param.cpp:5: [secret-param-by-value]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("param.cpp:6: [secret-param-by-value]"),
            std::string::npos)
      << r.output;
  // The whole bad tree: exactly the planted findings, nothing more.
  // (12 v2 dataflow findings + the 2 ct-variable-time findings the v4
  // engine adds on branch.cpp's secret early exit and loop condition.)
  EXPECT_NE(r.output.find("14 violation(s)"), std::string::npos) << r.output;
}

TEST(MedlintDataflow, SanctionedIdiomsStayClean) {
  // Wiped working copies, masked_ blinding targets, size()/ct_equal/
  // verify_* gates, wipe-before-early-return, views and reference params,
  // ownership-transfer constructors: zero findings.
  const RunResult r = run_medlint("--src " + fixtures("taint_clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// v2: lexer / stripper regressions
// ---------------------------------------------------------------------------

TEST(MedlintStripper, LiteralsAndContinuationsCannotSmuggleOrMask) {
  // Raw strings (default and custom delimiters), escaped quotes, a string
  // continued with backslash-newline, and a line comment continued the
  // same way all contain banned text; only the real memcmp may fire —
  // and it must, proving the lexer resynchronized after each construct.
  const RunResult r = run_medlint("--src " + fixtures("stripper"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("tricky.cpp:12: [secret-memcmp]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// v2: suppression mechanisms
// ---------------------------------------------------------------------------

TEST(MedlintSuppress, InlineAllowCoversOwnLineAndNextLine) {
  const RunResult r = run_medlint("--src " + fixtures("inline_allow"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 inline-suppressed"), std::string::npos)
      << r.output;
}

TEST(MedlintSuppress, BaselineRequiresJustificationComment) {
  const RunResult bare =
      run_medlint("--src " + fixtures("bad") + " --baseline " +
                  fixtures("baseline_unjustified.txt"));
  EXPECT_EQ(bare.exit_code, 2) << bare.output;
  EXPECT_NE(bare.output.find("justification"), std::string::npos)
      << bare.output;

  const RunResult ok = run_medlint("--src " + fixtures("bad") + " --baseline " +
                                   fixtures("baseline_justified.txt"));
  EXPECT_EQ(ok.exit_code, 1) << ok.output;  // 5 findings remain
  EXPECT_NE(ok.output.find("1 baselined"), std::string::npos) << ok.output;
}

// ---------------------------------------------------------------------------
// v2: SARIF output
// ---------------------------------------------------------------------------

TEST(MedlintSarif, EmitsRulesAndResults) {
  const std::string sarif = "medlint_test_out.sarif";
  const RunResult r =
      run_medlint("--src " + fixtures("bad") + " --sarif " + sarif);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::string contents;
  {
    FILE* f = std::fopen(sarif.c_str(), "r");
    ASSERT_NE(f, nullptr) << "SARIF file not written";
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      contents.append(buf, n);
    std::fclose(f);
  }
  std::remove(sarif.c_str());
  EXPECT_NE(contents.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\": \"medlint\""), std::string::npos);
  EXPECT_NE(contents.find("\"ruleId\": \"secret-memcmp\""), std::string::npos);
  EXPECT_NE(contents.find("\"startLine\": 13"), std::string::npos);
  // Every check is listed as a rule even when it produced no result.
  EXPECT_NE(contents.find("\"id\": \"leaky-early-return\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// v3: interprocedural summaries
// ---------------------------------------------------------------------------

TEST(MedlintInterproc, FlagsCrossFunctionStashesAtTheCallSite) {
  const RunResult r = run_medlint("--src " + fixtures("interproc_bad"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // The ROADMAP shape: helper stores its secret argument in a non-wiping
  // member; the *call site* carries the diagnostic.
  EXPECT_NE(r.output.find("stash.cpp:15: [secret-taint-escape]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("non-wiping member 'held_' of TokenCache"),
            std::string::npos)
      << r.output;
  // Namespace-scope global store inside the same TU.
  EXPECT_NE(r.output.find("stash.cpp:22: [secret-taint-escape]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("6 violation(s)"), std::string::npos) << r.output;
}

TEST(MedlintInterproc, ChainsSummariesAcrossTwoHops) {
  const RunResult r = run_medlint("--src " + fixtures("interproc_bad"));
  EXPECT_NE(r.output.find("twohop.cpp:16: [secret-taint-escape]"),
            std::string::npos)
      << r.output;
  // The diagnostic names the chain so the report is actionable.
  EXPECT_NE(r.output.find("(via keep())"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(via hop2())"), std::string::npos) << r.output;
  // hop1/hop2 themselves pass non-secret-named params; only the entry
  // point where an actual secret enters the chain is flagged.
  EXPECT_EQ(r.output.find("twohop.cpp:12"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("twohop.cpp:13"), std::string::npos) << r.output;
}

TEST(MedlintInterproc, MergesOverloadSetsConservatively) {
  const RunResult r = run_medlint("--src " + fixtures("interproc_bad"));
  EXPECT_NE(r.output.find("overload.cpp:15: [secret-taint-escape]"),
            std::string::npos)
      << r.output;
}

TEST(MedlintInterproc, ExternalAndIndirectCallsAreConservativeSinks) {
  const RunResult r = run_medlint("--src " + fixtures("interproc_bad"));
  EXPECT_NE(r.output.find("extern.cpp:9: [secret-extern-call]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("no visible definition or declaration"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("extern.cpp:14: [secret-extern-call]"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("function pointer / std::function"),
            std::string::npos)
      << r.output;
}

TEST(MedlintInterproc, ExternAllowlistVetsNamedCallees) {
  const RunResult r =
      run_medlint("--src " + fixtures("interproc_bad") +
                  " --extern-allowlist " + fixtures("extern_allow.txt"));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // other findings remain
  // transmit is vetted; the indirect std::function sink cannot be named
  // and stays flagged.
  EXPECT_EQ(r.output.find("extern.cpp:9"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("extern.cpp:14"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("5 violation(s)"), std::string::npos) << r.output;
}

TEST(MedlintInterproc, WipedStorageRecursionAndDeclaredCalleesStayClean) {
  // The green counterparts: a wiping-destructor token cache, a declared
  // (not external) transmit, self-recursion, and a wiping callee.
  const RunResult r = run_medlint("--src " + fixtures("interproc_clean"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// v3: stats, stale baselines
// ---------------------------------------------------------------------------

TEST(MedlintStats, ReportsTimingAndPerCheckCounts) {
  const RunResult r = run_medlint("--src " + fixtures("taint_bad") + " --stats");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("medlint stats:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("analysis time:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("findings by check (pre-suppression):"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("secret-branch: 4"), std::string::npos) << r.output;
}

TEST(MedlintSuppress, StaleBaselineEntriesFailTheRun) {
  const RunResult r = run_medlint("--src " + fixtures("bad") + " --baseline " +
                                  fixtures("baseline_stale.txt"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("stale baseline entry"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("removed_long_ago.cpp:secret-memcmp"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("may only shrink"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// v4: ct-variable-time — secrets reaching variable-latency operations
// ---------------------------------------------------------------------------

TEST(MedlintCt, FlagsEveryVariableTimeShape) {
  const RunResult r = run_medlint("--src " + fixtures("ct_bad") +
                                  " --check ct-variable-time");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Direct shapes: division/modulus operand, shift amount, loop trip
  // count, and a secret-controlled early exit.
  EXPECT_NE(r.output.find("vartime.cpp:12: [ct-variable-time] secret "
                          "'secret_d' reaches a variable-latency "
                          "division/modulus operand"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("vartime.cpp:17: [ct-variable-time] secret "
                          "'priv_key' reaches a variable-latency "
                          "division/modulus operand"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("vartime.cpp:22: [ct-variable-time] secret "
                          "'secret_scalar' reaches a variable-latency shift "
                          "amount"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("vartime.cpp:28: [ct-variable-time] secret "
                          "'secret_exponent' reaches a loop trip count"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "vartime.cpp:37: [ct-variable-time] secret 'master_key' "
                "controls an early exit (branch timing leaks it)"),
            std::string::npos)
      << r.output;
  // Structural findings: unbounded loops whose exit depends on data.
  EXPECT_NE(r.output.find("unbounded.cpp:11: [ct-variable-time] unbounded "
                          "loop with a data-dependent exit"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unbounded.cpp:18"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("9 violation(s)"), std::string::npos) << r.output;
}

TEST(MedlintCt, NamesTheCallChainAtTheEntrySite) {
  // entry() -> middle() -> inner_mod(): the division is two calls deep,
  // but the finding lands at entry's call site and names the chain.
  const RunResult r = run_medlint("--src " + fixtures("ct_bad") +
                                  " --check ct-variable-time");
  EXPECT_NE(r.output.find("chain.cpp:17: [ct-variable-time] secret "
                          "'secret_key' reaches a variable-latency "
                          "division/modulus operand (via inner_mod()) "
                          "through 'middle()'"),
            std::string::npos)
      << r.output;
}

TEST(MedlintCt, SanctionedPublicIdiomsStayClean) {
  // PublicKey-typed params, _len/_bits metadata, size() accessors,
  // ct_equal/verify_tag gates, and counted loops: zero findings.
  const RunResult r = run_medlint("--src " + fixtures("ct_clean") +
                                  " --check ct-variable-time");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

// ---------------------------------------------------------------------------
// v4: golden SARIF — byte-exact output of the constant-time engine
// ---------------------------------------------------------------------------

TEST(MedlintSarif, GoldenV4MatchesByteForByte) {
  const std::string sarif = "medlint_test_v4.sarif";
  const RunResult r = run_medlint("--src " + fixtures("ct_bad") +
                                  " --check ct-variable-time --sarif " +
                                  sarif);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  const auto slurp = [](const std::string& path) {
    std::string contents;
    FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << "cannot open " << path;
    if (!f) return contents;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      contents.append(buf, n);
    std::fclose(f);
    return contents;
  };
  const std::string actual = slurp(sarif);
  std::remove(sarif.c_str());
  // The golden file abstracts the fixtures prefix as @FIXTURES@; SARIF
  // URIs mirror the --src arguments, so substituting the prefix used
  // above reproduces the expected bytes exactly.
  std::string expected = slurp(fixtures("golden_v4.sarif"));
  const std::string placeholder = "@FIXTURES@";
  std::size_t pos = 0;
  while ((pos = expected.find(placeholder, pos)) != std::string::npos) {
    expected.replace(pos, placeholder.size(), MEDLINT_FIXTURES);
    pos += std::string(MEDLINT_FIXTURES).size();
  }
  EXPECT_EQ(actual, expected);
}

TEST(Medlint, CheckFlagRestrictsEnginesAndRejectsUnknownIds) {
  // Scoping to the constant-time engine silences the lexical findings.
  const RunResult scoped = run_medlint("--src " + fixtures("bad") +
                                       " --check ct-variable-time");
  EXPECT_EQ(scoped.exit_code, 0) << scoped.output;
  EXPECT_NE(scoped.output.find("0 violation(s)"), std::string::npos)
      << scoped.output;
  // Unknown check ids are a usage error, not a silent no-op.
  EXPECT_EQ(run_medlint("--src " + fixtures("bad") +
                        " --check no-such-check")
                .exit_code,
            2);
}

}  // namespace
