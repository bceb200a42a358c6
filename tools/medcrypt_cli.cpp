// medcrypt_cli — a file-based command-line front end for the mediated
// IBE system, demonstrating a full deployment across separate process
// invocations (state persisted as hex in a directory).
//
//   medcrypt_cli setup <dir>                       create PKG + SEM state
//   medcrypt_cli enroll <dir> <identity>           split + store keys
//   medcrypt_cli encrypt <dir> <identity> <text>   print ciphertext hex
//   medcrypt_cli decrypt <dir> <identity> <hex>    mediated decryption
//   medcrypt_cli revoke <dir> <identity>           instant revocation
//   medcrypt_cli unrevoke <dir> <identity>
//   medcrypt_cli status <dir>                      list users/revocations
//   medcrypt_cli stats <dir> [ops] [--prom|--json] in-process stress run,
//                                                  dump live obs snapshot
//
// Two further commands run self-contained (no <dir> state):
//
//   medcrypt_cli load [--scenario NAME|all] [--users N] [--ops N]
//                     [--threads N] [--batch N] [--toy] [--out FILE]
//       capacity-planning scenario run (src/sim/scenario.h); emits the
//       machine-readable capacity report for tools/capacity_report.py.
//   medcrypt_cli slo [--report FILE]
//       SLO burn-rate table — from a saved capacity report, or from a
//       fresh short live run when no report is given.
//
// The "SEM" and the "user" are this same binary reading different key
// files; a real deployment would put sem.d/* behind a network service.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bigint/kernels/kernels.h"
#include "hash/drbg.h"
#include "mediated/mediated_ibe.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "pairing/params.h"
#include "sim/scenario.h"

namespace fs = std::filesystem;
using namespace medcrypt;

namespace {

constexpr std::size_t kBlock = 32;

void write_file(const fs::path& p, const std::string& content) {
  std::ofstream out(p);
  if (!out) throw Error("cannot write " + p.string());
  out << content << "\n";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  if (!in) throw Error("cannot read " + p.string() + " (run setup/enroll?)");
  std::string line;
  std::getline(in, line);
  return line;
}

// State layout: <dir>/master.key, <dir>/ppub.pt, <dir>/sem.d/<id>.pt,
// <dir>/users/<id>.pt, <dir>/revoked/<id> (empty marker files).
struct Deployment {
  explicit Deployment(const fs::path& dir_)
      : dir(dir_), params{pairing::paper_params(), {}, kBlock} {
    params.p_pub = params.curve()->decompress(from_hex(read_file(dir / "ppub.pt")));
  }

  ibe::SystemParams system_params() const {
    ibe::SystemParams p;
    p.group = pairing::paper_params();
    p.p_pub = params.p_pub;
    p.message_len = kBlock;
    return p;
  }

  fs::path dir;
  struct {
    pairing::ParamSet group;
    ec::Point p_pub;
    std::size_t message_len;
    const std::shared_ptr<const ec::Curve>& curve() const { return group.curve; }
  } params;
};

int cmd_setup(const fs::path& dir) {
  fs::create_directories(dir / "sem.d");
  fs::create_directories(dir / "users");
  fs::create_directories(dir / "revoked");
  hash::SystemRandom rng;
  ibe::Pkg pkg(pairing::paper_params(), kBlock, rng);
  write_file(dir / "master.key", pkg.master_key().to_hex());
  write_file(dir / "ppub.pt", to_hex(pkg.params().p_pub.to_bytes()));
  std::cout << "initialized deployment in " << dir
            << " (paper parameters: 512-bit p, 160-bit q)\n"
            << "NOTE: master.key would live only on the offline PKG.\n";
  return 0;
}

ibe::Pkg load_pkg(const fs::path& dir) {
  const auto master = bigint::BigInt::from_hex(read_file(dir / "master.key"));
  return ibe::Pkg(pairing::paper_params(), kBlock, master);
}

int cmd_enroll(const fs::path& dir, const std::string& identity) {
  ibe::Pkg pkg = load_pkg(dir);
  hash::SystemRandom rng;
  const ibe::SplitKey split = pkg.extract_split(identity, rng);
  write_file(dir / "sem.d" / (identity + ".pt"), to_hex(split.sem.to_bytes()));
  write_file(dir / "users" / (identity + ".pt"), to_hex(split.user.to_bytes()));
  std::cout << "enrolled " << identity << " (key split user/SEM)\n";
  return 0;
}

Bytes pad_block(const std::string& text) {
  Bytes b = str_bytes(text);
  if (b.size() > kBlock) throw Error("message longer than 32 bytes");
  b.resize(kBlock, ' ');
  return b;
}

int cmd_encrypt(const fs::path& dir, const std::string& identity,
                const std::string& text) {
  Deployment d(dir);
  hash::SystemRandom rng;
  const auto ct =
      ibe::full_encrypt(d.system_params(), identity, pad_block(text), rng);
  std::cout << to_hex(ct.to_bytes()) << "\n";
  return 0;
}

int cmd_decrypt(const fs::path& dir, const std::string& identity,
                const std::string& hex) {
  Deployment d(dir);
  const auto params = d.system_params();

  // SEM side (reads only the SEM half + revocation marker).
  auto revocations = std::make_shared<mediated::RevocationList>();
  if (fs::exists(dir / "revoked" / identity)) revocations->revoke(identity);
  mediated::IbeMediator sem(params, revocations);
  sem.install_key(identity, params.curve()->decompress(from_hex(
                                read_file(dir / "sem.d" / (identity + ".pt")))));

  // User side.
  mediated::MediatedIbeUser user(
      params, identity,
      params.curve()->decompress(
          from_hex(read_file(dir / "users" / (identity + ".pt")))));

  const auto ct = ibe::FullCiphertext::from_bytes(params, from_hex(hex));
  const Bytes plain = user.decrypt(ct, sem);
  std::string text(plain.begin(), plain.end());
  while (!text.empty() && text.back() == ' ') text.pop_back();
  std::cout << text << "\n";
  return 0;
}

int cmd_revoke(const fs::path& dir, const std::string& identity, bool on) {
  const fs::path marker = dir / "revoked" / identity;
  if (on) {
    write_file(marker, "revoked");
    std::cout << identity << " revoked (next SEM request will be denied)\n";
  } else {
    fs::remove(marker);
    std::cout << identity << " restored\n";
  }
  return 0;
}

int cmd_status(const fs::path& dir) {
  std::cout << "deployment: " << dir << "\nusers:\n";
  for (const auto& e : fs::directory_iterator(dir / "users")) {
    const std::string id = e.path().stem().string();
    const bool revoked = fs::exists(dir / "revoked" / id);
    std::cout << "  " << id << (revoked ? "  [REVOKED]" : "") << "\n";
  }
  return 0;
}

// In-process stress run + live scrape of the obs registry. Enrolls every
// user found in <dir>/users, then drives `ops` mediated decryptions
// round-robin across them; each one exercises hash-to-point (encrypt),
// SEM token issuance, and both pairing stages. Prints the counter
// catalog and per-stage latency percentiles, or the raw Prometheus/JSON
// exposition with --prom/--json.
int cmd_stats(const fs::path& dir, std::size_t ops, const std::string& format) {
  Deployment d(dir);
  const auto params = d.system_params();

  auto revocations = std::make_shared<mediated::RevocationList>();
  mediated::IbeMediator sem(params, revocations);
  std::vector<mediated::MediatedIbeUser> users;
  std::vector<std::string> ids;
  for (const auto& e : fs::directory_iterator(dir / "users")) {
    const std::string id = e.path().stem().string();
    if (fs::exists(dir / "revoked" / id)) continue;
    sem.install_key(id, params.curve()->decompress(from_hex(read_file(
                            dir / "sem.d" / (id + ".pt")))));
    users.emplace_back(params, id,
                       params.curve()->decompress(from_hex(
                           read_file(dir / "users" / (id + ".pt")))));
    ids.push_back(id);
  }
  if (users.empty()) throw Error("stats: no enrolled users (run enroll)");

  hash::SystemRandom rng;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t u = i % users.size();
    const auto ct =
        ibe::full_encrypt(params, ids[u], pad_block("obs stress"), rng);
    (void)users[u].decrypt(ct, sem);
  }

  const obs::MetricsSnapshot snap = obs::registry().scrape();
  if (format == "--prom") {
    std::cout << obs::to_prometheus(snap);
    return 0;
  }
  if (format == "--json") {
    std::cout << obs::to_json(snap, obs::registry().recent_traces());
    return 0;
  }

  const auto stats = sem.stats();
  std::cout << "stress run: " << ops << " mediated decryptions over "
            << users.size() << " users\n\ncounters:\n";
  std::printf("  %-32s %" PRIu64 "\n", "sem.tokens_issued",
              stats.tokens_issued);
  std::printf("  %-32s %" PRIu64 "\n", "sem.denials", stats.denials);
  std::printf("  %-32s %" PRIu64 "\n", "sem.unknown_identities",
              stats.unknown_identities);
  for (const auto& c : snap.counters) {
    // The three audit series above come from the coherent stats()
    // snapshot; everything else — including the sem.cache.* families —
    // prints from the scrape.
    if (c.name == "sem.tokens_issued" || c.name == "sem.denials" ||
        c.name == "sem.unknown_identities") {
      continue;  // printed above
    }
    std::printf("  %-32s %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  if (!snap.gauges.empty()) {
    // Includes the core.kernel.{portable,bmi2} selection flags: the
    // dispatched limb kernel publishes 1 on its own gauge, 0 on the rest.
    std::cout << "\ngauges:\n";
    for (const auto& g : snap.gauges) {
      std::printf("  %-32s %" PRId64 "\n", g.name.c_str(), g.value);
    }
  }
  std::cout << "\nkernel: " << bigint::kernels::active().name << "\n";
  if (!snap.histograms.empty()) {
    std::cout << "\nlatency (us):\n";
    std::printf("  %-32s %10s %10s %10s %10s %10s\n", "stage", "count",
                "p50", "p90", "p99", "max");
    for (const auto& h : snap.histograms) {
      std::printf("  %-32s %10" PRIu64 " %10.1f %10.1f %10.1f %10.1f\n",
                  h.name.c_str(), h.hist.count,
                  h.hist.percentile(0.50) / 1e3, h.hist.percentile(0.90) / 1e3,
                  h.hist.percentile(0.99) / 1e3,
                  static_cast<double>(h.hist.max) / 1e3);
    }
  }
  const auto traces = obs::registry().recent_traces();
  bool any_exemplar = false;
  for (const auto& h : snap.histograms) {
    for (const auto& ex : h.hist.exemplars) {
      if (ex.trace_id == 0) continue;
      if (!any_exemplar) {
        std::cout << "\nexemplars (largest traced samples):\n";
        any_exemplar = true;
      }
      std::printf("  %-32s %10.1f us  trace %016" PRIx64 "\n", h.name.c_str(),
                  static_cast<double>(ex.value) / 1e3, ex.trace_id);
    }
  }
  // The "show me a p99 trace" answer: resolve the worst exemplar still
  // in the trace ring to its span breakdown; fall back to the most
  // recent trace when no exemplar resolves.
  const obs::TraceData* show = nullptr;
  const char* label = "most recent trace";
  std::uint64_t best_value = 0;
  for (const auto& h : snap.histograms) {
    for (const auto& ex : h.hist.exemplars) {
      if (ex.trace_id == 0 || ex.value < best_value) continue;
      for (const auto& t : traces) {
        if (t.trace_id == ex.trace_id) {
          show = &t;
          best_value = ex.value;
          label = "worst exemplar trace";
        }
      }
    }
  }
  if (show == nullptr && !traces.empty()) show = &traces.back();
  if (show != nullptr) {
    const obs::TraceData& t = *show;
    std::printf("\n%s (%s, id %016" PRIx64 ", total %.1f us):\n", label,
                t.pipeline, t.trace_id,
                static_cast<double>(t.total_ns) / 1e3);
    for (std::uint32_t s = 0; s < t.stage_count; ++s) {
      std::printf("  +%8.1f us  %-28s %10.1f us\n",
                  static_cast<double>(t.stages[s].offset_ns) / 1e3,
                  obs::stage_name(t.stages[s].stage),
                  static_cast<double>(t.stages[s].dur_ns) / 1e3);
    }
    for (std::uint32_t b = 0; b < t.baggage_count; ++b) {
      std::printf("  baggage %-24s %10" PRIu64 "\n", t.baggage[b].name,
                  t.baggage[b].value);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Capacity scenarios and SLO reporting (self-contained; no <dir> state).
// ---------------------------------------------------------------------------

int cmd_load(const std::vector<std::string>& args) {
  sim::ScenarioConfig cfg;
  std::string scenario = "all";
  std::string out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error("load: " + a + " needs a value");
      return args[++i];
    };
    if (a == "--scenario") {
      scenario = next();
    } else if (a == "--users") {
      cfg.users = std::atoi(next().c_str());
    } else if (a == "--ops") {
      cfg.ops = std::atoi(next().c_str());
    } else if (a == "--threads") {
      cfg.threads = std::atoi(next().c_str());
    } else if (a == "--batch") {
      cfg.batch = std::atoi(next().c_str());
    } else if (a == "--toy") {
      cfg.group = &pairing::toy_params();
    } else if (a == "--out") {
      out_path = next();
    } else {
      throw Error("load: unknown argument " + a);
    }
  }

  sim::ScenarioRunner runner(cfg);
  std::vector<sim::ScenarioResult> results;
  const std::vector<std::string> names =
      scenario == "all" ? sim::ScenarioRunner::scenario_names()
                        : std::vector<std::string>{scenario};
  for (const std::string& name : names) {
    std::cerr << "running scenario " << name << "...\n";
    results.push_back(runner.run(name));
    // Gauges persist per scenario, so a registry scrape (or a later
    // `slo` against the saved report) sees the whole run.
    runner.slo_engine().publish(obs::registry());
  }
  const std::string report = sim::capacity_report_json(results, runner.config());
  if (out_path.empty()) {
    std::cout << report;
  } else {
    std::ofstream out(out_path);
    if (!out) throw Error("load: cannot write " + out_path);
    out << report;
    std::cerr << "capacity report written to " << out_path << "\n";
  }
  return 0;
}

/// First number after `field` in s at/after `from` (0.0 when absent).
double scan_num(const std::string& s, std::size_t from,
                const std::string& field) {
  const std::size_t at = s.find(field, from);
  if (at == std::string::npos) return 0.0;
  return std::atof(s.c_str() + at + field.size());
}

struct SloRow {
  std::string scenario;
  std::string kind;  // "latency" | "availability"
  double objective = 0.0;
  double availability = 0.0;
  double budget_consumed = 0.0;
  std::vector<std::pair<std::string, double>> burns;
};

void print_slo_rows(const std::vector<SloRow>& rows) {
  std::printf("%-18s %-14s %10s %12s %10s  %s\n", "scenario", "slo",
              "objective", "availability", "budget", "burn rates");
  for (const SloRow& r : rows) {
    std::string burns;
    for (const auto& [label, rate] : r.burns) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%s=%.2fx", burns.empty() ? "" : "  ",
                    label.c_str(), rate);
      burns += buf;
    }
    std::printf("%-18s %-14s %10.4f %12.6f %9.1f%%  %s\n", r.scenario.c_str(),
                r.kind.c_str(), r.objective, r.availability,
                r.budget_consumed * 100.0, burns.c_str());
  }
}

/// Pulls one scenario's latency/availability SLO rows out of a capacity
/// report (tolerant string scan of our own fixed serialization — the
/// report schema is "medcrypt.capacity_report/v1").
void scan_slo_block(const std::string& text, std::size_t begin,
                    std::size_t end, const std::string& scenario,
                    const char* kind, std::vector<SloRow>& rows) {
  const std::string marker = std::string("\"") + kind + "\": {\"objective\"";
  const std::size_t at = text.find(marker, begin);
  if (at == std::string::npos || at >= end) return;
  SloRow row;
  row.scenario = scenario;
  row.kind = kind;
  // Scan past the marker itself — the "availability" block's own name
  // would otherwise match the availability field lookup.
  const std::size_t fields = at + marker.size();
  row.objective = scan_num(text, at, "\"objective\": ");
  row.availability = scan_num(text, fields, "\"availability\": ");
  row.budget_consumed = scan_num(text, fields, "\"budget_consumed\": ");
  const std::size_t burn_at = text.find("\"burn\": {", at);
  if (burn_at != std::string::npos && burn_at < end) {
    const std::size_t open = burn_at + 9;
    const std::size_t close = text.find('}', open);
    std::size_t pos = open;
    while (close != std::string::npos && pos < close) {
      const std::size_t q0 = text.find('"', pos);
      if (q0 == std::string::npos || q0 >= close) break;
      const std::size_t q1 = text.find('"', q0 + 1);
      if (q1 == std::string::npos || q1 >= close) break;
      row.burns.emplace_back(text.substr(q0 + 1, q1 - q0 - 1),
                             std::atof(text.c_str() + q1 + 3));
      pos = q1 + 1;
      while (pos < close && text[pos] != ',') ++pos;
    }
  }
  rows.push_back(std::move(row));
}

int cmd_slo(const std::vector<std::string>& args) {
  std::string report_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--report" && i + 1 < args.size()) {
      report_path = args[++i];
    } else {
      throw Error("slo: unknown argument " + args[i]);
    }
  }

  std::vector<SloRow> rows;
  if (!report_path.empty()) {
    std::ifstream in(report_path);
    if (!in) throw Error("slo: cannot read " + report_path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    if (text.find("medcrypt.capacity_report") == std::string::npos) {
      throw Error("slo: " + report_path + " is not a capacity report");
    }
    std::size_t pos = 0;
    while ((pos = text.find("{\"name\": \"", pos)) != std::string::npos) {
      const std::size_t n0 = pos + 10;
      const std::size_t n1 = text.find('"', n0);
      if (n1 == std::string::npos) break;
      const std::string scenario = text.substr(n0, n1 - n0);
      std::size_t end = text.find("{\"name\": \"", n1);
      if (end == std::string::npos) end = text.size();
      scan_slo_block(text, n1, end, scenario, "latency", rows);
      scan_slo_block(text, n1, end, scenario, "availability", rows);
      pos = n1;
    }
    std::cout << "SLO report (from " << report_path << "):\n";
  } else {
    // No saved report: run a short live steady scenario on the toy
    // group and report its engine directly.
    sim::ScenarioConfig cfg;
    cfg.users = 6;
    cfg.ops = 48;
    cfg.group = &pairing::toy_params();
    sim::ScenarioRunner runner(cfg);
    const sim::ScenarioResult res = runner.run("steady");
    runner.slo_engine().publish(obs::registry());
    for (const obs::SloEngine::Report& r : runner.slo_engine().report()) {
      SloRow row;
      row.scenario = res.name;
      row.kind = r.name.find("latency") != std::string::npos ? "latency"
                                                             : "availability";
      row.objective = r.objective;
      row.availability = r.availability;
      row.budget_consumed = r.budget_consumed;
      for (const obs::SloEngine::Burn& b : r.burns) {
        row.burns.emplace_back(b.window, b.rate);
      }
      rows.push_back(std::move(row));
    }
    std::cout << "SLO report (live steady run, toy parameters, " << cfg.ops
              << " ops):\n";
  }
  if (rows.empty()) throw Error("slo: no SLO data found");
  print_slo_rows(rows);
  std::cout << "(burn rate 1.0x = spending the error budget exactly at the "
               "rate that exhausts it by window end)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [] {
    std::cerr << "usage: medcrypt_cli "
                 "setup|enroll|encrypt|decrypt|revoke|unrevoke|status|stats "
                 "<dir> [args]\n"
                 "       medcrypt_cli stats <dir> [ops] [--prom|--json]\n"
                 "       medcrypt_cli load [--scenario NAME|all] [--users N] "
                 "[--ops N] [--threads N] [--batch N] [--toy] [--out FILE]\n"
                 "       medcrypt_cli slo [--report FILE]\n";
    return 2;
  };
  if (argc >= 2) {
    const std::string cmd0 = argv[1];
    if (cmd0 == "load" || cmd0 == "slo") {
      const std::vector<std::string> args(argv + 2, argv + argc);
      try {
        return cmd0 == "load" ? cmd_load(args) : cmd_slo(args);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
    }
  }
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const fs::path dir = argv[2];
  try {
    if (cmd == "setup") return cmd_setup(dir);
    if (cmd == "enroll" && argc == 4) return cmd_enroll(dir, argv[3]);
    if (cmd == "encrypt" && argc == 5) return cmd_encrypt(dir, argv[3], argv[4]);
    if (cmd == "decrypt" && argc == 5) return cmd_decrypt(dir, argv[3], argv[4]);
    if (cmd == "revoke" && argc == 4) return cmd_revoke(dir, argv[3], true);
    if (cmd == "unrevoke" && argc == 4) return cmd_revoke(dir, argv[3], false);
    if (cmd == "status") return cmd_status(dir);
    if (cmd == "stats") {
      std::size_t ops = 200;
      std::string format;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--prom" || arg == "--json") {
          format = arg;
        } else {
          ops = static_cast<std::size_t>(std::stoul(arg));
        }
      }
      return cmd_stats(dir, ops, format);
    }
    return usage();
  } catch (const RevokedError& e) {
    std::cerr << "DENIED: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
