#!/usr/bin/env python3
"""Render and validate medcrypt capacity reports.

`medcrypt_cli load` emits a machine-readable capacity report (schema
medcrypt.capacity_report/v1) covering the scenario harness's four
workloads: per-scenario throughput (tokens/s and tokens/s per core),
latency percentiles, availability, SLO budget burn, and — when the
build has observability enabled — p99 exemplar trace ids resolved to
full span breakdowns.

Usage:
  tools/capacity_report.py REPORT.json            render a summary table
  tools/capacity_report.py REPORT.json --check    validate (CI gate)

--check verifies the schema version, that every requested scenario row
is complete and internally consistent (percentiles ordered, throughput
positive, ok+denied accounting), that SLO blocks carry burn rates for
every window, and — for obs-enabled runs — that at least one exemplar
trace id resolves to a span breakdown with stages.

Exit codes: 0 ok, 1 validation failure, 2 usage/IO error.
"""

import argparse
import json
import sys

SCHEMA = "medcrypt.capacity_report/v1"

SCENARIO_FIELDS = [
    "name", "requests", "tokens", "ok", "denied", "failed", "retries",
    "wall_s", "tokens_per_s", "tokens_per_s_per_core", "latency_us",
    "availability", "slo", "exemplars", "exemplar_traces",
]


def fail(msg):
    print("capacity_report: FAIL:", msg, file=sys.stderr)
    return 1


def check_slo_block(name, kind, block):
    for key in ("objective", "availability", "budget_consumed", "burn"):
        if key not in block:
            return fail(f"{name}: slo.{kind} missing {key!r}")
    if not 0.0 < block["objective"] < 1.0:
        return fail(f"{name}: slo.{kind} objective out of (0,1): "
                    f"{block['objective']}")
    if not block["burn"]:
        return fail(f"{name}: slo.{kind} has no burn windows")
    for window, rate in block["burn"].items():
        if rate < 0:
            return fail(f"{name}: slo.{kind} burn[{window}] negative: {rate}")
    return 0


def check(report):
    if report.get("schema") != SCHEMA:
        return fail(f"schema mismatch: {report.get('schema')!r} != {SCHEMA!r}")
    scenarios = report.get("scenarios", [])
    if not scenarios:
        return fail("no scenario rows")
    obs_enabled = report.get("obs_enabled", False)

    resolved_traces = 0
    for s in scenarios:
        name = s.get("name", "<unnamed>")
        for field in SCENARIO_FIELDS:
            if field not in s:
                return fail(f"{name}: missing field {field!r}")
        if s["requests"] <= 0:
            return fail(f"{name}: no requests recorded")
        if s["ok"] + s["denied"] != s["requests"]:
            return fail(f"{name}: ok({s['ok']}) + denied({s['denied']}) != "
                        f"requests({s['requests']})")
        if s["tokens_per_s"] <= 0 or s["tokens_per_s_per_core"] <= 0:
            return fail(f"{name}: non-positive throughput")
        lat = s["latency_us"]
        if not lat["p50"] <= lat["p99"] <= lat["max"]:
            return fail(f"{name}: percentiles not ordered: {lat}")
        if not 0.0 <= s["availability"] <= 1.0:
            return fail(f"{name}: availability out of [0,1]: "
                        f"{s['availability']}")
        for kind in ("latency", "availability"):
            if kind not in s["slo"]:
                return fail(f"{name}: slo missing {kind!r} objective")
            rc = check_slo_block(name, kind, s["slo"][kind])
            if rc:
                return rc
        for trace in s["exemplar_traces"]:
            if trace.get("stages"):
                resolved_traces += 1
            if trace["trace_id"] not in [e["trace_id"]
                                         for e in s["exemplars"]]:
                return fail(f"{name}: trace {trace['trace_id']} has no "
                            f"matching exemplar")

    if obs_enabled and resolved_traces == 0:
        return fail("obs enabled but no exemplar resolved to a span "
                    "breakdown (tracing or exemplar capture broken)")
    mode = "obs on" if obs_enabled else "obs off"
    print(f"capacity_report: {len(scenarios)} scenarios, "
          f"{resolved_traces} resolved exemplar traces ({mode}) — ok")
    return 0


def render(report):
    print(f"capacity report ({report.get('schema')}, "
          f"obs {'on' if report.get('obs_enabled') else 'off'})")
    cfg = report.get("config", {})
    print(f"config: users={cfg.get('users')} ops={cfg.get('ops')} "
          f"threads={cfg.get('threads')} batch={cfg.get('batch')}")
    hdr = (f"{'scenario':<18}{'tok/s':>10}{'tok/s/core':>12}{'p50 us':>10}"
           f"{'p99 us':>10}{'avail':>9}{'budget':>9}{'exemplars':>11}")
    print(hdr)
    for s in report.get("scenarios", []):
        lat = s["latency_us"]
        burn = s["slo"]["availability"]["budget_consumed"]
        lat_burn = s["slo"]["latency"]["budget_consumed"]
        print(f"{s['name']:<18}{s['tokens_per_s']:>10.0f}"
              f"{s['tokens_per_s_per_core']:>12.0f}{lat['p50']:>10.1f}"
              f"{lat['p99']:>10.1f}{s['availability']:>9.4f}"
              f"{max(burn, lat_burn) * 100:>8.1f}%"
              f"{len(s['exemplar_traces']):>11}")
        for trace in s["exemplar_traces"][:1]:
            stages = ", ".join(f"{st['stage']}={st['dur_us']:.0f}us"
                               for st in trace["stages"][:6])
            print(f"    p99 trace {trace['trace_id']} "
                  f"({trace['total_us']:.0f} us, "
                  f"{trace.get('dropped', 0)} dropped spans): {stages}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="capacity report JSON from medcrypt_cli load")
    ap.add_argument("--check", action="store_true",
                    help="validate instead of render (CI gate)")
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            report = json.load(f)
    except OSError as e:
        print("capacity_report:", e, file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        return fail(f"{args.report}: invalid JSON: {e}")

    return check(report) if args.check else render(report)


if __name__ == "__main__":
    sys.exit(main())
