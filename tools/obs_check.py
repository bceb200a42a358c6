#!/usr/bin/env python3
"""Validate the observability snapshots a bench run writes.

bench_sem_throughput dumps its final scrape as OBS_sem_throughput.prom
(Prometheus text format) and OBS_sem_throughput.json. CI's
metrics-smoke job runs this script against both to catch exporter
regressions: empty scrapes, unparseable output, missing core series.

Usage: tools/obs_check.py [--prom FILE] [--json FILE]
Exit codes: 0 ok, 1 validation failure, 2 usage/IO error.
"""

import argparse
import json
import re
import sys

# Series the SEM throughput bench must always produce. The sem.cache.*
# pair validates that the identity-point cache is wired into the hot
# path and exporting: a bench run always probes it (misses on first
# touch, hits on the repeat traffic).
REQUIRED_COUNTERS = [
    "sem.tokens_issued",
    "sem.cache.h1.hits",
    "sem.cache.h1.misses",
]
REQUIRED_STAGES = ["stage.token_issue_ns"]

# The limb-kernel dispatcher (src/bigint/kernels/dispatch.cpp) publishes
# one selection flag per kernel tier; exactly one must read 1.
KERNEL_GAUGES = ["core.kernel.portable", "core.kernel.bmi2"]

# The SLO engine (src/obs/slo.h) publishes one ppm gauge family per
# tracked objective; the throughput bench always tracks token-issue
# latency and availability. Each family must be complete: objective,
# availability, remaining budget, and at least one burn-rate window.
SLO_GAUGE_RE = re.compile(r"^sem\.slo\.([a-z0-9_]+)\.(objective_ppm|"
                          r"availability_ppm|budget_remaining_ppm|"
                          r"burn_[a-z0-9]+_ppm)$")
# Stage histograms that must retain exemplars: the bench issues tokens
# under sampled traces, so the tail samples must carry resolvable ids.
EXEMPLAR_STAGES = ["stage.token_issue_ns"]

PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+]+(\s+[0-9]+)?$")


def fail(msg):
    print("obs_check: FAIL:", msg, file=sys.stderr)
    return 1


def check_prom(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        print("obs_check:", e, file=sys.stderr)
        return 2

    samples = 0
    typed = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "summary", "histogram"):
                return fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        if not PROM_SAMPLE_RE.match(line):
            return fail(f"{path}:{lineno}: unparseable sample: {line!r}")
        samples += 1

    if samples == 0:
        return fail(f"{path}: no samples (empty scrape?)")
    for name in REQUIRED_COUNTERS:
        prom = "medcrypt_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)
        if prom not in typed:
            return fail(f"{path}: required series {prom} missing")
    print(f"obs_check: {path}: {samples} samples, "
          f"{len(typed)} series — ok")
    return 0


def check_json(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        print("obs_check:", e, file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        return fail(f"{path}: invalid JSON: {e}")

    for key in ("counters", "gauges", "histograms", "traces"):
        if key not in data:
            return fail(f"{path}: missing top-level key {key!r}")
    if not data["counters"]:
        return fail(f"{path}: empty counters (obs disabled in the bench?)")
    for name in REQUIRED_COUNTERS:
        if name not in data["counters"]:
            return fail(f"{path}: required counter {name!r} missing")
    for name in REQUIRED_STAGES:
        if name not in data["histograms"]:
            return fail(f"{path}: required stage histogram {name!r} missing")
        hist = data["histograms"][name]
        if hist.get("count", 0) <= 0:
            return fail(f"{path}: {name} recorded no samples")
        if not (hist["p50"] <= hist["p99"] <= hist["max"]):
            return fail(f"{path}: {name} percentiles not ordered: {hist}")
    selected = []
    for name in KERNEL_GAUGES:
        if name not in data["gauges"]:
            return fail(f"{path}: required kernel gauge {name!r} missing")
        value = data["gauges"][name]
        if value not in (0, 1):
            return fail(f"{path}: kernel gauge {name} has non-flag "
                        f"value {value}")
        if value == 1:
            selected.append(name)
    if len(selected) != 1:
        return fail(f"{path}: expected exactly one selected kernel gauge, "
                    f"got {selected or 'none'}")

    slo_families = {}
    for name in data["gauges"]:
        m = SLO_GAUGE_RE.match(name)
        if m:
            slo_families.setdefault(m.group(1), set()).add(m.group(2))
    if not slo_families:
        return fail(f"{path}: no sem.slo.* gauge families (SLO engine "
                    "not published?)")
    for slo, fields in sorted(slo_families.items()):
        for field in ("objective_ppm", "availability_ppm",
                      "budget_remaining_ppm"):
            if field not in fields:
                return fail(f"{path}: sem.slo.{slo} family missing {field}")
        if not any(f.startswith("burn_") for f in fields):
            return fail(f"{path}: sem.slo.{slo} family has no burn-rate "
                        "window gauges")

    for name in EXEMPLAR_STAGES:
        exemplars = data["histograms"].get(name, {}).get("exemplars", [])
        live = [e for e in exemplars if e.get("trace_id")]
        if not live:
            return fail(f"{path}: {name} retained no exemplars (tracing "
                        "not reaching the token-issue hot path?)")
        for e in live:
            if e.get("value", 0) <= 0:
                return fail(f"{path}: {name} exemplar with non-positive "
                            f"value: {e}")

    print(f"obs_check: {path}: {len(data['counters'])} counters, "
          f"{len(data['histograms'])} histograms, "
          f"{len(data['traces'])} traces — ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--prom", default="OBS_sem_throughput.prom")
    ap.add_argument("--json", default="OBS_sem_throughput.json")
    args = ap.parse_args()

    rc = check_prom(args.prom)
    if rc:
        return rc
    return check_json(args.json)


if __name__ == "__main__":
    sys.exit(main())
