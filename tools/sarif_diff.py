#!/usr/bin/env python3
"""Diff two medlint SARIF files and fail on NEW findings only.

CI runs medlint over the base revision and over the head revision, then:

    python3 tools/sarif_diff.py --base base.sarif --current head.sarif

Findings are keyed by (ruleId, file path, message) — deliberately NOT by
line number, so shifting code around a pre-existing (baselined or
tolerated) finding does not fail the build; only genuinely new findings
do. Exit codes: 0 no new findings, 1 new findings (listed on stdout),
2 usage / unreadable input.
"""

import argparse
import json
import sys


def load_findings(path):
    """Returns the multiset of finding keys in a SARIF file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"sarif_diff: cannot read {path}: {e}")
    keys = {}
    for run in doc.get("runs", []):
        for res in run.get("results", []):
            rule = res.get("ruleId", "?")
            msg = res.get("message", {}).get("text", "")
            for loc in res.get("locations", [{}]):
                uri = (
                    loc.get("physicalLocation", {})
                    .get("artifactLocation", {})
                    .get("uri", "?")
                )
                key = (rule, uri, msg)
                keys[key] = keys.get(key, 0) + 1
    return keys


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", required=True, help="SARIF from the base revision")
    ap.add_argument("--current", required=True, help="SARIF from this revision")
    args = ap.parse_args()

    base = load_findings(args.base)
    current = load_findings(args.current)

    new = []
    for key, n in sorted(current.items()):
        extra = n - base.get(key, 0)
        if extra > 0:
            new.extend([key] * extra)

    fixed = sum(
        max(0, n - current.get(key, 0)) for key, n in base.items()
    )
    if fixed:
        print(f"sarif_diff: {fixed} finding(s) from the base revision are gone")

    if not new:
        print(
            f"sarif_diff: no new findings "
            f"({len(current)} current vs {len(base)} base keys)"
        )
        return 0

    print(f"sarif_diff: {len(new)} NEW finding(s) vs the base revision:")
    for rule, uri, msg in new:
        print(f"  {uri}: [{rule}] {msg}")
    print(
        "sarif_diff: fix them, suppress with an inline justified "
        "`// medlint: allow(<check>)`, or (for pre-existing debt only) "
        "baseline them — the committed baseline may only shrink."
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
