#!/usr/bin/env python3
"""Behaviour gate over the scenario matrix (docs/SCENARIOS.md).

Usage:
    scripts/check_scenarios.py --bench build/bench_fig_scenarios \
        [--data-dir tests/data] [--json OUT.json] [--telemetry DIR]
        [--sharded] [--rebaseline]
    scripts/check_scenarios.py --json build/scenarios.json [--rebaseline]

With --bench the scenario driver is executed (writing its JSON report to
--json, or a temporary file); with only --json an existing report is
validated. The gate fails when any scenario misses a committed threshold,
is non-deterministic across the driver's built-in re-run, or when fewer
scenarios ran than the matrix is expected to hold (a silently dropped
scenario cannot fake a green gate).

It also pins behaviour: every scenario's fingerprint and telemetry digest
must equal the committed entry in tests/data/scenario_digests.json, and
every committed entry must be in the report. --rebaseline rewrites that
file from the report instead of comparing. Every rebaseline is a
deliberate behaviour change and needs a CHANGES.md entry naming what
moved.

Unlike the perf gate, this one is strict: the simulator is deterministic,
so threshold misses and digest changes are real behaviour changes, not
machine noise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Keep in sync with scenario_defs() in src/experiments/scenarios.cpp.
EXPECTED_MIN_SCENARIOS = 11

DIGESTS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "data",
    "scenario_digests.json"))


def load(path):
    with open(path) as f:
        return json.load(f)


def run_bench(bench, data_dir, json_path, telemetry_dir=None, sharded=False):
    cmd = [bench, "--json", json_path]
    if data_dir:
        cmd += ["--data-dir", data_dir]
    if telemetry_dir:
        cmd += ["--telemetry", telemetry_dir]
    if sharded:
        cmd += ["--sharded"]
    # The driver's own exit status is ignored here; the gate re-derives
    # pass/fail from the JSON so the two can never disagree silently.
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(json_path):
        print(f"FAIL: {bench} produced no JSON report "
              f"(exit status {proc.returncode})")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", help="path to bench_fig_scenarios")
    parser.add_argument("--data-dir", help="trace fixture directory")
    parser.add_argument("--json", help="JSON report path (read, or written "
                        "by --bench)")
    parser.add_argument("--telemetry", help="with --bench: directory for the "
                        "per-scenario telemetry + Perfetto artifacts "
                        "(validated separately by check_telemetry.py)")
    parser.add_argument("--sharded", action="store_true",
                        help="also replay every scenario on the sharded "
                        "engine and fail unless its fingerprint and "
                        "telemetry digest match the single-simulator run "
                        "bit-for-bit (with --bench passes --sharded to the "
                        "driver; with --json alone requires the report to "
                        "carry the sharded_matches fields)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite tests/data/scenario_digests.json from "
                        "the report instead of comparing against it")
    args = parser.parse_args()

    if not args.bench and not args.json:
        parser.error("need --bench and/or --json")

    json_path = args.json
    tmp = None
    if args.bench:
        if not json_path:
            tmp = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
            tmp.close()
            json_path = tmp.name
        if not run_bench(args.bench, args.data_dir, json_path,
                         args.telemetry, args.sharded):
            return 1

    doc = load(json_path)
    scenarios = doc.get("scenarios", [])

    failures = []
    if len(scenarios) < EXPECTED_MIN_SCENARIOS:
        failures.append(
            f"only {len(scenarios)} scenarios in report, expected at least "
            f"{EXPECTED_MIN_SCENARIOS} — was a scenario dropped?")

    for s in scenarios:
        name = s.get("name", "?")
        if not s.get("deterministic", False):
            failures.append(f"{name}: NOT bit-identical across repeat runs")
        if args.sharded:
            if "sharded_matches" not in s:
                failures.append(
                    f"{name}: report carries no sharded replay — driver "
                    f"run without --sharded?")
            elif not s["sharded_matches"]:
                failures.append(
                    f"{name}: sharded fingerprint/telemetry digest differs "
                    f"from the single-simulator baseline")
        for c in s.get("checks", []):
            if not c.get("pass", False):
                failures.append(
                    f"{name}: {c['metric']} = {c['value']:.4g} violates "
                    f"{c['op']} {c['limit']:.4g}")

    digests = {s.get("name", "?"): {
        "fingerprint": s.get("fingerprint", ""),
        "telemetry_digest": s.get("telemetry_digest", ""),
    } for s in scenarios}
    if args.rebaseline:
        if tmp is not None:
            os.unlink(tmp.name)
        if failures:
            print("refusing to rebaseline:")
            for f in failures:
                print(f"  - {f}")
            return 1
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(digests)} scenario digests to {DIGESTS}")
        return 0

    with open(DIGESTS) as f:
        committed = json.load(f)
    for name, want in sorted(committed.items()):
        got = digests.get(name)
        if got is None:
            failures.append(f"{name}: committed digest but not in report")
            continue
        for key in ("fingerprint", "telemetry_digest"):
            if got[key] != want[key]:
                failures.append(f"{name}: {key} {got[key]!r} differs from "
                                f"committed {want[key]!r}")
    for name in sorted(set(digests) - set(committed)):
        failures.append(f"{name}: no committed digest")

    print(f"{len(scenarios)} scenarios, "
          f"{sum(1 for s in scenarios if s.get('pass'))} within thresholds, "
          f"{sum(1 for s in scenarios if s.get('deterministic'))} "
          "deterministic"
          + (f", {sum(1 for s in scenarios if s.get('sharded_matches'))} "
             "sharded-bit-identical" if args.sharded else "")
          + f", {sum(1 for n in committed if digests.get(n) == committed[n])}"
          f"/{len(committed)} matching the committed digests")

    if tmp is not None:
        os.unlink(tmp.name)

    if failures:
        print("\nscenario gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nscenario gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
