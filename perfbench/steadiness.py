#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --workload NAME

Runs perfbench/run.py --trace 0 in two sets of ten runs, with seeds 1 to 10
in each set and BENCHMARK.json's run_seconds per run, and prints per metric
each set's median and quartiles. It then checks them against BENCHMARK.json:
the quartile spread (Q3 - Q1) / median must stay within the metric's bound
and should stay below a third of it, and the second set's median may not be
worse than the first set's by more than the bound. Exits 1 when a check
fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run.py failed for seed {seed} "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    sets = []
    for s in range(SETS):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{m['name']}={runs[-1][m['name']]:.6g}" for m in metrics),
                flush=True)
        sets.append(runs)

    ok = True
    print(f"\n{args.workload}: {len(SEEDS)} seeds x {SETS} sets, "
          f"{seconds} s per run")
    print(f"{'metric':18} {'set':>3} {'Q1':>12} {'median':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        first_median = None
        for s, runs in enumerate(sets):
            values = [r[name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = []
            if spread > bound:
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif spread > bound / 3:
                verdict.append("spread over bound/3")
            if first_median is None:
                first_median = med
            else:
                worse = (med - first_median if m["better"] == "lower"
                         else first_median - med)
                drift = worse / first_median if first_median else 0.0
                verdict.append(f"drift {drift:+.3f}")
                if drift > bound:
                    verdict.append("DRIFT OVER BOUND")
                    ok = False
            print(f"{name:18} {s + 1:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.4f} {bound:>6}  {' '.join(verdict) or 'ok'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
