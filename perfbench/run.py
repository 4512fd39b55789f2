#!/usr/bin/env python3
"""Benchmark of record for the DARIS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench driver (perfbench/CMakeLists.txt, Release) into
.bench_build/, then runs repetitions of one workload, each in a fresh process,
for about S seconds. Every repetition generates the same inputs from --seed.
The script checks the repetitions against each other (conservation,
byte-identical behaviour fingerprints) and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines before it
give the run context and, when traced, the span tree. perfbench/README.md
defines every metric.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"

# Workload and metric names, and the metrics' units, as BENCHMARK.json
# declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
FLEETS = ("fleet-poisson-16", "fleet-flash-64")
# A repetition that has not finished by then counts as a timeout: every
# operation it would have run fails.
REP_TIMEOUT_S = 120
# Setup-only processes after each measured repetition. A fresh process pays
# the cold setup a user pays, and these add setup samples cheaply.
SETUPS_PER_REP = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the Release driver; raises on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_rep(workload, seed, flag=None):
    """One repetition in a fresh process: its record, or None on a crash or
    timeout. `flag` is None, "--traced" or "--setup-only"."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if flag:
        cmd.append(flag)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: repetition timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: exit {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(records, crashed_reps):
    """Operations attempted and failed, and the reasons for each failure.

    An operation is one simulated run: a grid point or a fleet run. It fails
    if conservation is violated, if its fingerprint differs from the same
    operation in the first untraced repetition (repeats and traced runs must
    be byte-identical), if a fleet's unsharded replay differs from the
    sharded run, or if its repetition crashed or timed out.
    """
    problems = []
    attempted = failed = 0
    ref = next((r for r in records if not r["traced"]), None)
    for rec in records:
        tag = "traced" if rec["traced"] else "untraced"
        if ref is not None and rec["input_digest"] != ref["input_digest"]:
            problems.append(f"{tag} repetition generated different inputs")
        if ref is not None and len(rec["ops"]) != len(ref["ops"]):
            problems.append(f"{tag} repetition ran a different operation "
                            f"count")
        for i, op in enumerate(rec["ops"]):
            attempted += 1
            bad = []
            if not op["conservation_ok"]:
                bad.append("conservation violated")
            if (ref is not None and i < len(ref["ops"])
                    and op["fingerprint"] != ref["ops"][i]["fingerprint"]):
                bad.append(f"fingerprint {op['fingerprint']} != "
                           f"{ref['ops'][i]['fingerprint']}")
            if bad:
                failed += 1
                problems.append(f"{tag} op {i}: " + "; ".join(bad))
        replay = rec.get("replay")
        if replay is not None:
            attempted += 1
            bad = []
            if not replay["conservation_ok"]:
                bad.append("conservation violated")
            if replay["fingerprint"] != rec["ops"][0]["fingerprint"]:
                bad.append(f"unsharded {replay['fingerprint']} != "
                           f"sharded {rec['ops'][0]['fingerprint']}")
            if bad:
                failed += 1
                problems.append("unsharded replay: " + "; ".join(bad))
    per_rep = len(ref["ops"]) if ref is not None else 1
    attempted += crashed_reps * per_rep
    failed += crashed_reps * per_rep
    if crashed_reps:
        problems.append(f"{crashed_reps} repetition(s) crashed or timed out")
    return attempted, failed, problems


def self_times(spans):
    """Self time per span: its duration minus the part of its interval that
    its children cover (overlapping children are counted once).

    `spans` rows are [parent, name, begin_s, end_s]; a row's index is its id.
    """
    children = {}
    for i, (parent, _, _, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, begin, end) in enumerate(spans):
        covered = 0.0
        cursor = begin
        for lo, hi in sorted((spans[c][2], spans[c][3])
                             for c in children.get(i, [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - begin) - covered)
    return out


def span_summary(spans):
    """Per span name: count, total seconds and self seconds."""
    summary = {}
    for (parent, name, begin, end), self_s in zip(spans, self_times(spans)):
        row = summary.setdefault(name, {
            "parent": spans[parent][1] if parent >= 0 else None,
            "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - begin
        row["self_s"] += self_s
    return summary


def span_total(rec, name):
    return sum(end - begin for _, n, begin, end in rec["spans"] if n == name)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(untraced, setups=()):
    """The ten end-to-end metrics: host times as medians over the
    repetitions, simulated outcomes from the (identical) repetitions.
    `setups` are extra setup_s samples from setup-only processes."""
    med = lambda key: statistics.median(r[key] for r in untraced)
    sim = untraced[0]["sim"]

    def miss_frac(c):
        # A job misses when it is refused (rejected, shed, dropped) or
        # completes late: 1 - P(admitted) * P(on time | completed). Counted
        # per job, not per attempt: each resilience retry is one more
        # release that follows one more shed attempt of the same job.
        retries = sim[f"{c}_retries"]
        refused = ratio(sim[f"{c}_rejected"] - retries,
                        sim[f"{c}_released"] - retries)
        late = ratio(sim[f"{c}_missed"], sim[f"{c}_completed"])
        return 1.0 - (1.0 - refused) * (1.0 - late)

    on_time = sum(sim[f"{c}_completed"] - sim[f"{c}_missed"]
                  for c in ("hp", "lp"))
    values = {
        "setup_s": statistics.median(
            [r["setup_s"] for r in untraced] + list(setups)),
        "run_s": med("run_s"),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "sim_goodput_jps": ratio(on_time, sim["window_s"]),
        "sim_hp_miss_frac": miss_frac("hp"),
        "sim_lp_miss_frac": miss_frac("lp"),
        "sim_hp_p99_ms": sim["hp_p99_ms"],
        "sim_lp_p99_ms": sim["lp_p99_ms"],
    }
    return {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
            for k in END_TO_END_UNITS}


def per_layer(workload, untraced, traced):
    """The per-layer metrics. Counts come from the simulated runs; spans and
    the sharded/unsharded comparison come from the traced repetitions."""
    layers = traced[0]["layers"]
    sim = traced[0]["sim"]
    tmed = lambda f: statistics.median(f(r) for r in traced)
    umed = lambda f: statistics.median(f(r) for r in untraced)
    run_s = umed(lambda r: r["run_s"])
    compile_s = tmed(lambda r: span_total(r, "dnn.compile"))
    afet_s = tmed(lambda r: span_total(r, "daris.afet"))
    # Counts the driver reports as-is; a layer a workload does not use
    # reports 0. The derived metrics below replace the rest.
    values = {name: layers.get(name, 0.0) for name in PER_LAYER_UNITS}
    values.update({
        "sim.ns_per_event": ratio(run_s * 1e9, layers["sim.events"]),
        "sim.shard_speedup": (
            tmed(lambda r: r["replay"]["run_s"]) / tmed(lambda r: r["run_s"])
            if workload in FLEETS else 0.0),
        "gpusim.flushes_per_job": ratio(
            layers["gpusim.flushes"], sim["hp_accepted"] + sim["lp_accepted"]),
        "gpusim.cache_hit_rate": ratio(
            layers["gpusim.contexts_reused"],
            layers["gpusim.contexts_solved"]
            + layers["gpusim.contexts_reused"]),
        "dnn.compile_s": compile_s,
        "daris.afet_s": afet_s,
        "experiments.setup_other_s":
            umed(lambda r: r["setup_s"]) - compile_s - afet_s,
        "daris.admit_ratio": 1.0 - ratio(
            sim["hp_rejected"] + sim["lp_rejected"],
            sim["hp_released"] + sim["lp_released"]),
        "daris.hp_dmr": ratio(sim["hp_missed"], sim["hp_completed"]),
        "daris.lp_dmr": ratio(sim["lp_missed"], sim["lp_completed"]),
        "workload.gen_s": tmed(lambda r: r["gen_s"]),
        "metrics.report_s": tmed(
            lambda r: span_total(r, "metrics.trace_report")),
        "metrics.export_s": tmed(lambda r: span_total(r, "metrics.export")),
        "trace.overhead_s":
            tmed(lambda r: r["wall_s"]) - umed(lambda r: r["wall_s"]),
    })
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
            for k in PER_LAYER_UNITS}


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, RuntimeError) as err:
        log(f"cannot build the benchmark: {err}")
        return 1

    # Repetitions run until the next one would overrun --seconds. A traced
    # run alternates untraced and traced repetitions (one of each at least),
    # so the tracing overhead is measured within the same run. An untraced
    # run follows each repetition with setup-only processes.
    start = time.monotonic()
    records, crashed, rep_s, setups, setup_failures = [], 0, [], [], 0
    plan = [None, "--traced"] if args.trace else [None]
    while True:
        elapsed = time.monotonic() - start
        done = len(records) + crashed
        if done >= len(plan) and rep_s and (
                elapsed + statistics.median(rep_s) > args.seconds):
            break
        t0 = time.monotonic()
        rec = run_rep(args.workload, args.seed, plan[done % len(plan)])
        if rec is None:
            crashed += 1
        else:
            records.append(rec)
        for _ in range(0 if args.trace else SETUPS_PER_REP):
            setup = run_rep(args.workload, args.seed, "--setup-only")
            if setup is None:
                setup_failures += 1
            else:
                setups.append(setup["setup_s"])
        rep_s.append(time.monotonic() - t0)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not untraced or (args.trace and not traced):
        log("no repetition completed; no metrics to report")
        return 1

    attempted, failed, problems = check(records, crashed)
    if setup_failures:
        problems.append(f"{setup_failures} setup-only process(es) failed")
    for p in problems:
        log(p)
    ref = untraced[0]
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed,
        "build_type": ref["build_type"], "compiler": ref["compiler"],
        "nproc": ref["nproc"], "commit": commit(),
        "repetitions": len(records), "crashed": crashed,
        "input_digest": ref["input_digest"],
        "fingerprint": ref["fingerprint"],
        # Fleet runs: [sharded, unsharded replay] fingerprint pairs.
        "sharded_vs_unsharded": [
            [r["ops"][0]["fingerprint"], r["replay"]["fingerprint"]]
            for r in traced if "replay" in r],
        "hp_p99_samples": ref["sim"]["hp_samples"],
        "lp_p99_samples": ref["sim"]["lp_samples"],
        # Every simulated run's host seconds, repetition by repetition, so a
        # slow first run of the sharded pool stays visible.
        "run_s_per_op": [[round(op["run_s"], 6) for op in r["ops"]]
                         for r in records],
        "replay_run_s": [r["replay"]["run_s"] for r in traced
                         if "replay" in r],
        "setup_s_samples": [r["setup_s"] for r in untraced] + setups,
    }}))
    if args.trace:
        print(json.dumps({"spans": span_summary(traced[0]["spans"])}))
        metrics = per_layer(args.workload, untraced, traced)
    else:
        metrics = end_to_end(untraced, setups)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
