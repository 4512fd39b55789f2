#!/usr/bin/env python3
"""Fingerprint gate over the paper-figure drivers.

Usage:
    scripts/check_figures.py [--build-dir build] [--out-dir DIR]
        [--rebaseline]

Runs every paper-figure driver (Figs. 4-11, the OS sweep, Sec. VI-B and
Table I) and compares the sha256 of each driver's stdout against the
committed digests in tests/data/figure_digests.json, running the drivers
in parallel. The drivers are pure functions of their built-in
configurations and seeds, so their stdout repeats byte-for-byte across
runs and builds: any difference is a real change in simulated behaviour,
never machine noise. The gate also fails when a driver exits non-zero or
when a driver has no committed digest.

--rebaseline rewrites the digest file from the current outputs instead of
comparing. Every rebaseline is a deliberate behaviour change and needs a
CHANGES.md entry naming what moved. --out-dir keeps each driver's stdout
(DIR/<driver>.txt) for diffing against an older build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

DRIVERS = [
    "bench_fig4_resnet18",
    "bench_fig5_unet",
    "bench_fig6_inception",
    "bench_fig7_mixed",
    "bench_fig8_ablation",
    "bench_fig9_mret",
    "bench_fig10_batching",
    "bench_fig11_overload",
    "bench_fig_os_sweep",
    "bench_sec6b_sota",
    "bench_tab1_batching",
]

DIGESTS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "data",
    "figure_digests.json"))


def run_driver(build_dir, name):
    """Returns (failure message or None, stdout bytes) of one driver."""
    path = os.path.join(build_dir, name)
    if not os.path.isfile(path):
        return f"{path} not found (build the bench targets first)", b""
    proc = subprocess.run([path], capture_output=True)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-500:]
        return f"exit status {proc.returncode}: {tail}", proc.stdout
    return None, proc.stdout


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--build-dir", default="build",
                        help="directory holding the bench_* binaries")
    parser.add_argument("--out-dir", help="keep each driver's stdout here")
    parser.add_argument("--rebaseline", action="store_true",
                        help="rewrite the digest file from this run")
    args = parser.parse_args()

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        runs = dict(zip(DRIVERS, pool.map(
            lambda n: run_driver(args.build_dir, n), DRIVERS)))

    failures = []
    digests = {}
    for name in DRIVERS:
        error, out = runs[name]
        if error:
            failures.append(f"{name}: {error}")
        digests[name] = hashlib.sha256(out).hexdigest()
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            with open(os.path.join(args.out_dir, name + ".txt"), "wb") as f:
                f.write(out)

    if args.rebaseline:
        if failures:
            print("refusing to rebaseline:")
            for f in failures:
                print(f"  - {f}")
            return 1
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(digests)} figure digests to {DIGESTS}")
        return 0

    with open(DIGESTS) as f:
        committed = json.load(f)
    for name in DRIVERS:
        want = committed.get(name)
        got = digests[name]
        if runs[name][0]:
            continue
        if want is None:
            failures.append(f"{name}: no committed digest")
        elif want != got:
            failures.append(f"{name}: stdout digest {got[:16]} differs from "
                            f"committed {want[:16]}")
        else:
            print(f"{name}: {got[:16]} matches")

    if failures:
        print("\nfigure gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\n{len(DRIVERS)} figure digests match; figure gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
