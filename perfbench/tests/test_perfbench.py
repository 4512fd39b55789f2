"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

They build the Release driver the way perfbench/run.py does (into
.bench_build/) and run each workload once, which takes about half a minute.
"""

import copy
import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def setUpModule():
    run.build()


def record(workload, seed, traced=False):
    rec = run.run_rep(workload, seed, "--traced" if traced else None)
    if rec is None:
        raise AssertionError(f"{workload} seed {seed} did not complete")
    return rec


class MetricNames(unittest.TestCase):
    def test_names_match_the_pattern(self):
        for name in list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS):
            self.assertIsNotNone(NAME.fullmatch(name), name)


class EndToEnd(unittest.TestCase):
    def test_every_workload_emits_all_ten_metrics_with_units(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, str(run.HERE / "run.py"),
                     "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trace", "0"],
                    stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 set(run.END_TO_END_UNITS))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"],
                                     run.END_TO_END_UNITS[name])
                    self.assertGreater(metric["value"], 0, name)


class MissFraction(unittest.TestCase):
    @staticmethod
    def sim(**hp):
        counts = {"released": 0, "rejected": 0, "retries": 0,
                  "completed": 0, "missed": 0, "p99_ms": 1.0}
        sim = {"window_s": 1.0}
        for c, values in (("hp", {**counts, **hp}), ("lp", counts)):
            sim.update({f"{c}_{k}": v for k, v in values.items()})
        return sim

    def miss_fracs(self, **hp):
        rec = {"sim": self.sim(**hp), "setup_s": 1.0, "run_s": 1.0,
               "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
        metrics = run.end_to_end([rec])
        return metrics["sim_hp_miss_frac"]["value"]

    def test_a_job_admitted_on_retry_is_not_a_miss(self):
        # Two jobs: one shed once, then admitted on its retry; one admitted
        # at once. Both finish on time.
        self.assertEqual(self.miss_fracs(released=3, rejected=1, retries=1,
                                         completed=2), 0.0)

    def test_a_job_shed_on_every_attempt_is_one_miss(self):
        # Two jobs: one shed on its first attempt and on both retries; one
        # admitted at once and on time.
        self.assertEqual(self.miss_fracs(released=4, rejected=3, retries=2,
                                         completed=1), 0.5)


class Seeds(unittest.TestCase):
    def test_a_new_seed_changes_inputs_and_fingerprint(self):
        a = record("fleet-poisson-16", 1)
        b = record("fleet-poisson-16", 2)
        self.assertNotEqual(a["input_digest"], b["input_digest"])
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])
        for rec in (a, b):
            self.assertTrue(all(op["conservation_ok"] for op in rec["ops"]))
            self.assertEqual(run.check([rec], 0)[1], 0)

    def test_the_same_seed_repeats_byte_identically(self):
        a = record("fleet-poisson-16", 5)
        b = record("fleet-poisson-16", 5)
        self.assertEqual(a["input_digest"], b["input_digest"])
        self.assertEqual(a["fingerprint"], b["fingerprint"])


class IdentityCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = record("fleet-poisson-16", 3)
        cls.traced = record("fleet-poisson-16", 3, traced=True)

    def test_clean_records_pass(self):
        attempted, failed, problems = run.check(
            [self.untraced, self.traced], 0)
        self.assertEqual((attempted, failed, problems), (3, 0, []))

    def test_traced_fingerprint_mismatch_fails_the_op(self):
        bad = copy.deepcopy(self.traced)
        bad["ops"][0]["fingerprint"] = "0" * 16
        _, failed, problems = run.check([self.untraced, bad], 0)
        # The traced op differs from the untraced one, and the sharded run
        # now differs from its unsharded replay.
        self.assertEqual(failed, 2)
        self.assertTrue(problems)

    def test_unsharded_replay_mismatch_fails(self):
        bad = copy.deepcopy(self.traced)
        bad["replay"]["fingerprint"] = "0" * 16
        _, failed, _ = run.check([self.untraced, bad], 0)
        self.assertEqual(failed, 1)

    def test_conservation_violation_and_crash_fail(self):
        bad = copy.deepcopy(self.untraced)
        bad["ops"][0]["conservation_ok"] = 0
        self.assertEqual(run.check([bad], 0)[1], 1)
        attempted, failed, _ = run.check([self.untraced], 2)
        self.assertEqual((attempted, failed), (3, 2))


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            [-1, "root", 0.0, 10.0],
            [0, "a", 1.0, 3.0],
            [0, "b", 2.0, 5.0],   # overlaps a: [1, 5] covered once
            [0, "c", 8.0, 12.0],  # clipped to the parent's end
            [1, "a.x", 1.5, 2.5],
        ]
        self_s = run.self_times(spans)
        self.assertAlmostEqual(self_s[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(self_s[1], 2.0 - 1.0)
        self.assertAlmostEqual(self_s[2], 3.0)
        self.assertAlmostEqual(self_s[4], 1.0)

    def test_recorded_spans_are_parent_linked(self):
        rec = record("fleet-poisson-16", 4, traced=True)
        spans = rec["spans"]
        names = [s[1] for s in spans]
        for name in ("workload", "workload.gen", "dnn.compile", "daris.afet",
                     "experiments.run_cluster", "metrics.trace_report",
                     "metrics.export", "replay.unsharded"):
            self.assertIn(name, names)
        root = names.index("workload")
        for parent, name, begin, end in spans:
            self.assertLessEqual(begin, end)
            if name.startswith(("workload.", "experiments.", "metrics.")):
                self.assertEqual(parent, root, name)
            elif name != "workload":
                # Offline spans and the replay are work the untraced run
                # does not do, so they stay outside the timed workload.
                self.assertEqual(parent, -1, name)
        for i, (_, _, begin, end) in enumerate(spans):
            kids = sum(e - b for p, _, b, e in spans if p == i)
            self.assertAlmostEqual(run.self_times(spans)[i],
                                   (end - begin) - kids, places=9)


if __name__ == "__main__":
    unittest.main()
