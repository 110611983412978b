#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from anywhere:

    python3 perfbench/test_bench.py

They build perfbench/bench.exe and check that:
- the same seed gives the same inputs (request streams and kernels rows,
  compared by the digest a run prints) and another seed different ones;
- a short run of every workload passes its correctness checks with no
  failure and prints exactly the end-to-end metrics BENCHMARK.json names,
  with their units, all of them non-zero;
- a short traced run prints exactly the per-layer metrics, and two traced
  runs of the same seed agree on every count;
- a tree holding only BENCHMARK.json and perfbench/ makes run.py exit
  non-zero without printing a result.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer quantities that are counts, not timings: exact for a seed.
EXACT_UNITS = {"count", "bytes", "ratio"}


def setUpModule():
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe",
                    "./bin/simd_served.exe"], cwd=ROOT, check=True)


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, rep=0):
    """A short run's result and its inputs digest; [rep] asks for another
    run of the same arguments."""
    p = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (workload, p.returncode, p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("inputs "))
    return json.loads(lines[-1]), digest


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        _, a = run("compile", 4, 1)
        _, b = run("compile", 4, 1, rep=1)
        _, other = run("compile", 3, 0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, other)


class Runs(unittest.TestCase):
    def check_correct(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_smoke(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, _ = run(w, 3, 0)
                self.check_correct(r)
                self.assertEqual(printed(r), units("end_to_end"))
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_counts_repeat(self):
        (a, _), (b, _) = run("compile", 4, 1), run("compile", 4, 1, rep=1)
        for r in (a, b):
            self.check_correct(r)
            self.assertEqual(printed(r), units("per_layer"))
        for name, unit in units("per_layer").items():
            if unit in EXACT_UNITS:
                self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
        self.assertEqual(a["metrics"]["support.cas.hit_ratio.cold"]["value"], 0)
        self.assertEqual(a["metrics"]["support.cas.hit_ratio.hot"]["value"], 1)


class Contract(unittest.TestCase):
    def test_bare_tree_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
