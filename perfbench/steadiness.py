#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py --seeds 101-110 --out FILE.json \
        [--workloads compile,serve] [--compare EARLIER.json]

Run from the root of the source tree. Runs the command BENCHMARK.json
names once per workload and seed (untraced, at its run_seconds), writes
every run's end-to-end values to FILE.json, and prints, per workload and
metric, the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. A
spread above the metric's bound is flagged (setup_s is exempt). With
--compare, it also flags every metric whose median is worse than the
earlier file's by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SPEC_PATH = "BENCHMARK.json"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("%s seed %d exited %d: %s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "wall_s": round(wall, 1),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(metric, before, after):
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def report(spec, runs, earlier):
    ok = True
    for workload, rs in runs.items():
        print("== %s (%d runs, %s failed)" % (workload, len(rs), sum(r["failed"] for r in rs)))
        ok &= all(r["correct"] for r in rs)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name] for r in rs]
            med, sp = statistics.median(values), spread(values)
            line = "  %-20s median %12.5g  spread %.3f  bound %.2f" % (name, med, sp, bound)
            flag = sp > bound and name != "setup_s"
            if earlier is not None and workload in earlier:
                before = statistics.median(r["metrics"][name] for r in earlier[workload])
                w = worse(m, before, med)
                line += "  vs earlier %+.3f" % w
                flag |= w > bound
            ok &= not flag
            print(line + ("  <-- over bound" if flag else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,5,9")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--compare", help="an earlier --out file")
    args = ap.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seed_list(args.seeds):
            r = run_once(spec, w, seed)
            print("%s seed %d: %.1f s, %d attempted, %d failed" % (w, seed, r["wall_s"], r["attempted"], r["failed"]),
                  flush=True)
            runs[w].append(r)
    with open(args.out, "w") as f:
        json.dump({"run_seconds": spec["run_seconds"], "runs": runs}, f, indent=1)
        f.write("\n")
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["runs"]
    sys.exit(0 if report(spec, runs, earlier) else 1)


if __name__ == "__main__":
    main()
