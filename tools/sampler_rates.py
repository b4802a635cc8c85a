"""Time each built-in sampler's take(10^5) and report rows per second.

Usage:
  python3 tools/sampler_rates.py [--src DIR]
  python3 tools/sampler_rates.py --against PARENT_SRC [--src DIR]

For each model spec in SPECS, this builds a fresh source per run (seeds
1 to RUNS), times take(ROWS) on it and prints one JSON object with the
rows/s of every run and their median. A first take of a few rows before
the timed runs keeps one-off costs, such as the lazy scipy.signal import
of the VAR(1) sources, out of the timings.

With --against, the tree under --src is the change and the tree under
PARENT_SRC its parent. Both are loaded into this one process
(tools/two_trees.py), and for each of TURNS (20) seeds, take(ROWS) runs
once on each tree, the trees alternating run by run, in CPU time. Seeds
differ in work (an RWM chain's acceptances), so runs are compared seed
by seed. Per spec it reports the median rows per CPU second of each
tree, the median over seeds of the change/parent ratio of CPU seconds
(below 1: the change is faster; two copies of one tree read within
about 3%) and the number of seeds the change won.
"""
import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import two_trees

ROOT = Path(__file__).resolve().parent.parent
SPECS = ("iid:p=5", "var1_bench5", "var1_bench50", "logistic")
ROWS = 10**5
RUNS = 5
TURNS = 20


def _one_tree(src: str) -> dict:
    sys.path.insert(0, src)
    from mcstop.experiments import parse_model_spec

    rates = {}
    for text in SPECS:
        spec = parse_model_spec(text)
        spec.make_source(0).take(10)
        runs = []
        for seed in range(1, RUNS + 1):
            source = spec.make_source(seed)
            t0 = time.perf_counter()
            source.take(ROWS)
            runs.append(ROWS / (time.perf_counter() - t0))
        rates[text] = {"median_rows_per_s": round(statistics.median(runs), 1),
                       "runs_rows_per_s": [round(r, 1) for r in runs]}
    return {"src": os.path.relpath(src, ROOT), "rates": rates}


def _against(src: str, parent_src: str) -> dict:
    trees = two_trees.load_pair(src, parent_src, "mcstop.experiments")
    rates = {}
    for text in SPECS:
        specs = {}
        for side, tree in trees.items():
            with two_trees.active(tree):
                specs[side] = tree.experiments.parse_model_spec(text)
                specs[side].make_source(0).take(10)
        times = {side: [] for side in trees}
        for r, side in two_trees.turn_order(TURNS):
            with two_trees.active(trees[side]):
                source = specs[side].make_source(r + 1)
                times[side].append(two_trees.cpu_seconds(lambda: source.take(ROWS)))
        rates[text] = {**{f"{side}_median_rows_per_cpu_s":
                          round(ROWS / statistics.median(times[side]), 1) for side in trees},
                       **two_trees.compare(times["change"], times["parent"])}
    return {"src": trees["change"].src, "against": trees["parent"].src, "rates": rates}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    ap.add_argument("--against", metavar="PARENT_SRC",
                    help="time --src against this tree, in turns in one process")
    args = ap.parse_args(argv)
    out = _one_tree(args.src) if args.against is None else _against(args.src, args.against)
    print(json.dumps({**out, "rows": ROWS, "runs": RUNS if args.against is None else TURNS,
                      "python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
