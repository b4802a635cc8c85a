"""Time the batch estimators and one engine append on an (n, p) grid.

Usage:
  python3 tools/estimator_grid.py [--src DIR]
  python3 tools/estimator_grid.py --against PARENT_SRC [--src DIR]

For every n in NS (10^4, 10^5, 10^6) and p in PS (1, 2, 5, 50) this
draws an iid N(0, 1) chain of n rows and p columns (seed 1) and times,
on the mcstop package under --src (default: this checkout's src):

  reference_estimate   checkpoint.reference_estimate(chain.data, nu:0.5)
  mbm                  estimators.mbm(chain, b_n) at b_n = ⌊√n⌋
  batch_means          estimators.batch_means, mbm's kernel, on the first
                       a_n·b_n rows and their column means
  sample_covariance    estimators.sample_covariance(chain)
  log_det              estimators.log_det of Λ_n (p x p, independent of n):
                       the public, validated path, which checkpoints do
                       not take
  finish               estimators.finish of Λ_n, at scale 1: the scale,
                       symmetrising and log-determinant that end every
                       checkpoint estimate (independent of n)
  engine_append        CheckpointEngine(p, nu:0.5).append(rows): the n rows
                       appended at once to a new engine

Each is called REPEATS (7) times, the calls of one cell taking turns,
and the median wall time is reported, with every run's time.

With --against, the tree under --src is the change and the tree under
PARENT_SRC its parent. Both are loaded into this one process
(tools/two_trees.py), and each call of a cell takes REPEATS turns on
each tree, the trees alternating turn by turn, in CPU time. A turn is
as many calls in a row as make at least 50 ms on the parent, and
counts their mean. Per cell and call it reports the median over the
REPEATS rounds of the change/parent ratio of CPU seconds per call (below
1: the change is faster) and the number of rounds the change won, with
every turn's time.

Prints one JSON object. The (10^6, 50) cell holds a 400 MB chain and up
to two temporaries of its size. nproc is the number of CPUs the process
may run on, as bench/run.py records it.
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
NS = (10**4, 10**5, 10**6)
PS = (1, 2, 5, 50)
REPEATS = 7


def _cases(checkpoint, estimators, chain, policy):
    """The timed calls of one cell, by name."""
    n = chain.n
    b_n = estimators.batch_size(n, policy)
    prefix = chain.data[: n // b_n * b_n]
    center = prefix.mean(axis=0)
    lam = estimators.sample_covariance(chain).matrix
    return {
        "reference_estimate": lambda: checkpoint.reference_estimate(chain.data, policy),
        "mbm": lambda: estimators.mbm(chain, b_n),
        "batch_means": lambda: estimators.batch_means(prefix, b_n, center),
        "sample_covariance": lambda: estimators.sample_covariance(chain),
        "log_det": lambda: estimators.log_det(lam),
        "finish": lambda: estimators.finish(lam, 1.0, n - 1, "sample"),
        "engine_append":
            lambda: checkpoint.CheckpointEngine(chain.p, policy).append(chain.data),
    }


def _cells():
    """The rows of every cell, one cell at a time, as (n, p, rows)."""
    for n in NS:
        for p in PS:
            yield n, p, np.random.default_rng(1).standard_normal((n, p))


def _one_tree(src: str) -> dict:
    sys.path.insert(0, src)
    import mcstop.checkpoint as checkpoint
    import mcstop.estimators as estimators

    policy = estimators.BatchPolicy.exponent(0.5)
    cells = []
    for n, p, rows in _cells():
        cases = _cases(checkpoint, estimators, estimators.ChainMatrix(rows), policy)
        runs = {name: [] for name in cases}
        for _ in range(REPEATS):
            for name, call in cases.items():
                t0 = time.perf_counter()
                call()
                runs[name].append(time.perf_counter() - t0)
        cells.append({"n": n, "p": p,
                      "median_s": {k: statistics.median(v) for k, v in runs.items()},
                      "runs_s": runs})
        del rows, cases
    return {"src": src, "cells": cells}


def _against(src: str, parent_src: str) -> dict:
    trees = two_trees.load_pair(src, parent_src, "mcstop.checkpoint", "mcstop.estimators")
    cells = []
    for n, p, rows in _cells():
        cases = {}
        for side, t in trees.items():
            with two_trees.active(t):
                cases[side] = _cases(t.checkpoint, t.estimators, t.estimators.ChainMatrix(rows),
                                     t.estimators.BatchPolicy.exponent(0.5))
        calls = {}
        for name in cases["parent"]:
            with two_trees.active(trees["parent"]):
                number = two_trees.calls_per_turn(cases["parent"][name])
            times = {side: [] for side in trees}
            for _, side in two_trees.turn_order(REPEATS):
                with two_trees.active(trees[side]):
                    times[side].append(two_trees.cpu_seconds(cases[side][name], number))
            calls[name] = {"calls_per_turn": number,
                           **two_trees.compare(times["change"], times["parent"])}
        cells.append({"n": n, "p": p, "calls": calls})
        del rows, cases
    return {"src": trees["change"].src, "against": trees["parent"].src, "cells": cells}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    ap.add_argument("--against", metavar="PARENT_SRC",
                    help="time --src against this tree, in turns in one process")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    out = _one_tree(src) if args.against is None else _against(src, args.against)
    print(json.dumps({**out, "repeats": REPEATS,
                      "python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0))}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
