"""Time the batch estimators and one engine append on an (n, p) grid.

Usage:
  python3 tools/estimator_grid.py [--src DIR]

For every n in NS (10^4, 10^5, 10^6) and p in PS (2, 5, 50) this
draws an iid N(0, 1) chain of n rows and p columns (seed 1) and times,
on the mcstop package under --src (default: this checkout's src):

  reference_estimate   checkpoint.reference_estimate(chain, nu:0.5)
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
and the median wall time is reported, with every run's time. Prints one
JSON object. The (10^6, 50) cell holds a 400 MB chain and up to two
temporaries of its size. To compare two trees, run it on each with
--src, taking turns. nproc is the number of CPUs the process may run
on, as bench/run.py records it.
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

ROOT = Path(__file__).resolve().parent.parent
NS = (10**4, 10**5, 10**6)
PS = (2, 5, 50)
REPEATS = 7


def _cases(checkpoint, estimators, chain, policy):
    """The timed calls of one cell, by name."""
    n = chain.n
    b_n = estimators.batch_size(n, policy)
    prefix = chain.data[: n // b_n * b_n]
    center = prefix.mean(axis=0)
    lam = estimators.sample_covariance(chain).matrix
    return {
        "reference_estimate": lambda: checkpoint.reference_estimate(chain, policy),
        "mbm": lambda: estimators.mbm(chain, b_n),
        "batch_means": lambda: estimators.batch_means(prefix, b_n, center),
        "sample_covariance": lambda: estimators.sample_covariance(chain),
        "log_det": lambda: estimators.log_det(lam),
        "finish": lambda: estimators.finish(lam, 1.0, n - 1, "sample"),
        "engine_append":
            lambda: checkpoint.CheckpointEngine(chain.p, policy).append(chain.data),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    import mcstop.checkpoint as checkpoint
    import mcstop.estimators as estimators

    policy = estimators.BatchPolicy.exponent(0.5)
    cells = []
    for n in NS:
        for p in PS:
            chain = estimators.ChainMatrix(np.random.default_rng(1).standard_normal((n, p)))
            cases = _cases(checkpoint, estimators, chain, policy)
            runs = {name: [] for name in cases}
            for _ in range(REPEATS):
                for name, call in cases.items():
                    t0 = time.perf_counter()
                    call()
                    runs[name].append(time.perf_counter() - t0)
            cells.append({"n": n, "p": p,
                          "median_s": {k: statistics.median(v) for k, v in runs.items()},
                          "runs_s": runs})
            del chain, cases
    print(json.dumps({"src": src, "repeats": REPEATS,
                      "python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0)), "cells": cells}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
