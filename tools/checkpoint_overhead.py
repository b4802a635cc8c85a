"""Time the stopping driver per checkpoint, split into sampler time and the rest.

Usage:
  python3 tools/checkpoint_overhead.py [--src DIR]
  python3 tools/checkpoint_overhead.py --against PARENT_SRC [--src DIR]

For the two sequential configs of the benchmark on var1_bench5,

  seq_short   relative_sd, eps .05, alpha .10, n* 1000
  seq_long    univariate_bonferroni, eps .05, alpha .10, n* 50000

and every seed from 601 to 608, this runs run_sequential on a fresh
source from the mcstop package under --src (default: this checkout's
src). The source is wrapped in a thin timing source that has the p,
rows and take of a chain source and times each rows and take call;
nothing in mcstop is patched. Each decision reports its checkpoints (one
rows call each), n_final, its wall time, the time spent in the sampler,
the tail and the rest:

  tail   from the end of the last rows call to the return: the last
         checkpoint's engine work and rule, then the final reference
         estimate and summary, paid once per decision;
  rest   everything else outside the sampler: the engine's appends and
         estimates and the rule at every earlier checkpoint.

Each decision also reports its minor page faults: the process's
ru_minflt (getrusage) after the decision less before it. A fault is
paid when a fresh allocation first touches a page that glibc took from
the system with mmap or by growing the heap. After the first decision of
a p, no buffer of a decision is such an allocation until it grows past
its predecessor's: each decision's engine takes up the buffer the last
one gave back (chain.SpareRows), and its final estimate centres in that
buffer; the fresh source of each decision grows into the buffer that the
last collected source gave back, and its VAR(1) blocks are drawn in a
pooled scratch.

Per config it reports the medians over seeds of the wall, sampler and
rest milliseconds per checkpoint, of the tail milliseconds per decision
and of the minor faults per decision. One decision
at seed 0 runs first, untimed, so that the lazy SciPy imports (the
VAR(1) source's scipy.signal and the quantiles' scipy.special) are not
counted. Prints one JSON object.

With --against, the tree under --src is the change and the tree under
PARENT_SRC its parent. Both are loaded into this one process
(tools/two_trees.py). Per config, one untimed decision at seed 0 runs
on each tree, then ROUNDS (15) rounds of turns, the trees alternating
turn by turn: a turn is one run_sequential decision per seed of SEEDS
(601 to 608) on fresh sources, in CPU time (time.process_time), with
the process's minor faults counted over the turn. Per config it reports
each tree's median CPU milliseconds and minor faults per decision, the
median over rounds of the change/parent ratio of CPU seconds (below 1:
the change is faster; two copies of one tree read within about 4%), the
rounds the change won, and each seed's decision: n_final, reason, and
the float hex of its ESS and log volume. Every decision must be the same
on both trees and in every round, or the tool exits with the first
difference.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import two_trees

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(601, 609))
ROUNDS = 15
# The benchmark's seq_short and seq_long configs (bench/workloads.py).
CONFIGS = {
    "seq_short": {"epsilon": 0.05, "alpha": 0.10, "n_star": 1000,
                  "metric": "relative_sd"},
    "seq_long": {"epsilon": 0.05, "alpha": 0.10, "n_star": 50_000,
                 "metric": "univariate_bonferroni"},
}


class TimedSource:
    """A chain source that adds the time of every rows and take call."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0
        self.seconds = 0.0
        self.last_end = None

    @property
    def p(self):
        return self._inner.p

    def _timed(self, call, n):
        t0 = time.perf_counter()
        out = call(n)
        self.last_end = time.perf_counter()
        self.seconds += self.last_end - t0
        self.calls += 1
        return out

    def rows(self, n):
        return self._timed(self._inner.rows, n)

    def take(self, n):
        return self._timed(self._inner.take, n)


def _decision(mcstop, model, config, seed) -> dict:
    source = TimedSource(model.make_source(seed))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    result = mcstop.run_sequential(source, None, config)
    end = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    wall, tail = end - t0, end - source.last_end
    return {"seed": seed, "n_final": result.n_final, "reason": result.reason,
            "checkpoints": source.calls, "wall_s": wall,
            "sampler_s": source.seconds, "tail_s": tail,
            "rest_s": wall - source.seconds - tail, "minor_faults": faults}


def _outcome(result) -> list:
    """A decision as the trees must agree on it, floats in hex."""
    return [result.n_final, result.reason, float.hex(result.ess_at_termination),
            float.hex(result.log_volume)]


def _against(src: str, parent_src: str) -> dict:
    trees = two_trees.load_pair(src, parent_src, "mcstop")
    out = {}
    for name, values in CONFIGS.items():
        runs = {}
        for side, tree in trees.items():
            with two_trees.active(tree):
                model = tree.mcstop.var1_benchmark(5)
                config = tree.mcstop.StoppingConfig(**values)
                tree.mcstop.run_sequential(model.make_source(0), None, config)
            runs[side] = (tree.mcstop.run_sequential, model, config)
        times = {side: [] for side in trees}
        faults = {side: [] for side in trees}
        decisions = {}
        for _, side in two_trees.turn_order(ROUNDS):
            run, model, config = runs[side]
            with two_trees.active(trees[side]):
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.process_time()
                seen = [_outcome(run(model.make_source(seed), None, config))
                        for seed in SEEDS]
                times[side].append((time.process_time() - t0) / len(SEEDS))
                f1 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            faults[side].append((f1 - f0) / len(SEEDS))
            for seed, outcome in zip(SEEDS, seen):
                if decisions.setdefault(seed, outcome) != outcome:
                    raise SystemExit(f"{name} seed {seed}: {side} decided {outcome}, "
                                     f"not {decisions[seed]}")
        out[name] = {"config": values,
                     **{f"{side}_median_cpu_ms_per_decision":
                        1e3 * statistics.median(times[side]) for side in trees},
                     **{f"{side}_median_minor_faults_per_decision":
                        statistics.median(faults[side]) for side in trees},
                     **two_trees.compare(times["change"], times["parent"]),
                     "decisions": {str(seed): d for seed, d in decisions.items()}}
    return {"src": trees["change"].src, "against": trees["parent"].src,
            "rounds": ROUNDS, "configs": out}


def _one_tree(src: str) -> dict:
    sys.path.insert(0, src)
    import mcstop

    model = mcstop.var1_benchmark(5)
    out = {}
    for name, values in CONFIGS.items():
        config = mcstop.StoppingConfig(**values)
        _decision(mcstop, model, config, 0)
        decisions = [_decision(mcstop, model, config, seed) for seed in SEEDS]
        per_checkpoint = {
            key: statistics.median(1e3 * d[f"{key}_s"] / d["checkpoints"]
                                   for d in decisions)
            for key in ("wall", "sampler", "rest")
        }
        out[name] = {"config": values, "median_ms_per_checkpoint": per_checkpoint,
                     "median_tail_ms": statistics.median(1e3 * d["tail_s"]
                                                         for d in decisions),
                     "median_minor_faults": statistics.median(d["minor_faults"]
                                                              for d in decisions),
                     "decisions": decisions}
    return {"src": os.path.relpath(src, ROOT), "configs": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    ap.add_argument("--against", metavar="PARENT_SRC",
                    help="time --src against this tree, in turns in one process")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    out = _one_tree(src) if args.against is None else _against(src, args.against)
    print(json.dumps({**out, "python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0))}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
