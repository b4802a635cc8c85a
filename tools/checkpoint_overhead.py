"""Time the stopping driver per checkpoint, split into sampler time and the rest.

Usage:
  python3 tools/checkpoint_overhead.py [--src DIR]

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
         checkpoint's engine work and rule, then the final ChainMatrix,
         reference estimate and summary, paid once per decision;
  rest   everything else outside the sampler: the engine's appends and
         estimates and the rule at every earlier checkpoint.

Each decision also reports its minor page faults: the process's
ru_minflt (getrusage) after the decision less before it. A fault is
paid when a fresh allocation, such as the source's doubling buffer or the
engine's prefix-sum buffer, first touches a page that glibc took from the
system with mmap or by growing the heap.

Per config it reports the medians over seeds of the wall, sampler and
rest milliseconds per checkpoint, of the tail milliseconds per decision
and of the minor faults per decision. One decision
at seed 0 runs first, untimed, so that the lazy SciPy imports (the
VAR(1) source's scipy.signal and the quantiles' scipy.special) are not
counted. Prints one JSON object. To compare two trees, run it on each
with --src, taking turns.
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

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(601, 609))
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    import mcstop
    import numpy as np

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
    print(json.dumps({"src": os.path.relpath(src, ROOT),
                      "python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0)), "configs": out},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
