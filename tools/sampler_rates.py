"""Time each built-in sampler's take(10^5) and report rows per second.

Usage:
  python3 tools/sampler_rates.py [--src DIR]

For each model spec in SPECS, this builds a fresh source per run (seeds
1 to RUNS), times take(ROWS) on it and prints one JSON object with the
rows/s of every run and their median. A first take of a few rows before
the timed runs keeps one-off costs, such as the lazy scipy.signal import
of the VAR(1) sources, out of the timings.
"""
import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ("iid:p=5", "var1_bench5", "var1_bench50", "logistic")
ROWS = 10**5
RUNS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    from mcstop.experiments import parse_model_spec

    rates = {}
    for text in SPECS:
        spec = parse_model_spec(text)
        spec.make_source(0).take(10)
        runs = []
        for seed in range(1, RUNS + 1):
            src = spec.make_source(seed)
            t0 = time.perf_counter()
            src.take(ROWS)
            runs.append(ROWS / (time.perf_counter() - t0))
        rates[text] = {"median_rows_per_s": round(statistics.median(runs), 1),
                       "runs_rows_per_s": [round(r, 1) for r in runs]}
    print(json.dumps({"src": os.path.relpath(args.src, ROOT), "rows": ROWS,
                      "runs": RUNS, "python": platform.python_version(),
                      "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0)), "rates": rates}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
