"""mcstop benchmark: time to a stopping decision, one workload per process.

    python3 bench/run.py --workload seq_short --seed 1 --seconds 20 --trace 0

Runs one closed-loop client (one op at a time) for --seconds seconds on
inputs derived from --seed, checks every op's output, and prints as its
last stdout line a JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones, op
times counted in runs of a fixed probe loop; with
--trace 1 each unit of work runs once untraced and once traced, and the
metrics are the per-layer ones. Earlier stdout lines carry the run
record (git SHA, nproc, versions, thread settings, seed), the decisions
digest and the figures the result line cannot hold. See RATIONALE.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("seq_short", "seq_long", "logistic_fixed", "resume_walk")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_threads():
    """One client: MCSTOP_WORKERS=1, BLAS pools capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, nproc))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    os.environ["MCSTOP_WORKERS"] = "1"
    return nproc


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    return args


def _import_mcstop():
    """Import mcstop from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import mcstop
    except ImportError as exc:
        sys.exit(f"bench: cannot import mcstop from {SRC}: {exc}")
    if not os.path.abspath(mcstop.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: mcstop resolved to {mcstop.__file__}, outside {SRC}")


def main(argv=None):
    args = _parse(argv)
    nproc = _cap_threads()
    _import_mcstop()
    import runner

    print(json.dumps({"record": runner.run_record(args, ROOT, nproc, THREAD_VARS + ("MCSTOP_WORKERS",))}), flush=True)
    result, info = runner.run(args, ROOT, SRC)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
