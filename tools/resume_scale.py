"""Time one resume call on a large chain file, split by layer.

Usage:
  python3 tools/resume_scale.py [--src DIR]

Writes a var1_bench5 chain (seed 1) with a header to a temporary CSV of
about ROWS (10^6) rows, placed so that the next APPEND (10^4) rows hold
the next checkpoint of the rule (eps 0.002, alpha 0.10, n* 1000, growth 0.10,
which does not fire at this length). It runs `mcstop stop --resume` once
to pin the state, which parses the whole file, appends the rows and runs
the second call, which parses only the appended rows. Both calls are
timed and split by what each layer of mcstop.cli calls: parse
(load_chain and parse_rows), hash (the SHA-256 pin of the file), row
cache (read and write), checkpoint (drive_checkpoints) and state (the
state write). Each call also reports the rows its parse read per
second. Layers the tree under --src lacks are left out. Prints one JSON
object.
"""
import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["--eps", "0.002", "--alpha", "0.10", "--nstar", "1000", "--json"]
ROWS = 10**6
APPEND = 10**4
LAYERS = {
    "load_chain": "parse", "parse_rows": "parse",
    "_pin_read_prefix": "hash",
    "_read_row_cache": "row_cache", "_write_row_cache": "row_cache",
    "drive_checkpoints": "checkpoint",
    "_write_state": "state",
}


def _checkpoint_after(n: int) -> int:
    """The first checkpoint of the grid at or past n (n* 1000, growth 0.10)."""
    cp = 1000
    while cp < n:
        cp += int(math.ceil(0.10 * cp))
    return cp


def _timed_call(cli, argv) -> dict:
    spent = dict.fromkeys(LAYERS.values(), 0.0)
    originals = {name: getattr(cli, name) for name in LAYERS if hasattr(cli, name)}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[LAYERS[name]] += time.perf_counter() - t0
        return timed

    for name, fn in originals.items():
        setattr(cli, name, wrap(name, fn))
    out = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    layers = {k: round(v, 4) for k, v in spent.items()
              if any(LAYERS[n] == k for n in originals)}
    return {"exit": code, "total_s": round(total, 4), "layers_s": layers,
            "other_s": round(total - sum(spent.values()), 4),
            "payload": json.loads(out.getvalue().strip().splitlines()[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the mcstop source tree to time (default: this checkout's)")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    import mcstop
    import mcstop.cli as cli

    n0 = _checkpoint_after(ROWS) - APPEND // 2
    x = mcstop.var1_benchmark(5).make_source(1).take(n0 + APPEND).data
    with tempfile.TemporaryDirectory() as work:
        path, state = os.path.join(work, "chain.csv"), os.path.join(work, "state.json")
        with open(path, "w") as fh:
            fh.write("y1,y2,y3,y4,y5\n")
            np.savetxt(fh, x[:n0], fmt="%.17g", delimiter=",")
        base = ["stop", "--input", path, "--resume", state]
        first = _timed_call(cli, base + FLAGS)
        with open(path, "a") as fh:
            np.savetxt(fh, x[n0:], fmt="%.17g", delimiter=",")
        second = _timed_call(cli, base + ["--json"])
        size = os.path.getsize(path)
    for call, rows in ((first, n0), (second, APPEND)):
        call["parse_rows_per_s"] = round(rows / call["layers_s"]["parse"])
    print(json.dumps({
        "src": os.path.relpath(args.src, ROOT),
        "rows_before": n0, "rows_appended": APPEND,
        "file_bytes": size, "first_call": first, "second_call": second,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
