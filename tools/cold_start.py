"""Time mcstop's cold start: fresh-process wall times of five calls.

Usage:
  python3 tools/cold_start.py [--src DIR]

Each case runs REPEATS (7) times, the cases taking turns, in a fresh
interpreter with the tree under --src (default ./src) first on sys.path,
and reports the median wall time from process start to exit, each run's
time, the exit code, and the SciPy subpackages the process had loaded
when it exited:

  import            `import mcstop`
  help              `mcstop --help`
  resume_below      `mcstop stop --resume` on a file that has grown but not
                    yet reached the pinned next checkpoint
  resume_at         the same call on a file that holds the next checkpoint,
                    so the rule is checked (an F quantile)
  stop_model        `mcstop stop --model var1_bench5 --seed 1 --eps 0.2`

The CLI cases call mcstop.cli.main, as the installed `mcstop` script
does. The resume cases share one state file, pinned by a first call on
the first PINNED rows of an iid N(0, I_5) chain (eps 0.05, n* auto);
the state and row cache are restored before every run, so each run
makes the same call. Prints one JSON object; its nproc is the number of
CPUs the process may run on, as bench/run.py records it.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINNED, BELOW, AT = 4000, 6000, 9000
REPEATS = 7
# Run in the child after the case: the public SciPy subpackages loaded.
_REPORT = ("import atexit, json, sys\n"
           "atexit.register(lambda: sys.stderr.write('\\nscipy: ' + json.dumps(sorted(\n"
           "    {m.split('.')[1] for m in sys.modules\n"
           "     if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})) + '\\n'))\n")
_CLI = "from mcstop.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def _child(src: str, body: str, argv, cwd) -> dict:
    code = f"import sys\nsys.path.insert(0, {src!r})\n{_REPORT}{body}"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stderr.rstrip().rsplit("\n", 1)[-1]
    if not tail.startswith("scipy: "):
        raise RuntimeError(f"child failed (exit {proc.returncode}): {proc.stderr}")
    return {"wall_s": wall, "exit": proc.returncode,
            "scipy_loaded": json.loads(tail[len("scipy: "):])}


def _write_rows(path: Path, rows: np.ndarray) -> None:
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    rows = np.random.default_rng(1).standard_normal((AT, 5))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, n in (("pinned.csv", PINNED), ("below.csv", BELOW), ("at.csv", AT)):
            _write_rows(work / name, rows[:n])
        resume = ["stop", "--resume", "state.json", "--json", "--input"]
        first = _child(src, _CLI, resume + ["pinned.csv", "--eps", "0.05"], work)
        if first["exit"] != 0:
            raise RuntimeError("the pinning call failed")
        saved = {name: (work / name).read_bytes()
                 for name in ("state.json", "state.json.rows.npy")}
        cases = {
            "import": ("import mcstop\n", []),
            "help": (_CLI, ["--help"]),
            "resume_below": (_CLI, resume + ["below.csv"]),
            "resume_at": (_CLI, resume + ["at.csv"]),
            "stop_model": (_CLI, ["stop", "--model", "var1_bench5", "--seed", "1",
                                  "--eps", "0.2"]),
        }
        runs = {name: [] for name in cases}
        for _ in range(REPEATS):
            for name, (body, case_argv) in cases.items():
                for file, data in saved.items():
                    (work / file).write_bytes(data)
                runs[name].append(_child(src, body, case_argv, work))
    out = {name: {
        "argv": case_argv,
        "median_s": statistics.median(run["wall_s"] for run in runs[name]),
        "runs_s": [run["wall_s"] for run in runs[name]],
        "exit": sorted({run["exit"] for run in runs[name]}),
        "scipy_loaded": runs[name][-1]["scipy_loaded"],
    } for name, (_, case_argv) in cases.items()}
    print(json.dumps({"src": src, "repeats": REPEATS,
                      "python": platform.python_version(),
                      "nproc": len(os.sched_getaffinity(0)), "cases": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
