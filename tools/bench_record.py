"""Record the benchmark over a fixed list of seeds in one JSON file.

Usage:
  python3 tools/bench_record.py BENCH_7.json

For every workload that BENCHMARK.json declares and every seed in SEEDS,
one after another, this runs

  python3 bench/run.py --workload W --seed S --seconds 20 --trace 0

from the repository root and keeps the run's record, info and result
lines. The output file holds those lines for every run and, per
workload, the median, quartiles and interquartile range of each
end-to-end metric over the seeds, with the failed-op count and the
decisions digest of each seed. It also holds the Tier-1 wall time with
the durations of the slow acceptance criteria, from the README's pytest
command run with --durations=0 and PYTHONPATH=src, the output of
tools/resume_scale.py (one resume call on a 10^6-row chain file), that
of tools/sampler_rates.py (rows/s of each built-in sampler), that of
tools/cold_start.py (fresh-process times of `import mcstop` and four CLI
calls, with the SciPy subpackages each loaded), that of
tools/estimator_grid.py (the batch estimators, finish and one engine
append on an (n, p) grid), that of tools/checkpoint_overhead.py (the
stopping driver's milliseconds per checkpoint, sampler and the rest) and,
under "parity", the last line of tools/summary_parity.py: the SHA-256 of
the outputs a change must keep.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed so that two files recorded from different trees compare the same
# op sets; five runs per workload give quartiles without a day of runs.
SEEDS = (601, 602, 603, 604, 605)
SECONDS = 20
# The acceptance criteria that take most of Tier-1's time.
SLOW_CRITERIA = (6, 8, 10, 5, 9)
_DURATION = re.compile(r"^([0-9.]+)s call\s+(\S+)$")
_SUMMARY = re.compile(r"^=+ (.*) in ([0-9.]+)s")


def _run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    record = next(line["record"] for line in lines if "record" in line)
    info = next(line["info"] for line in lines if "info" in line)
    return {"workload": workload, "seed": seed, "record": record, "info": info,
            "result": lines[-1]}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


def summarize(runs: list) -> dict:
    """Per workload: the spread of each end-to-end metric over its runs."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        metrics = {}
        for name, entry in mine[0]["result"]["metrics"].items():
            values = [run["result"]["metrics"][name]["value"] for run in mine]
            metrics[name] = {"unit": entry["unit"], **_spread(values)}
        out[workload] = {
            "metrics": metrics,
            "failed_ops": sum(run["result"]["failed"] for run in mine),
            "all_correct": all(run["result"]["correct"] for run in mine),
            "decisions_digest": {str(run["seed"]): run["info"]["decisions_digest"]
                                 for run in mine},
        }
    return out


def tier1() -> dict:
    """Wall time, outcome line and slow-criterion durations of one Tier-1 run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-v", "--durations=0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    calls = {m.group(2): float(m.group(1)) for m in map(_DURATION.match, lines) if m}
    criteria = {}
    for k in SLOW_CRITERIA:
        names = [n for n in calls if f"test_criterion_{k:02d}_" in n]
        if names:
            criteria[str(k)] = {"test": names[0], "call_s": calls[names[0]]}
    summary = next((m for m in map(_SUMMARY.match, reversed(lines)) if m), None)
    return {
        "command": "PYTHONPATH=src python -m pytest -v --durations=0",
        "exit_code": proc.returncode,
        "wall_s": wall,
        "outcome": summary.group(1) if summary else None,
        "pytest_s": float(summary.group(2)) if summary else None,
        "slow_criteria": criteria,
    }


def _stdout(script: str) -> str:
    """What a tools/ script prints."""
    proc = subprocess.run([sys.executable, script], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def _tool(script: str) -> dict:
    """The JSON object a tools/ script prints."""
    return json.loads(_stdout(script))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output JSON path, e.g. BENCH_7.json")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in SEEDS:
            print(f"bench_record: {workload} seed {seed}", file=sys.stderr, flush=True)
            runs.append(_run(workload, seed))
    print("bench_record: resume_scale", file=sys.stderr, flush=True)
    scale = _tool("tools/resume_scale.py")
    print("bench_record: sampler_rates", file=sys.stderr, flush=True)
    rates = _tool("tools/sampler_rates.py")
    print("bench_record: cold_start", file=sys.stderr, flush=True)
    cold = _tool("tools/cold_start.py")
    print("bench_record: estimator_grid", file=sys.stderr, flush=True)
    grid = _tool("tools/estimator_grid.py")
    print("bench_record: checkpoint_overhead", file=sys.stderr, flush=True)
    overhead = _tool("tools/checkpoint_overhead.py")
    print("bench_record: summary_parity", file=sys.stderr, flush=True)
    parity = _stdout("tools/summary_parity.py").splitlines()[-1]
    print("bench_record: tier-1", file=sys.stderr, flush=True)
    payload = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "summary": summarize(runs),
        "tier1": tier1(),
        "resume_scale": scale,
        "sampler_rates": rates,
        "cold_start": cold,
        "estimator_grid": grid,
        "checkpoint_overhead": overhead,
        "parity": parity,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
