"""Record the benchmark over a fixed list of seeds in one JSON file.

Usage:
  python3 tools/bench_record.py BENCH_6.json

For every workload that BENCHMARK.json declares and every seed in SEEDS,
one after another, this runs

  python3 bench/run.py --workload W --seed S --seconds 20 --trace 0

from the repository root and keeps the run's record, info and result
lines. The output file holds those lines for every run and, per
workload, the median, quartiles and interquartile range of each
end-to-end metric over the seeds, with the failed-op count and the
decisions digest of each seed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed so that two files recorded from different trees compare the same
# op sets; five runs per workload give quartiles without a day of runs.
SEEDS = (601, 602, 603, 604, 605)
SECONDS = 20


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output JSON path, e.g. BENCH_6.json")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in SEEDS:
            print(f"bench_record: {workload} seed {seed}", file=sys.stderr, flush=True)
            runs.append(_run(workload, seed))
    payload = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
