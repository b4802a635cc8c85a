"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. Runs every workload briefly, untraced and traced, in its own process,
   and requires every op to pass its checks and every metric to appear.
2. Feeds each workload's checker a result tampered with after the run
   (n_final moved one grid point, a coverage flag flipped) and requires
   the checker to reject it.
3. Runs the benchmark from a copy holding only BENCHMARK.json and bench/,
   where mcstop is missing, and requires a non-zero exit and no result.
Exits 0 when everything holds, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import mcstop  # noqa: E402
import workloads  # noqa: E402
from tracing import KeepingSpec  # noqa: E402

SEED = 3


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, trace, seconds="0.1"):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def tiny_runs(spec):
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, w, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(lines[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in want if m["name"] not in res["metrics"]]
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace={trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {res['failed']}/{res['attempted']} "
                                f"failed\n{proc.stderr}")
            if missing:
                problems.append(f"{w} trace={trace}: missing metrics {missing}")
            print(f"tiny run {w} trace={trace}: {res['failed']}/{res['attempted']} failed")
    return problems


def tampered_results():
    problems = []

    def expect(label, clean, tampered):
        if clean:
            problems.append(f"{label}: untampered result rejected: {clean}")
        if not tampered:
            problems.append(f"{label}: tampered result accepted")
        print(f"tamper {label}: clean ok={not clean}, tampered caught={bool(tampered)}")

    for name in ("seq_short", "seq_long"):
        seq = workloads.build(name, None)
        res = mcstop.run_sequential(seq.model.make_source(SEED), seq.check, seq.config)
        later = workloads.grid_upto(seq.config, res.n_final + 1)[-1]
        expect(f"{name} n_final +1 grid point", seq.verify(SEED, res),
               seq.verify(SEED, dataclasses.replace(res, n_final=later)))

    logit = workloads.LogisticFixed()
    model = KeepingSpec(logit.spec)
    row = mcstop.coverage_study(mcstop.StudySpec(
        model=model, replications=1, stopping=(workloads.LOGIT_N,),
        methods=("mbm",), seed_base=SEED, alpha=workloads.LOGIT_ALPHA,
    )).rows[0]
    chain = model.sources[0].take(workloads.LOGIT_N)
    expect("logistic_fixed covered flipped", logit.verify(row, chain),
           logit.verify(dict(row, covered=1 - row["covered"]), chain))

    workdir = os.path.join(ROOT, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "selftest-walk.csv")
    state = os.path.join(workdir, "selftest-walk.json")
    try:
        data = mcstop.var1_benchmark(5).make_source(SEED).take(200_000).data
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="y1,y2,y3,y4,y5",
                   comments="")
        if os.path.exists(state):
            os.remove(state)
        out = subprocess.run(
            [sys.executable, "-c", "import sys; from mcstop.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "stop", "--input", path, "--resume",
             state] + workloads.RESUME_FLAGS,
            capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        payload = json.loads(out.stdout.strip().splitlines()[-1])
        walk = workloads.ResumeWalk(workdir)
        later = workloads.grid_upto(workloads.RESUME_CONFIG, payload["n_final"] + 1)[-1]
        expect("resume_walk n_final +1 grid point", walk.verify_final(path, payload),
               walk.verify_final(path, dict(payload, n_final=later)))
    finally:
        for p in (path, state):
            if os.path.exists(p):
                os.remove(p)
    return problems


def bare_copy():
    """Without src/ the benchmark must fail loudly, not report."""
    copy = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(copy, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        proc = _run(copy, "seq_short", 0)
        ok = proc.returncode != 0 and '"correct"' not in proc.stdout
        print(f"bare copy: exit {proc.returncode}, result printed: {not ok}")
        return [] if ok else [f"bare copy exited {proc.returncode}: {proc.stdout}"]
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main():
    problems = tiny_runs(_spec()) + tampered_results() + bare_copy()
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
