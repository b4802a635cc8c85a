"""The timed loop, set-up timing, and the metrics it reports."""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np
import scipy

import mcstop
from tracing import Tracer, layer_metrics
from workloads import SETUP_CODE, Op, build

# A percentile is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100
SETUP_REPEATS = 3
# Units (decisions, replications or walks) in an untraced run's fixed op
# set. The run cycles through them until --seconds have passed, so each op
# runs about seven times, each pass bracketed by probes (workloads.probe_s).
# A cycle lasts 2-3 s; the set is large enough that its mean cost hardly
# depends on --seed.
UNITS = {"seq_short": 40, "seq_long": 8, "logistic_fixed": 16, "resume_walk": 8}
# Keeps the op seeds of neighbouring --seed values apart.
SEED_STRIDE = 10_007
WARMUP_CONFIG = mcstop.StoppingConfig(epsilon=0.05, alpha=0.10, n_star=1000)


def _git_sha(root):
    """HEAD of the checkout, unless root is not itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or (
            os.path.realpath(lines[0]) != os.path.realpath(root)):
        return "unavailable (not a git checkout)"
    return lines[1]


def run_record(args, root, nproc, env_keys):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mcstop": mcstop.__version__,
        "env": {k: os.environ.get(k) for k in env_keys},
    }


def measure_setup(workload, src, repeats):
    """Seconds from a fresh interpreter to a built model, median of repeats."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import mcstop\n"
        f"{SETUP_CODE[workload]}\n"
        "print('ready', flush=True)\n"
    )
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            status = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if status != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {workload} failed (exit {status})")
        times.append(elapsed)
    return statistics.median(times)


def _digest(workload, keyed_ops):
    h = hashlib.sha256()
    for seed, op in keyed_ops:
        h.update(f"{workload},{seed},{op.n},{op.reason}\n".encode())
    return h.hexdigest()


def _failed_op(exc):
    op = Op((None, None), 0, None, "error")
    op.problems.append(f"{type(exc).__name__}: {exc}")
    traceback.print_exc(file=sys.stderr)
    return op


def _unit(work, seed, tracer, check=True):
    try:
        return work.unit(seed, tracer, check)
    except Exception as exc:  # one failed unit must not end the run
        return [_failed_op(exc)]


def _traced_loop(work, base, seconds, tracer):
    """Each unit once traced and once plain, until seconds have passed."""
    timed, plain_ops = [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        seed = base + i
        ops = _unit(work, seed, tracer)
        plain = _unit(work, seed, None, check=False)
        if [o.key() for o in plain] != [o.key() for o in ops]:
            ops[-1].problems.append("traced and untraced decisions differ")
        plain_ops.extend(plain)
        timed.extend((seed, op) for op in ops)
        i += 1
        if perf_counter() >= deadline:
            return timed, plain_ops


def _cycled_loop(work, seeds, seconds):
    """Cycle through the units of seeds until seconds have passed.

    The first pass of each unit is fully checked; a later pass must reach
    the same decisions. Returns the first pass's (seed, op) pairs, the
    (wall, probe) of every pass of each of them, every later op, and the
    number of unit passes.
    """
    first, repeats, samples = [], [], []
    deadline = perf_counter() + seconds
    passes = 0
    while passes < len(seeds) or perf_counter() < deadline:
        j = passes % len(seeds)
        if passes < len(seeds):
            ops = _unit(work, seeds[j], None)
            first.append([(seeds[j], op) for op in ops])
            samples.append([[(op.wall, op.probe)] for op in ops])
        else:
            ops = _unit(work, seeds[j], None, check=False)
            ref = [op for _, op in first[j]]
            if [o.key() for o in ops] != [o.key() for o in ref]:
                ops[-1].problems.append(
                    f"pass {passes // len(seeds) + 1} of seed {seeds[j]} "
                    "reached other decisions than its first pass")
            else:
                for op, seen in zip(ops, samples[j]):
                    seen.append((op.wall, op.probe))
            repeats.extend(ops)
        passes += 1
    pairs = [pair for unit in first for pair in unit]
    per_op = [seen for unit in samples for seen in unit]
    return pairs, per_op, repeats, passes


def run(args, root, src):
    workdir = os.path.join(root, ".bench_work")
    os.makedirs(workdir, exist_ok=True)
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(args.workload, src, SETUP_REPEATS)
    work = build(args.workload, workdir)
    base = args.seed * SEED_STRIDE
    # Warm lazy imports and first-call paths shared by every workload.
    mcstop.run_sequential(
        mcstop.var1_benchmark(5).make_source(base + SEED_STRIDE - 1), None, WARMUP_CONFIG
    )

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        timed, plain_ops = _traced_loop(work, base, args.seconds, tracer)
        passes = len({seed for seed, _ in timed})
    else:
        seeds = [base + j for j in range(UNITS[args.workload])]
        timed, per_op, plain_ops, passes = _cycled_loop(work, seeds, args.seconds)

    all_ops = [op for _, op in timed] + plain_ops
    failed = [op for op in all_ops if op.problems]
    for op in failed[:10]:
        print(f"bench: check failed: {'; '.join(op.problems)}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "unit_passes": passes,
        "ops": len(timed),
        "op_passes": len(all_ops),
        "fail_ratio": len(failed) / len(all_ops),
        "decisions_digest": _digest(args.workload, timed),
    }
    if args.trace:
        traced = sum(op.wall is not None for _, op in timed)
        untraced_wall = sum(op.wall for op in plain_ops if op.wall is not None)
        layers = layer_metrics(tracer, max(1, traced), untraced_wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.dump(os.path.join(workdir, f"spans-{args.workload}-{args.seed}.json"))
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured = [(op, [(w, p) for w, p in seen if w is not None])
                    for (_, op), seen in zip(timed, per_op)]
        measured = [(op, seen) for op, seen in measured if seen]
        # An op's cost is the median over its passes of wall ÷ probe. The
        # mean over the op set, unlike a median, does not jump between
        # checkpoint-grid sizes from one --seed to the next.
        costs = [statistics.median(w / p for w, p in seen) for _, seen in measured]
        best = [min(w for w, _ in seen) for _, seen in measured]
        rows = sum(op.rows for op, _ in measured)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_cost": {"value": statistics.fmean(costs) if costs else 0.0,
                        "unit": "probe"},
            "draws_per_probe": {"value": rows / sum(costs) if costs else 0.0,
                                "unit": "rows/probe"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }
        # Raw seconds, for reading alongside: each op's fastest pass.
        info["op_best_s"] = statistics.fmean(best) if best else None
        info["draws_per_s"] = rows / sum(best) if best else None
        info["probe_s_median"] = statistics.median(
            p for _, seen in measured for _, p in seen) if measured else None
        if len(costs) >= P90_MIN_OPS:
            info["op_cost_p90"] = statistics.quantiles(costs, n=10)[-1]
        else:
            info["op_cost_p90"] = (
                f"omitted: {len(costs)} ops, fewer than {P90_MIN_OPS} "
                "(needs ten samples beyond the 90th percentile)"
            )
    result = {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, info
