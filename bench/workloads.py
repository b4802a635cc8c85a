"""The four workloads: one unit of work each, its timed ops, and its checks.

A unit is what one input seed drives: one stopping decision (seq_short,
seq_long), one fixed-n replication (logistic_fixed), or one walk of the
file-based resume protocol (resume_walk, several timed calls). Every
check runs outside the timed region. A unit is deterministic in its
seed, so a repeat of it is checked by comparing its decisions with those
of its first, fully checked pass (check=False skips the recomputes).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import mcstop
from mcstop import (
    LOGIT_REFERENCE_MEAN,
    BatchPolicy,
    ChainMatrix,
    FileChainSource,
    MeanVector,
    StoppingConfig,
    StudySpec,
    batch_size,
    check_relative_sd,
    check_univariate,
    column_means,
    contains,
    coverage_study,
    load_chain,
    make_region,
    mbm,
    multivariate_ess,
    rectangle_log_volume,
    run_sequential,
    sample_covariance,
)
from mcstop.cli import main as cli_main

from tracing import (
    KeepingSpec,
    TracedSource,
    prefix,
    replay_checkpoint,
    replay_coverage,
    replay_summary,
    traced_rule,
)

# ess_at_termination and log_volume are recomputed by the same public
# functions in the same order, so they agree to the last bit today; the
# tolerance leaves room only for a faithful change of summation order.
REL_TOL = 1e-12

LOGIT_N = 5_000
LOGIT_ALPHA = 0.10
# Acceptance rates at n = 5000 read 0.175-0.212 over seeds 0-299; a rate
# outside this band means the sampler's kernel changed.
ACCEPT_BAND = (0.14, 0.24)
# The posterior mean must sit within this many batch-means standard
# errors of LOGIT_REFERENCE_MEAN in every component (largest seen: 3.9
# over the same 300 seeds).
MAX_Z = 5.0

# 0.5-0.7 ms per run of the probe loop on the VM described in RATIONALE.md.
PROBE_LOOP = 7_000
PROBE_REPEATS = 3

RESUME_APPEND_ROWS = 8_000
RESUME_MAX_CALLS = 60
RESUME_FLAGS = ["--eps", "0.05", "--alpha", "0.10", "--nstar", "1000", "--json"]
RESUME_CONFIG = StoppingConfig(epsilon=0.05, alpha=0.10, n_star=1000)


class Op:
    """One timed operation and what its checks found."""

    __slots__ = ("wall", "probe", "rows", "n", "reason", "problems")

    def __init__(self, timing, rows, n, reason):
        self.wall, self.probe = timing
        self.rows = rows
        self.n = n
        self.reason = reason
        self.problems = []

    def key(self):
        return (self.n, self.reason)


def grid_upto(config, n):
    """Checkpoint grid n0 = max(n*, 2), n_{k+1} = n_k + ⌈growth·n_k⌉, up to n."""
    pts = [max(config.n_star, 2)]
    while pts[-1] < n:
        pts.append(pts[-1] + int(math.ceil(config.check_growth * pts[-1])))
    return pts


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def probe_s():
    """Seconds of a fixed pure-Python loop: the host's current speed.

    The fastest of three short runs, so that one interrupt does not count.
    """
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        best = min(best, perf_counter() - t0)
    return best


def _timed(tracer, name, fn):
    """Run fn as one op; returns its output and (wall, probe).

    Untraced, probe is the mean of probe_s() just before and just after
    the op. Traced, the op runs inside op/name spans and probe is None.
    """
    if tracer is None:
        p0 = probe_s()
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        return out, (wall, 0.5 * (p0 + probe_s()))
    tracer.op_id = len(tracer.spans)
    with tracer.span("op") as rec:
        with tracer.span(name):
            out = fn()
    return out, (rec[2] - rec[1], None)


class Sequential:
    """run_sequential on var1_bench5 with one public check as the rule."""

    def __init__(self, epsilon, metric, n_star):
        self.model = mcstop.var1_benchmark(5)
        self.config = StoppingConfig(
            epsilon=epsilon, alpha=0.10, n_star=n_star, metric=metric
        )
        self.check = check_relative_sd if metric == "relative_sd" else check_univariate

    def unit(self, seed, tracer=None, check=True):
        source = self.model.make_source(seed)
        rule = self.check
        if tracer is not None:
            seen = []
            source = TracedSource(source, tracer)
            rule = traced_rule(self.check, tracer, seen)
        result, timing = _timed(
            tracer, "stopping.run_sequential",
            lambda: run_sequential(source, rule, self.config),
        )
        if tracer is not None:
            tracer.add("checks", len(seen))
            tracer.add("decisions", int(result.terminated))
            tracer.add("rows_generated", source.longest.n)
            first = len(tracer.spans)
            for n in seen:
                replay_checkpoint(tracer, prefix(source.longest, n), self.config)
            tracer.add("checkpoint_replay_s", tracer.replay_time_since(first))
            replay_summary(tracer, prefix(source.longest, result.n_final), self.config)
        op = Op(timing, result.n_final, result.n_final, result.reason)
        if check:
            op.problems = self.verify(seed, result)
        return [op]

    def verify(self, seed, result):
        """The decision is reproducible from the seed and is the first firing."""
        cfg = self.config
        if result.reason != "criterion_met":
            return [f"reason {result.reason!r}, expected 'criterion_met'"]
        pts = grid_upto(cfg, result.n_final)
        if pts[-1] != result.n_final:
            return [f"n_final {result.n_final} is not on the checkpoint grid"]
        chain = self.model.make_source(seed).take(result.n_final)
        problems = []
        if not self.check(chain, cfg):
            problems.append(f"rule does not fire at n_final {result.n_final}")
        if len(pts) > 1 and self.check(ChainMatrix(chain.data[: pts[-2]]), cfg):
            problems.append(f"rule already fires at the previous checkpoint {pts[-2]}")
        n = chain.n
        b = batch_size(n, cfg.batch_policy)
        sig = mbm(chain, b)
        ess = multivariate_ess(sample_covariance(chain), sig, n)
        if cfg.metric == "relative_sd":
            log_vol = make_region(column_means(chain), sig, n, cfg.alpha).log_volume
        else:
            log_vol = rectangle_log_volume(
                chain, cfg.alpha, b, cfg.metric == "univariate_bonferroni"
            )
        if not _close(result.ess_at_termination, ess):
            problems.append(f"ess {result.ess_at_termination!r} != recomputed {ess!r}")
        if not _close(result.log_volume, log_vol):
            problems.append(f"log_volume {result.log_volume!r} != recomputed {log_vol!r}")
        return problems


class LogisticFixed:
    """One coverage_study replication at n = 1e5 on the logistic posterior."""

    def __init__(self):
        self.spec = mcstop.logistic_benchmark()

    def unit(self, seed, tracer=None, check=True):
        model = KeepingSpec(self.spec, tracer)
        study = StudySpec(
            model=model, replications=1, stopping=(LOGIT_N,), methods=("mbm",),
            seed_base=seed, alpha=LOGIT_ALPHA,
        )
        report, timing = _timed(
            tracer, "experiments.coverage_study", lambda: coverage_study(study)
        )
        row = report.rows[0]
        op = Op(timing, row["n"], row["n"], row["reason"])
        if not check:
            return [op]
        # The kept source already holds every draw; take() re-reads them.
        chain = model.sources[0].take(LOGIT_N)
        if tracer is not None:
            tracer.add("rows_generated", chain.n)
            replay_coverage(tracer, chain, study)
        op.problems = self.verify(row, chain)
        return [op]

    def verify(self, row, chain):
        """The study row matches a recompute on the chain it analysed."""
        problems = []
        n = chain.n
        if row["n"] != LOGIT_N or row["reason"] != "fixed_n":
            problems.append(f"row n={row['n']} reason={row['reason']!r}")
        b = batch_size(n, BatchPolicy.exponent())
        sig = mbm(chain, b)
        ess = multivariate_ess(sample_covariance(chain), sig, n)
        region = make_region(column_means(chain), sig, n, LOGIT_ALPHA)
        covered = int(contains(region, MeanVector(LOGIT_REFERENCE_MEAN)))
        if not _close(row["ess"], ess):
            problems.append(f"ess {row['ess']!r} != recomputed {ess!r}")
        if not _close(row["log_volume"], region.log_volume):
            problems.append(
                f"log_volume {row['log_volume']!r} != recomputed {region.log_volume!r}"
            )
        if row["covered"] != covered:
            problems.append(f"covered {row['covered']} != recomputed {covered}")
        acc = chain.meta["acceptance_rate"]
        if not ACCEPT_BAND[0] <= acc <= ACCEPT_BAND[1]:
            problems.append(f"acceptance rate {acc:.4f} outside {ACCEPT_BAND}")
        se = np.sqrt(np.diag(sig.matrix) / n)
        z = np.abs(chain.data.mean(axis=0) - LOGIT_REFERENCE_MEAN) / se
        if not (z <= MAX_Z).all():
            problems.append(f"posterior mean {z.max():.2f} SEs from the reference")
        return problems


class ResumeWalk:
    """`mcstop stop --input F --resume S` over a chain file grown in blocks."""

    def __init__(self, workdir):
        self.model = mcstop.var1_benchmark(5)
        self.workdir = workdir
        # seed -> the text of each appended block, so that a repeat of a
        # walk writes the same bytes without drawing and formatting again.
        self.blocks = {}

    def unit(self, seed, tracer=None, check=True):
        tag = "traced" if tracer is not None else "plain"
        path = os.path.join(self.workdir, f"walk-{seed}-{tag}.csv")
        state = os.path.join(self.workdir, f"walk-{seed}-{tag}.json")
        for p in (path, state):
            if os.path.exists(p):
                os.remove(p)
        try:
            return self._walk(seed, path, state, tracer, check)
        finally:
            for p in (path, state):
                if os.path.exists(p):
                    os.remove(p)

    def _walk(self, seed, path, state, tracer, check):
        source = self.model.make_source(seed)
        blocks = self.blocks.setdefault(seed, [])
        with open(path, "w") as fh:
            fh.write(",".join(f"y{j + 1}" for j in range(self.model.p)) + "\n")
        argv = ["stop", "--input", path, "--resume", state] + RESUME_FLAGS
        grid = set(grid_upto(RESUME_CONFIG, 10**9))
        ops = []
        rows = 0
        next_cp = max(RESUME_CONFIG.n_star, 2)
        for k in range(RESUME_MAX_CALLS):
            if k == len(blocks):
                text = io.StringIO()
                block = source.take(rows + RESUME_APPEND_ROWS).data[rows:]
                np.savetxt(text, block, fmt="%.17g", delimiter=",")
                blocks.append(text.getvalue())
            with open(path, "a") as fh:
                fh.write(blocks[k])
            rows += RESUME_APPEND_ROWS
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli_main(argv)

            code, timing = _timed(tracer, "cli.main", call)
            lines = out.getvalue().strip().splitlines()
            payload = json.loads(lines[-1]) if lines else {}
            done = payload.get("status") != "continue"
            n = payload.get("n_final") if done else payload.get("next_checkpoint")
            op = Op(timing, rows, n, payload.get("reason", "continue"))
            ops.append(op)
            if code != 0:
                op.problems.append(f"exit code {code}: {err.getvalue().strip()}")
                return ops
            if tracer is not None:
                self._replay_call(tracer, path, next_cp, payload, done)
            if done:
                if check:
                    op.problems = self.verify_final(path, payload)
                return ops
            new_cp = payload["next_checkpoint"]
            if new_cp not in grid or new_cp <= rows or new_cp < next_cp:
                op.problems.append(
                    f"next_checkpoint {new_cp} off the grid or not past {rows} rows"
                )
                return ops
            next_cp = new_cp
        ops[-1].problems.append(f"no decision after {RESUME_MAX_CALLS} calls")
        return ops

    def _replay_call(self, tracer, path, first_cp, payload, done):
        """Replay the parse and the checkpoints this call examined."""
        with tracer.span("replay.load_chain") as rec:
            chain = load_chain(path)
        rec[5] = chain.n
        last = payload["n_final"] if done else payload["next_checkpoint"] - 1
        examined = [g for g in grid_upto(RESUME_CONFIG, last) if first_cp <= g <= last]
        for g in examined:
            replay_checkpoint(tracer, prefix(chain, g), RESUME_CONFIG)
        if done:
            replay_summary(tracer, prefix(chain, payload["n_final"]), RESUME_CONFIG)
            tracer.add("decisions", 1)
        tracer.add("checks", len(examined))

    def verify_final(self, path, payload):
        """The resume loop and run_sequential agree on the same file."""
        ref = run_sequential(
            FileChainSource(load_chain(path)), "relative_sd", RESUME_CONFIG
        )
        problems = []
        if payload.get("reason") != "criterion_met":
            problems.append(f"final reason {payload.get('reason')!r}")
        for key in ("n_final", "ess_at_termination", "log_volume"):
            if payload.get(key) != getattr(ref, key):
                problems.append(
                    f"{key} {payload.get(key)!r} != run_sequential {getattr(ref, key)!r}"
                )
        return problems


def build(name, workdir):
    if name == "seq_short":
        return Sequential(0.05, "relative_sd", 1000)
    if name == "seq_long":
        # A high minimum run length: few checkpoints, each on a long prefix.
        return Sequential(0.05, "univariate_bonferroni", 50_000)
    if name == "logistic_fixed":
        return LogisticFixed()
    return ResumeWalk(workdir)


# Each workload's set-up, as a fresh interpreter pays it.
SETUP_CODE = {
    "seq_short": "mcstop.var1_benchmark(5)",
    "seq_long": "mcstop.var1_benchmark(5)",
    "logistic_fixed": "mcstop.logistic_benchmark()",
    "resume_walk": "mcstop.var1_benchmark(5)",
}
