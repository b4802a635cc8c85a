"""Spans recorded from the benchmark's side of mcstop's public API.

Nothing in mcstop is patched. The traced run passes wrappers through the
library's own seams (a chain source, a rule callable, a duck-typed study
model) and, after each operation, replays the estimator, quantile and
parsing calls on the exact chain or file that the operation saw.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import mcstop
from mcstop import ChainMatrix, specfns
from mcstop.errors import InsufficientData


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.counts = {}

    @contextmanager
    def span(self, name, work=0):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.op_id, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, work=0):
        with self.span(name, work):
            return fn(*args)

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def replay_time_since(self, first):
        """Summed duration of replay spans recorded from index first on."""
        return sum(e - s for name, s, e, *_ in self.spans[first:]
                   if name.startswith("replay."))

    def totals(self):
        """name -> [duration, self time, count, work] summed over spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, work) in enumerate(self.spans):
            t = out.setdefault(name, [0.0, 0.0, 0, 0])
            t[0] += end - start
            t[1] += end - start - child_time[i]
            t[2] += 1
            t[3] += work
        return out

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op", "work")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class TracedSource:
    """A chain source that times every take and keeps the longest chain."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.longest = None

    @property
    def p(self):
        return self._inner.p

    def take(self, n):
        chain = self._tracer.call("samplers.take", self._inner.take, n, work=n)
        if self.longest is None or chain.n > self.longest.n:
            self.longest = chain
        return chain


class KeepingSpec:
    """Duck-typed study model around LogisticSpec that keeps its sources.

    The study calls make_source; the benchmark later reads the chain the
    study analysed back out of the kept source without simulating again.
    With a tracer, every take the study makes is timed.
    """

    def __init__(self, inner, tracer=None):
        self._inner = inner
        self._tracer = tracer
        self.sources = []

    @property
    def p(self):
        return self._inner.p

    @property
    def truth(self):
        return self._inner.truth

    def make_source(self, seed):
        src = self._inner.make_source(seed)
        self.sources.append(src)
        if self._tracer is not None:
            return TracedSource(src, self._tracer)
        return src


def traced_rule(check, tracer, seen):
    """Wrap a public check function; record the n of every checkpoint."""

    def rule(chain, config):
        seen.append(chain.n)
        return tracer.call("stopping.check", check, chain, config)

    return rule


def prefix(chain, n):
    return chain if n == chain.n else ChainMatrix(chain.data[:n])


def _bytes(chain):
    return 8 * chain.n * chain.p


def t_quantile(alpha, p, a_n, bonferroni):
    level = 1.0 - alpha / (2.0 * p) if bonferroni else 1.0 - alpha / 2.0
    return specfns.quantile(specfns.student_t(a_n - 1), level)


def replay_checkpoint(tracer, chain, config):
    """Replay the layer calls one rule check makes at this chain length.

    Mirrors check_relative_sd / check_univariate: estimators first, then
    the quantile, each only when the rule itself would reach it.
    """
    n, p = chain.n, chain.p
    if config.metric in ("relative_sd", "absolute"):
        if n < config.n_star or n < 2:
            return
        b = mcstop.batch_size(n, config.batch_policy)
        try:
            sig = tracer.call("replay.mbm", mcstop.mbm, chain, b, work=_bytes(chain))
        except InsufficientData:
            return
        lam = tracer.call("replay.sample_covariance", mcstop.sample_covariance,
                          chain, work=_bytes(chain))
        if sig.is_pd and lam.is_pd:
            tracer.call("replay.hotelling_cutoff", mcstop.hotelling_cutoff,
                        config.alpha, p, sig.a_n)
        return
    if n < max(config.n_star, 2):
        return
    b = mcstop.batch_size(n, config.batch_policy)
    if n // b < 2:
        return
    tracer.call("replay.ubm_diag", mcstop.ubm_diag, chain, b, work=_bytes(chain))
    tracer.call("replay.t_quantile", t_quantile, config.alpha, p, n // b,
                config.metric == "univariate_bonferroni")


def replay_summary(tracer, chain, config):
    """Replay the layer calls of the final summary on the decided chain."""
    n, p = chain.n, chain.p
    b = mcstop.batch_size(n, config.batch_policy)
    sig = tracer.call("replay.mbm", mcstop.mbm, chain, b, work=_bytes(chain))
    tracer.call("replay.sample_covariance", mcstop.sample_covariance,
                chain, work=_bytes(chain))
    if config.metric in ("relative_sd", "absolute"):
        if sig.is_pd:
            tracer.call("replay.hotelling_cutoff", mcstop.hotelling_cutoff,
                        config.alpha, p, sig.a_n)
    else:
        tracer.call("replay.ubm_diag", mcstop.ubm_diag, chain, b, work=_bytes(chain))
        tracer.call("replay.t_quantile", t_quantile, config.alpha, p, n // b,
                    config.metric == "univariate_bonferroni")


def replay_coverage(tracer, chain, study):
    """Replay the estimator and cutoff calls of one fixed-n coverage row."""
    n = chain.n
    b = mcstop.batch_size(n, study.eff_policy)
    sig = tracer.call("replay.mbm", mcstop.mbm, chain, b, work=_bytes(chain))
    if sig.is_pd:
        tracer.call("replay.sample_covariance", mcstop.sample_covariance,
                    chain, work=_bytes(chain))
        tracer.call("replay.hotelling_cutoff", mcstop.hotelling_cutoff,
                    study.eff_alpha, chain.p, sig.a_n)


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(tracer, ops, untraced_wall):
    """Per-layer figures, per traced op unless the name says otherwise."""
    t = tracer.totals()
    c = tracer.counts

    def dur(name):
        return t.get(name, [0.0, 0.0, 0, 0])[0]

    def self_time(name):
        return t.get(name, [0.0, 0.0, 0, 0])[1]

    def count(name):
        return t.get(name, [0.0, 0.0, 0, 0])[2]

    def work(name):
        return t.get(name, [0.0, 0.0, 0, 0])[3]

    op_wall = dur("op")
    replay = sum(v[0] for k, v in t.items() if k.startswith("replay."))
    est = ("replay.mbm", "replay.ubm_diag", "replay.sample_covariance")
    est_s = sum(dur(k) for k in est)
    quant_s = dur("replay.hotelling_cutoff") + dur("replay.t_quantile")
    checks = c.get("checks", 0)
    decisions = c.get("decisions", 0)
    rows_generated = c.get("rows_generated", 0)
    per_op = lambda v: v / ops  # noqa: E731
    return {
        "samplers.take_s": (per_op(dur("samplers.take")), "s"),
        "samplers.take_calls": (per_op(count("samplers.take")), "count"),
        "samplers.rows_copied": (per_op(work("samplers.take")), "rows"),
        "samplers.rows_generated": (per_op(rows_generated), "rows"),
        "samplers.draws_per_s": (_ratio(rows_generated, dur("samplers.take")), "rows/s"),
        "samplers.take_share": (_ratio(dur("samplers.take"), op_wall), "ratio"),
        "chain.load_chain_s": (per_op(dur("replay.load_chain")), "s"),
        "chain.rows_parsed": (per_op(work("replay.load_chain")), "rows"),
        "chain.parse_rows_per_s": (
            _ratio(work("replay.load_chain"), dur("replay.load_chain")), "rows/s"),
        "chain.load_chain_share": (_ratio(dur("replay.load_chain"), op_wall), "ratio"),
        "estimators.mbm_s": (per_op(dur("replay.mbm")), "s"),
        "estimators.ubm_diag_s": (per_op(dur("replay.ubm_diag")), "s"),
        "estimators.sample_covariance_s": (
            per_op(dur("replay.sample_covariance")), "s"),
        "estimators.calls": (per_op(sum(count(k) for k in est)), "count"),
        "estimators.bytes_read_computed": (per_op(sum(work(k) for k in est)), "B"),
        "estimators.share": (_ratio(est_s, op_wall), "ratio"),
        "regions.hotelling_cutoff_s": (per_op(dur("replay.hotelling_cutoff")), "s"),
        "specfns.t_quantile_s": (per_op(dur("replay.t_quantile")), "s"),
        "specfns.quantile_calls": (per_op(
            count("replay.hotelling_cutoff") + count("replay.t_quantile")), "count"),
        "specfns.quantile_share": (_ratio(quant_s, op_wall), "ratio"),
        "stopping.run_sequential_s": (per_op(dur("stopping.run_sequential")), "s"),
        "stopping.check_s": (per_op(dur("stopping.check")), "s"),
        "stopping.loop_self_s": (per_op(self_time("stopping.run_sequential")), "s"),
        "stopping.check_self_s": (per_op(
            dur("stopping.check") - c.get("checkpoint_replay_s", 0.0)), "s"),
        "stopping.checks_per_decision": (_ratio(checks, decisions), "count"),
        "stopping.fire_ratio": (_ratio(decisions, checks), "ratio"),
        "experiments.study_self_s": (
            per_op(self_time("experiments.coverage_study")), "s"),
        "cli.main_s": (per_op(dur("cli.main")), "s"),
        "cli.self_s": (per_op(dur("cli.main") - replay if count("cli.main") else 0.0), "s"),
        "cli.checkpoints_per_call": (_ratio(checks if count("cli.main") else 0,
                                            count("cli.main")), "count"),
        "trace.overhead_ratio": (_ratio(op_wall, untraced_wall), "ratio"),
    }


PER_LAYER_UNITS = {
    name: unit for name, (_, unit) in layer_metrics(Tracer(), 1, 1.0).items()
}
