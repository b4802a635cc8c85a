"""Sequential stopping rules for simulation length.

The headline rule terminates when the confidence region's volume,
normalized to a length scale, drops below a tolerance times a relative
standard deviation metric. An absolute variant and two univariate
fixed-width baselines (with and without Bonferroni correction) share
one checkpoint walk, CheckpointWalk, over a grid that grows geometrically.

All four rules are one function, _fires, of a CheckpointEstimate (θ_n,
Λ_n, Σ_n, the uBM diagonal and the column variances): the size of the
confidence set plus 1/n must be at most ε times the metric. When the
rule is None, a metric name or a public check function, the walk feeds
only the new rows of each checkpoint to a streaming CheckpointEngine,
so a check costs O(new rows) instead of a rescan of the whole prefix.
Any other callable rule receives a ChainMatrix at every checkpoint. The
public check functions evaluate _fires on the reference batch
estimators' estimate. summarize reads a decision's summary off the
reference estimate at n_final, built on the rows the walk has already
checked finite: the ESS, and the volume and (given a truth) the
coverage of the confidence set of the rule that was run.
StoppingResult and every study row take their values from it.
drive_checkpoints pulls a walk's rows from a chain source; the resume
protocol feeds one the rows a file holds, past those checked before.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .chain import ChainMatrix, MeanVector
from .checkpoint import CheckpointEngine, CheckpointEstimate, reference_estimate
from .errors import ConfigError, DomainError, InsufficientData, require_alpha, require_positive
from .estimators import BatchPolicy, batch_size, require_batches, ubm_diag
from .ess import min_ess, multivariate_ess
from .regions import (contains, hotelling_cutoff, make_region, rectangle_volume,
                      region_volume, t_cutoff, vol_p)


@dataclass(frozen=True)
class StoppingConfig:
    """Parameters of a sequential stopping rule.

    Attributes
    ----------
    epsilon : float
        Tolerance ε, positive.
    alpha : float
        One minus the confidence level, in (0, 1).
    n_star : int
        Minimum simulation effort; the rule cannot fire below it.
    batch_policy : BatchPolicy
    metric : str
        One of RULES.
    check_growth : float
        Fractional growth of the checkpoint grid (default 0.10).
    n_max : int
        Hard cap on the chain length; the walk also caps the chain at
        a 4 GiB storage budget (8 bytes per entry).

    These are exactly the keys of RULE_PARAMS, batch_policy read from
    the batch key's text, so `mcstop stop` and study configs can set
    every field.
    """

    epsilon: float
    alpha: float
    n_star: int
    batch_policy: BatchPolicy = field(default_factory=BatchPolicy.exponent)
    metric: str = "relative_sd"
    check_growth: float = 0.10
    n_max: int = 10**8

    def __post_init__(self):
        require_positive("epsilon", self.epsilon)
        require_alpha(self.alpha)
        if self.n_star < 0:
            raise DomainError(f"n_star must be >= 0, got {self.n_star}")
        if self.metric not in RULES:
            raise DomainError(f"unknown metric {self.metric!r}")
        require_positive("check_growth", self.check_growth)
        if self.n_max < 1:
            raise DomainError(f"n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True)
class StoppingResult:
    """Outcome of one sequential run.

    terminated is true only when the criterion fired; hitting the
    length cap reports reason "n_max_reached" instead. ESS and log
    volume are evaluated on the final chain; nan marks quantities the
    final estimates could not support (e.g. a non-PD matrix at the
    cap).
    """

    terminated: bool
    n_final: int
    ess_at_termination: float
    log_volume: float
    reason: str


def n_pos(p: int, policy: BatchPolicy) -> int:
    """Smallest n whose batch count exceeds the dimension.

    Literal first n with ⌊n / b_n⌋ > p under the policy. The scan
    jumps: from an unsatisfying n, no m < (p+1)·b_n can satisfy the
    condition because b is nondecreasing in n, so the skip is safe.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    n = 1
    while True:
        b = batch_size(n, policy)
        if n // b > p:
            return n
        n = max(n + 1, (p + 1) * b)


def default_nstar(p: int, alpha: float, eps: float, batch_policy: BatchPolicy) -> int:
    """Natural minimum effort: max of the PD threshold and the ESS bound."""
    bound = min_ess(p, alpha, eps)
    return max(n_pos(p, batch_policy), int(math.ceil(bound)))


# The rule's parameters as both front ends take them: `mcstop stop` flags
# and study config keys. Keyed as StoppingConfig's fields (batch is a
# BatchPolicy's text) and ordered as in the stop resume state file: each
# key's stop flag (its argparse dest), default (None: required) and JSON
# type in the state file. Study configs default alpha to 0.10 instead.
RULE_PARAMS = {
    "epsilon": ("eps", None, "a number"),
    "alpha": ("alpha", 0.05, "a number"),
    "n_star": ("nstar", "auto", "an integer"),
    "metric": ("rule", StoppingConfig.metric, "a string"),
    "batch": ("batch", "nu:0.5", "a string"),
    "check_growth": ("growth", StoppingConfig.check_growth, "a number"),
    "n_max": ("nmax", StoppingConfig.n_max, "an integer"),
}
_NUMBER_TYPES = {"a number": float, "an integer": int}


def rule_value(key: str, value):
    """A rule value keyed as in RULE_PARAMS, a number's text read as its type.

    Both front ends give text: `mcstop stop` flags and study config
    lines. Typed values, and n_star's text ("auto" or an integer, read
    by rule_config), are returned as given.
    """
    conv = _NUMBER_TYPES.get(RULE_PARAMS[key][2])
    if conv is None or key == "n_star" or not isinstance(value, str):
        return value
    try:
        return conv(value)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def rule_config(values: dict, p: int) -> StoppingConfig:
    """The StoppingConfig of rule values keyed as in RULE_PARAMS.

    Values may be text (rule_value). Every text is read before any value
    is checked, and the values are checked before n_star "auto" resolves
    against their alpha, epsilon and batch, so a bad value gets
    StoppingConfig's message whatever n_star is.
    """
    kw = {key: rule_value(key, value) for key, value in values.items()}
    kw["batch_policy"] = BatchPolicy.parse(kw.pop("batch"))
    n_star = kw.pop("n_star")
    auto = n_star == "auto"
    if isinstance(n_star, str) and not auto:
        try:
            n_star = int(n_star)
        except ValueError:
            raise ConfigError(f"n_star must be an integer or auto, "
                              f"got {n_star!r}") from None
    config = StoppingConfig(n_star=0 if auto else n_star, **kw)
    if auto:
        config = replace(config, n_star=default_nstar(
            p, config.alpha, config.epsilon, config.batch_policy))
    return config


# ---------------------------------------------------------------------------
# the four rules: one inequality on one checkpoint estimate

RULES = ("relative_sd", "absolute", "univariate_bonferroni", "univariate_uncorrected")


def _fires(est: CheckpointEstimate, config: StoppingConfig, metric: str) -> bool:
    """Whether the metric's rule fires on one checkpoint estimate.

    The fixed-volume rules compare Vol^{1/p} + 1/n of the ellipsoid with
    ε |Λ_n|^{1/(2p)} (relative_sd) or ε (absolute), and need both
    estimates positive definite; the univariate rules compare each
    2 t_* σ_{n,i}/√n + 1/n with ε λ_{n,i}, and need a_n ≥ 2. An
    estimate that cannot support the rule's set gives False.
    """
    n, p = est.n, est.p
    if metric in ("relative_sd", "absolute"):
        sig = est.sigma
        if sig is None or not (sig.is_pd and est.lam.is_pd):
            return False
        cutoff = hotelling_cutoff(config.alpha, p, sig.a_n)
        log_vol = region_volume(n, p, cutoff, sig.log_det)
        lhs = math.exp(log_vol / p) + 1.0 / n
        if metric == "absolute":
            return lhs <= config.epsilon
        return lhs <= config.epsilon * math.exp(est.lam.log_det / (2.0 * p))
    if est.a_n < 2:
        return False
    t_star = t_cutoff(config.alpha, p, est.a_n, metric == "univariate_bonferroni")
    lhs = 2.0 * t_star * np.sqrt(est.ubm) / math.sqrt(n) + 1.0 / n
    return bool((lhs <= config.epsilon * np.sqrt(est.col_var)).all())


def _check(chain: ChainMatrix, config: StoppingConfig, metric: str) -> bool:
    """The metric's rule on the reference estimate, from n = max(n*, 2) on."""
    return chain.n >= max(config.n_star, 2) and _fires(
        reference_estimate(chain.data, config.batch_policy), config, metric
    )


def _univariate_metric(config: StoppingConfig) -> str:
    """check_univariate's rule: Bonferroni only under univariate_bonferroni."""
    if config.metric == "univariate_bonferroni":
        return "univariate_bonferroni"
    return "univariate_uncorrected"


def check_relative_sd(chain: ChainMatrix, config: StoppingConfig) -> bool:
    """The relative standard deviation fixed-volume rule.

    True iff n ≥ n*, both covariance estimates are positive definite,
    and Vol^{1/p} + 1/n ≤ ε |Λ_n|^{1/(2p)}. Estimates that are not yet
    positive definite yield false, never an error.
    """
    return _check(chain, config, "relative_sd")


def check_absolute(chain: ChainMatrix, config: StoppingConfig) -> bool:
    """Fixed-volume rule with the constant metric K = 1.

    True iff n ≥ n*, estimates are positive definite, and
    Vol^{1/p} + 1/n ≤ ε.
    """
    return _check(chain, config, "absolute")


def check_univariate(chain: ChainMatrix, config: StoppingConfig) -> bool:
    """Component-wise relative standard deviation fixed-width rule.

    True iff n ≥ n* and, for every component,
    2 t_* σ_{n,i}/√n + 1/n ≤ ε λ_{n,i}, with t_* at level 1 - α/(2p)
    (Bonferroni) when config.metric is univariate_bonferroni and at
    1 - α/2 (uncorrected) otherwise.
    """
    return _check(chain, config, _univariate_metric(config))


def rectangle_log_volume(
    chain: ChainMatrix, alpha: float, b_n: int, bonferroni: bool
) -> float:
    """Log volume of the simultaneous fixed-width hyperrectangle.

    Product over components of the interval widths 2 t_* σ_{n,i}/√n.
    """
    # ubm_diag's mbm refuses b_n < 1, and a_n < 2 through require_batches
    ubm = ubm_diag(chain, b_n)
    return rectangle_volume(chain.n, chain.p, chain.n // b_n, ubm, alpha, bonferroni)


def _engine_metric(rule, config: StoppingConfig) -> Optional[str]:
    """The rule the engine evaluates, or None for a ChainMatrix callable."""
    if rule is None:
        return config.metric
    if isinstance(rule, str):
        if rule not in RULES:
            raise DomainError(f"unknown rule {rule!r}")
        return rule
    if rule is check_relative_sd:
        return "relative_sd"
    if rule is check_absolute:
        return "absolute"
    if rule is check_univariate:
        return _univariate_metric(config)
    if callable(rule):
        return None
    raise DomainError("rule must be None, a metric name, or a callable")


def summarize(est: CheckpointEstimate, metric: str, alpha: float, truth=None) -> dict:
    """ESS, coverage, Vol^{1/p} and log volume of a decision at est.n.

    The confidence set is the metric's: the ellipsoid of make_region for
    relative_sd and absolute, which needs Σ_n positive definite, or the
    fixed-width hyperrectangle of a univariate rule, which needs a_n >= 2.
    The ESS needs both estimates positive definite. nan marks what the
    estimate cannot support. covered is None without a truth; with one,
    it is 1 iff the set holds the truth, and a_n < 2 raises
    InsufficientData.
    """
    sig, n, p = est.sigma, est.n, est.p
    if truth is not None:
        require_batches(n, est.b_n)
    ess_val = log_vol = float("nan")
    covered = False
    if sig is not None and sig.is_pd and est.lam.is_pd:
        ess_val = multivariate_ess(est.lam, sig, n)
    if metric in ("relative_sd", "absolute"):
        if sig is not None and sig.is_pd:
            region = make_region(MeanVector(est.theta), sig, n, alpha)
            log_vol = region.log_volume
            covered = truth is not None and contains(region, MeanVector(truth))
    elif sig is not None:
        bonf = metric == "univariate_bonferroni"
        log_vol = rectangle_volume(n, p, est.a_n, est.ubm, alpha, bonf)
        if truth is not None:
            half = t_cutoff(alpha, p, est.a_n, bonf) * np.sqrt(est.ubm) / math.sqrt(n)
            covered = (np.abs(est.theta - truth) < half).all()
    return {"ess": ess_val, "covered": None if truth is None else int(covered),
            "vol_p": vol_p(log_vol, p), "log_volume": log_vol}


# The walk refuses to grow a chain past this storage (8 bytes per entry).
_MEMORY_BUDGET_BYTES = 4 * 2**30


class CheckpointWalk:
    """The checkpoint loop's state over one growing chain.

    The grid runs from max(n*, 2) by n + ⌈check_growth · n⌉ up to cap,
    n_max lowered to the memory budget; next is its first point past
    checked (rows an earlier walk checked) or cap. result is None until
    a point decides; then next is n_final, and final, summary (with a
    study's truth for its coverage) and result hold the decision. A rule
    of None, a metric name or a public check function is evaluated by
    the engine; any other callable gets the first n rows as a
    ChainMatrix, and the walk has no engine.
    """

    def __init__(self, rule, config: StoppingConfig, p: int, checked: int = 0,
                 truth=None):
        self.metric = _engine_metric(rule, config)
        self.rule, self.config, self.truth = rule, config, truth
        self.cap = min(config.n_max, _MEMORY_BUDGET_BYTES // (8 * int(p)))
        if self.cap < max(config.n_star, 2):
            raise ConfigError(
                f"n_star={config.n_star} does not fit the cap of {self.cap} rows "
                "(n_max or the memory budget)"
            )
        self.engine = None if self.metric is None else CheckpointEngine(
            p, config.batch_policy)
        self.final = self.summary = self.result = None
        self.next = max(config.n_star, 2)
        while self.next <= checked and self.next < self.cap:
            self._grow()

    def _grow(self) -> None:
        n = self.next
        self.next = min(n + int(math.ceil(self.config.check_growth * n)), self.cap)

    def feed(self, rows) -> None:
        """Check every grid point up to len(rows), until one decides.

        rows is the chain so far, an (m, p) array whose earlier rows
        never change; the engine appends only the rows it has not seen.
        The deciding point's rows, checked finite by the engine or the
        rule's ChainMatrix, give the one reference estimate and summary.
        """
        while self.result is None and self.next <= len(rows):
            n = self.next
            if self.metric is None:
                fired = self.rule(ChainMatrix(rows[:n]), self.config)
            else:
                self.engine.append(rows[self.engine.n : n])
                fired = _fires(self.engine.estimate(), self.config, self.metric)
            if not fired and n < self.cap:
                self._grow()
                continue
            # The final estimate reads the rows, not the engine: release its buffers.
            self.engine = None
            self.final = reference_estimate(rows[:n], self.config.batch_policy)
            self.summary = summarize(self.final, self.metric or self.config.metric,
                                     self.config.alpha, self.truth)
            self.result = StoppingResult(
                terminated=bool(fired),
                n_final=n,
                ess_at_termination=self.summary["ess"],
                log_volume=self.summary["log_volume"],
                reason="criterion_met" if fired else "n_max_reached",
            )


def drive_checkpoints(sampler, rule, config: StoppingConfig, truth=None) -> CheckpointWalk:
    """The decided walk of a rule over rows pulled from a chain source.

    sampler is a chain source (samplers.ChainSource: p and take), read
    through sampler.rows(n), or take(n).data from a source without rows.
    """
    walk = CheckpointWalk(rule, config, sampler.p, truth=truth)
    read = getattr(sampler, "rows", lambda k: sampler.take(k).data)
    while walk.result is None:
        rows = read(walk.next)
        if len(rows) < walk.next:
            raise InsufficientData(f"the source gave {len(rows)} rows, {walk.next} asked")
        walk.feed(rows)
    return walk


def run_sequential(sampler, rule, config: StoppingConfig) -> StoppingResult:
    """Drive a stopping rule over a chain source's growing chain.

    sampler is a chain source (samplers.ChainSource). The first
    checkpoint sits at n* (at least 2 rows so estimators are defined);
    each failure grows the chain by ⌈check_growth · n⌉. rule
    is None (config.metric), a metric name, a public check function, or
    any callable taking (ChainMatrix, StoppingConfig). The first three
    are evaluated by the streaming engine on the new rows of each
    checkpoint; a callable of the last kind receives the first n rows as
    a ChainMatrix, without take(n)'s meta. A 4 GiB
    memory budget caps the effective n_max; configurations whose n* does
    not fit are refused before any row is drawn.
    """
    return drive_checkpoints(sampler, rule, config).result
