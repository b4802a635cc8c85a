"""Replication studies at desk scale.

Each study runs R independent replications (seed_base + r for
replication r), retains one row per replication and grid cell, and
aggregates means with standard errors sample-sd/sqrt(R). Studies are
deterministic: rerunning a spec reproduces the report bitwise.

One runner, _replicate, owns the seed, the one chain source per
replication and the error wrapping; each study only turns that source
into rows. Fixed-n methods share one reference estimate per length,
and sensitivity cells share one chain (sources are prefix-stable).

Worker-pool parallelism over replications is available through the
MCSTOP_WORKERS environment variable; aggregation order never depends
on worker scheduling.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .checkpoint import reference_estimate
from .errors import ConfigError, DomainError, McstopError, require_alpha
from .estimators import BatchPolicy, batch_size, mbm
from .samplers import (
    LOGIT_REFERENCE_MEAN,
    IidGaussianSource,
    LogisticModel,
    RwmLogisticSource,
    Var1Model,
    Var1Source,
    ar1_cov,
    load_logit_data,
)
from .stopping import (RULE_PARAMS, StoppingConfig, drive_checkpoints, rule_config,
                       rule_value, summarize)

# Each method's metrics, its default first: the rule a sequential study
# runs (mbm keeps an absolute config's rule) and the confidence set of
# its rows, mbm's ellipsoid or a univariate rule's hyperrectangle.
_METHOD_METRIC = {
    "mbm": ("relative_sd", "absolute"),
    "ubm_bonferroni": ("univariate_bonferroni",),
    "ubm": ("univariate_uncorrected",),
}
# The studies' alpha when none is given: the 90% level of the coverage
# studies, where `mcstop stop` defaults to 95% (stopping.RULE_PARAMS).
_STUDY_ALPHA = 0.10
_bundled_logit = cache(load_logit_data)


# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class Var1Spec:
    """VAR(1) study model; truth is the analytic zero mean."""

    model: Var1Model

    @property
    def p(self) -> int:
        return self.model.p

    @property
    def truth(self) -> np.ndarray:
        return np.zeros(self.model.p)

    @property
    def sigma_true(self) -> np.ndarray:
        return self.model.sigma_true

    def make_source(self, seed: int) -> Var1Source:
        return Var1Source(self.model, seed)


@dataclass(frozen=True)
class LogisticSpec:
    """Logistic RWM study model; truth is the proxy reference mean (tau2 = 1)."""

    model: LogisticModel

    @property
    def p(self) -> int:
        return self.model.r

    @property
    def truth(self) -> np.ndarray:
        # tools/make_logit_dataset.py calibrated the proxy at tau2 = 1: a
        # 2·10^5-step chain at tau2 = 4 lands 14-35 standard errors from it.
        if self.model.tau2 != 1.0:
            raise DomainError(f"the logistic proxy truth holds at tau2=1 only, "
                              f"got tau2={self.model.tau2}")
        bundled = _bundled_logit()
        if not (np.array_equal(self.model.x, bundled.x)
                and np.array_equal(self.model.y, bundled.y)):
            raise DomainError("the logistic proxy truth holds for the bundled dataset only")
        return LOGIT_REFERENCE_MEAN

    def make_source(self, seed: int) -> RwmLogisticSource:
        return RwmLogisticSource(self.model, seed, init="prior_draw")


@dataclass(frozen=True)
class IidGaussianSpec:
    """Independent N(0, I_p) model; the exact-theory baseline."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"p must be >= 1, got {self.dim}")

    @property
    def p(self) -> int:
        return self.dim

    @property
    def truth(self) -> np.ndarray:
        return np.zeros(self.dim)

    def make_source(self, seed: int) -> IidGaussianSource:
        return IidGaussianSource(self.dim, seed)


def var1_benchmark(p: int) -> Var1Spec:
    """The diagonal VAR(1) benchmark: Φ = diag(.9, .5, .1, ...), AR(1) Ω.

    p = 5 is the coverage/termination workhorse; p = 50 drives the
    relative-error study.
    """
    if p < 2:
        raise DomainError(f"benchmark needs p >= 2, got {p}")
    phi = np.diag(np.array([0.9, 0.5] + [0.1] * (p - 2)))
    omega = ar1_cov(0.9, p)
    return Var1Spec(Var1Model(phi=phi, omega=omega))


def logistic_benchmark(tau2: float = 1.0, proposal_sd: float = 0.35) -> LogisticSpec:
    """The bundled-dataset logistic model with the proxy truth attached."""
    return LogisticSpec(load_logit_data(tau2=tau2, proposal_sd=proposal_sd))


def parse_model_spec(text: str):
    """Parse the model minilanguage used by configs and the CLI.

    Forms:
      iid:p=5
      var1_bench5 | var1_bench50
      var1:phi=0.9,0.5,0.1;rho=0.9[;scale=1.0]   (diagonal Φ, AR(1) Ω)
      logistic[:tau2=1.0;proposal_sd=0.35]

    Each kind's options are MODEL_KEYS', refused like a config's keys.
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    head = head.strip()
    if head not in MODEL_KEYS:
        raise ConfigError(f"unknown model kind {head!r} in {text!r}")
    raw = _pairs((repr(text), item) for item in rest.split(";")) if rest else {}
    opts = _read_keys(f"{head} model", raw, MODEL_KEYS[head])
    try:
        if head == "iid":
            return IidGaussianSpec(int(opts["p"]))
        if head == "logistic":
            return logistic_benchmark(float(opts["tau2"]), float(opts["proposal_sd"]))
        if head.startswith("var1_bench"):
            return var1_benchmark(int(head[len("var1_bench"):]))
        diag = [float(x) for x in opts["phi"].split(",")]
        rho, scale = float(opts["rho"]), float(opts["scale"])
    except ValueError:
        raise ConfigError(f"bad numeric option in {text!r}") from None
    return Var1Spec(Var1Model(phi=np.diag(diag), omega=ar1_cov(rho, len(diag), scale)))


# ---------------------------------------------------------------------------
# study spec and report


@dataclass(frozen=True)
class StudySpec:
    """One replication study.

    model is a study model (p, truth, make_source); coverage is of
    model.truth. stopping is either a StoppingConfig (sequential
    studies) or a sequence of chain lengths (fixed-n studies). In
    fixed-n mode the confidence level and batch policy ride in alpha /
    batch_policy; in sequential mode they ride in the StoppingConfig.
    """

    model: object
    replications: int
    stopping: object
    methods: Sequence[str] = ("mbm",)
    seed_base: int = 0
    alpha: Optional[float] = None
    batch_policy: Optional[BatchPolicy] = None

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        self.model.truth  # a model without a truth is refused before any draw
        methods = _distinct("methods", self.methods)
        if not methods:
            raise DomainError("methods must be nonempty")
        bad = set(methods) - set(_METHOD_METRIC)
        if bad:
            raise DomainError(f"unknown methods {sorted(bad)}")
        object.__setattr__(self, "methods", methods)
        if isinstance(self.stopping, StoppingConfig):
            if self.alpha is not None or self.batch_policy is not None:
                raise DomainError(
                    "sequential studies take alpha and batch policy from "
                    "the StoppingConfig"
                )
        else:
            try:
                sizes = _distinct("fixed-n lengths", (int(n) for n in self.stopping))
            except TypeError:
                raise DomainError(
                    "stopping must be a StoppingConfig or a sequence of lengths"
                ) from None
            if not sizes or any(n < 2 for n in sizes):
                raise DomainError("fixed-n lengths must all be >= 2")
            object.__setattr__(self, "stopping", sizes)
            if self.alpha is not None:
                require_alpha(self.alpha)

    @property
    def is_fixed_n(self) -> bool:
        return not isinstance(self.stopping, StoppingConfig)

    @property
    def eff_alpha(self) -> float:
        if isinstance(self.stopping, StoppingConfig):
            return self.stopping.alpha
        return _STUDY_ALPHA if self.alpha is None else self.alpha

    @property
    def eff_policy(self) -> BatchPolicy:
        if isinstance(self.stopping, StoppingConfig):
            return self.stopping.batch_policy
        return BatchPolicy.exponent() if self.batch_policy is None else self.batch_policy


@dataclass(frozen=True)
class StudyReport:
    """Per-replication rows plus grouped aggregates.

    summary rows carry mean_<col> and se_<col> pairs (coverage /
    se_coverage for the membership indicator), where the standard
    error is the sample standard deviation over replications divided
    by sqrt(R).
    """

    study: str
    rows: tuple
    summary: tuple

    def write_csv(self, path: str) -> None:
        """Per-replication rows as CSV (one header from the row keys)."""
        if not self.rows:
            raise DomainError("report has no rows")
        cols = list(self.rows[0].keys())
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(self.rows)

    def write_json(self, path: str) -> None:
        """Summary groups as JSON; non-finite values serialize as null."""
        payload = {
            "study": self.study,
            "groups": [_jsonable(g) for g in self.summary],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def format_table(self) -> str:
        """Aligned text table of the summary, mean (se) per cell."""
        if not self.summary:
            return "(empty report)"
        group_cols = [k for k in self.summary[0] if not k.startswith(("mean_", "se_"))
                      and k not in ("coverage", "se_coverage", "count")]
        value_cols = []
        for k in self.summary[0]:
            if k == "coverage" or k.startswith("mean_"):
                value_cols.append(k)
        header = group_cols + value_cols + ["count"]
        lines = []
        for g in self.summary:
            cells = [_fmt_cell(g[c]) for c in group_cols]
            for c in value_cols:
                se_key = "se_coverage" if c == "coverage" else "se_" + c[5:]
                se = g.get(se_key)
                cells.append(
                    f"{_fmt_cell(g[c])} ({_fmt_cell(se)})" if se is not None
                    else _fmt_cell(g[c])
                )
            cells.append(str(g["count"]))
            lines.append(cells)
        widths = [max(len(header[i]), *(len(row[i]) for row in lines))
                  for i in range(len(header))]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        for row in lines:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(out)


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.4g}"
    return str(v)


def _jsonable(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, (np.floating,)):
            v = float(v)
        if isinstance(v, float) and not math.isfinite(v):
            v = None
        out[k] = v
    return out


def _distinct(name: str, values) -> tuple:
    """values as a tuple, refused if one repeats: it would run its cells twice."""
    values = tuple(values)
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise DomainError(f"{name}: {repeated[0]!r} is given more than once")
    return values


def _aggregate(rows: list, group_keys: list, value_cols: list) -> tuple:
    """Group rows and attach mean/se per value column, in first-seen order."""
    groups: dict = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        groups.setdefault(key, []).append(row)
    summary = []
    for key, grp in groups.items():
        out = dict(zip(group_keys, key))
        for col in value_cols:
            vals = np.array([float(r[col]) for r in grp])
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            if col == "covered":
                out["coverage"] = mean
                out["se_coverage"] = se
            else:
                out[f"mean_{col}"] = mean
                out[f"se_{col}"] = se
        out["count"] = len(grp)
        summary.append(out)
    return tuple(summary)


def _workers() -> int:
    """MCSTOP_WORKERS (default 1), capped at the usable CPUs; < 1 is an error."""
    raw = os.environ.get("MCSTOP_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise ConfigError(f"MCSTOP_WORKERS must be an integer, got {raw!r}") from None
    if w < 1:
        raise ConfigError(f"MCSTOP_WORKERS must be >= 1, got {w}")
    cpus = os.cpu_count() or 1
    # An affinity mask (taskset, a container's cpuset) narrower than the
    # online CPUs leaves the process only the CPUs in the mask.
    if hasattr(os, "sched_getaffinity"):
        mask = len(os.sched_getaffinity(0))
        if mask < os.sysconf("SC_NPROCESSORS_ONLN"):
            cpus = min(cpus, mask)
    return min(w, cpus)


def _run_replication(payload) -> list:
    """Rows of replication r: seed seed_base + r, one source for every row.

    body(spec, source, *extra) yields the rows without their replication
    number. Errors outside the package's own are reported as a failure
    of replication r.
    """
    body, spec, r, extra = payload
    try:
        source = spec.model.make_source(spec.seed_base + r)
        return [{"replication": r, **row} for row in body(spec, source, *extra)]
    except McstopError:
        raise
    except Exception as exc:
        raise McstopError(f"replication {r} failed: {exc}") from exc


def _replicate(body, spec: StudySpec, *extra) -> list:
    """Every replication's rows, in replication order.

    With MCSTOP_WORKERS > 1 the replications run in a process pool, so
    body and extra must pickle: bodies are module-level functions.
    """
    payloads = [(body, spec, r, extra) for r in range(spec.replications)]
    w = _workers()
    if w > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Every study computes quantiles: load scipy.special once here, so
        # forked workers inherit it instead of each importing it again.
        import scipy.special  # noqa: F401

        with ProcessPoolExecutor(max_workers=w) as pool:
            results = list(pool.map(_run_replication, payloads))
    else:
        results = [_run_replication(p) for p in payloads]
    return [row for sub in results for row in sub]


# ---------------------------------------------------------------------------
# coverage study


def _fixed_n_rows(spec, source):
    """One reference estimate per n, shared by every method's row."""
    for n in spec.stopping:
        chain = source.take(n)
        t0 = time.perf_counter()
        est = reference_estimate(chain.data, spec.eff_policy)
        shared = time.perf_counter() - t0
        for method in spec.methods:
            t0 = time.perf_counter()
            row = summarize(est, _METHOD_METRIC[method][0], spec.eff_alpha,
                            spec.model.truth)
            yield {"method": method, "n": int(n), **row, "reason": "fixed_n",
                   "seconds": shared + time.perf_counter() - t0}


def _sequential_rows(spec, source):
    """Each method's own stopping rule, run on the one shared source."""
    config = spec.stopping
    for method in spec.methods:
        metrics = _METHOD_METRIC[method]
        metric = config.metric if config.metric in metrics else metrics[0]
        cfg = dataclasses.replace(config, metric=metric)
        t0 = time.perf_counter()
        walk = drive_checkpoints(source, None, cfg, truth=spec.model.truth)
        yield {"method": method, "n": walk.result.n_final, **walk.summary,
               "reason": walk.result.reason, "seconds": time.perf_counter() - t0}


def coverage_study(spec: StudySpec) -> StudyReport:
    """Region coverage (and termination statistics) over replications.

    Fixed-n studies evaluate each method on one reference estimate of
    the same chain prefix; sequential studies run each method's own
    stopping rule on a shared underlying chain realization per
    replication. A sequential metric other than relative_sd that no method
    runs, so that each method would run its own, raises DomainError.
    """
    metric = None if spec.is_fixed_n else spec.stopping.metric
    if metric not in (None, "relative_sd") and not any(
            metric in _METHOD_METRIC[method] for method in spec.methods):
        raise DomainError(f"metric {metric!r} is run by none of the methods "
                          f"{', '.join(spec.methods)}")
    rows = _replicate(_fixed_n_rows if spec.is_fixed_n else _sequential_rows, spec)
    if spec.is_fixed_n:
        summary = _aggregate(rows, ["method", "n"], ["ess", "covered", "vol_p"])
    else:
        summary = _aggregate(rows, ["method"], ["n", "ess", "covered", "vol_p"])
    return StudyReport(study="coverage", rows=tuple(rows), summary=summary)


# ---------------------------------------------------------------------------
# relative error study


def _relerr_rows(spec, source, sizes):
    sigma = spec.model.sigma_true
    denom = float(np.linalg.norm(sigma))
    for n in sizes:
        chain = source.take(n)
        b = batch_size(n, spec.eff_policy)
        t0 = time.perf_counter()
        est = mbm(chain, b)
        seconds = time.perf_counter() - t0
        rel = float(np.linalg.norm(est.matrix - sigma)) / denom
        yield {"n": int(n), "rel_error": rel, "seconds": seconds}


def _mbm_only(study: str, spec: StudySpec) -> None:
    """Refuse methods other than mbm, the one estimator the study runs."""
    if spec.methods != ("mbm",):
        raise DomainError(f"{study} study runs mbm only, "
                          f"got methods {', '.join(spec.methods)}")


def relative_error_study(
    spec: StudySpec, sizes: Optional[Sequence[int]] = None
) -> StudyReport:
    """Relative Frobenius error of the batch means estimate per size.

    spec is fixed-n: sizes defaults to its lengths, and its batch_policy
    sets b_n. Needs a model with an analytic asymptotic covariance
    (VAR(1)). Reads mbm only and no confidence level, so a sequential
    spec, other methods and an alpha other than the studies' default
    0.10 raise DomainError.
    """
    if not hasattr(spec.model, "sigma_true"):
        raise DomainError("relative error study needs a model with analytic Σ")
    if not spec.is_fixed_n:
        raise DomainError("relative_error study needs fixed-n lengths, "
                          "got a StoppingConfig")
    _mbm_only("relative_error", spec)
    # The config reader passes the studies' default alpha, which no row reads.
    if spec.alpha not in (None, _STUDY_ALPHA):
        raise DomainError(f"relative_error study reads no alpha, got {spec.alpha!r}")
    sizes = _distinct("sizes", map(int, spec.stopping if sizes is None else sizes))
    if not sizes or any(n < 2 for n in sizes):
        raise DomainError("sizes must all be >= 2")
    rows = _replicate(_relerr_rows, spec, sizes)
    summary = _aggregate(rows, ["n"], ["rel_error", "seconds"])
    return StudyReport(study="relative_error", rows=tuple(rows), summary=summary)


# ---------------------------------------------------------------------------
# batch sensitivity study


def _sensitivity_rows(spec, source, nus, eps_list):
    """Every (nu, eps) cell on one source: sources are prefix-stable."""
    for nu in nus:
        for eps in eps_list:
            cfg = dataclasses.replace(
                spec.stopping,
                epsilon=eps,
                batch_policy=BatchPolicy.exponent(nu),
                metric="relative_sd",
            )
            t0 = time.perf_counter()
            walk = drive_checkpoints(source, None, cfg, truth=spec.model.truth)
            sig = walk.final.sigma
            max_eig = float("nan")
            if sig.is_pd:
                max_eig = float(np.linalg.eigvalsh(sig.matrix)[-1])
            yield {
                "nu": float(nu),
                "eps": float(eps),
                "n": walk.result.n_final,
                "ess": walk.summary["ess"],
                "covered": walk.summary["covered"],
                "vol_p": walk.summary["vol_p"],
                "max_eigenvalue": max_eig,
                "reason": walk.result.reason,
                "seconds": time.perf_counter() - t0,
            }


def batch_sensitivity_study(
    spec: StudySpec, nus: Sequence[float], eps_list: Optional[Sequence[float]] = None
) -> StudyReport:
    """Coverage at termination over a (nu, eps) grid.

    Each cell reruns the relative-sd rule with b_n = ⌊n^nu⌋ on the
    replication's one chain; the per-replication largest eigenvalue of
    the final estimate is retained for spread analysis. Methods other
    than mbm, a metric other than relative_sd and a batch policy other
    than the default nu:0.5 raise DomainError.
    """
    if spec.is_fixed_n:
        raise DomainError("batch sensitivity study needs a sequential StoppingConfig")
    _mbm_only("batch_sensitivity", spec)
    if spec.stopping.metric != "relative_sd":
        raise DomainError("batch_sensitivity study runs relative_sd in every cell, "
                          f"got metric {spec.stopping.metric!r}")
    if spec.stopping.batch_policy != BatchPolicy.exponent():
        raise DomainError("batch_sensitivity study sets b_n = floor(n^nu) in every "
                          f"cell, got batch_policy {spec.stopping.batch_policy!r}")
    nus = _distinct("nus", map(float, nus))
    if not nus:
        raise DomainError("nus must be nonempty")
    if eps_list is None:
        eps_list = (spec.stopping.epsilon,)
    eps_list = _distinct("eps_list", map(float, eps_list))
    rows = _replicate(_sensitivity_rows, spec, nus, eps_list)
    summary = _aggregate(
        rows, ["nu", "eps"], ["n", "ess", "covered", "vol_p", "max_eigenvalue"]
    )
    return StudyReport(study="batch_sensitivity", rows=tuple(rows), summary=summary)


# ---------------------------------------------------------------------------
# study config files


REQUIRED = object()  # marks a key that a config or a model spec must give
_RULE_DEFAULTS = {key: default for key, (_, default, _) in RULE_PARAMS.items()}
# Every study reads these; study is read first, because it picks the row.
_COMMON_KEYS = dict.fromkeys(("study", "model", "replications", "seed_base"), REQUIRED)
# The keys each (study, mode) reads, each with its default or REQUIRED.
# The rule keys take `mcstop stop`'s defaults except alpha's and
# batch_sensitivity's epsilon. Every batch_sensitivity cell runs
# relative_sd at b_n = floor(n^nu), so that study reads no metric or
# batch; absent eps_list, its one cell runs at epsilon.
STUDY_KEYS = {
    ("coverage", "fixed"): {
        **_COMMON_KEYS, "mode": "sequential", "methods": "mbm", "fixed_n": REQUIRED,
        "alpha": _STUDY_ALPHA, "batch": _RULE_DEFAULTS["batch"]},
    ("coverage", "sequential"): {
        **_COMMON_KEYS, "mode": "sequential", "methods": "mbm", **_RULE_DEFAULTS,
        "epsilon": REQUIRED, "alpha": _STUDY_ALPHA},
    ("relative_error", None): {**_COMMON_KEYS, "sizes": REQUIRED,
                               "batch": _RULE_DEFAULTS["batch"]},
    ("batch_sensitivity", None): {
        **_COMMON_KEYS, "nus": REQUIRED, "n_star": REQUIRED, "eps_list": None,
        "epsilon": 0.05, "alpha": _STUDY_ALPHA,
        "check_growth": _RULE_DEFAULTS["check_growth"], "n_max": _RULE_DEFAULTS["n_max"]},
}
# The options each kind of parse_model_spec reads, with its default text or REQUIRED.
MODEL_KEYS = {
    "iid": {"p": REQUIRED},
    "var1": {"phi": REQUIRED, "rho": REQUIRED, "scale": "1.0"},
    "logistic": {"tau2": "1.0", "proposal_sd": "0.35"},
    "var1_bench5": {}, "var1_bench50": {},
}


def _pairs(items) -> dict:
    """(where, "key = value") items as a dict; a repeated key or no = names where."""
    raw = {}
    for where, item in items:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"{where}: expected key = value, got {item!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        raw[key] = val.strip()
    return raw


def _read_keys(name: str, raw: dict, keys: dict) -> dict:
    """Each of keys' values, raw's or its default; name refuses a key of
    raw that keys lacks and needs each REQUIRED key that raw lacks."""
    unread = sorted(set(raw) - set(keys))
    if unread:
        raise ConfigError(f"{name} refuses {', '.join(map(repr, unread))}, "
                          "which it does not read")
    values = {key: raw.get(key, default) for key, default in keys.items()}
    missing = [key for key, value in values.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"{name} needs {', '.join(missing)}")
    return values


def read_study_config(path: str) -> dict:
    """Parse a key = value study config file.

    Returns a validated dict ready for run_study. Unknown keys, and keys
    that the config's study and mode do not read (STUDY_KEYS), are an
    error and are listed; blank lines and # comments are skipped.
    """
    with open(path) as fh:
        text = fh.read()
    lines = enumerate((line.strip() for line in text.splitlines()), start=1)
    raw = _pairs((f"line {i}", line) for i, line in lines
                 if line and not line.startswith("#"))
    known = {key for keys in STUDY_KEYS.values() for key in keys}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return _validate_study_config(raw)


def _read(key: str, text: str, conv):
    """conv(text), refused with the key and its text if it does not read."""
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from None


def _list(raw: dict, key: str, conv) -> tuple:
    """A comma list key's values, each read by conv and given once."""
    return _read(key, raw[key],
                 lambda text: _distinct(key, (conv(x) for x in text.split(","))))


def _validate_study_config(raw: dict) -> dict:
    study = raw.get("study")
    if study is None:
        raise ConfigError("study config needs study")
    if study not in {s for s, _ in STUDY_KEYS}:
        raise ConfigError(f"unknown study {study!r}")
    mode = raw.get("mode", "sequential") if study == "coverage" else None
    if (study, mode) not in STUDY_KEYS:
        raise ConfigError(f"unknown mode {mode!r}")
    keys = STUDY_KEYS[study, mode]
    name = f"{mode} {study} study" if mode else f"{study} study"
    values = _read_keys(name, raw, keys)
    model = parse_model_spec(values["model"])
    replications = _read("replications", values["replications"], int)
    seed_base = _read("seed_base", values["seed_base"], int)
    if "eps_list" in raw and "epsilon" in raw:
        raise ConfigError(f"{name} refuses 'epsilon' with eps_list, "
                          "which sets each cell's epsilon")
    if study == "batch_sensitivity" and values["n_star"] == "auto":
        raise ConfigError("batch_sensitivity study needs an integer n_star: "
                          "auto would resolve at one (nu, eps) for every cell")
    methods = tuple(m.strip() for m in values.get("methods", "mbm").split(","))
    out = {"study": study, "model": model}
    try:
        if "epsilon" in keys:  # a sequential study
            stopping = rule_config(
                {key: values.get(key, _RULE_DEFAULTS[key]) for key in RULE_PARAMS},
                model.p)
            out["spec"] = StudySpec(model, replications, stopping, methods, seed_base)
        else:
            # relative_error reads no alpha; its spec keeps the default
            out["spec"] = StudySpec(
                model, replications,
                _list(raw, "fixed_n" if "fixed_n" in keys else "sizes", int),
                methods, seed_base,
                alpha=rule_value("alpha", values.get("alpha", _STUDY_ALPHA)),
                batch_policy=BatchPolicy.parse(values["batch"]))
        if study == "batch_sensitivity":
            out["nus"] = _list(raw, "nus", float)
            out["eps_list"] = _list(raw, "eps_list", float) if "eps_list" in raw else None
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return out


def run_study(parsed: dict) -> StudyReport:
    """Execute a config parsed by read_study_config."""
    study = parsed["study"]
    if study == "coverage":
        return coverage_study(parsed["spec"])
    if study == "relative_error":
        return relative_error_study(parsed["spec"])
    return batch_sensitivity_study(parsed["spec"], parsed["nus"], parsed["eps_list"])
