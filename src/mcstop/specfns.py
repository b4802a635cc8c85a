"""Special functions and distribution quantiles, as thin SciPy wrappers.

Log-gamma, the regularized incomplete gamma and beta functions, and the
chi-square / F / Student-t family used by region volumes, Hotelling
cutoffs and sample-size thresholds. Each function validates its
arguments (DomainError outside the domain) and hands the arithmetic to
scipy.special, returning a Python float. scipy.special is slow to
import (it pulls in numpy.testing and numpy.f2py too), so the first call
that computes a value loads it, not `import mcstop`: a CLI call that
needs no quantile never pays for it.

Quantiles use the lower-tail inverses (gammaincinv, fdtri, stdtrit), so
a level near 1 is never turned into a small upper-tail probability
1 - level that has already lost its low bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError


@functools.cache
def _special():
    """scipy.special, imported on first use."""
    from scipy import special

    return special


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires x > 0 and finite, got {x}")
    return float(_special().gammaln(x))


def reg_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if not a > 0.0:
        raise DomainError(f"reg_inc_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise DomainError(f"reg_inc_gamma requires x >= 0, got {x}")
    return float(_special().gammainc(a, x))


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got {a}, {b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x}")
    return float(_special().betainc(a, b, x))


@dataclass(frozen=True)
class DistSpec:
    """A distribution tag: one of chi2(dof), f(d1, d2), student_t(dof)."""

    kind: str
    d1: float
    d2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("chi2", "f", "student_t"):
            raise DomainError(f"unknown distribution kind: {self.kind!r}")
        if not self.d1 > 0.0:
            raise DomainError("degrees of freedom must be positive")
        if self.kind == "f" and not self.d2 > 0.0:
            raise DomainError("degrees of freedom must be positive")


def chi2(dof: float) -> DistSpec:
    return DistSpec("chi2", float(dof))


def f(d1: float, d2: float) -> DistSpec:
    return DistSpec("f", float(d1), float(d2))


def student_t(dof: float) -> DistSpec:
    return DistSpec("student_t", float(dof))


def cdf(dist: DistSpec, x: float) -> float:
    """Cumulative distribution function of `dist` at x."""
    x = float(x)
    if dist.kind == "chi2":
        return float(_special().chdtr(dist.d1, x)) if x > 0.0 else 0.0
    if dist.kind == "f":
        return float(_special().fdtr(dist.d1, dist.d2, x)) if x > 0.0 else 0.0
    return float(_special().stdtr(dist.d1, x))


def quantile(dist: DistSpec, level: float) -> float:
    """Inverse CDF of `dist` at `level` in (0, 1)."""
    level = float(level)
    if not (0.0 < level < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {level}")
    if dist.kind == "chi2":
        x = 2.0 * _special().gammaincinv(dist.d1 / 2.0, level)
    elif dist.kind == "f":
        x = _special().fdtri(dist.d1, dist.d2, level)
    else:
        x = _special().stdtrit(dist.d1, level)
    if not math.isfinite(x):
        raise DomainError(f"no finite quantile of {dist} at level {level}")
    return float(x)
