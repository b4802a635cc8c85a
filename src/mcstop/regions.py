"""Confidence-region geometry.

Ellipsoidal regions for the Monte Carlo mean: the scaled-F cutoff, log
volumes, membership tests via Cholesky solves, Scheffé simultaneous
intervals, and 2-D boundary traces for plotting. The univariate
baselines' t cutoff and hyperrectangle volume live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfns
from .chain import MeanVector
from .errors import (
    DomainError,
    InsufficientBatches,
    NotPositiveDefinite,
    require_alpha,
)
from .estimators import CovEstimate


@dataclass(frozen=True)
class ConfidenceRegion:
    """An ellipsoidal confidence region for the mean.

    The region is the set of θ with n (θ_n - θ)ᵀ Σ_n⁻¹ (θ_n - θ)
    strictly below the cutoff.

    Attributes
    ----------
    center : MeanVector
        The Monte Carlo mean θ_n.
    shape : CovEstimate
        Asymptotic covariance estimate Σ_n; must be positive definite.
    n : int
        Chain length behind the estimates.
    alpha : float
        One minus the confidence level.
    quantile : float
        The scaled-F (Hotelling) cutoff.
    log_volume : float
        Log of the Lebesgue volume of the region.
    """

    center: MeanVector
    shape: CovEstimate
    n: int
    alpha: float
    quantile: float
    log_volume: float

    @property
    def p(self) -> int:
        return self.center.p


def hotelling_cutoff(alpha: float, p: int, a_n: int) -> float:
    """Scaled-F cutoff p(a_n - 1)/(a_n - p) · F_{1-α, p, a_n-p}.

    Requires more batches than dimensions; a_n ≤ p is the regime where
    the batch means estimate cannot be positive definite.
    """
    require_alpha(alpha)
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if a_n <= p:
        raise InsufficientBatches(
            f"hotelling cutoff needs a_n > p, got a_n={a_n}, p={p}"
        )
    q = a_n - p
    fq = specfns.quantile(specfns.f(p, q), 1.0 - alpha)
    return p * (a_n - 1.0) / q * fq


def region_volume(n: int, p: int, cutoff: float, log_det_sigma: float) -> float:
    """Log volume of the confidence ellipsoid.

    Vol = (2 π^{p/2} / (p Γ(p/2))) (cutoff/n)^{p/2} |Σ_n|^{1/2},
    returned as a log; callers use exp(log_volume / p) for Vol^{1/p}.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if cutoff <= 0.0:
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    return (
        math.log(2.0)
        + 0.5 * p * math.log(math.pi)
        - math.log(p)
        - specfns.log_gamma(0.5 * p)
        + 0.5 * p * math.log(cutoff / n)
        + 0.5 * log_det_sigma
    )


def vol_p(log_volume: float, p: int) -> float:
    """The p-th root volume Vol^{1/p}; nan when the log volume is not finite."""
    return math.exp(log_volume / p) if math.isfinite(log_volume) else float("nan")


def t_cutoff(alpha: float, p: int, a_n: int, bonferroni: bool) -> float:
    """Student-t critical value t_* on a_n - 1 degrees of freedom.

    The level is 1 - α/(2p) with the Bonferroni correction over p
    components and 1 - α/2 without it.
    """
    require_alpha(alpha)
    level = 1.0 - alpha / (2.0 * p) if bonferroni else 1.0 - alpha / 2.0
    return specfns.quantile(specfns.student_t(a_n - 1), level)


def rectangle_volume(
    n: int, p: int, a_n: int, sig2: np.ndarray, alpha: float, bonferroni: bool
) -> float:
    """Log volume of the fixed-width hyperrectangle.

    Product over components of the interval widths 2 t_* σ_{n,i}/√n,
    where sig2 holds the uBM variances σ²_{n,i}; a zero variance gives
    -inf.
    """
    t_star = t_cutoff(alpha, p, a_n, bonferroni)
    with np.errstate(divide="ignore"):
        logs = math.log(2.0 * t_star / math.sqrt(n)) + 0.5 * np.log(sig2)
    return float(logs.sum())


def make_region(
    center: MeanVector, shape: CovEstimate, n: int, alpha: float
) -> ConfidenceRegion:
    """Assemble a ConfidenceRegion from a mean and a batch means estimate.

    The cutoff's second degree of freedom comes from the estimate's
    batch count, so shape must carry one (method "mbm") and must be
    positive definite.
    """
    if center.p != shape.p:
        raise DomainError(f"dimension mismatch: {center.p} vs {shape.p}")
    if shape.a_n < 2:
        raise DomainError("region shape needs a batch means estimate with a_n >= 2")
    if not shape.is_pd:
        raise NotPositiveDefinite("region shape is not positive definite")
    cut = hotelling_cutoff(alpha, shape.p, shape.a_n)
    log_vol = region_volume(n, shape.p, cut, shape.log_det)
    return ConfidenceRegion(
        center=center,
        shape=shape,
        n=n,
        alpha=alpha,
        quantile=cut,
        log_volume=log_vol,
    )


def _chol(region: ConfidenceRegion) -> np.ndarray:
    try:
        return np.linalg.cholesky(region.shape.matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "region shape is not positive definite"
        ) from None


def contains(region: ConfidenceRegion, point: MeanVector) -> bool:
    """Strict membership test n (θ_n - θ)ᵀ Σ_n⁻¹ (θ_n - θ) < cutoff.

    The quadratic form is evaluated through a Cholesky solve; boundary
    points are outside.
    """
    if point.p != region.p:
        raise DomainError(f"dimension mismatch: {point.p} vs {region.p}")
    chol = _chol(region)
    diff = point.values - region.center.values
    w = np.linalg.solve(chol, diff)
    quad = region.n * float(w @ w)
    return quad < region.quantile


def scheffe_interval(a: np.ndarray, region: ConfidenceRegion) -> tuple:
    """Simultaneous interval for aᵀθ: aᵀθ_n ± sqrt(aᵀ Σ_n a · cutoff / n).

    Valid jointly over all directions a at the region's confidence
    level.
    """
    vec = np.asarray(a, dtype=np.float64).reshape(-1)
    if vec.size != region.p:
        raise DomainError(f"direction length {vec.size} != p={region.p}")
    if not np.isfinite(vec).all() or not vec.any():
        raise DomainError("direction must be a finite nonzero vector")
    mid = float(vec @ region.center.values)
    quad = float(vec @ region.shape.matrix @ vec)
    half = math.sqrt(quad * region.quantile / region.n)
    return (mid - half, mid + half)


def ellipse_boundary(
    region: ConfidenceRegion, i: int, j: int, resolution: int = 360
) -> np.ndarray:
    """Boundary of the region's (i, j)-coordinate shadow, for plotting.

    Returns a resolution-by-2 array tracing the projection of the
    ellipsoid onto coordinates i and j; the projection's shape matrix
    is the corresponding 2x2 submatrix of Σ_n.
    """
    p = region.p
    if not (0 <= i < p and 0 <= j < p) or i == j:
        raise DomainError(f"need two distinct coordinates in [0,{p}), got ({i},{j})")
    if resolution < 3:
        raise DomainError(f"resolution must be >= 3, got {resolution}")
    sub = region.shape.matrix[np.ix_([i, j], [i, j])]
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "2x2 submatrix is not positive definite"
        ) from None
    t = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)])
    pts = math.sqrt(region.quantile / region.n) * (chol @ circle)
    out = pts.T + region.center.values[[i, j]]
    return out
