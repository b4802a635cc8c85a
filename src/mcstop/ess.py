"""Effective sample size for multivariate output.

The multivariate ESS compares the sample covariance of the draws with
an estimate of the asymptotic covariance through a determinant ratio;
the univariate variant works component by component. The minimum-ESS
threshold converts a confidence level and a relative precision into
the smallest acceptable ESS, and is invertible for the precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfns
from .chain import ChainMatrix
from .checkpoint import reference_estimate
from .errors import DomainError, NotPositiveDefinite, require_alpha, require_positive
from .estimators import BatchPolicy, CovEstimate, require_batches, ubm_diag


@dataclass(frozen=True)
class EssReport:
    """ESS summary for one chain.

    Attributes
    ----------
    ess_multivariate : float
    ess_univariate : ndarray
        Per-component ESS.
    n : int
    p : int
    policy : BatchPolicy
        Batch policy that produced the batch means estimate.
    b_n : int
        Resolved batch size.
    """

    ess_multivariate: float
    ess_univariate: np.ndarray
    n: int
    p: int
    policy: BatchPolicy
    b_n: int

    def __post_init__(self):
        arr = np.asarray(self.ess_univariate, dtype=np.float64).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "ess_univariate", arr)


def multivariate_ess(lambda_hat: CovEstimate, sigma_hat: CovEstimate, n: int) -> float:
    """ESS-hat = n (|Λ_n| / |Σ_n|)^{1/p}, computed in log space.

    Raises NotPositiveDefinite when either estimate lacks a
    log-determinant; callers usually treat that as "keep sampling".
    """
    if lambda_hat.p != sigma_hat.p:
        raise DomainError(
            f"dimension mismatch: {lambda_hat.p} vs {sigma_hat.p}"
        )
    if not lambda_hat.is_pd:
        raise NotPositiveDefinite("sample covariance is not positive definite")
    if not sigma_hat.is_pd:
        raise NotPositiveDefinite(
            "asymptotic covariance estimate is not positive definite"
        )
    p = lambda_hat.p
    return float(n) * math.exp((lambda_hat.log_det - sigma_hat.log_det) / p)


def univariate_ess(chain: ChainMatrix, b_n: int) -> np.ndarray:
    """Component-wise ESS_i = n λ²_{n,i} / σ²_{n,i}.

    λ²_{n,i} is the (n-1)-denominator sample variance and σ²_{n,i} the
    univariate batch means variance. Components with zero batch means
    variance report inf.
    """
    lam2 = chain.data.var(axis=0, ddof=1)
    return _variance_ratio(chain.n, lam2, ubm_diag(chain, b_n))


def _variance_ratio(n: int, lam2: np.ndarray, sig2: np.ndarray) -> np.ndarray:
    out = np.empty_like(lam2)
    zero = sig2 == 0.0
    out[zero] = np.inf
    out[~zero] = n * lam2[~zero] / sig2[~zero]
    out.setflags(write=False)
    return out


def _log_min_ess_unit_eps(p: int, alpha: float) -> float:
    # log of 2^{2/p} π / (p Γ(p/2))^{2/p} · χ²_{1-α,p}, with ε = 1
    chi = specfns.quantile(specfns.chi2(p), 1.0 - alpha)
    return (
        (2.0 / p) * math.log(2.0)
        + math.log(math.pi)
        - (2.0 / p) * (math.log(p) + specfns.log_gamma(p / 2.0))
        + math.log(chi)
    )


def min_ess(p: int, alpha: float, eps: float) -> float:
    """Smallest ESS consistent with confidence 1-alpha and precision eps.

    Evaluates

        2^{2/p} π / (p Γ(p/2))^{2/p} · χ²_{1-α,p} / ε²

    entirely in log space, so large p neither overflows the gamma
    factor nor loses the leading constant.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    require_alpha(alpha)
    require_positive("eps", eps)
    return math.exp(_log_min_ess_unit_eps(p, alpha) - 2.0 * math.log(eps))


def eps_from_ess(p: int, alpha: float, ess: float) -> float:
    """Precision achieved by a given ESS at confidence 1-alpha.

    Inverse of min_ess in eps: eps = sqrt(min_ess(p, alpha, 1) / ess).
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    require_alpha(alpha)
    require_positive("ess", ess)
    return math.exp(0.5 * (_log_min_ess_unit_eps(p, alpha) - math.log(ess)))


def ess_report(chain: ChainMatrix, policy: BatchPolicy) -> EssReport:
    """Full ESS summary: multivariate and per-component, one batch policy.

    Both are read off one reference estimate at chain.n: the univariate
    ESS takes the diagonal of its batch means matrix and its column
    variances. Fewer than 2 batches raise InsufficientData, an estimate
    that is not positive definite NotPositiveDefinite.
    """
    est = reference_estimate(chain.data, policy)
    require_batches(chain.n, est.b_n)
    return EssReport(
        ess_multivariate=multivariate_ess(est.lam, est.sigma, chain.n),
        ess_univariate=_variance_ratio(chain.n, est.col_var, est.ubm),
        n=chain.n,
        p=chain.p,
        policy=policy,
        b_n=est.b_n,
    )
