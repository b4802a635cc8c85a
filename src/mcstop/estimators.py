"""Covariance estimation for correlated output.

Provides the sample covariance of the draws, the multivariate batch
means (mBM) estimator of the asymptotic covariance, its univariate
diagonal variant, and a Cholesky-based log-determinant that reports
non-positive-definiteness as a value rather than an exception.

Every estimate, here and in the checkpoint engine, ends in finish: it
symmetrises and scales a cross-product sum, and attempts the
log-determinant only when the estimate's degrees of freedom (n - 1 for
Λ_n, a_n - 1 for Σ_n) reach p. finish factors the matrix it built
directly: it is exactly symmetric by construction, so log_det's checks
are spent only on a matrix with an entry that is not finite or exceeds
DBL_MAX/2, where they raise or change the result. The public log_det
keeps every check for matrices from elsewhere.

Every O(n·p) pass over the rows runs in one of two kernels, in NumPy
loops wider than p and with the bits of the plain form: column_sums
(column means and batch sums) and centered (a centred copy). At p = 1
both keep the plain form.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .chain import ChainMatrix
from .errors import ConfigError, DomainError, InsufficientData


class _NotPDType:
    """Singleton flag: a matrix with no Cholesky factorization."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotPD"

    def __reduce__(self):
        return (_NotPDType, ())


NotPD = _NotPDType()

LogDet = Union[float, _NotPDType]

# Beyond this magnitude an entry doubles to inf, so log_det's symmetrising
# (arr + arr.T) * 0.5 no longer gives a symmetric matrix back unchanged.
_HALF_MAX = sys.float_info.max / 2


@dataclass(frozen=True)
class BatchPolicy:
    """Batch size selection rule: b_n = ⌊n^nu⌋ or a fixed b.

    Attributes
    ----------
    kind : {"exponent", "fixed"}
    nu : float
        Exponent in (0, 1); used when kind="exponent".
    b : int
        Fixed batch size, at least 1; used when kind="fixed".
    """

    kind: str
    nu: float = 0.5
    b: int = 0

    def __post_init__(self):
        if self.kind == "exponent":
            if not (0.0 < self.nu < 1.0):
                raise DomainError(f"batch exponent must lie in (0,1), got {self.nu}")
        elif self.kind == "fixed":
            if self.b < 1:
                raise DomainError(f"fixed batch size must be >= 1, got {self.b}")
        else:
            raise DomainError(f"unknown batch policy kind {self.kind!r}")

    @classmethod
    def exponent(cls, nu: float = 0.5) -> "BatchPolicy":
        return cls(kind="exponent", nu=float(nu))

    @classmethod
    def fixed(cls, b: int) -> "BatchPolicy":
        return cls(kind="fixed", b=int(b))

    @classmethod
    def parse(cls, text: str) -> "BatchPolicy":
        """Read the text form nu:<float> or fixed:<int>."""
        kind, sep, val = text.partition(":")
        if not sep:
            raise ConfigError(f"batch must be nu:<float> or fixed:<int>, got {text!r}")
        try:
            if kind == "nu":
                return cls.exponent(float(val))
            if kind == "fixed":
                return cls.fixed(int(val))
        except ValueError:
            raise ConfigError(f"bad batch value {val!r}") from None
        raise ConfigError(f"unknown batch kind {kind!r}")


@dataclass(frozen=True)
class CovEstimate:
    """A p-by-p symmetric covariance estimate with cached log-determinant.

    Attributes
    ----------
    matrix : ndarray
        Symmetric estimate; write-protected.
    method : {"mbm", "sample"}
    a_n : int
        Batch count (0 when method="sample").
    b_n : int
        Batch size (0 when method="sample").
    log_det : float or NotPD
        Log-determinant when the matrix is positive definite and enough
        batches back it, NotPD otherwise.
    """

    matrix: np.ndarray
    method: str
    a_n: int
    b_n: int
    log_det: LogDet

    def __post_init__(self):
        arr = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("covariance estimate must be a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        if self.method not in ("mbm", "sample"):
            raise DomainError(f"unknown estimator method {self.method!r}")

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_pd(self) -> bool:
        return not isinstance(self.log_det, _NotPDType)


def batch_size(n: int, policy: BatchPolicy) -> int:
    """Resolve a batch policy at chain length n.

    Exponent policy gives max(1, ⌊n^nu⌋); fixed policy gives b capped
    at ⌊n/2⌋ so at least two batches remain available.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if policy.kind == "exponent":
        # tolerance absorbs pow() landing a few ulps under an exact
        # integer power (e.g. 1000^(1/3))
        return max(1, int(math.floor(n ** policy.nu + 1e-9)))
    return max(1, min(policy.b, n // 2))


def log_det(matrix: np.ndarray) -> LogDet:
    """Log-determinant of a symmetric matrix via Cholesky.

    Returns NotPD when factorization fails (the matrix has a
    non-positive pivot); raises DomainError for non-square, non-finite or
    asymmetric input. finish factors the matrices it builds without these
    checks, which they pass by construction.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("log_det requires a square matrix")
    if not np.isfinite(arr).all():
        raise DomainError("log_det requires finite entries")
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    asym = float(np.abs(arr - arr.T).max()) if arr.size else 0.0
    if asym > 1e-8 * max(1.0, scale):
        raise DomainError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return _cholesky_log_det((arr + arr.T) * 0.5)


def _cholesky_log_det(sym: np.ndarray) -> LogDet:
    """log det of sym, exactly symmetric, as 2·Σ log diag of its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return NotPD
    # potrf refuses a zero or negative pivot, so each pivot is positive,
    # or NaN where the factorisation overflowed (OpenBLAS lets a NaN pivot
    # through): the log-determinant is NaN exactly when a pivot is not > 0.
    ld = 2.0 * float(np.log(chol.diagonal()).sum())
    return NotPD if math.isnan(ld) else ld


def require_batches(n: int, b_n: int) -> int:
    """The batch count a_n = ⌊n / b_n⌋; InsufficientData below 2 batches."""
    a_n = n // b_n
    if a_n < 2:
        raise InsufficientData(
            f"mbm needs at least 2 batches, got a_n={a_n} from n={n}, b_n={b_n}"
        )
    return a_n


def finish(gram: np.ndarray, scale: float, dof: int, method: str,
           a_n: int = 0, b_n: int = 0) -> CovEstimate:
    """The CovEstimate (gram + gramᵀ)·scale/2 of a cross-product sum.

    dof is n - 1 for Λ_n and a_n - 1 for Σ_n: the log-determinant is
    attempted only when dof >= p, since fewer degrees of freedom cannot
    give a positive definite estimate, and is NotPD otherwise.
    """
    # one form for every estimate, so mbm at b_n=1 reproduces
    # sample_covariance bitwise
    mat = (gram + gram.T) * (0.5 * scale)
    if dof < mat.shape[0]:
        ld: LogDet = NotPD
    elif np.abs(mat).max(initial=0.0) <= _HALF_MAX:
        # mat is exactly symmetric, finite, and small enough that log_det's
        # symmetrising would give it back unchanged: factor it directly.
        ld = _cholesky_log_det(mat)
    else:
        # log_det raises for NaN or ±inf; past DBL_MAX/2 its symmetrising
        # overflows, and the result must stay what it gives
        ld = log_det(mat)
    return CovEstimate(matrix=mat, method=method, a_n=a_n, b_n=b_n, log_det=ld)


# Rows per wide row of centered: 256·p doubles per inner loop.
WIDE_ROWS = 256


def column_sums(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=-2) of a C-contiguous x, bit for bit.

    For p >= 2 columns NumPy adds the rows one at a time from zero, and so
    does einsum, with far less overhead per row. A single column NumPy
    sums pairwise, which einsum does not reproduce, so p = 1 keeps
    add.reduce.
    """
    if x.shape[-1] == 1:
        return np.add.reduce(x, axis=-2)
    return np.einsum("...ij->...j", x)


def centered(x: np.ndarray, center: np.ndarray, out: Optional[np.ndarray] = None,
             tiled: Optional[np.ndarray] = None) -> np.ndarray:
    """x - center for (m, p) rows x, bit for bit, into out (C-contiguous).

    For p >= 2 the first m - m % WIDE_ROWS rows run as rows WIDE_ROWS·p wide
    against tiled = np.tile(center, WIDE_ROWS), kept by the caller or built
    here, and the rest as they are: a subtraction is elementwise, so its
    bits do not depend on the shape. One column less a scalar already runs
    in one flat loop, and the wide rows made the p = 1 calls that centre
    1.07-1.8 times slower, so p = 1 subtracts plainly and ignores tiled.
    """
    m, p = x.shape
    if out is None:
        out = np.empty((m, p))
    if p == 1:
        return np.subtract(x, center, out=out)
    if tiled is None:
        tiled = np.tile(center, WIDE_ROWS)
    k = m - m % WIDE_ROWS
    wide = WIDE_ROWS * p
    np.subtract(x[:k].reshape(-1, wide), tiled, out=out[:k].reshape(-1, wide))
    np.subtract(x[k:], center, out=out[k:])
    return out


def centered_covariance(dev: np.ndarray) -> CovEstimate:
    """Λ_n from dev, the (n, p) rows less their column means."""
    n = dev.shape[0]
    if n < 2:
        raise InsufficientData(f"sample covariance needs n >= 2, got n={n}")
    return finish(dev.T @ dev, 1.0 / (n - 1.0), n - 1, "sample")


def sample_covariance(chain: ChainMatrix) -> CovEstimate:
    """The (n-1)-denominator sample covariance Λ_n of the rows."""
    data = chain.data
    return centered_covariance(centered(data, column_sums(data) / data.shape[0]))


def mbm(chain: ChainMatrix, b_n: int) -> CovEstimate:
    """Multivariate batch means estimate Σ_n of the asymptotic covariance.

    Splits the first a_n·b_n rows (a_n = ⌊n/b_n⌋) into a_n consecutive
    batches, and returns

        (b_n / (a_n - 1)) Σ_k (Ȳ_k - θ_n)(Ȳ_k - θ_n)ᵀ

    where Ȳ_k is the k-th batch mean and θ_n the mean of the retained
    rows. Trailing remainder rows are dropped. With a_n <= p batches the
    estimate cannot be positive definite, and its log-determinant is NotPD.
    """
    if b_n < 1:
        raise DomainError(f"batch size must be >= 1, got {b_n}")
    a_n = require_batches(chain.n, b_n)
    prefix = chain.data[: a_n * b_n]
    return batch_means(prefix, b_n, column_sums(prefix) / prefix.shape[0])


def batch_means(prefix: np.ndarray, b_n: int, center: np.ndarray,
                out: Optional[np.ndarray] = None) -> CovEstimate:
    """The kernel of mbm: Σ_n of prefix, a_n·b_n rows with a_n >= 2.

    center is the column means of prefix, passed by a caller that already
    holds their sum; mbm computes them itself. The rows are centred into
    one contiguous copy, out (C-contiguous, prefix's shape) if given, and
    summed batch by batch with column_sums, bit for bit the mean(axis=1)
    of the (a_n, b_n, p) view.
    """
    a_n = prefix.shape[0] // b_n
    p = prefix.shape[1]
    # Center the rows before batching: Ȳ_k - θ_n then cancels at the scale
    # of the draws' spread, not of their mean.
    dev = column_sums(centered(prefix, center, out).reshape(a_n, b_n, p)) / b_n
    return finish(dev.T @ dev, b_n / (a_n - 1.0), a_n - 1, "mbm", a_n, b_n)


def ubm_diag(chain: ChainMatrix, b_n: int) -> np.ndarray:
    """Univariate batch means variances, one per component.

    Equals the diagonal of mbm(chain, b_n).
    """
    est = mbm(chain, b_n)
    out = np.diag(est.matrix).copy()
    out.setflags(write=False)
    return out
