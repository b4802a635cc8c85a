"""Checkpoint estimates: everything a stopping rule reads at one n.

A CheckpointEstimate bundles θ_n, the sample covariance Λ_n, the batch
means estimate Σ_n at b_n (whose diagonal is the uBM variances) and the
column variances, which are computed when first read: only the
univariate rules and ess_report read them. reference_estimate builds one
from a ChainMatrix, bitwise equal to the batch estimators of
estimators.py; CheckpointEngine builds one from a growing chain in
O((new rows + _TILE)·p² + a_n·p² + p³) per checkpoint, with no term that
grows with n itself.

reference_estimate sums the columns of the rows once: the sum of the
first a_n·b_n rows is mbm's centre and, continued over the tail rows,
gives θ_n (p >= 2; NumPy sums a single column pairwise, so p = 1 sums
all rows again). Its row passes run in estimators' wide kernels.

The engine shifts every row by row 0 and keeps two summaries of the
shifted rows d_t = y_t - y_0:

* per-row prefix sums c_k = d_0 + … + d_{k-1}, so that any batch mean
  is (c_{(j+1)b} - c_{jb}) / b and a change of b_n costs O(a_n·p);
* cross-products Σ d_t d_tᵀ summed over fixed tiles of rows aligned to
  absolute row numbers, plus the rows of the tile still open.

append subtracts row 0 (tiled once for estimators.centered) from the new
rows straight into the prefix-sum buffer, copies them into the open
tile, and then sums them in place, with no temporary array. Prefix sums
are accumulated strictly left to right from the last prefix value, and
every tile covers the same rows whatever the append sizes, so an
estimate is bitwise a function of the rows alone, not of how they were
appended. The shift keeps the cancellation in
Λ_n = (Σ d dᵀ - n d̄ d̄ᵀ)/(n-1) at the scale of the draws' spread, not
of their mean (the shifted one-pass algorithm of Chan, Golub and
LeVeque, 1983). Both estimates end in estimators.finish, as the batch
estimators' do: one symmetrising scale and one positive definiteness
rule for every Λ_n and Σ_n.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .chain import ChainMatrix
from .errors import DomainError
from .estimators import (
    WIDE_ROWS,
    BatchPolicy,
    CovEstimate,
    batch_means,
    batch_size,
    centered,
    centered_covariance,
    column_sums,
    finish,
)

# Rows per cross-product tile: the open tile is re-multiplied at every
# checkpoint, so this bounds that cost at _TILE·p² flops.
_TILE = 2048


@dataclass(frozen=True)
class CheckpointEstimate:
    """The estimates behind one stopping decision at chain length n.

    Attributes
    ----------
    n, p : int
    b_n, a_n : int
        Batch size under the policy and batch count ⌊n / b_n⌋.
    theta : ndarray
        Column means θ_n.
    lam : CovEstimate
        Sample covariance Λ_n with its log-determinant or NotPD.
    sigma : CovEstimate or None
        Batch means estimate Σ_n at b_n; None when a_n < 2.
    col_var : ndarray
        Column variances (n - 1 denominator), computed on first read by
        the _col_var callable: only the univariate rules and ess_report
        read them.
    """

    n: int
    p: int
    b_n: int
    a_n: int
    theta: np.ndarray
    lam: CovEstimate
    sigma: Optional[CovEstimate]
    _col_var: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def col_var(self) -> np.ndarray:
        return self._col_var()

    @property
    def ubm(self) -> np.ndarray:
        """Univariate batch means variances: the diagonal of Σ_n."""
        return np.diag(self.sigma.matrix)


def _column_variances(data: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """data.var(axis=0, ddof=1) given θ_n, its column means, bit for bit."""
    dev = centered(data, theta)
    return column_sums(np.multiply(dev, dev, out=dev)) / (data.shape[0] - 1)


def reference_estimate(chain: ChainMatrix, policy: BatchPolicy) -> CheckpointEstimate:
    """The estimate at chain.n from the batch estimators (n >= 2).

    Bitwise equal to the separate passes: θ_n to data.mean(axis=0), Λ_n
    to sample_covariance(chain), Σ_n to mbm(chain, b_n) and the column
    variances to data.var(axis=0, ddof=1). The rows centred at θ_n serve
    Λ_n and are released before the batch means make their own temporary.
    """
    data = chain.data
    n, p = data.shape
    b = batch_size(n, policy)
    a = n // b
    kept = a * b
    head = column_sums(data[:kept])
    # column_sums adds a C-contiguous (n, p >= 2) array one row at a time,
    # so head continued over the tail rows is bitwise the sum of all rows;
    # a single column NumPy sums pairwise, so p = 1 takes its own pass.
    if p > 1:
        total = column_sums(np.concatenate((head[None], data[kept:])))
    else:
        total = column_sums(data)
    theta = total / n
    lam = centered_covariance(centered(data, theta))
    return CheckpointEstimate(
        n=n,
        p=p,
        b_n=b,
        a_n=a,
        theta=theta,
        lam=lam,
        sigma=batch_means(data[:kept], b, head / kept) if a >= 2 else None,
        _col_var=partial(_column_variances, data, theta),
    )


class CheckpointEngine:
    """Streaming checkpoint estimates of a chain that only grows.

    append() takes the next rows in order; estimate() returns the
    CheckpointEstimate of all rows appended so far.
    """

    def __init__(self, p: int, policy: BatchPolicy):
        if p < 1:
            raise DomainError(f"p must be >= 1, got {p}")
        self._p = p
        self._policy = policy
        self._n = 0
        self._shift = np.zeros(p)
        self._tiled_shift = None
        # _cum[k] = sum of the first k shifted rows; capacity doubles
        self._cum = np.zeros((1 + _TILE, p))
        # cross-products of the shifted rows of every closed tile
        self._closed = np.zeros((p, p))
        # shifted rows of the open tile, _open_n of them
        self._open = np.empty((_TILE, p))
        self._open_n = 0

    @property
    def n(self) -> int:
        return self._n

    def append(self, rows: np.ndarray) -> None:
        """Add the next rows (an (m, p) array of finite draws) to the chain."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self._p:
            raise DomainError(f"rows must have shape (m, {self._p})")
        if not np.isfinite(rows).all():
            raise DomainError("chain contains non-finite entries")
        m = rows.shape[0]
        if m == 0:
            return
        if self._n == 0:
            self._shift = rows[0].copy()
            # the shift tiled for centered's wide rows, which one column skips
            self._tiled_shift = np.tile(self._shift, WIDE_ROWS) if self._p > 1 else None
        n, end = self._n, self._n + m
        if end + 1 > self._cum.shape[0]:
            grown = np.empty((max(end + 1, 2 * self._cum.shape[0]), self._p))
            grown[: n + 1] = self._cum[: n + 1]
            self._cum = grown
        seg = self._cum[n : end + 1]
        # The shifted rows go straight into the prefix-sum buffer, and are
        # copied into the tiles before they are summed in place.
        shifted = centered(rows, self._shift, seg[1:], self._tiled_shift)
        # Every tile product is taken on the one _open buffer, so its bits
        # cannot depend on the memory layout of the appended chunks.
        start = 0
        while start < m:
            take = min(_TILE - self._open_n, m - start)
            self._open[self._open_n : self._open_n + take] = shifted[start : start + take]
            self._open_n += take
            start += take
            if self._open_n == _TILE:
                self._closed = self._closed + self._open.T @ self._open
                self._open_n = 0
        np.cumsum(seg, axis=0, out=seg)
        self._n = end

    def estimate(self) -> CheckpointEstimate:
        """The estimates at the current length n (n >= 2)."""
        n, p = self._n, self._p
        if n < 2:
            raise DomainError(f"checkpoint estimates need n >= 2, got n={n}")
        cum = self._cum
        mean = cum[n] / n
        tail = self._open[: self._open_n]
        cross = self._closed + tail.T @ tail
        lam = finish(cross - n * np.outer(mean, mean), 1.0 / (n - 1.0), n - 1, "sample")
        b = batch_size(n, self._policy)
        a = n // b
        sigma = None
        if a >= 2:
            edges = cum[: a * b + 1 : b]
            dev = (edges[1:] - edges[:-1]) / b - edges[-1] / (a * b)
            sigma = finish(dev.T @ dev, b / (a - 1.0), a - 1, "mbm", a, b)
        return CheckpointEstimate(
            n=n,
            p=p,
            b_n=b,
            a_n=a,
            theta=self._shift + mean,
            lam=lam,
            sigma=sigma,
            _col_var=np.diag(lam.matrix).copy,
        )
