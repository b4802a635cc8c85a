"""The two estimator kernels against the forms they had before they were sped up.

finish factors the matrix it builds without log_det's checks, which that
matrix passes by construction whenever its entries are finite and at most
DBL_MAX/2; batch_means sums its batches down the columns of one wide copy
(p >= 2). The oracles below keep the earlier log_det, finish and
batch_means verbatim. Every matrix, log-determinant or NotPD, and every
exception must be the same.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcstop import ChainMatrix, NotPD
from mcstop.errors import DomainError
from mcstop.estimators import (
    CovEstimate,
    LogDet,
    batch_means,
    finish,
    log_det,
    mbm,
    sample_covariance,
)


def _ref_log_det(matrix: np.ndarray) -> LogDet:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError("log_det requires a square matrix")
    if not np.isfinite(arr).all():
        raise DomainError("log_det requires finite entries")
    scale = float(np.abs(arr).max()) if arr.size else 0.0
    asym = float(np.abs(arr - arr.T).max()) if arr.size else 0.0
    if asym > 1e-8 * max(1.0, scale):
        raise DomainError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    sym = (arr + arr.T) * 0.5
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return NotPD
    diag = np.diag(chol)
    if not (diag > 0.0).all():
        return NotPD
    return float(2.0 * np.log(diag).sum())


def _ref_finish(gram, scale, dof, method, a_n=0, b_n=0) -> CovEstimate:
    mat = (gram + gram.T) * (0.5 * scale)
    ld: LogDet = _ref_log_det(mat) if dof >= mat.shape[0] else NotPD
    return CovEstimate(matrix=mat, method=method, a_n=a_n, b_n=b_n, log_det=ld)


def _ref_batch_means(prefix, b_n, center) -> CovEstimate:
    a_n = prefix.shape[0] // b_n
    p = prefix.shape[1]
    dev = (prefix - center).reshape(a_n, b_n, p).mean(axis=1)
    return _ref_finish(dev.T @ dev, b_n / (a_n - 1.0), a_n - 1, "mbm", a_n, b_n)


def _outcome(call):
    """What a call gives: the estimate's bits, or the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            est = call()
    except Exception as exc:  # the oracle's exception must be matched exactly
        return ("raised", type(exc), str(exc))
    # a float compared through repr, or the NotPD singleton
    return ("estimate", est.matrix.tobytes(), repr(est.log_det),
            est.method, est.a_n, est.b_n)


_HALF_MAX = np.finfo(np.float64).max / 2

# A matrix whose Cholesky factorisation meets an overflow: L[2,0] is inf
# and L[1,0] zero, so the last pivot is NaN. OpenBLAS's potrf lets that
# pivot through without an error, so only the pivot check sees it.
_NAN_PIVOT = np.array([[1e-300, 0.0, 1e300], [0.0, 1.0, 0.5], [1e300, 0.5, 1.0]])


def _gram(kind, p, rng):
    if kind == "pd":
        x = rng.standard_normal((p + 3, p))
        return x.T @ x
    if kind == "singular":
        x = rng.standard_normal((max(p - 1, 1), p))
        return x.T @ x
    # symmetric but indefinite (almost surely), or not symmetric at all
    g = rng.standard_normal((p, p))
    return g + g.T if kind == "indefinite" else g


class TestFinish:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.integers(1, 6),
        kind=st.sampled_from(["pd", "singular", "indefinite", "asymmetric"]),
        # the largest entry of the gram: tiny to past DBL_MAX/2, where with
        # scale 3 finish's matrix is finite but log_det's symmetrising
        # overflows, and where the gram's own sum overflows
        magnitude=st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300,
                                   4e307, 9e307, 1e308]),
        scale=st.sampled_from([1.0, 0.5, 1.0 / 7.0, 3.0]),
        dof=st.integers(0, 8),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**31),
    )
    @example(p=3, kind="pd", magnitude=4e307, scale=3.0, dof=5, special=None, seed=1)
    @example(p=4, kind="pd", magnitude=1e-300, scale=1.0 / 7.0, dof=8, special=None,
             seed=3)
    @example(p=2, kind="pd", magnitude=1.0, scale=1.0, dof=5, special=np.nan, seed=4)
    @example(p=1, kind="pd", magnitude=1.0, scale=1.0, dof=5, special=-np.inf, seed=5)
    def test_same_as_before(self, p, kind, magnitude, scale, dof, special, seed):
        rng = np.random.default_rng(seed)
        base = _gram(kind, p, rng)
        with np.errstate(all="ignore"):
            gram = base * (magnitude / np.abs(base).max())
        if special is not None:
            gram[rng.integers(p), rng.integers(p)] = special
        args = (gram, scale, dof, "mbm", 7, 3)
        assert _outcome(lambda: finish(*args)) == _outcome(lambda: _ref_finish(*args))

    @pytest.mark.parametrize("gram, scale", [
        # finish's matrix holds 9e307, just beyond DBL_MAX/2
        (np.diag([4.5e307, 1.0]), 2.0),
        # DBL_MAX/2 itself, which doubles to DBL_MAX without overflow
        (np.full((2, 2), _HALF_MAX / 2), 2.0),
        (np.eye(3) * 1e-320, 0.5),  # subnormal
        (np.zeros((0, 0)), 0.5),
        (np.zeros((2, 2)), 0.5),
        (_NAN_PIVOT * 2.0, 0.5),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), 0.5),
        (np.array([[np.inf]]), 0.5),
    ])
    def test_edge_cases_same_as_before(self, gram, scale):
        args = (gram, scale, 8, "sample")
        assert _outcome(lambda: finish(*args)) == _outcome(lambda: _ref_finish(*args))

    def test_a_nan_pivot_is_not_pd(self):
        with np.errstate(all="ignore"):
            assert log_det(_NAN_PIVOT) is NotPD
            assert finish(_NAN_PIVOT * 2.0, 0.5, 8, "sample").log_det is NotPD

    @pytest.mark.parametrize("matrix", [
        _NAN_PIVOT,
        np.array([[2.0, 0.0], [0.0, 0.0]]),
        np.array([[-1.0]]),
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.full((2, 2), 1e308),
        np.ones((2, 3)),
    ])
    def test_log_det_same_as_before(self, matrix):
        def call(fn):
            try:
                with np.errstate(all="ignore"):
                    return repr(fn(matrix))
            except DomainError as exc:
                return str(exc)
        assert call(log_det) == call(_ref_log_det)


class TestBatchMeans:
    @settings(max_examples=250, deadline=None)
    @given(
        p=st.integers(1, 8),
        a_n=st.integers(2, 300),
        b_n=st.integers(1, 300),
        tail=st.integers(0, 299),
        seed=st.integers(0, 2**31),
        offset=st.sampled_from([0.0, 1e3, -37.5]),
    )
    @example(p=5, a_n=2, b_n=1, tail=0, seed=1, offset=1e3)
    @example(p=1, a_n=300, b_n=1, tail=0, seed=2, offset=0.0)
    @example(p=8, a_n=300, b_n=300, tail=299, seed=3, offset=-37.5)
    @example(p=2, a_n=3, b_n=300, tail=0, seed=4, offset=0.0)
    def test_bitwise_as_before(self, p, a_n, b_n, tail, seed, offset):
        rng = np.random.default_rng(seed)
        data = offset + rng.standard_normal((a_n * b_n + tail % b_n, p)).cumsum(axis=0) / 50
        prefix = data[: a_n * b_n]
        before = prefix.copy()
        center = prefix.mean(axis=0)
        want = _outcome(lambda: _ref_batch_means(prefix, b_n, center))
        assert _outcome(lambda: batch_means(prefix, b_n, center)) == want
        # the batch sums are taken on a copy, never on the caller's rows
        assert prefix.tobytes() == before.tobytes()
        # a chain's rows are read-only: mbm must not write to them either
        assert _outcome(lambda: mbm(ChainMatrix(data), b_n)) == want

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(1, 8), n=st.integers(2, 600), seed=st.integers(0, 2**31),
           offset=st.sampled_from([0.0, 1e3, -37.5]))
    def test_b1_is_the_sample_covariance(self, p, n, seed, offset):
        rng = np.random.default_rng(seed)
        chain = ChainMatrix(offset + rng.standard_normal((n, p)))
        b1, lam = mbm(chain, 1), sample_covariance(chain)
        assert b1.matrix.tobytes() == lam.matrix.tobytes()
        assert repr(b1.log_det) == repr(lam.log_det)
        assert (b1.a_n, b1.b_n) == (n, 1)
