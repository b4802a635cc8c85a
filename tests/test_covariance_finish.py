"""The covariance estimators against the arithmetic they had before one finish.

centered_covariance, batch_means (so mbm) and both estimates of
CheckpointEngine.estimate turn a cross-product sum into a CovEstimate in
one shared step. The oracles below keep the earlier form of each,
verbatim: a scaled symmetric Gram per estimator, and a positive
definiteness condition written out per estimate (p < n for Λ_n, a_n > p
for Σ_n). Every matrix and every log-determinant, or NotPD, must be
bitwise the same.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from mcstop import BatchPolicy, ChainMatrix, NotPD
from mcstop.checkpoint import CheckpointEngine, CheckpointEstimate
from mcstop.estimators import (
    CovEstimate,
    LogDet,
    batch_means,
    batch_size,
    centered_covariance,
    log_det,
    mbm,
)


def _scaled_gram(dev: np.ndarray, scale: float) -> np.ndarray:
    # shared kernel so mbm at b_n=1 reproduces sample_covariance bitwise
    m = dev.T @ dev
    return (m + m.T) * (0.5 * scale)


def _ref_centered_covariance(dev: np.ndarray) -> CovEstimate:
    n, p = dev.shape
    mat = _scaled_gram(dev, 1.0 / (n - 1.0))
    ld: LogDet = log_det(mat) if p < n else NotPD
    return CovEstimate(matrix=mat, method="sample", a_n=0, b_n=0, log_det=ld)


def _ref_batch_means(prefix: np.ndarray, b_n: int, center: np.ndarray) -> CovEstimate:
    a_n = prefix.shape[0] // b_n
    p = prefix.shape[1]
    dev = (prefix - center).reshape(a_n, b_n, p).mean(axis=1)
    mat = _scaled_gram(dev, b_n / (a_n - 1.0))
    ld: LogDet = log_det(mat) if a_n > p else NotPD
    return CovEstimate(matrix=mat, method="mbm", a_n=a_n, b_n=b_n, log_det=ld)


def _symmetric(mat: np.ndarray, scale: float) -> np.ndarray:
    return (mat + mat.T) * (0.5 * scale)


class _OracleEngine(CheckpointEngine):
    """The engine with its estimate as it was before the shared finish."""

    def estimate(self) -> CheckpointEstimate:
        n, p = self._n, self._p
        cum = self._cum
        mean = cum[n] / n
        tail = self._open[: self._open_n]
        cross = self._closed + tail.T @ tail
        lam_mat = _symmetric(cross - n * np.outer(mean, mean), 1.0 / (n - 1.0))
        lam_ld: LogDet = log_det(lam_mat) if p < n else NotPD
        lam = CovEstimate(matrix=lam_mat, method="sample", a_n=0, b_n=0, log_det=lam_ld)
        b = batch_size(n, self._policy)
        a = n // b
        sigma = None
        if a >= 2:
            edges = cum[: a * b + 1 : b]
            dev = (edges[1:] - edges[:-1]) / b - edges[-1] / (a * b)
            sig_mat = _symmetric(dev.T @ dev, b / (a - 1.0))
            sig_ld: LogDet = log_det(sig_mat) if a > p else NotPD
            sigma = CovEstimate(matrix=sig_mat, method="mbm", a_n=a, b_n=b, log_det=sig_ld)
        return CheckpointEstimate(
            n=n,
            p=p,
            b_n=b,
            a_n=a,
            theta=self._shift + mean,
            lam=lam,
            sigma=sigma,
            _col_var=np.diag(lam_mat).copy,
        )


def _same_cov(got, want):
    assert got.matrix.tobytes() == want.matrix.tobytes()
    # a float compared bitwise, or the NotPD singleton
    assert repr(got.log_det) == repr(want.log_det)
    assert (got.method, got.a_n, got.b_n) == (want.method, want.a_n, want.b_n)


_POLICIES = st.one_of(
    st.floats(0.2, 0.9).map(BatchPolicy.exponent),
    st.integers(1, 400).map(BatchPolicy.fixed),
)

_CASES = dict(
    p=st.integers(1, 8),
    n=st.integers(2, 3000),
    policy=_POLICIES,
    seed=st.integers(0, 2**31),
    offset=st.sampled_from([0.0, 1e3, -37.5]),
)


def _rows(seed, n, p, offset):
    rng = np.random.default_rng(seed)
    return offset + rng.standard_normal((n, p)).cumsum(axis=0) / 50


class TestBatchEstimators:
    @settings(max_examples=150, deadline=None)
    @given(**_CASES)
    # p >= n: Λ_n cannot be positive definite
    @example(p=8, n=2, policy=BatchPolicy.exponent(0.5), seed=1, offset=0.0)
    @example(p=5, n=5, policy=BatchPolicy.fixed(1), seed=2, offset=1e3)
    # a_n < 2
    @example(p=3, n=3, policy=BatchPolicy.exponent(0.8), seed=3, offset=0.0)
    # 2 <= a_n <= p, and a_n = p + 1
    @example(p=8, n=40, policy=BatchPolicy.fixed(10), seed=4, offset=1e3)
    @example(p=4, n=50, policy=BatchPolicy.fixed(10), seed=5, offset=-37.5)
    # b_n = 1: mbm is the sample covariance
    @example(p=2, n=30, policy=BatchPolicy.fixed(1), seed=6, offset=1e3)
    def test_bitwise(self, p, n, policy, seed, offset):
        data = _rows(seed, n, p, offset)
        dev = data - data.mean(axis=0)
        _same_cov(centered_covariance(dev), _ref_centered_covariance(dev))
        b = batch_size(n, policy)
        a = n // b
        if a < 2:
            return
        prefix = data[: a * b]
        center = prefix.mean(axis=0)
        want = _ref_batch_means(prefix, b, center)
        _same_cov(batch_means(prefix, b, center), want)
        _same_cov(mbm(ChainMatrix(data), b), want)


class TestEngine:
    @settings(max_examples=150, deadline=None)
    @given(**_CASES, data=st.data())
    @example(p=8, n=6, policy=BatchPolicy.exponent(0.5), seed=1, offset=0.0,
             data=None)
    @example(p=6, n=40, policy=BatchPolicy.fixed(10), seed=2, offset=1e3,
             data=None)
    @example(p=3, n=3000, policy=BatchPolicy.exponent(0.5), seed=3,
             offset=-37.5, data=None)
    def test_bitwise_at_every_append(self, p, n, policy, seed, offset, data):
        rows = _rows(seed, n, p, offset)
        if data is None:
            cuts = [1, 2, 3, n // 2]
        else:
            cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=8))
        cuts = sorted(set(c for c in cuts if 0 < c < n))
        engine = _OracleEngine(p, policy)
        for lo, hi in zip([0] + cuts, cuts + [n]):
            engine.append(rows[lo:hi])
            if engine.n < 2:
                continue
            got = CheckpointEngine.estimate(engine)
            want = engine.estimate()
            assert (got.n, got.p, got.b_n, got.a_n) == (want.n, want.p, want.b_n, want.a_n)
            assert got.theta.tobytes() == want.theta.tobytes()
            assert got.col_var.tobytes() == want.col_var.tobytes()
            _same_cov(got.lam, want.lam)
            assert (got.sigma is None) == (want.sigma is None)
            if want.sigma is not None:
                _same_cov(got.sigma, want.sigma)
