"""The reference estimate against the form it had before its shared column sum.

reference_estimate sums the first a_n·b_n rows once: that sum is mbm's
centre and, continued over the tail rows, gives θ_n. That is bitwise the
separate passes only because NumPy sums a C-contiguous (n, p >= 2) array
down axis 0 one row at a time. The estimators' kernel column_sums takes
those sums, and batch_means' batch sums, with einsum, which adds the rows
one at a time too; the kernel centered subtracts a centre along wide rows.
The guard tests below pin the NumPy behaviour both rely on, and where it
stops at p = 1, so that a NumPy change fails here first.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcstop import BatchPolicy, ChainMatrix, IidGaussianSource, StoppingConfig
from mcstop.checkpoint import CheckpointEngine, reference_estimate
from mcstop.estimators import (
    WIDE_ROWS,
    batch_size,
    centered,
    centered_covariance,
    column_sums,
    mbm,
)
from mcstop.stopping import drive_checkpoints


# reference_estimate before the shared column sum, kept verbatim as the
# oracle, apart from returning its fields in a namespace.
def _ref_reference_estimate(chain, policy):
    n = chain.n
    b = batch_size(n, policy)
    a = n // b
    theta = chain.data.mean(axis=0)
    dev = chain.data - theta
    lam = centered_covariance(dev)
    col_var = np.add.reduce(np.multiply(dev, dev, out=dev), axis=0) / (n - 1)
    del dev
    return SimpleNamespace(
        n=n,
        p=chain.p,
        b_n=b,
        a_n=a,
        theta=theta,
        lam=lam,
        sigma=mbm(chain, b) if a >= 2 else None,
        col_var=col_var,
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


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        p=st.integers(1, 8),
        n=st.integers(2, 4000),
        policy=_POLICIES,
        seed=st.integers(0, 2**31),
        offset=st.sampled_from([0.0, 1e3, -37.5]),
    )
    # a_n < 2
    @example(p=3, n=3, policy=BatchPolicy.exponent(0.8), seed=1, offset=0.0)
    # 2 <= a_n <= p, with a_n·b_n = n
    @example(p=8, n=40, policy=BatchPolicy.fixed(10), seed=2, offset=1e3)
    # a_n > p, with a_n·b_n = n and with tail rows, p = 1 included
    @example(p=5, n=1_000, policy=BatchPolicy.fixed(10), seed=3, offset=0.0)
    @example(p=5, n=1_000, policy=BatchPolicy.fixed(7), seed=4, offset=1e3)
    @example(p=1, n=1_001, policy=BatchPolicy.exponent(0.5), seed=5, offset=1e3)
    @example(p=1, n=2, policy=BatchPolicy.exponent(0.5), seed=6, offset=0.0)
    def test_every_field_bitwise(self, p, n, policy, seed, offset):
        rng = np.random.default_rng(seed)
        chain = ChainMatrix(offset + rng.standard_normal((n, p)).cumsum(axis=0) / 50)
        got = reference_estimate(chain, policy)
        want = _ref_reference_estimate(chain, policy)
        assert (got.n, got.p, got.b_n, got.a_n) == (want.n, want.p, want.b_n, want.a_n)
        assert got.theta.tobytes() == want.theta.tobytes()
        _same_cov(got.lam, want.lam)
        assert (got.sigma is None) == (want.sigma is None)
        if want.sigma is not None:
            _same_cov(got.sigma, want.sigma)
        assert "col_var" not in vars(got)
        assert got.col_var.tobytes() == want.col_var.tobytes()


def test_summary_of_a_decision_reads_no_column_variances():
    cfg = StoppingConfig(epsilon=0.3, alpha=0.10, n_star=200)
    run = drive_checkpoints(IidGaussianSource(3, 4), None, cfg)
    assert run.result.terminated
    assert "col_var" not in vars(run.final)


class TestNumpyColumnSum:
    """The NumPy behaviour reference_estimate's shared sum relies on."""

    @staticmethod
    def _rows(n, p):
        # mixed magnitudes, so that summation orders give different bits
        rng = np.random.default_rng(7)
        return rng.standard_normal((n, p)) * 10.0 ** rng.integers(-6, 7, (n, 1))

    @staticmethod
    def _one_row_at_a_time(x):
        total = x[0].copy()
        for row in x[1:]:
            total = total + row
        return total

    @pytest.mark.parametrize("p", [2, 5, 50])
    def test_axis0_sum_is_sequential_per_column(self, p):
        x = self._rows(3_000, p)
        assert x.flags.c_contiguous
        got = np.add.reduce(x, axis=0)
        assert got.tobytes() == self._one_row_at_a_time(x).tobytes()

    @pytest.mark.parametrize("p", [2, 5, 50])
    def test_continued_sum_is_the_full_sum(self, p):
        x = self._rows(3_000, p)
        full = np.add.reduce(x, axis=0)
        for k in (1, 127, 128, 1_000, 2_999, 3_000):
            head = np.add.reduce(x[:k], axis=0)
            cont = np.add.reduce(np.concatenate((head[None], x[k:])), axis=0)
            assert cont.tobytes() == full.tobytes()

    def test_single_column_is_not_summed_sequentially(self):
        # NumPy sums a single column pairwise: the reason p = 1 takes its
        # own pass over all rows
        x = self._rows(3_000, 1)
        assert np.add.reduce(x, axis=0).tobytes() != self._one_row_at_a_time(x).tobytes()

    @pytest.mark.parametrize("p", [2, 5, 8])
    @pytest.mark.parametrize("a_n, b_n", [(2, 1), (2, 300), (37, 41), (300, 7)])
    def test_wide_axis0_sum_is_the_batch_mean(self, p, a_n, b_n):
        # the wide copy batch_means summed before einsum: row j holds row j
        # of every batch
        x = self._rows(a_n * b_n, p).reshape(a_n, b_n, p)
        wide = x.transpose(1, 0, 2).copy().reshape(b_n, a_n * p)
        got = np.add.reduce(wide, axis=0).reshape(a_n, p)
        assert got.tobytes() == np.add.reduce(x, axis=1).tobytes()
        assert (got / b_n).tobytes() == x.mean(axis=1).tobytes()

    def test_single_column_batches_are_not_summed_sequentially(self):
        # a batch of one column is summed pairwise, unlike the wide copy's
        # columns: the reason column_sums keeps add.reduce at p = 1
        a_n, b_n = 5, 3_000
        x = self._rows(a_n * b_n, 1).reshape(a_n, b_n, 1)
        wide = x.transpose(1, 0, 2).copy().reshape(b_n, a_n)
        assert np.add.reduce(wide, axis=0).tobytes() != np.add.reduce(x, axis=1).ravel().tobytes()


def _sum_from_zero(x):
    """NumPy's reduction order for p >= 2: zero, then one row at a time.

    Starting from zero, not from the first row, a column of -0.0 sums to
    +0.0, as add.reduce gives.
    """
    total = np.zeros(x.shape[1:])
    for row in x:
        total = total + row
    return total


class TestEinsumColumnSum:
    """column_sums' einsum against NumPy's one-row-at-a-time add.reduce."""

    @pytest.mark.parametrize("p", [2, 5, 50])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3_000])
    def test_equals_the_sequential_sum(self, p, n):
        x = TestNumpyColumnSum._rows(n, p)
        got = column_sums(x)
        assert got.tobytes() == np.einsum("ij->j", x).tobytes()
        assert got.tobytes() == _sum_from_zero(x).tobytes()
        assert got.tobytes() == np.add.reduce(x, axis=0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(2, 12),
        n=st.integers(1, 700),
        seed=st.integers(0, 2**31),
        offset=st.sampled_from([0.0, 1e8, -37.5]),
        zero_column=st.booleans(),
    )
    @example(p=2, n=256, seed=1, offset=1e8, zero_column=True)
    @example(p=3, n=255, seed=2, offset=0.0, zero_column=True)
    @example(p=5, n=257, seed=3, offset=1e8, zero_column=False)
    def test_property_equals_the_sequential_sum(self, p, n, seed, offset, zero_column):
        rng = np.random.default_rng(seed)
        x = offset + rng.standard_normal((n, p)) * 10.0 ** rng.integers(-6, 7, (n, 1))
        if zero_column:
            x[:, 0] = -0.0
        got = column_sums(x)
        assert got.tobytes() == _sum_from_zero(x).tobytes()
        assert got.tobytes() == np.add.reduce(x, axis=0).tobytes()

    @pytest.mark.parametrize("p", [2, 5, 8])
    @pytest.mark.parametrize("a_n, b_n", [(2, 1), (2, 300), (37, 41), (300, 7)])
    def test_batch_sums_are_the_batch_mean(self, p, a_n, b_n):
        # batch_means' batch sums: the (a_n, b_n, p) view summed over b_n
        x = TestNumpyColumnSum._rows(a_n * b_n, p).reshape(a_n, b_n, p)
        got = column_sums(x)
        assert got.tobytes() == np.einsum("abp->ap", x).tobytes()
        assert got.tobytes() == np.add.reduce(x, axis=1).tobytes()
        assert (got / b_n).tobytes() == x.mean(axis=1).tobytes()

    def test_single_column_einsum_is_not_add_reduce(self):
        # (a_n, b_n) = (116, 284) at p = 1, from a seeded search of random
        # shapes: einsum does not sum one column as add.reduce does, which
        # is pairwise, so column_sums keeps add.reduce at p = 1
        x = np.random.default_rng(0).standard_normal((116, 284, 1))
        assert np.einsum("abp->ap", x).tobytes() != np.add.reduce(x, axis=1).tobytes()
        assert column_sums(x).tobytes() == np.add.reduce(x, axis=1).tobytes()
        assert column_sums(x).tobytes() == x.sum(axis=1).tobytes()


class TestWideCentredCopy:
    @pytest.mark.parametrize("p", [1, 2, 5, 50])
    @pytest.mark.parametrize("m", [0, 1, 255, 256, 257, 513])
    def test_equals_the_plain_subtraction(self, p, m):
        rng = np.random.default_rng(m * 100 + p)
        x = 1e8 + rng.standard_normal((m, p)) * 10.0 ** rng.integers(-6, 7, (m, 1))
        c = rng.standard_normal(p) + 1e8
        want = (x - c).tobytes()
        assert centered(x, c).tobytes() == want
        out = np.full((m, p), np.nan)
        assert centered(x, c, out, np.tile(c, WIDE_ROWS)) is out
        assert out.tobytes() == want
        # rows that are not C-contiguous are subtracted as they are
        assert centered(np.asfortranarray(x), c).tobytes() == want
        assert centered(np.repeat(x, 2, axis=0)[::2], c).tobytes() == want


class TestEngineInputLayout:
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_append_reads_rows_not_their_layout(self, p):
        rng = np.random.default_rng(11)
        rows = 50.0 + rng.standard_normal((3_000, p)).cumsum(axis=0) / 50
        wider = np.concatenate((rows, rng.standard_normal((3_000, 2))), axis=1)
        layouts = {
            "c": rows.copy(),
            "fortran": np.asfortranarray(rows),
            "row_strided": wider[:, :p],
            "every_other_row": np.repeat(rows, 2, axis=0)[::2],
        }
        ests = {}
        for name, data in layouts.items():
            assert data.tobytes() == rows.tobytes()
            eng = CheckpointEngine(p, BatchPolicy.exponent(0.5))
            for lo, hi in ((0, 1), (1, 200), (200, 457), (457, 2_900), (2_900, 3_000)):
                eng.append(data[lo:hi])
            ests[name] = eng.estimate()
        want = ests.pop("c")
        for est in ests.values():
            assert est.theta.tobytes() == want.theta.tobytes()
            _same_cov(est.lam, want.lam)
            _same_cov(est.sigma, want.sigma)
