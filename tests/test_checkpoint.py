"""Streaming checkpoint engine against the reference batch estimators."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstop import (
    BatchPolicy,
    ChainMatrix,
    FileChainSource,
    IidGaussianSource,
    NotPD,
    StoppingConfig,
    batch_size,
    check_absolute,
    check_relative_sd,
    check_univariate,
    mbm,
    run_sequential,
    sample_covariance,
    ubm_diag,
    var1_benchmark,
)
from mcstop.checkpoint import CheckpointEngine, reference_estimate
from mcstop.errors import DomainError
from mcstop.stopping import CheckpointWalk, drive_checkpoints

# Relative to the largest entry of the reference result. The streaming
# sums differ from the reference only in summation order; the largest
# gap measured on VAR(1) benchmark chains was 2.9e-13 (n up to 1.1e6,
# mean offsets up to 1e3).
REL_TOL = 1e-10


def _ar1_rows(seed, n, p, offset):
    g = np.random.default_rng(seed)
    eps = g.standard_normal((n, p))
    out = np.empty((n, p))
    out[0] = eps[0]
    for t in range(1, n):
        out[t] = 0.6 * out[t - 1] + eps[t]
    return out + offset


def _fed(rows, cuts, policy):
    """Engine estimates after each append of rows split at cuts."""
    engine = CheckpointEngine(rows.shape[1], policy)
    out = []
    for lo, hi in zip([0] + cuts, cuts + [rows.shape[0]]):
        engine.append(rows[lo:hi])
        if engine.n >= 2:
            out.append(engine.estimate())
    return out


def _assert_bitwise(a, b):
    assert (a.n, a.p, a.b_n, a.a_n) == (b.n, b.p, b.b_n, b.a_n)
    np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(a.col_var, b.col_var)
    np.testing.assert_array_equal(a.lam.matrix, b.lam.matrix)
    assert a.lam.log_det == b.lam.log_det
    assert (a.sigma is None) == (b.sigma is None)
    if a.sigma is not None:
        np.testing.assert_array_equal(a.sigma.matrix, b.sigma.matrix)
        assert a.sigma.log_det == b.sigma.log_det


def _assert_close(got, want):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= REL_TOL * scale


def _assert_matches_reference(est, chain, policy):
    b = batch_size(chain.n, policy)
    assert est.b_n == b and est.a_n == chain.n // b
    lam = sample_covariance(chain)
    _assert_close(est.lam.matrix, lam.matrix)
    assert est.lam.is_pd == lam.is_pd
    _assert_close(est.col_var, chain.data.var(axis=0, ddof=1))
    _assert_close(est.theta, chain.data.mean(axis=0))
    if est.a_n < 2:
        assert est.sigma is None
        return
    sig = mbm(chain, b)
    _assert_close(est.sigma.matrix, sig.matrix)
    assert (est.sigma.a_n, est.sigma.b_n) == (sig.a_n, sig.b_n)
    _assert_close(est.ubm, ubm_diag(chain, b))


policies = st.one_of(
    st.floats(0.2, 0.8).map(BatchPolicy.exponent),
    st.integers(1, 300).map(BatchPolicy.fixed),
)


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 6),
        n=st.integers(2, 5000),
        seed=st.integers(0, 2**31),
        policy=policies,
        offset=st.sampled_from([0.0, 1e3, -37.5]),
        data=st.data(),
    )
    def test_chunkings_bitwise_and_reference_close(self, p, n, seed, policy, offset, data):
        rows = _ar1_rows(seed, n, p, offset)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=12)))
        chunked = _fed(rows, cuts, policy)
        ends = [c for c in cuts + [n] if c >= 2]
        assert [e.n for e in chunked] == ends
        for est in chunked:
            # the estimate at n depends on the first n rows only
            one_shot = CheckpointEngine(p, policy)
            one_shot.append(rows[: est.n])
            _assert_bitwise(est, one_shot.estimate())
            _assert_matches_reference(est, ChainMatrix(rows[: est.n]), policy)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        metric=st.sampled_from(
            ["relative_sd", "absolute", "univariate_bonferroni", "univariate_uncorrected"]
        ),
        eps=st.floats(0.05, 0.5),
        nu=st.floats(0.3, 0.7),
    )
    def test_run_sequential_same_n_final(self, p, seed, metric, eps, nu):
        cfg = StoppingConfig(
            epsilon=eps, alpha=0.10, n_star=50, metric=metric,
            batch_policy=BatchPolicy.exponent(nu), n_max=5000,
        )
        check = {
            "relative_sd": check_relative_sd,
            "absolute": check_absolute,
        }.get(metric, check_univariate)
        by_name = run_sequential(IidGaussianSource(p, seed), metric, cfg)
        by_identity = run_sequential(IidGaussianSource(p, seed), check, cfg)
        # a wrapper is an opaque callable: it gets the ChainMatrix and the
        # reference estimators
        by_reference = run_sequential(
            IidGaussianSource(p, seed), lambda c, f: check(c, f), cfg
        )
        # repr compares floats bitwise and nan (ESS without a PD Σ_n) as equal
        assert repr(by_name) == repr(by_identity)
        assert by_name.n_final == by_reference.n_final
        assert repr(by_name) == repr(by_reference)


class TestEngine:
    def test_long_offset_chain_matches_reference(self):
        rows = _ar1_rows(11, 200_000, 3, 1e3)
        engine = CheckpointEngine(3, BatchPolicy.exponent(0.5))
        for lo in range(0, rows.shape[0], 30_011):
            engine.append(rows[lo : lo + 30_011])
        _assert_matches_reference(
            engine.estimate(), ChainMatrix(rows), BatchPolicy.exponent(0.5)
        )

    def test_not_pd_below_dimension(self):
        engine = CheckpointEngine(4, BatchPolicy.fixed(1))
        engine.append(np.arange(12.0).reshape(3, 4) ** 2)
        est = engine.estimate()
        assert est.lam.log_det is NotPD
        assert est.sigma.log_det is NotPD

    def test_too_few_batches(self):
        engine = CheckpointEngine(2, BatchPolicy.exponent(0.9))
        engine.append(np.random.default_rng(0).standard_normal((3, 2)))
        assert engine.estimate().sigma is None

    def test_validation(self):
        with pytest.raises(DomainError):
            CheckpointEngine(0, BatchPolicy.exponent())
        engine = CheckpointEngine(2, BatchPolicy.exponent())
        with pytest.raises(DomainError):
            engine.append(np.zeros((3, 3)))
        engine.append(np.zeros((1, 2)))
        with pytest.raises(DomainError):
            engine.estimate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_append_rejects_non_finite_rows(self, rng, bad):
        eng = CheckpointEngine(2, BatchPolicy.exponent())
        eng.append(rng.standard_normal((5, 2)))
        rows = rng.standard_normal((3, 2))
        rows[1, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            eng.append(rows)
        assert eng.n == 5

    def test_reference_estimate_is_the_batch_estimators(self, rng):
        chain = ChainMatrix(rng.standard_normal((900, 3)))
        pol = BatchPolicy.exponent(0.5)
        est = reference_estimate(chain, pol)
        sig = mbm(chain, batch_size(900, pol))
        np.testing.assert_array_equal(est.sigma.matrix, sig.matrix)
        np.testing.assert_array_equal(est.lam.matrix, sample_covariance(chain).matrix)
        np.testing.assert_array_equal(est.ubm, ubm_diag(chain, sig.b_n))
        np.testing.assert_array_equal(est.col_var, chain.data.var(axis=0, ddof=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_reference_estimate_one_centring_is_bitwise(self, seed):
        # θ_n and the centred rows serve Λ_n and the column variances;
        # both equal the separate passes bit for bit, also far from 0
        rng = np.random.default_rng(seed)
        n = (2_003, 7_919, 14_471, 9_001, 17_389, 4_099)[seed]
        p = int(rng.integers(1, 7))
        offset = 1e3 if seed % 2 else 0.0
        chain = ChainMatrix(offset + rng.standard_normal((n, p)).cumsum(axis=0) / 50)
        pol = BatchPolicy.exponent(0.5)
        b = batch_size(n, pol)
        assert n % b != 0
        est = reference_estimate(chain, pol)
        assert est.theta.tobytes() == chain.data.mean(axis=0).tobytes()
        assert est.lam.matrix.tobytes() == sample_covariance(chain).matrix.tobytes()
        assert est.lam.log_det == sample_covariance(chain).log_det
        assert est.col_var.tobytes() == chain.data.var(axis=0, ddof=1).tobytes()
        assert est.sigma.matrix.tobytes() == mbm(chain, b).matrix.tobytes()


class TestCheckpointWalk:
    CFG = StoppingConfig(epsilon=0.08, alpha=0.10, n_star=500)

    @pytest.fixture(scope="class")
    def chain(self):
        return var1_benchmark(5).make_source(4).take(40_000)

    @staticmethod
    def _same_final(walk, whole):
        got, want = walk.final, whole.final
        assert (got.n, got.b_n, got.a_n) == (want.n, want.b_n, want.a_n)
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.lam.matrix.tobytes() == want.lam.matrix.tobytes()
        assert got.sigma.matrix.tobytes() == want.sigma.matrix.tobytes()
        assert walk.summary == whole.summary

    @pytest.mark.parametrize("piece", [1, 1700, 2049, 40_000])
    def test_fed_in_pieces_matches_one_run(self, chain, piece):
        # one walk fed a growing chain in pieces (2049 rows cross an
        # engine tile edge in every piece) reaches run_sequential's
        # result and the bits of its final estimate
        whole = drive_checkpoints(FileChainSource(chain), None, self.CFG)
        assert whole.result == run_sequential(FileChainSource(chain), None, self.CFG)
        walk, rows = CheckpointWalk(None, self.CFG, chain.p), 0
        while walk.result is None:
            rows += piece
            assert rows <= chain.n
            walk.feed(chain.data[:rows])
            assert walk.result is not None or walk.next > rows
        assert walk.result == whole.result
        assert walk.next == walk.final.n == whole.result.n_final < rows + piece
        self._same_final(walk, whole)

    def test_resumed_walks_match_one_run(self, chain):
        # a fresh walk per piece, past the rows the last piece checked,
        # as the resume protocol makes them
        whole = drive_checkpoints(FileChainSource(chain), None, self.CFG)
        checked, rows = 0, 0
        while True:
            rows += 1700
            walk = CheckpointWalk(None, self.CFG, chain.p, checked)
            walk.feed(chain.data[:rows])
            if walk.result is not None:
                break
            assert walk.next > rows
            checked = rows
        assert walk.result == whole.result
        self._same_final(walk, whole)

    def test_walk_past_checked_decides_as_from_row_0(self, chain):
        whole = drive_checkpoints(FileChainSource(chain), None, self.CFG)
        n_final = whole.result.n_final
        for checked in (0, 499, 500, 501, 4_321, n_final - 1):
            walk = CheckpointWalk(None, self.CFG, chain.p, checked)
            assert walk.next > checked
            walk.feed(chain.data)
            assert walk.result == whole.result
            self._same_final(walk, whole)

    def test_decided_walk_reads_no_more_rows(self, chain):
        # feed decides at the first deciding point and releases the engine;
        # a later feed checks nothing
        walk = CheckpointWalk(None, self.CFG, chain.p)
        walk.feed(chain.data)
        result, final = walk.result, walk.final
        assert result is not None and walk.engine is None
        walk.feed(chain.data[::-1])
        assert walk.result is result and walk.final is final
        assert walk.next == result.n_final

    def test_short_feed_checks_nothing_and_reads_no_rows(self):
        class Unread:
            def __len__(self):
                return 99

            def __getitem__(self, key):
                raise AssertionError("no checkpoint is due")

        walk = CheckpointWalk(None, StoppingConfig(epsilon=0.1, alpha=0.1, n_star=100), 2)
        walk.feed(Unread())
        assert walk.next == 100 and walk.engine.n == 0
        assert walk.result is None and walk.final is None and walk.summary is None
