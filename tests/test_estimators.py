"""Covariance estimators: batch sizing, mBM, sample covariance, log-det."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcstop import (
    BatchPolicy,
    ChainMatrix,
    CovEstimate,
    NotPD,
    Var1Model,
    ar1_cov,
    batch_size,
    log_det,
    mbm,
    sample_covariance,
    simulate_var1,
    ubm_diag,
    var1_true_cov,
)
from mcstop.errors import ConfigError, DomainError, InsufficientData


class TestBatchSize:
    def test_examples(self):
        assert batch_size(10**5, BatchPolicy.exponent(0.5)) == 316
        assert batch_size(10**5, BatchPolicy.exponent(1 / 3)) == 46
        assert batch_size(10, BatchPolicy.fixed(50)) == 5

    def test_exponent_floor_one(self):
        assert batch_size(1, BatchPolicy.exponent(0.5)) == 1
        assert batch_size(3, BatchPolicy.exponent(0.1)) == 1

    def test_exact_integer_powers(self):
        # floor must not drop to 9 on pow() returning 999.999...
        assert batch_size(10**6, BatchPolicy.exponent(1 / 3)) == 100
        assert batch_size(10**6, BatchPolicy.exponent(0.5)) == 1000
        assert batch_size(32, BatchPolicy.exponent(0.2)) == 2

    def test_fixed_cap_and_floor(self):
        assert batch_size(100, BatchPolicy.fixed(10)) == 10
        assert batch_size(100, BatchPolicy.fixed(51)) == 50
        assert batch_size(1, BatchPolicy.fixed(5)) == 1

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            BatchPolicy.exponent(0.0)
        with pytest.raises(DomainError):
            BatchPolicy.exponent(1.0)
        with pytest.raises(DomainError):
            BatchPolicy.fixed(0)

    def test_parse_text_form(self):
        assert BatchPolicy.parse("nu:.4") == BatchPolicy.exponent(0.4)
        assert BatchPolicy.parse("fixed:25") == BatchPolicy.fixed(25)
        for bad in ("0.5", "nu:half", "fixed:2.5", "size:10"):
            with pytest.raises(ConfigError):
                BatchPolicy.parse(bad)
        with pytest.raises(DomainError):
            BatchPolicy.parse("nu:1.5")

    @given(st.integers(min_value=1, max_value=10**7),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=80, deadline=None)
    def test_property_exponent_bounds(self, n, nu):
        b = batch_size(n, BatchPolicy.exponent(nu))
        assert 1 <= b
        assert float(b) <= float(n) ** nu * (1 + 1e-9) or b == 1


class TestSampleCovariance:
    def test_hand_singular_example(self):
        est = sample_covariance(ChainMatrix(np.array([[0.0, 0.0], [2.0, 0.0]])))
        np.testing.assert_array_equal(est.matrix, [[2.0, 0.0], [0.0, 0.0]])
        assert est.log_det is NotPD
        assert not est.is_pd

    def test_metadata(self, rng):
        est = sample_covariance(ChainMatrix(rng.standard_normal((9, 2))))
        assert est.method == "sample"
        assert est.a_n == 0 and est.b_n == 0

    def test_two_pass_agreement(self, rng):
        x = rng.standard_normal((400, 5)) * 3.0 + 7.0
        est = sample_covariance(ChainMatrix(x))
        # textbook two-pass oracle
        dev = x - x.mean(axis=0)
        oracle = dev.T @ dev / (x.shape[0] - 1)
        np.testing.assert_allclose(est.matrix, oracle, rtol=1e-10)

    def test_iid_close_to_identity(self, rng):
        x = rng.standard_normal((10**5, 2))
        est = sample_covariance(ChainMatrix(x))
        assert np.max(np.abs(est.matrix - np.eye(2))) < 0.05

    def test_requires_two_rows(self):
        with pytest.raises(InsufficientData):
            sample_covariance(ChainMatrix(np.ones((1, 2))))

    def test_log_det_gate_p_ge_n(self, rng):
        est = sample_covariance(ChainMatrix(rng.standard_normal((3, 3))))
        assert est.log_det is NotPD


class TestMbm:
    def test_constant_chain_zero(self):
        # dyadic constant: batch means and grand mean are exactly equal
        est = mbm(ChainMatrix(np.full((20, 3), 2.5)), 4)
        np.testing.assert_array_equal(est.matrix, np.zeros((3, 3)))
        assert est.log_det is NotPD
        # non-dyadic constant: zero up to squared-ulp rounding of the means
        est2 = mbm(ChainMatrix(np.full((20, 3), 4.2)), 4)
        assert np.max(np.abs(est2.matrix)) < 1e-27

    def test_b1_bitwise_identity(self, rng):
        x = rng.standard_normal((137, 4))
        s = sample_covariance(ChainMatrix(x))
        b1 = mbm(ChainMatrix(x), 1)
        assert np.array_equal(s.matrix, b1.matrix)
        assert s.log_det == b1.log_det
        assert b1.a_n == 137 and b1.b_n == 1

    def test_hand_example_six_rows(self):
        # p=1, b=2: batch means 2, 5, 3; grand mean 10/3
        x = np.array([[1.0], [3.0], [2.0], [8.0], [5.0], [1.0]])
        est = mbm(ChainMatrix(x), 2)
        bm = np.array([2.0, 5.0, 3.0])
        hand = 2.0 / 2.0 * np.sum((bm - x.mean()) ** 2)
        assert est.matrix[0, 0] == pytest.approx(hand, rel=1e-14)
        assert est.a_n == 3 and est.b_n == 2

    def test_remainder_rows_dropped(self, rng):
        x = rng.standard_normal((103, 2))
        est = mbm(ChainMatrix(x), 10)
        trunc = mbm(ChainMatrix(x[:100]), 10)
        np.testing.assert_array_equal(est.matrix, trunc.matrix)
        assert est.a_n == 10

    def test_centering_uses_retained_prefix(self):
        # make the dropped tail wildly different; result must ignore it
        x = np.concatenate([np.sin(np.arange(40.0))[:, None], np.full((3, 1), 1e6)])
        est = mbm(ChainMatrix(x), 8)
        ref = mbm(ChainMatrix(x[:40]), 8)
        np.testing.assert_array_equal(est.matrix, ref.matrix)

    def test_requires_two_batches(self):
        with pytest.raises(InsufficientData):
            mbm(ChainMatrix(np.ones((5, 1))), 5)

    def test_bad_batch_size(self):
        with pytest.raises(DomainError):
            mbm(ChainMatrix(np.ones((5, 1))), 0)

    def test_log_det_gate(self, rng):
        x = rng.standard_normal((30, 4))
        # a_n = 3 <= p = 4: no log det
        est = mbm(ChainMatrix(x), 10)
        assert est.log_det is NotPD
        # a_n = 15 > 4: PD with probability 1
        est2 = mbm(ChainMatrix(x), 2)
        assert est2.is_pd

    def test_affine_equivariance(self, rng):
        x = rng.standard_normal((200, 3))
        m = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        a = mbm(ChainMatrix(x @ m.T), 14).matrix
        b = m @ mbm(ChainMatrix(x), 14).matrix @ m.T
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_psd_always(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 60))
            p = int(rng.integers(1, 5))
            b = int(rng.integers(1, max(2, n // 2)))
            est = mbm(ChainMatrix(rng.standard_normal((n, p))), b)
            eigs = np.linalg.eigvalsh(est.matrix)
            assert eigs.min() >= -1e-12 * max(1.0, eigs.max())

    def test_var1_close_to_analytic(self):
        # mean relative Frobenius error over 30 replications below 0.15
        phi = np.diag([0.9, 0.5, 0.1, 0.1, 0.1])
        model = Var1Model(phi=phi, omega=ar1_cov(0.9, 5))
        errs = []
        for r in range(30):
            ch = simulate_var1(model, 10**5, seed=900 + r)
            est = mbm(ch, batch_size(ch.n, BatchPolicy.exponent(0.5)))
            errs.append(
                np.linalg.norm(est.matrix - model.sigma_true)
                / np.linalg.norm(model.sigma_true)
            )
        assert np.mean(errs) < 0.15


class TestUbmDiag:
    def test_matches_mbm_diagonal(self, rng):
        x = rng.standard_normal((150, 3))
        np.testing.assert_allclose(
            ubm_diag(ChainMatrix(x), 12),
            np.diag(mbm(ChainMatrix(x), 12).matrix),
            rtol=1e-12,
        )

    def test_constant_chain(self):
        np.testing.assert_array_equal(
            ubm_diag(ChainMatrix(np.ones((12, 2))), 3), np.zeros(2)
        )

    def test_hand_p1(self):
        x = np.array([[1.0], [3.0], [2.0], [8.0], [5.0], [1.0]])
        val = ubm_diag(ChainMatrix(x), 2)[0]
        assert val == pytest.approx(mbm(ChainMatrix(x), 2).matrix[0, 0], rel=1e-14)

    def test_returns_an_array_not_an_estimate(self):
        # no CovEstimate has method "ubm_diag": the diagonal is a plain array
        x = np.arange(12.0).reshape(6, 2)
        assert isinstance(ubm_diag(ChainMatrix(x), 2), np.ndarray)
        with pytest.raises(DomainError, match="unknown estimator method"):
            CovEstimate(np.eye(2), "ubm_diag", 3, 2, 0.0)


class TestLogDet:
    def test_identity(self):
        for p in (1, 3, 8):
            assert log_det(np.eye(p)) == 0.0

    def test_diag_2_3(self):
        assert log_det(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_lu_oracle(self, rng):
        b = rng.standard_normal((6, 6))
        a = b.T @ b + np.eye(6)
        sign, oracle = np.linalg.slogdet(a)
        assert sign == 1.0
        assert log_det(a) == pytest.approx(oracle, rel=1e-9)

    def test_singular_returns_notpd(self):
        assert log_det(np.array([[2.0, 0.0], [0.0, 0.0]])) is NotPD
        assert log_det(np.array([[-1.0]])) is NotPD

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            log_det(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_tiny_asymmetry_tolerated(self):
        a = np.eye(2)
        a[0, 1] = 1e-12
        assert log_det(a) == pytest.approx(0.0, abs=1e-10)

    def test_nonsquare_rejected(self):
        with pytest.raises(DomainError):
            log_det(np.ones((2, 3)))

    def test_notpd_is_singleton_and_pickles(self):
        import pickle

        assert pickle.loads(pickle.dumps(NotPD)) is NotPD
        assert repr(NotPD) == "NotPD"
