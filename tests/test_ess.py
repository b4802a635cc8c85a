"""Effective sample size and the minimum-ESS threshold."""
import math

import numpy as np
import pytest

from mcstop import (
    BatchPolicy,
    ChainMatrix,
    Var1Model,
    ar1_cov,
    batch_size,
    eps_from_ess,
    ess_report,
    mbm,
    min_ess,
    multivariate_ess,
    sample_covariance,
    simulate_var1,
    univariate_ess,
)
from mcstop.errors import DomainError, InsufficientData, NotPositiveDefinite

# frozen oracle values, computed once from the closed form in log space
# and cross-checked against 40-digit arithmetic
MIN_ESS_5_05_05 = 8604.9138458525
MIN_ESS_5_10_05 = 7179.266693557033
EPS_FROM_10000 = 0.04638133742641673


def _pd_estimates(rng, n=400, p=3):
    x = rng.standard_normal((n, p))
    lam = sample_covariance(ChainMatrix(x))
    sig = mbm(ChainMatrix(x), 10)
    return lam, sig, n


class TestMultivariateEss:
    def test_equal_estimates_give_n(self, rng):
        lam, _, n = _pd_estimates(rng)
        assert multivariate_ess(lam, lam, n) == pytest.approx(n, rel=1e-12)

    def test_four_lambda_gives_quarter(self, rng):
        import dataclasses

        lam, _, n = _pd_estimates(rng)
        scaled = dataclasses.replace(
            lam, matrix=4.0 * lam.matrix, log_det=lam.log_det + lam.p * math.log(4.0)
        )
        assert multivariate_ess(lam, scaled, n) == pytest.approx(n / 4.0, rel=1e-12)

    def test_not_pd_raises(self, rng):
        lam, _, n = _pd_estimates(rng)
        # constant third column makes the sample covariance singular
        rows = np.column_stack([rng.standard_normal((8, 2)), np.ones(8)])
        bad = sample_covariance(ChainMatrix(rows))
        assert not bad.is_pd
        with pytest.raises(NotPositiveDefinite):
            multivariate_ess(bad, bad, 8)
        with pytest.raises(NotPositiveDefinite):
            multivariate_ess(lam, bad, n)

    def test_dimension_mismatch(self, rng):
        lam, _, n = _pd_estimates(rng, p=3)
        lam2, _, _ = _pd_estimates(rng, p=2)
        with pytest.raises(DomainError):
            multivariate_ess(lam, lam2, n)

    def test_recoordinatization_invariance(self, rng):
        x = rng.standard_normal((500, 4))
        m = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        y = x @ m.T
        n = 500
        a = multivariate_ess(
            sample_covariance(ChainMatrix(x)), mbm(ChainMatrix(x), 20), n
        )
        b = multivariate_ess(
            sample_covariance(ChainMatrix(y)), mbm(ChainMatrix(y), 20), n
        )
        assert b == pytest.approx(a, rel=1e-8)

    def test_var1_benchmark_band(self):
        # mean over replications near 5.5e4 at n = 1e5
        phi = np.diag([0.9, 0.5, 0.1, 0.1, 0.1])
        model = Var1Model(phi=phi, omega=ar1_cov(0.9, 5))
        vals = []
        for r in range(10):
            ch = simulate_var1(model, 10**5, seed=7000 + r)
            b = batch_size(ch.n, BatchPolicy.exponent(0.5))
            vals.append(
                multivariate_ess(sample_covariance(ch), mbm(ch, b), ch.n)
            )
        assert np.mean(vals) == pytest.approx(55190, rel=0.10)


class TestUnivariateEss:
    def test_iid_close_to_n(self, rng):
        # per-component noise is roughly sqrt(2 / a_n) ~ 8 percent here
        x = rng.standard_normal((10**5, 3))
        ess = univariate_ess(ChainMatrix(x), 316)
        assert np.all(np.abs(ess - 10**5) < 0.15 * 10**5)

    def test_zero_ubm_variance_inf(self):
        x = np.column_stack([np.ones(24), np.arange(24.0)])
        # column 0 constant: batch means identical, ubm variance 0 -> inf
        ess = univariate_ess(ChainMatrix(x), 4)
        assert math.isinf(ess[0])
        assert math.isfinite(ess[1])

    def test_alternating_chain_positive(self):
        x = np.empty((100, 1))
        x[::2, 0] = 1.0
        x[1::2, 0] = -1.0
        ess = univariate_ess(ChainMatrix(x), 5)
        assert ess[0] > 0.0

    def test_var1_component_bands(self):
        phi = np.diag([0.9, 0.5, 0.1, 0.1, 0.1])
        model = Var1Model(phi=phi, omega=ar1_cov(0.9, 5))
        comp1, comp3 = [], []
        for r in range(10):
            ch = simulate_var1(model, 10**5, seed=7100 + r)
            ess = univariate_ess(ch, batch_size(ch.n, BatchPolicy.exponent(0.5)))
            comp1.append(ess[0])
            comp3.append(ess[2])
        assert np.mean(comp1) == pytest.approx(5432, rel=0.10)
        assert np.mean(comp3) == pytest.approx(82485, rel=0.10)

    def test_p1_matches_multivariate(self, rng):
        x = rng.standard_normal((300, 1))
        ch = ChainMatrix(x)
        uni = univariate_ess(ch, 10)[0]
        multi = multivariate_ess(sample_covariance(ch), mbm(ch, 10), 300)
        assert uni == pytest.approx(multi, rel=1e-12)


class TestMinEss:
    def test_reference_case_rounds_to_8605(self):
        val = min_ess(5, 0.05, 0.05)
        assert round(val) == 8605
        assert val == pytest.approx(MIN_ESS_5_05_05, rel=1e-11)

    def test_second_frozen_value(self):
        assert min_ess(5, 0.10, 0.05) == pytest.approx(MIN_ESS_5_10_05, rel=1e-11)

    def test_eps_scaling_exact(self):
        a = min_ess(7, 0.05, 0.08)
        b = min_ess(7, 0.05, 0.04)
        assert b == pytest.approx(4.0 * a, rel=1e-13)

    def test_limit_toward_2pie(self):
        # the bound times eps^2 approaches 2*pi*e from above as p grows
        two_pi_e = 2.0 * math.pi * math.e
        vals = [min_ess(p, 0.05, 0.05) * 0.05**2 for p in (10**2, 10**3, 10**4, 10**5)]
        rel = [abs(v - two_pi_e) / two_pi_e for v in vals]
        assert rel[0] > rel[1] > rel[2] > rel[3]
        assert rel[-1] < 0.01
        # frozen value at p = 1e4 (2.23% away from the limit)
        assert vals[2] == pytest.approx(17.460609131339176, rel=1e-10)

    def test_monotone_in_eps_and_alpha(self):
        grid = [0.02, 0.05, 0.10, 0.20]
        vals = [min_ess(4, 0.05, e) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        alphas = [0.01, 0.05, 0.10, 0.20]
        avals = [min_ess(4, a, 0.05) for a in alphas]
        assert all(a > b for a, b in zip(avals, avals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            min_ess(5, 0.05, 0.0)
        with pytest.raises(DomainError):
            min_ess(5, 0.05, -1.0)
        with pytest.raises(DomainError):
            min_ess(0, 0.05, 0.05)
        with pytest.raises(DomainError):
            min_ess(5, 1.0, 0.05)
        for eps in (math.nan, math.inf):
            with pytest.raises(DomainError, match="^eps must be finite, got "):
                min_ess(5, 0.05, eps)


class TestEpsFromEss:
    def test_reference_case(self):
        val = eps_from_ess(5, 0.05, 10000)
        assert val == pytest.approx(0.0464, abs=5e-4)
        assert val == pytest.approx(EPS_FROM_10000, rel=1e-11)

    def test_round_trip(self):
        for p, alpha, eps in ((3, 0.10, 0.02), (5, 0.05, 0.05), (12, 0.01, 0.3)):
            assert eps_from_ess(p, alpha, min_ess(p, alpha, eps)) == pytest.approx(
                eps, rel=1e-10
            )

    def test_ess_scaling(self):
        a = eps_from_ess(5, 0.05, 2500)
        b = eps_from_ess(5, 0.05, 10000)
        assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            eps_from_ess(5, 0.05, 0.0)
        for ess in (math.nan, math.inf):
            with pytest.raises(DomainError, match="^ess must be finite, got "):
                eps_from_ess(5, 0.05, ess)


class TestEssReport:
    def test_composition(self, rng):
        x = rng.standard_normal((2000, 3))
        rep = ess_report(ChainMatrix(x), BatchPolicy.exponent(0.5))
        ch = ChainMatrix(x)
        b = batch_size(2000, BatchPolicy.exponent(0.5))
        assert rep.n == 2000 and rep.p == 3 and rep.b_n == b
        expected = multivariate_ess(sample_covariance(ch), mbm(ch, b), 2000)
        assert rep.ess_multivariate == expected
        np.testing.assert_array_equal(rep.ess_univariate, univariate_ess(ch, b))

    def test_definitional_invariant(self, rng):
        x = rng.standard_normal((500, 2))
        rep = ess_report(ChainMatrix(x), BatchPolicy.exponent(0.5))
        assert rep.ess_multivariate >= 0.0
        assert np.all(np.asarray(rep.ess_univariate) >= 0.0)

    def test_fewer_than_two_batches(self):
        # n = 5 at nu = 0.9: b_n = 4, a_n = 1
        with pytest.raises(InsufficientData, match="got a_n=1 from n=5, b_n=4"):
            ess_report(ChainMatrix(np.arange(10.0).reshape(5, 2)),
                       BatchPolicy.exponent(0.9))
        with pytest.raises(InsufficientData):
            ess_report(ChainMatrix(np.ones((1, 2))), BatchPolicy.exponent(0.5))
