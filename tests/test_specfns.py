"""Quantile and special-function checks against oracles.

The library's functions wrap scipy.special, so the comparisons with
scipy.stats check the wrapping: argument order, tails, support edges
and domain errors. The independent oracles are math.lgamma, frozen
values, and root solves in 40-digit mpmath arithmetic for the t, F and
chi-square quantiles the stopping rules and thresholds use.
"""
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from mcstop.errors import DomainError
from mcstop.specfns import (
    cdf,
    chi2,
    f,
    log_gamma,
    quantile,
    reg_inc_beta,
    reg_inc_gamma,
    student_t,
)


# frozen oracle values (scipy 1.15, float64)
CHI2_5_95 = 11.070497693516351
CHI2_1E4_95 = 10233.748897677626
T_1E6_975 = 1.9599663568141066
F_2_8_90 = 3.1131176401556915


class TestLogGamma:
    def test_matches_lgamma_grid(self):
        xs = np.concatenate([
            np.linspace(0.05, 2.0, 40),
            np.linspace(2.0, 50.0, 40),
            np.array([1e2, 1e3, 1e4, 5e5, 1e6, 1e8]),
        ])
        for x in xs:
            mine = log_gamma(float(x))
            ref = math.lgamma(float(x))
            assert mine == pytest.approx(ref, rel=1e-13, abs=1e-12)

    def test_integer_factorials(self):
        acc = 0.0
        for k in range(2, 20):
            acc += math.log(k - 1) if k > 2 else 0.0
        # direct: log Gamma(k) = log (k-1)!
        fact = 1.0
        for k in range(1, 15):
            assert log_gamma(k) == pytest.approx(math.log(fact), rel=1e-13, abs=1e-12)
            fact *= k

    def test_reflection_region_rejected_or_exact(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)

    @given(st.floats(min_value=0.01, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_lgamma(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-11)


class TestIncompleteFunctions:
    def test_reg_inc_gamma_vs_scipy(self):
        for a in (0.5, 1.0, 2.5, 10.0, 100.0, 5000.0):
            for frac in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
                x = a * frac
                assert reg_inc_gamma(a, x) == pytest.approx(
                    scipy.special.gammainc(a, x), rel=1e-11, abs=1e-13
                )

    def test_reg_inc_gamma_edges(self):
        assert reg_inc_gamma(3.0, 0.0) == 0.0
        assert reg_inc_gamma(3.0, 1e308) == pytest.approx(1.0, abs=1e-15)

    def test_reg_inc_beta_vs_scipy(self):
        for a in (0.5, 1.0, 4.0, 50.0, 500.0):
            for b in (0.5, 2.0, 30.0, 500000.0):
                for x in (0.01, 0.25, 0.5, 0.75, 0.99):
                    assert reg_inc_beta(a, b, x) == pytest.approx(
                        scipy.special.betainc(a, b, x), rel=1e-10, abs=1e-13
                    )

    def test_reg_inc_beta_edges(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


class TestCdf:
    def test_chi2_cdf_vs_scipy(self):
        for dof in (1, 2, 5, 50, 10**4):
            for x in (0.5 * dof, dof, 2.0 * dof):
                assert cdf(chi2(dof), x) == pytest.approx(
                    scipy.stats.chi2.cdf(x, dof), rel=1e-11, abs=1e-13
                )

    def test_f_cdf_vs_scipy(self):
        for d1, d2 in ((1, 5), (2, 8), (5, 40), (50, 1000)):
            for x in (0.3, 1.0, 2.5, 7.0):
                assert cdf(f(d1, d2), x) == pytest.approx(
                    scipy.stats.f.cdf(x, d1, d2), rel=1e-10, abs=1e-13
                )

    def test_t_cdf_vs_scipy(self):
        for dof in (1, 3, 30, 10**6):
            for x in (-3.0, -0.5, 0.0, 1.2, 4.0):
                assert cdf(student_t(dof), x) == pytest.approx(
                    scipy.stats.t.cdf(x, dof), rel=1e-10, abs=1e-12
                )

    def test_cdf_below_support_zero(self):
        assert cdf(chi2(3), -1.0) == 0.0
        assert cdf(f(2, 5), 0.0) == 0.0


class TestQuantile:
    def test_frozen_values(self):
        assert quantile(chi2(5), 0.95) == pytest.approx(CHI2_5_95, rel=1e-10)
        assert quantile(chi2(10**4), 0.95) == pytest.approx(CHI2_1E4_95, rel=1e-10)
        assert quantile(f(2, 8), 0.90) == pytest.approx(F_2_8_90, rel=1e-10)
        # both implementations are near their convergence floors at dof=1e6
        assert quantile(student_t(10**6), 0.975) == pytest.approx(T_1E6_975, rel=1e-9)

    def test_against_scipy_grid(self):
        levels = (0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999)
        for dof in (1, 4, 17, 300):
            for q in levels:
                assert quantile(chi2(dof), q) == pytest.approx(
                    scipy.stats.chi2.ppf(q, dof), rel=1e-9
                )
                assert quantile(student_t(dof), q) == pytest.approx(
                    scipy.stats.t.ppf(q, dof), rel=1e-9, abs=1e-12
                )
        for d1, d2 in ((1, 7), (3, 12), (5, 95), (50, 200)):
            for q in levels:
                assert quantile(f(d1, d2), q) == pytest.approx(
                    scipy.stats.f.ppf(q, d1, d2), rel=1e-9
                )

    def test_f_t_identity(self):
        # F(1, d) upper quantile equals the squared two-sided t quantile
        for d in (3, 10, 99):
            for alpha in (0.10, 0.05):
                tq = quantile(student_t(d), 1 - alpha / 2)
                fq = quantile(f(1, d), 1 - alpha)
                assert fq == pytest.approx(tq * tq, rel=1e-9)

    def test_round_trip(self):
        for dist in (chi2(7), f(4, 19), student_t(11)):
            for level in (0.05, 0.5, 0.975):
                x = quantile(dist, level)
                assert cdf(dist, x) == pytest.approx(level, abs=1e-10)

    def test_level_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
            with pytest.raises(DomainError):
                quantile(chi2(4), bad)

    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_monotone_in_level(self, a, b):
        lo, hi = sorted((a, b))
        dist = chi2(6)
        if lo == hi:
            assert quantile(dist, lo) == quantile(dist, hi)
        else:
            assert quantile(dist, lo) < quantile(dist, hi)

    @given(st.integers(min_value=1, max_value=2000),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip_chi2(self, dof, level):
        x = quantile(chi2(dof), level)
        assert cdf(chi2(dof), x) == pytest.approx(level, abs=1e-9)

    def test_huge_dof_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 40
        # chi2(1e4) 95%: solve via regularized incomplete gamma in mpmath
        target = mpmath.mpf("0.95")
        a = mpmath.mpf(10**4) / 2

        def cdf_mp(x):
            return mpmath.gammainc(a, 0, x / 2, regularized=True)

        x = mpmath.findroot(lambda x: cdf_mp(x) - target, mpmath.mpf(CHI2_1E4_95))
        assert quantile(chi2(10**4), 0.95) == pytest.approx(float(x), rel=1e-11)

    @pytest.mark.parametrize("p", (1, 5, 50))
    def test_rule_quantiles_against_mpmath(self, p):
        # the t_* and Hotelling F quantiles the stopping rules call, each
        # solved in 40-digit arithmetic at the float level passed in
        import mpmath

        def t_cdf(nu, x):
            nu = mpmath.mpf(nu)
            half = mpmath.mpf(1) / 2
            tail = mpmath.betainc(nu / 2, half, 0, nu / (nu + x * x), regularized=True)
            return 1 - tail / 2

        def f_cdf(d1, d2, x):
            d1, d2 = mpmath.mpf(d1), mpmath.mpf(d2)
            return mpmath.betainc(d1 / 2, d2 / 2, 0, d1 * x / (d1 * x + d2),
                                  regularized=True)

        def oracle(cdf_mp, level, start):
            root = mpmath.findroot(lambda x: cdf_mp(x) - mpmath.mpf(level),
                                   mpmath.mpf(start))
            return float(root)

        with mpmath.workdps(40):
            for a_n in (p + 2, 30, 1000, 10**5):
                for alpha in (0.05, 0.10):
                    for level in (1.0 - alpha / (2.0 * p), 1.0 - alpha / 2.0):
                        q = quantile(student_t(a_n - 1), level)
                        ref = oracle(lambda x: t_cdf(a_n - 1, x), level, q)
                        assert q == pytest.approx(ref, rel=1e-11)
                    if a_n > p:
                        q = quantile(f(p, a_n - p), 1.0 - alpha)
                        ref = oracle(lambda x: f_cdf(p, a_n - p, x), 1.0 - alpha, q)
                        assert q == pytest.approx(ref, rel=1e-11)
