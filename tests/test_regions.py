"""Confidence-region geometry: cutoffs, volumes, membership, intervals."""
import math

import numpy as np
import pytest
import scipy.stats

from mcstop import (
    BatchPolicy,
    ChainMatrix,
    MeanVector,
    batch_size,
    column_means,
    contains,
    ellipse_boundary,
    hotelling_cutoff,
    make_region,
    mbm,
    region_volume,
    scheffe_interval,
)
from mcstop.regions import rectangle_volume, t_cutoff
from mcstop.errors import DomainError, InsufficientBatches

# 2 * 9/8 * F_{0.90, 2, 8}, F quantile frozen from scipy
CUTOFF_2_10_90 = 2.25 * 3.1131176401556915


def _region(rng, n=2000, p=3, alpha=0.10, b=20):
    x = rng.standard_normal((n, p)) + np.arange(p)
    ch = ChainMatrix(x)
    return make_region(column_means(ch), mbm(ch, b), n, alpha), ch


class TestFixedWidthRectangle:
    def test_t_cutoff_levels(self):
        assert t_cutoff(0.10, 4, 50, bonferroni=False) == pytest.approx(
            scipy.stats.t.ppf(0.95, 49), rel=1e-12)
        assert t_cutoff(0.10, 4, 50, bonferroni=True) == pytest.approx(
            scipy.stats.t.ppf(1 - 0.10 / 8, 49), rel=1e-12)

    def test_rectangle_volume_is_product_of_widths(self):
        sig2 = np.array([0.5, 2.0, 3.0])
        t = t_cutoff(0.05, 3, 40, bonferroni=True)
        widths = 2.0 * t * np.sqrt(sig2) / math.sqrt(1600)
        assert rectangle_volume(1600, 3, 40, sig2, 0.05, True) == pytest.approx(
            math.log(widths.prod()), rel=1e-13)
        assert rectangle_volume(1600, 1, 40, np.zeros(1), 0.05, True) == -math.inf


class TestHotellingCutoff:
    def test_hand_value(self):
        assert hotelling_cutoff(0.10, 2, 10) == pytest.approx(
            CUTOFF_2_10_90, rel=1e-12
        )

    def test_p1_is_squared_t(self):
        # p = 1 collapses to the squared two-sided t critical value
        t = scipy.stats.t.ppf(0.975, 100)
        assert hotelling_cutoff(0.05, 1, 101) == pytest.approx(t * t, rel=1e-9)

    def test_chi2_limit(self):
        chi = scipy.stats.chi2.ppf(0.90, 5)
        assert hotelling_cutoff(0.10, 5, 10**6) == pytest.approx(chi, rel=1e-3)

    def test_cutoff_decreases_with_batches(self):
        vals = [hotelling_cutoff(0.05, 3, a) for a in (5, 10, 50, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_insufficient_batches(self):
        with pytest.raises(InsufficientBatches):
            hotelling_cutoff(0.05, 5, 5)
        with pytest.raises(InsufficientBatches):
            hotelling_cutoff(0.05, 5, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            hotelling_cutoff(0.0, 2, 10)
        with pytest.raises(DomainError):
            hotelling_cutoff(0.05, 0, 10)


class TestRegionVolume:
    def test_p1_is_t_interval_width(self):
        # p = 1: the region is the t interval, volume 2 t sigma / sqrt(n)
        n, sig2 = 400, 2.5
        t = scipy.stats.t.ppf(0.95, 24)
        lv = region_volume(n, 1, t * t, math.log(sig2))
        assert lv == pytest.approx(
            math.log(2.0 * t * math.sqrt(sig2) / math.sqrt(n)), abs=1e-10
        )

    def test_p2_unit_shape(self):
        n, cut = 900, 6.0
        lv = region_volume(n, 2, cut, 0.0)
        assert lv == pytest.approx(math.log(math.pi * cut / n), abs=1e-12)

    def test_decreasing_in_n(self):
        vals = [region_volume(n, 4, 9.0, 0.3) for n in (100, 1000, 10**4, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            region_volume(0, 2, 1.0, 0.0)
        with pytest.raises(DomainError):
            region_volume(10, 2, 0.0, 0.0)


class TestMakeRegion:
    def test_fields_consistent(self, rng):
        reg, _ = _region(rng)
        cut = hotelling_cutoff(reg.alpha, reg.p, reg.shape.a_n)
        assert reg.quantile == pytest.approx(cut, rel=1e-14)
        recomputed = region_volume(reg.n, reg.p, reg.quantile, reg.shape.log_det)
        assert reg.log_volume == pytest.approx(recomputed, abs=1e-12)

    def test_requires_batch_estimate(self, rng):
        from mcstop import sample_covariance

        x = rng.standard_normal((50, 2))
        ch = ChainMatrix(x)
        with pytest.raises(DomainError):
            make_region(column_means(ch), sample_covariance(ch), 50, 0.1)

    def test_dimension_mismatch(self, rng):
        reg, ch = _region(rng)
        with pytest.raises(DomainError):
            make_region(MeanVector(np.zeros(2)), reg.shape, reg.n, 0.1)


class TestContains:
    def test_center_inside(self, rng):
        reg, _ = _region(rng)
        assert contains(reg, reg.center)

    def test_boundary_point_outside(self, rng):
        reg, _ = _region(rng)
        chol = np.linalg.cholesky(reg.shape.matrix)
        # walk to the boundary along the first Cholesky direction
        step = math.sqrt(reg.quantile / reg.n) * chol[:, 0]
        just_in = MeanVector(reg.center.values + (1.0 - 1e-6) * step)
        just_out = MeanVector(reg.center.values + (1.0 + 1e-6) * step)
        assert contains(reg, just_in)
        assert not contains(reg, just_out)

    def test_affine_invariance(self, rng):
        n, p, b = 1500, 3, 15
        x = rng.standard_normal((n, p))
        a = rng.standard_normal((p, p)) + 2.0 * np.eye(p)
        shift = rng.standard_normal(p)
        y = x @ a.T + shift
        rx = make_region(
            column_means(ChainMatrix(x)), mbm(ChainMatrix(x), b), n, 0.10
        )
        ry = make_region(
            column_means(ChainMatrix(y)), mbm(ChainMatrix(y), b), n, 0.10
        )
        for k in range(20):
            pt = rng.standard_normal(p) * 0.05
            assert contains(rx, MeanVector(pt)) == contains(
                ry, MeanVector(a @ pt + shift)
            )

    def test_dimension_mismatch(self, rng):
        reg, _ = _region(rng)
        with pytest.raises(DomainError):
            contains(reg, MeanVector(np.zeros(2)))


class TestScheffe:
    def test_coordinate_direction(self, rng):
        reg, _ = _region(rng)
        e1 = np.array([1.0, 0.0, 0.0])
        lo, hi = scheffe_interval(e1, reg)
        half = math.sqrt(reg.shape.matrix[0, 0] * reg.quantile / reg.n)
        assert (lo + hi) / 2.0 == pytest.approx(reg.center.values[0], abs=1e-12)
        assert hi - lo == pytest.approx(2.0 * half, rel=1e-12)

    def test_homogeneous_in_direction(self, rng):
        reg, _ = _region(rng)
        a = np.array([0.3, -1.1, 0.7])
        lo1, hi1 = scheffe_interval(a, reg)
        lo2, hi2 = scheffe_interval(2.0 * a, reg)
        assert lo2 == pytest.approx(2.0 * lo1, rel=1e-12)
        assert hi2 == pytest.approx(2.0 * hi1, rel=1e-12)

    def test_zero_direction_rejected(self, rng):
        reg, _ = _region(rng)
        with pytest.raises(DomainError):
            scheffe_interval(np.zeros(3), reg)
        with pytest.raises(DomainError):
            scheffe_interval(np.array([1.0, np.nan, 0.0]), reg)

    def test_support_function(self, rng):
        # every point of the ellipsoid lies inside every Scheffe interval
        reg, _ = _region(rng)
        chol = np.linalg.cholesky(reg.shape.matrix)
        r = math.sqrt(reg.quantile / reg.n)
        for _ in range(200):
            a = rng.standard_normal(3)
            lo, hi = scheffe_interval(a, reg)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            boundary = reg.center.values + r * (chol @ u)
            val = float(a @ boundary)
            assert lo - 1e-12 <= val <= hi + 1e-12

    def test_wider_than_uncorrected_t(self, rng):
        # p = 3, a_n = 50: the simultaneous half-width must dominate the
        # per-coordinate t half-width at the same level
        n, b = 1000, 20
        x = rng.standard_normal((n, 3))
        ch = ChainMatrix(x)
        est = mbm(ch, b)
        reg = make_region(column_means(ch), est, n, 0.10)
        t = scipy.stats.t.ppf(0.95, est.a_n - 1)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            lo, hi = scheffe_interval(e, reg)
            t_half = t * math.sqrt(est.matrix[i, i] / n)
            assert (hi - lo) / 2.0 > t_half

    def test_length_mismatch(self, rng):
        reg, _ = _region(rng)
        with pytest.raises(DomainError):
            scheffe_interval(np.ones(2), reg)


class TestEllipseBoundary:
    def test_row_count_and_shape(self, rng):
        reg, _ = _region(rng)
        pts = ellipse_boundary(reg, 0, 2, resolution=97)
        assert pts.shape == (97, 2)

    def test_points_on_projected_boundary(self, rng):
        reg, _ = _region(rng)
        sub = reg.shape.matrix[np.ix_([0, 1], [0, 1])]
        inv = np.linalg.inv(sub)
        c = reg.center.values[[0, 1]]
        pts = ellipse_boundary(reg, 0, 1, resolution=64)
        for row in pts:
            d = row - c
            quad = reg.n * float(d @ inv @ d)
            assert quad == pytest.approx(reg.quantile, rel=1e-8)

    def test_bad_coordinates(self, rng):
        reg, _ = _region(rng)
        with pytest.raises(DomainError):
            ellipse_boundary(reg, 1, 1)
        with pytest.raises(DomainError):
            ellipse_boundary(reg, 0, 5)
        with pytest.raises(DomainError):
            ellipse_boundary(reg, 0, 1, resolution=2)


class TestLogisticVolume:
    def test_volume_per_dimension_regression(self):
        # frozen regression band for the bundled logistic posterior:
        # Vol^(1/p) at n = 1e5, alpha = 0.10 sits near 0.0154
        from mcstop import load_logit_data, rwm_logistic

        n = 10**5
        ch = rwm_logistic(load_logit_data(), n, seed=20260819)
        b = batch_size(n, BatchPolicy.exponent(0.5))
        reg = make_region(column_means(ch), mbm(ch, b), n, 0.10)
        vol_root = math.exp(reg.log_volume / 5.0)
        assert vol_root == pytest.approx(0.0154, abs=0.002)
