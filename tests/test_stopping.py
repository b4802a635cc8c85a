"""Sequential stopping rules and the checkpointed driver."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from mcstop import (
    BatchPolicy,
    ChainMatrix,
    FileChainSource,
    IidGaussianSource,
    StoppingConfig,
    batch_size,
    check_absolute,
    check_relative_sd,
    check_univariate,
    default_nstar,
    mbm,
    min_ess,
    n_pos,
    rectangle_log_volume,
    run_sequential,
    sample_covariance,
    ubm_diag,
    var1_benchmark,
)
from mcstop.checkpoint import CheckpointEngine
from mcstop.errors import ConfigError, DomainError, InsufficientData
from mcstop.stopping import RULE_PARAMS, _fires, drive_checkpoints


def _config(**kw):
    base = dict(epsilon=0.05, alpha=0.10, n_star=0)
    base.update(kw)
    return StoppingConfig(**base)


class _UnreadSource:
    """A chain source of dimension p that fails if any row is read."""

    def __init__(self, p):
        self.p = p

    def take(self, n):
        raise AssertionError(f"take({n}) was called")

    rows = take


class _ArraySource:
    """take(n) over a fixed array; past its end the slice comes back short.

    Asking for the same n twice fails, so a walk that would ask forever
    fails at once."""

    def __init__(self, x):
        self.x, self.p, self.asked = x, x.shape[1], set()

    def take(self, n):
        assert n not in self.asked, f"take({n}) was called twice"
        self.asked.add(n)
        return ChainMatrix(self.x[:n])


class TestNPos:
    def test_root_policy_p5(self):
        assert n_pos(5, BatchPolicy.exponent(0.5)) == 24

    def test_fixed_100_p5(self):
        assert n_pos(5, BatchPolicy.fixed(100)) == 600

    def test_first_crossing_is_literal(self):
        # brute force: no smaller n satisfies a_n > p
        pol = BatchPolicy.exponent(0.5)
        for p in (1, 2, 3, 7):
            n_hit = n_pos(p, pol)
            b = batch_size(n_hit, pol)
            assert n_hit // b > p
            for n in range(1, n_hit):
                assert n // batch_size(n, pol) <= p

    def test_domain(self):
        with pytest.raises(DomainError):
            n_pos(0, BatchPolicy.exponent(0.5))


class TestDefaultNstar:
    def test_ess_bound_dominates(self):
        val = default_nstar(5, 0.05, 0.05, BatchPolicy.exponent(0.5))
        assert val == 8605

    def test_huge_eps_leaves_n_pos(self):
        pol = BatchPolicy.exponent(0.5)
        assert default_nstar(5, 0.05, 10.0, pol) == n_pos(5, pol)

    def test_ceiling_of_bound(self):
        pol = BatchPolicy.exponent(0.5)
        val = default_nstar(3, 0.10, 0.02, pol)
        assert val == int(math.ceil(min_ess(3, 0.10, 0.02)))


class TestCheckRelativeSd:
    def test_below_nstar_false(self, rng):
        x = rng.standard_normal((500, 2))
        cfg = _config(n_star=501, epsilon=100.0)
        assert not check_relative_sd(ChainMatrix(x), cfg)

    def test_not_pd_false_not_error(self):
        x = np.ones((100, 2)) * 3.5
        assert not check_relative_sd(ChainMatrix(x), _config(epsilon=1e6))

    def test_eps_flip_around_exact_boundary(self, rng):
        from mcstop import hotelling_cutoff, region_volume

        n = 4000
        x = rng.standard_normal((n, 3))
        ch = ChainMatrix(x)
        b = batch_size(n, BatchPolicy.exponent(0.5))
        sig = mbm(ch, b)
        lam = sample_covariance(ch)
        cut = hotelling_cutoff(0.10, 3, sig.a_n)
        lv = region_volume(n, 3, cut, sig.log_det)
        lhs = math.exp(lv / 3.0) + 1.0 / n
        eps_star = lhs / math.exp(lam.log_det / 6.0)
        assert check_relative_sd(ch, _config(epsilon=eps_star * (1.0 + 1e-9)))
        assert not check_relative_sd(ch, _config(epsilon=eps_star * (1.0 - 1e-9)))

    def test_monotone_in_eps(self, rng):
        x = rng.standard_normal((3000, 2))
        ch = ChainMatrix(x)
        flags = [
            check_relative_sd(ch, _config(epsilon=e))
            for e in (0.01, 0.03, 0.1, 0.3, 1.0)
        ]
        assert flags == sorted(flags)

    def test_scale_invariance(self, rng):
        # the relative rule is invariant under rescaling the chain
        x = rng.standard_normal((3000, 2))
        for eps in (0.04, 0.06, 0.10):
            cfg = _config(epsilon=eps)
            a = check_relative_sd(ChainMatrix(x), cfg)
            b = check_relative_sd(ChainMatrix(100.0 * x), cfg)
            assert a == b


class TestCheckAbsolute:
    def test_direct_inequality(self, rng):
        x = rng.standard_normal((2000, 2))
        assert check_absolute(ChainMatrix(x), _config(epsilon=10.0))
        assert not check_absolute(ChainMatrix(x), _config(epsilon=1e-6))

    def test_whitened_chain_matches_relative(self, rng):
        # with the sample covariance forced to the identity, the
        # relative and absolute rules coincide
        x = rng.standard_normal((5000, 3))
        x -= x.mean(axis=0)
        lam = np.cov(x.T)
        white = x @ np.linalg.inv(np.linalg.cholesky(lam)).T
        ch = ChainMatrix(white)
        for eps in (0.03, 0.05, 0.08, 0.2):
            cfg = _config(epsilon=eps)
            assert check_absolute(ch, cfg) == check_relative_sd(ch, cfg)

    def test_eps_flip(self, rng):
        from mcstop import hotelling_cutoff, region_volume

        n = 3000
        ch = ChainMatrix(rng.standard_normal((n, 2)))
        b = batch_size(n, BatchPolicy.exponent(0.5))
        sig = mbm(ch, b)
        cut = hotelling_cutoff(0.10, 2, sig.a_n)
        lhs = math.exp(region_volume(n, 2, cut, sig.log_det) / 2.0) + 1.0 / n
        assert check_absolute(ch, _config(epsilon=lhs * (1.0 + 1e-9)))
        assert not check_absolute(ch, _config(epsilon=lhs * (1.0 - 1e-9)))


class TestCheckUnivariate:
    def test_direct_formula(self, rng):
        n = 2000
        x = rng.standard_normal((n, 3)) * np.array([1.0, 2.0, 0.5])
        ch = ChainMatrix(x)
        b = batch_size(n, BatchPolicy.exponent(0.5))
        a_n = n // b
        sig2 = ubm_diag(ch, b)
        lam = np.sqrt(x.var(axis=0, ddof=1))
        # config.metric selects the correction
        for metric in ("univariate_bonferroni", "univariate_uncorrected"):
            bonf = metric == "univariate_bonferroni"
            level = 1.0 - 0.10 / (2.0 * 3) if bonf else 1.0 - 0.10 / 2.0
            t = scipy.stats.t.ppf(level, a_n - 1)
            lhs = 2.0 * t * np.sqrt(sig2) / math.sqrt(n) + 1.0 / n
            eps_star = float((lhs / lam).max())
            cfg_hi = _config(epsilon=eps_star * (1.0 + 1e-9), metric=metric)
            cfg_lo = _config(epsilon=eps_star * (1.0 - 1e-9), metric=metric)
            assert check_univariate(ch, cfg_hi)
            assert not check_univariate(ch, cfg_lo)

    def test_bonferroni_implies_uncorrected(self, rng):
        # the corrected rule is strictly harder to satisfy
        for seed in range(5):
            g = np.random.default_rng(seed)
            ch = ChainMatrix(g.standard_normal((1500, 4)))
            for eps in (0.05, 0.08, 0.12, 0.2):
                cfg_b = _config(epsilon=eps, metric="univariate_bonferroni")
                cfg_u = _config(epsilon=eps, metric="univariate_uncorrected")
                if check_univariate(ch, cfg_b):
                    assert check_univariate(ch, cfg_u)

    def test_fewer_than_two_batches_never_fire(self):
        # b_n = floor(n^0.9) leaves a_n = 1 from n = 3 to about 1000; under
        # a loose epsilon none of those points fires, in the engine or the
        # public check, and the walk decides where the public check first fires
        policy = BatchPolicy.parse("nu:0.9")
        cfg = _config(epsilon=2.0, n_star=2, batch_policy=policy,
                      metric="univariate_bonferroni")
        chain = IidGaussianSource(2, 7).take(5000)
        engine, n, few, first = CheckpointEngine(2, policy), 2, 0, None
        while first is None:
            engine.append(chain.data[engine.n : n])
            est = engine.estimate()
            public = check_univariate(ChainMatrix(chain.data[:n]), cfg)
            assert _fires(est, cfg, cfg.metric) == public
            if est.a_n < 2:
                few += 1
                assert not public
            elif public:
                first = n
            n += int(math.ceil(0.1 * n))
        assert few > 40
        walk = drive_checkpoints(FileChainSource(chain), None, cfg)
        assert walk.result.terminated and walk.result.n_final == first

    def test_p1_first_crossing_matches_relative_sd(self):
        # at p = 1 the elliptical and fixed-width rules are the same
        # inequality, so they fire at the same checkpoint
        g = np.random.default_rng(314)
        n_total = 30000
        eps_noise = g.standard_normal(n_total)
        x = np.empty(n_total)
        x[0] = eps_noise[0]
        for t in range(1, n_total):
            x[t] = 0.3 * x[t - 1] + eps_noise[t]
        data = x[:, None]
        cfg = _config(epsilon=0.10, n_star=100)
        uncorrected = dataclasses.replace(cfg, metric="univariate_uncorrected")

        def first_fire(rule):
            n = 100
            while n <= n_total:
                if rule(ChainMatrix(data[:n]), cfg):
                    return n
                n += max(1, int(math.ceil(0.1 * n)))
            return None

        n_rel = first_fire(check_relative_sd)
        n_uni = first_fire(lambda c, f: check_univariate(c, uncorrected))
        assert n_rel is not None
        assert n_rel == n_uni


class TestRectangleLogVolume:
    def test_matches_direct_product(self, rng):
        n = 1000
        ch = ChainMatrix(rng.standard_normal((n, 3)) * np.array([1.0, 3.0, 0.2]))
        b = 25
        a_n = n // b
        sig2 = ubm_diag(ch, b)
        for bonf in (True, False):
            level = 1.0 - 0.05 / (2.0 * 3) if bonf else 1.0 - 0.05 / 2.0
            t = scipy.stats.t.ppf(level, a_n - 1)
            widths = 2.0 * t * np.sqrt(sig2) / math.sqrt(n)
            expected = float(np.log(widths).sum())
            got = rectangle_log_volume(ch, 0.05, b, bonf)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_insufficient_batches(self, rng):
        ch = ChainMatrix(rng.standard_normal((10, 2)))
        with pytest.raises(InsufficientData):
            rectangle_log_volume(ch, 0.05, 10, False)

    @pytest.mark.parametrize("b_n", [0, -1])
    def test_bad_batch_size(self, rng, b_n):
        ch = ChainMatrix(rng.standard_normal((10, 2)))
        with pytest.raises(DomainError, match="batch size must be >= 1"):
            rectangle_log_volume(ch, 0.05, b_n, False)


class TestRunSequential:
    def test_always_pass_stops_at_nstar(self):
        src = IidGaussianSource(2, seed=5)
        cfg = _config(n_star=250)
        res = run_sequential(src, lambda c, f: True, cfg)
        assert res.terminated
        assert res.n_final == 250
        assert res.reason == "criterion_met"

    def test_iid_near_min_ess(self):
        # iid chains satisfy the relative rule close to the ESS bound.
        # The exact threshold uses the scaled-F cutoff, which exceeds
        # the chi-square limit by ~9% at a_n near 90, so termination
        # lands up to three grid steps above the bound, never far below.
        bound = min_ess(5, 0.10, 0.05)
        src = IidGaussianSource(5, seed=17)
        cfg = _config(epsilon=0.05, alpha=0.10, n_star=1000)
        res = run_sequential(src, None, cfg)
        assert res.terminated
        assert 0.9 * bound <= res.n_final <= bound * 1.1**3
        # the driver stops at the literal first passing grid point
        replay = IidGaussianSource(5, seed=17)
        n = 1000
        while not check_relative_sd(replay.take(n), cfg):
            n += int(math.ceil(0.1 * n))
        assert n == res.n_final

    def test_n_max_reached(self):
        src = IidGaussianSource(2, seed=3)
        cfg = _config(n_star=10, n_max=137)
        res = run_sequential(src, lambda c, f: False, cfg)
        assert not res.terminated
        assert res.n_final == 137
        assert res.reason == "n_max_reached"
        assert math.isfinite(res.ess_at_termination)

    def test_memory_budget_refused(self):
        # 4 GiB holds 134,217,728 rows of p = 4; a larger n* is refused
        # before any row is drawn
        cfg = _config(n_star=2 * 10**8, n_max=10**9)
        with pytest.raises(ConfigError, match="cap of 134217728 rows"):
            run_sequential(_UnreadSource(4), lambda c, f: True, cfg)

    def test_growth_grid(self):
        # with a never-passing rule the visited grid is n -> n + ceil(0.1 n)
        seen = []

        def spy(chain, cfg):
            seen.append(chain.n)
            return False

        src = IidGaussianSource(1, seed=2)
        cfg = _config(n_star=100, n_max=200)
        run_sequential(src, spy, cfg)
        expected = [100]
        while expected[-1] < 200:
            expected.append(min(expected[-1] + math.ceil(0.1 * expected[-1]), 200))
        assert seen == expected

    def test_eps_monotone_termination(self):
        # a looser tolerance never stops later (same seed, same grid)
        finals = []
        for eps in (0.02, 0.05, 0.10):
            src = IidGaussianSource(3, seed=23)
            cfg = _config(epsilon=eps, alpha=0.10, n_star=500)
            finals.append(run_sequential(src, None, cfg).n_final)
        assert finals[0] >= finals[1] >= finals[2]

    @pytest.mark.parametrize("rule", [None, "univariate_bonferroni", check_relative_sd])
    def test_engine_rule_builds_no_chain(self, monkeypatch, rule):
        # rows, not ChainMatrix prefixes, go through the checkpoint loop,
        # and the final summary reads the rows the engine checked
        built = []
        real = ChainMatrix.__post_init__

        def spy(self):
            built.append(self.data.shape[0])
            real(self)

        src = IidGaussianSource(3, seed=23)
        cfg = _config(epsilon=0.05, alpha=0.10, n_star=500)
        monkeypatch.setattr(ChainMatrix, "__post_init__", spy)
        res = run_sequential(src, rule, cfg)
        assert res.n_final > 1000  # several checkpoints
        assert built == []

    def test_opaque_rule_gets_a_chain_per_checkpoint(self, monkeypatch):
        seen = []

        def rule(chain, cfg):
            assert isinstance(chain, ChainMatrix)
            seen.append(chain.n)
            return chain.n >= 300

        built = []
        real = ChainMatrix.__post_init__
        monkeypatch.setattr(
            ChainMatrix, "__post_init__", lambda self: built.append(1) or real(self)
        )
        res = run_sequential(IidGaussianSource(2, seed=1), rule, _config(n_star=100))
        assert res.n_final == seen[-1] >= 300
        assert len(built) == len(seen) > 1

    @pytest.mark.parametrize("rule,metric", [
        ("univariate_bonferroni", "univariate_bonferroni"),
        (check_univariate, "univariate_uncorrected"),
    ])
    def test_summary_is_of_the_rule_that_was_run(self, rule, metric):
        # a relative_sd config run under a univariate rule reports the
        # rule's hyperrectangle, as a config naming that rule does
        spec = var1_benchmark(5)
        cfg = _config(epsilon=0.2, alpha=0.10, n_star=200)
        res = run_sequential(spec.make_source(1), rule, cfg)
        same = run_sequential(spec.make_source(1), None,
                              dataclasses.replace(cfg, metric=metric))
        assert res == same
        if rule == "univariate_bonferroni":
            assert (res.n_final, round(res.log_volume, 3)) == (11159, -12.482)

    def test_short_source_raises(self):
        # 700 rows for a walk that asks for 733 next: the walk cannot go on
        src = _ArraySource(np.random.default_rng(4).standard_normal((700, 2)))
        cfg = StoppingConfig(epsilon=0.01, alpha=0.1, n_star=500)
        with pytest.raises(InsufficientData, match="the source gave 700 rows, 733 asked"):
            run_sequential(src, None, cfg)
        assert sorted(src.asked) == [500, 550, 605, 666, 733]

    @pytest.mark.parametrize("layout", [lambda x: x.astype(np.float32), np.asfortranarray])
    @pytest.mark.parametrize("rule", [None, "univariate_bonferroni"])
    def test_rows_of_any_layout_decide_as_float64_rows(self, layout, rule):
        # the walk and its final estimate read rows as C-ordered float64,
        # whatever dtype or order a source's rows(n) returns
        class Rows:
            def __init__(self, x):
                self.x, self.p = x, x.shape[1]

            def rows(self, n):
                return self.x[:n]

        given = layout(np.random.default_rng(6).standard_normal((30_000, 3)))
        plain = np.ascontiguousarray(given, dtype=np.float64)
        cfg = _config(epsilon=0.1, alpha=0.10, n_star=500)
        got = drive_checkpoints(Rows(given), rule, cfg)
        want = drive_checkpoints(Rows(plain), rule, cfg)
        assert got.result == want.result and got.result.terminated
        for field in ("theta", "col_var"):
            assert getattr(got.final, field).tobytes() == getattr(want.final, field).tobytes()
        for field in ("lam", "sigma"):
            assert getattr(got.final, field).matrix.tobytes() \
                == getattr(want.final, field).matrix.tobytes()

    def test_result_invariant(self):
        src = IidGaussianSource(2, seed=8)
        cfg = _config(epsilon=0.2, n_star=400)
        res = run_sequential(src, None, cfg)
        if res.terminated:
            assert res.n_final >= cfg.n_star


class TestStoppingConfig:
    def test_fields_are_the_rule_params(self):
        # every field is a rule value that `mcstop stop` and study
        # configs set; no other knob
        fields = {f.name for f in dataclasses.fields(StoppingConfig)}
        keys = {"batch_policy" if k == "batch" else k for k in RULE_PARAMS}
        assert fields == keys

    def test_validation(self):
        with pytest.raises(DomainError):
            _config(epsilon=0.0)
        with pytest.raises(DomainError):
            _config(alpha=1.0)
        with pytest.raises(DomainError):
            _config(n_star=-1)
        with pytest.raises(DomainError):
            _config(metric="nosuch")
        with pytest.raises(DomainError):
            _config(check_growth=0.0)
        with pytest.raises(DomainError):
            _config(n_max=0)

    @pytest.mark.parametrize("key", ["epsilon", "check_growth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, key, value):
        with pytest.raises(DomainError, match=f"^{key} must be finite, got "):
            _config(**{key: value})

    def test_unknown_rule_name(self):
        src = IidGaussianSource(1, seed=0)
        with pytest.raises(DomainError):
            run_sequential(src, "nosuch", _config(n_star=2))
