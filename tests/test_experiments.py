"""Replication studies: model specs, config files, aggregation, output."""
import csv
import dataclasses
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from mcstop import (
    LOGIT_REFERENCE_MEAN,
    BatchPolicy,
    IidGaussianSpec,
    LogisticModel,
    LogisticSpec,
    StoppingConfig,
    StudySpec,
    Var1Model,
    Var1Spec,
    ar1_cov,
    batch_sensitivity_study,
    batch_size,
    coverage_study,
    load_logit_data,
    logistic_benchmark,
    parse_model_spec,
    read_study_config,
    relative_error_study,
    run_sequential,
    run_study,
    var1_benchmark,
)
from mcstop import checkpoint, experiments, samplers
from mcstop.chain import SpareRows
from mcstop.errors import ConfigError, DomainError, InsufficientData
from mcstop.experiments import _workers


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _seq_config(**kw):
    base = dict(epsilon=0.3, alpha=0.10, n_star=200, n_max=10**6)
    base.update(kw)
    return StoppingConfig(**base)


def _write(tmp_path, text, name="study.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _fresh_spares(monkeypatch):
    """Empty spare slots for the engine and the sources, for this test only."""
    for module in (checkpoint, samplers):
        monkeypatch.setattr(module, "_SPARES", SpareRows())


def _nan_spares(p):
    """NaN-filled spares of p columns for the engine and the sources."""
    for module in (checkpoint, samplers):
        module._SPARES.give(np.full((1 << 16, p), np.nan))


def _var1(diag, rho, scale=1.0):
    return Var1Spec(Var1Model(phi=np.diag(diag), omega=ar1_cov(rho, len(diag), scale)))


def _model_params(spec):
    """A study model's type, p, Φ, Ω, τ² and proposal sd (None where absent)."""
    model = getattr(spec, "model", None)
    return (type(spec), spec.p, *(np.asarray(getattr(model, name)).tolist()
                                  if hasattr(model, name) else None
                                  for name in ("phi", "omega", "tau2", "proposal_sd")))


class TestParseModelSpec:
    def test_iid(self):
        spec = parse_model_spec("iid:p=5")
        assert isinstance(spec, IidGaussianSpec)
        assert spec.p == 5

    def test_var1_benchmarks(self):
        assert isinstance(parse_model_spec("var1_bench5"), Var1Spec)
        assert parse_model_spec("var1_bench5").p == 5
        assert parse_model_spec("var1_bench50").p == 50

    @pytest.mark.parametrize("text", ["var1_bench5:", "var1_bench5 :", " var1_bench5 : "])
    def test_benchmark_kinds_take_an_empty_option_list(self, text):
        # the benchmark names are kinds with no options, read like the others
        got, want = parse_model_spec(text).model, var1_benchmark(5).model
        np.testing.assert_array_equal(got.phi, want.phi)
        np.testing.assert_array_equal(got.omega, want.omega)

    def test_benchmark_kinds_refuse_options(self):
        with pytest.raises(ConfigError, match="^var1_bench5 model refuses 'p', "
                                              "which it does not read$"):
            parse_model_spec("var1_bench5:p=3")
        with pytest.raises(ConfigError, match="unknown model kind 'var1_bench6'"):
            parse_model_spec("var1_bench6")

    def test_var1_custom(self):
        spec = parse_model_spec("var1:phi=0.9,0.5;rho=0.8;scale=2.0")
        assert isinstance(spec, Var1Spec)
        np.testing.assert_array_equal(np.diag(spec.model.phi), [0.9, 0.5])
        assert spec.model.omega[0, 0] == 2.0
        assert spec.model.omega[0, 1] == pytest.approx(1.6)

    def test_logistic(self):
        spec = parse_model_spec("logistic")
        assert isinstance(spec, LogisticSpec)
        assert spec.p == 5
        custom = parse_model_spec("logistic:tau2=2.0;proposal_sd=0.2")
        assert custom.model.tau2 == 2.0
        assert custom.model.proposal_sd == 0.2

    def test_errors(self):
        with pytest.raises(ConfigError, match="unknown model kind"):
            parse_model_spec("nosuch:p=2")
        with pytest.raises(ConfigError, match="'iid:p5': expected key = value"):
            parse_model_spec("iid:p5")
        with pytest.raises(ConfigError):
            parse_model_spec("iid:p=5;extra=1")
        with pytest.raises(ConfigError, match="bad numeric option"):
            parse_model_spec("iid:p=abc")
        with pytest.raises(ConfigError):
            parse_model_spec("var1:phi=0.5")
        with pytest.raises(ConfigError, match="var1 model refuses 'q'"):
            parse_model_spec("var1:phi=0.5;rho=0.5;q=2")
        with pytest.raises(ConfigError, match="logistic model refuses 'sigma'"):
            parse_model_spec("logistic:sigma=1")

    # Every form the minilanguage accepted before MODEL_KEYS, and the last
    # three, with the spec each builds, written out with the builders.
    ACCEPTED = [
        ("iid:p=5", lambda: IidGaussianSpec(5)),
        ("  iid:p = 5 ", lambda: IidGaussianSpec(5)),
        ("var1_bench5", lambda: var1_benchmark(5)),
        (" var1_bench50 ", lambda: var1_benchmark(50)),
        ("var1:phi=0.9,0.5;rho=0.8", lambda: _var1([0.9, 0.5], 0.8)),
        ("var1:rho=0.8;phi=0.9,0.5", lambda: _var1([0.9, 0.5], 0.8)),
        ("var1:phi=0.9,0.5;rho=0.8;scale=2.0", lambda: _var1([0.9, 0.5], 0.8, 2.0)),
        ("var1: phi = 0.9, 0.5 ; rho = 0.8 ; scale = 2",
         lambda: _var1([0.9, 0.5], 0.8, 2.0)),
        ("var1:phi=-0.3;rho=-0.5;scale=1e-3", lambda: _var1([-0.3], -0.5, 1e-3)),
        ("logistic", lambda: logistic_benchmark()),
        ("logistic:", lambda: logistic_benchmark()),
        ("logistic:tau2=2.0", lambda: logistic_benchmark(tau2=2.0)),
        ("logistic:proposal_sd=0.2", lambda: logistic_benchmark(proposal_sd=0.2)),
        ("logistic:tau2=2.0;proposal_sd=0.2", lambda: logistic_benchmark(2.0, 0.2)),
        ("logistic: proposal_sd = .2 ;tau2= 2", lambda: logistic_benchmark(2.0, 0.2)),
        # whitespace around the kind: 'logistic ' was refused as an unknown kind
        ("logistic : tau2 = 1", lambda: logistic_benchmark(tau2=1.0)),
        ("iid :p=2", lambda: IidGaussianSpec(2)),
        ("var1\t: phi=0.5;rho=0.5", lambda: _var1([0.5], 0.5)),
    ]

    @pytest.mark.parametrize("text,build", ACCEPTED, ids=[t for t, _ in ACCEPTED])
    def test_accepted_forms_build_equal_specs(self, text, build):
        assert _model_params(parse_model_spec(text)) == _model_params(build())

    @pytest.mark.parametrize("text,message", [
        ("nosuch:p=2", "unknown model kind 'nosuch' in 'nosuch:p=2'"),
        ("no such : p=2", "unknown model kind 'no such' in 'no such : p=2'"),
        ("iid:p5", "'iid:p5': expected key = value, got 'p5'"),
        ("logistic:tau2=2;", "'logistic:tau2=2;': expected key = value, got ''"),
        ("iid:p=5;extra=1", "iid model refuses 'extra', which it does not read"),
        ("var1:phi=0.5;rho=0.5;q=2", "var1 model refuses 'q', which it does not read"),
        ("logistic:sigma=1;eta=2",
         "logistic model refuses 'eta', 'sigma', which it does not read"),
        # a repeated option was taken, its last value kept: iid:p=2;p=3 built
        # a 3-dimensional model
        ("iid:p=2;p=3", "'iid:p=2;p=3': duplicate key 'p'"),
        ("var1:phi=0.5;rho=0.5;rho=0.9",
         "'var1:phi=0.5;rho=0.5;rho=0.9': duplicate key 'rho'"),
        ("iid:", "iid model needs p"),
        ("var1:phi=0.5", "var1 model needs rho"),
        ("var1:scale=2", "var1 model needs phi, rho"),
        ("iid:p=abc", "bad numeric option in 'iid:p=abc'"),
        ("iid:p=2.0", "bad numeric option in 'iid:p=2.0'"),
        ("var1:phi=0.5,x;rho=0.5", "bad numeric option in 'var1:phi=0.5,x;rho=0.5'"),
        ("var1:phi=0.5;rho=0.5;scale=",
         "bad numeric option in 'var1:phi=0.5;rho=0.5;scale='"),
        ("logistic:tau2=one", "bad numeric option in 'logistic:tau2=one'"),
    ])
    def test_each_refusal(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_model_spec(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,message", [
        # proposal_sd=nan built a chain that never moved; tau2=inf failed
        # later with "beta must be finite"; scale=nan built Ω = [[nan]]
        ("logistic:proposal_sd=nan", "proposal_sd must be finite, got nan"),
        ("logistic:proposal_sd=inf", "proposal_sd must be finite, got inf"),
        ("logistic:tau2=inf", "tau2 must be finite, got inf"),
        ("logistic:tau2=nan", "tau2 must be finite, got nan"),
        ("var1:phi=0.5;rho=0.5;scale=nan", "scale must be finite, got nan"),
        ("var1:phi=0.5;rho=0.5;scale=inf", "scale must be finite, got inf"),
        ("var1:phi=0.5;rho=nan", "autocorrelation must lie in (-1,1), got nan"),
        ("var1:phi=nan;rho=0.5", "spectral radius requires finite entries"),
    ])
    def test_non_finite_values_refused(self, text, message):
        with pytest.raises(DomainError) as exc:
            parse_model_spec(text)
        assert str(exc.value) == message

    def test_readme_model_specs_are_the_code_table(self):
        # each `kind[:...]` item of README's "Model specs" list names the
        # kind's options, an optional one in brackets with its default
        readme = (CONFIGS.parent / "README.md").read_text()
        forms = readme.split("\nModel specs: ", 1)[1].split(".\n")[0]
        table = {}
        for span in re.findall(r"(?:^|,\s+)`([^`]*)`", forms):
            form = re.fullmatch(r"(\w+)(\[?:.*)?", span)
            if form is None:
                continue
            kind, rest = form.groups()
            required, _, optional = (rest or "").partition("[")
            options = table.setdefault(kind, {})
            for part, is_optional in ((required, False), (optional.rstrip("]"), True)):
                for item in filter(None, part.strip(":;").split(";")):
                    key, _, value = item.partition("=")
                    options[key] = value if is_optional else experiments.REQUIRED
        assert table == experiments.MODEL_KEYS


class TestStudySpec:
    def test_sequential_forbids_loose_alpha(self):
        with pytest.raises(DomainError):
            StudySpec(
                model=IidGaussianSpec(2),
                replications=3,
                stopping=_seq_config(),
                alpha=0.05,
            )
        with pytest.raises(DomainError):
            StudySpec(
                model=IidGaussianSpec(2),
                replications=3,
                stopping=_seq_config(),
                batch_policy=BatchPolicy.exponent(),
            )

    def test_fixed_mode_normalizes_sizes(self):
        spec = StudySpec(
            model=IidGaussianSpec(2), replications=3, stopping=[100, 200]
        )
        assert spec.is_fixed_n
        assert spec.stopping == (100, 200)
        assert spec.eff_alpha == 0.10

    def test_validation(self):
        with pytest.raises(DomainError):
            StudySpec(model=IidGaussianSpec(2), replications=0, stopping=[100])
        with pytest.raises(DomainError):
            StudySpec(
                model=IidGaussianSpec(2), replications=2, stopping=[100],
                methods=(),
            )
        with pytest.raises(DomainError, match="unknown methods"):
            StudySpec(
                model=IidGaussianSpec(2), replications=2, stopping=[100],
                methods=("nosuch",),
            )
        with pytest.raises(DomainError):
            StudySpec(model=IidGaussianSpec(2), replications=2, stopping=[1])
        for alpha in (0.0, 2.0, math.nan):
            with pytest.raises(DomainError, match=r"^alpha must lie in \(0,1\), got "):
                StudySpec(model=IidGaussianSpec(2), replications=2, stopping=[100],
                          alpha=alpha)

    def test_repeated_entries_refused(self):
        # a repeated entry runs its cells twice: count 40 for 20 replications
        model = IidGaussianSpec(2)
        with pytest.raises(DomainError, match=r"^methods: 'mbm' is given more than once$"):
            StudySpec(model, 20, [300], methods=("mbm", "ubm", "mbm"))
        with pytest.raises(DomainError,
                           match=r"^fixed-n lengths: 300 is given more than once$"):
            StudySpec(model, 20, [300, 600, 300])

    def test_logistic_truth_only_at_tau2_1(self, tmp_path):
        # the proxy truth is the posterior mean at tau2 = 1; at another tau2
        # every region would be scored against the wrong vector
        seq = _seq_config(epsilon=0.2)
        for stopping in ((300,), seq):
            with pytest.raises(DomainError, match=r"tau2=1 only, got tau2=4\.0"):
                StudySpec(parse_model_spec("logistic:tau2=4"), 1, stopping)
            assert StudySpec(parse_model_spec("logistic:tau2=1.0"), 1, stopping)
        text = ("study = coverage\nmodel = logistic:tau2=4\nmode = fixed\n"
                "fixed_n = 300\nreplications = 1\nseed_base = 0\n")
        with pytest.raises(ConfigError, match="tau2=1 only"):
            read_study_config(_write(tmp_path, text))

    def test_logistic_truth_only_for_the_bundled_data(self, monkeypatch):
        # the proxy truth is the posterior mean of the bundled dataset;
        # a model on other data would be scored against it
        other = LogisticSpec(LogisticModel(x=np.eye(5), y=np.array([0, 1, 0, 1, 1.0])))
        with pytest.raises(DomainError, match="holds for the bundled dataset only"):
            other.truth
        with pytest.raises(DomainError, match="holds for the bundled dataset only"):
            StudySpec(other, 2, (500,), seed_base=3)
        bundled = load_logit_data(proposal_sd=0.2)
        spec = LogisticSpec(LogisticModel(x=bundled.x.copy(), y=bundled.y.copy(),
                                          proposal_sd=0.2))
        assert spec.truth is LOGIT_REFERENCE_MEAN

        def no_parse(*args, **kw):
            raise AssertionError("the bundled data were parsed again")

        # the bundled data are parsed once, not at every read of truth
        monkeypatch.setattr(samplers, "load_chain", no_parse)
        assert spec.truth is LOGIT_REFERENCE_MEAN


class TestCoverageStudy:
    def test_fixed_n_iid_binomial_band(self):
        # nominal 90% coverage; 200 replications give a ~2% standard
        # error, so a 4-sigma band is [0.815, 0.985]
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=200,
            stopping=[10**4],
            alpha=0.10,
            seed_base=0,
        )
        report = coverage_study(spec)
        (group,) = report.summary
        assert group["count"] == 200
        assert 0.815 <= group["coverage"] <= 0.985

    @pytest.mark.parametrize("metric,methods", [
        ("univariate_bonferroni", ("mbm",)),
        ("absolute", ("ubm",)),
        ("univariate_uncorrected", ("mbm", "ubm_bonferroni")),
    ])
    def test_metric_no_method_runs_refused(self, monkeypatch, metric, methods):
        # each method fell back to its default rule: the rows were the
        # default config's, with no word about the metric
        def no_draws(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "_replicate", no_draws)
        spec = StudySpec(IidGaussianSpec(2), 1, _seq_config(metric=metric), methods)
        with pytest.raises(DomainError) as exc:
            coverage_study(spec)
        assert str(exc.value) == (f"metric {metric!r} is run by none of the methods "
                                  f"{', '.join(methods)}")

    @pytest.mark.parametrize("metric,methods", [
        ("relative_sd", ("ubm",)), ("absolute", ("ubm", "mbm")),
        ("univariate_bonferroni", ("mbm", "ubm_bonferroni")),
    ])
    def test_metric_some_method_runs_accepted(self, metric, methods):
        spec = StudySpec(IidGaussianSpec(2), 1, _seq_config(metric=metric), methods)
        assert [row["method"] for row in coverage_study(spec).rows] == list(methods)

    def test_rows_and_summary_consistent(self):
        spec = StudySpec(
            model=IidGaussianSpec(3),
            replications=12,
            stopping=[500, 1000],
            methods=("mbm", "ubm"),
            seed_base=7,
        )
        report = coverage_study(spec)
        assert len(report.rows) == 12 * 2 * 2
        assert len(report.summary) == 4
        for g in report.summary:
            sub = [
                r for r in report.rows
                if r["method"] == g["method"] and r["n"] == g["n"]
            ]
            cov = np.array([r["covered"] for r in sub], dtype=float)
            assert g["count"] == len(sub) == 12
            assert g["coverage"] == pytest.approx(cov.mean(), abs=1e-12)
            assert g["se_coverage"] == pytest.approx(
                cov.std(ddof=1) / math.sqrt(len(sub)), abs=1e-12
            )
            ess = np.array([r["ess"] for r in sub])
            assert g["mean_ess"] == pytest.approx(ess.mean(), rel=1e-12)

    def test_rerun_bitwise_identical(self):
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=3,
            stopping=[800],
            seed_base=42,
        )
        a = coverage_study(spec)
        b = coverage_study(spec)
        for ra, rb in zip(a.rows, b.rows):
            for key in ra:
                if key == "seconds":
                    continue
                assert ra[key] == rb[key], key

    def test_caller_source_views_survive_later_runs_and_studies(self, monkeypatch):
        # a source the caller still holds keeps its buffer, and the views it
        # handed out keep their bytes, while later decisions recycle theirs
        _fresh_spares(monkeypatch)
        cfg = _seq_config(epsilon=0.2, n_star=300)
        source = var1_benchmark(5).make_source(3)
        view = source.rows(5_000)
        saved = view.tobytes()
        run_sequential(source, None, cfg)
        coverage_study(StudySpec(model=var1_benchmark(5), replications=2,
                                 stopping=cfg, seed_base=8))
        assert view.tobytes() == saved
        assert source.rows(5_000).tobytes() == saved

    def test_sources_a_model_keeps_stay_whole(self, monkeypatch):
        # a model from elsewhere may read its sources after the study; they
        # are alive, so no later study of their p recycles their buffers
        _fresh_spares(monkeypatch)

        class Keeping:
            def __init__(self):
                self.inner, self.sources = var1_benchmark(5), []

            truth = property(lambda self: self.inner.truth)

            def make_source(self, seed):
                self.sources.append(self.inner.make_source(seed))
                return self.sources[-1]

        model = Keeping()
        report = coverage_study(StudySpec(model=model, replications=3,
                                          stopping=[3_000], seed_base=8))
        assert len(report.rows) == 3
        coverage_study(StudySpec(model=var1_benchmark(5), replications=2,
                                 stopping=[9_000], seed_base=20))
        for r, source in enumerate(model.sources):
            want = var1_benchmark(5).make_source(8 + r).rows(3_000)
            assert source.rows(3_000).tobytes() == want.tobytes()

    def test_sequential_methods_share_realization(self):
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=2,
            stopping=_seq_config(),
            methods=("mbm", "ubm_bonferroni"),
            seed_base=5,
        )
        report = coverage_study(spec)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row["reason"] == "criterion_met"
            assert row["n"] >= 200
        assert {g["method"] for g in report.summary} == {"mbm", "ubm_bonferroni"}

    def test_sequential_final_estimates_computed_once(self, monkeypatch):
        # checkpoints stream; the batch estimators run once per
        # replication and method, at n_final
        import mcstop.checkpoint as checkpoint

        calls = []
        for name in ("batch_means", "centered_covariance"):
            real = getattr(checkpoint, name)
            monkeypatch.setattr(
                checkpoint, name,
                lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a),
            )
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=3,
            stopping=_seq_config(),
            methods=("mbm", "ubm_bonferroni", "ubm"),
            seed_base=5,
        )
        coverage_study(spec)
        assert sorted(calls) == ["batch_means"] * 9 + ["centered_covariance"] * 9

    def test_fixed_n_one_estimate_per_length(self, monkeypatch):
        # every method reads the same reference estimate at each n
        import mcstop.checkpoint as checkpoint

        calls = []
        real = checkpoint.batch_means
        # the batch means of the first a_n·b_n rows, here all n of them
        monkeypatch.setattr(
            checkpoint, "batch_means", lambda *a: calls.append(len(a[0])) or real(*a)
        )
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=3,
            stopping=[100, 400],
            methods=("mbm", "ubm_bonferroni", "ubm"),
            seed_base=5,
        )
        report = coverage_study(spec)
        assert len(report.rows) == 3 * 2 * 3
        assert calls == [100, 400] * 3


    @staticmethod
    def _spy_summary(monkeypatch, cutoff="hotelling_cutoff"):
        # the summary's ESS and cutoffs, as (name, n) and (name, a_n); rules
        # and the summary call stopping's cutoff, make_region and
        # rectangle_volume regions'
        import mcstop.regions as regions
        import mcstop.stopping as stopping

        calls = []
        for module, name in ((stopping, "multivariate_ess"),
                             (stopping, cutoff),
                             (regions, cutoff)):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, _real=real, _name=name: calls.append((_name, a[2]))
                or _real(*a),
            )
        return calls

    def test_sequential_decision_summary_calls(self, monkeypatch):
        # at n_final: the rule's last check, then the decision's one
        # summary, which also gives the row's coverage
        calls = self._spy_summary(monkeypatch)
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=1,
            stopping=_seq_config(epsilon=0.15, n_star=1000),
            seed_base=3,
        )
        (row,) = coverage_study(spec).rows
        n = row["n"]
        a_n = n // batch_size(n, spec.eff_policy)
        assert (n, a_n) == (1612, 40)
        assert [c for c in calls if c[0] == "multivariate_ess" or c[1] == a_n] == [
            ("hotelling_cutoff", a_n),
            ("multivariate_ess", n), ("hotelling_cutoff", a_n),
        ]

    def test_univariate_decision_summary_calls(self, monkeypatch):
        # the rule's last t cutoff, then the summary's two: one for the
        # rectangle's volume and one for its coverage
        calls = self._spy_summary(monkeypatch, "t_cutoff")
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=1,
            stopping=_seq_config(epsilon=0.15, n_star=1000),
            methods=("ubm_bonferroni",),
            seed_base=3,
        )
        (row,) = coverage_study(spec).rows
        n = row["n"]
        a_n = n // batch_size(n, spec.eff_policy)
        assert (n, a_n) == (19263, 139)
        assert [c for c in calls if c[0] == "multivariate_ess" or c[1] == a_n] == [
            ("t_cutoff", a_n),
            ("multivariate_ess", n), ("t_cutoff", a_n), ("t_cutoff", a_n),
        ]

    def test_sensitivity_cell_summary_calls(self, monkeypatch):
        # one cell: the rule's last check, then the cell's one summary
        calls = self._spy_summary(monkeypatch)
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=1,
            stopping=_seq_config(n_star=200),
            seed_base=11,
        )
        (row,) = batch_sensitivity_study(spec, [0.5], [0.2]).rows
        n = row["n"]
        a_n = n // batch_size(n, BatchPolicy.exponent(0.5))
        assert (n, a_n) == (932, 31)
        assert [c for c in calls if c[0] == "multivariate_ess" or c[1] == a_n] == [
            ("hotelling_cutoff", a_n),
            ("multivariate_ess", n), ("hotelling_cutoff", a_n),
        ]

    def test_fixed_n_summary_calls(self, monkeypatch):
        # each (n, method) row: one ESS; an F cutoff for mbm's ellipsoid only
        calls = self._spy_summary(monkeypatch)
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=1,
            stopping=[100, 400],
            methods=("mbm", "ubm_bonferroni", "ubm"),
        )
        coverage_study(spec)
        assert [name for name, _ in calls] == [
            "multivariate_ess", "hotelling_cutoff",
            "multivariate_ess",
            "multivariate_ess",
        ] * 2


class TestRelativeErrorStudy:
    def test_decreasing_and_recomputable(self):
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=8,
            stopping=[10],
            seed_base=0,
        )
        report = relative_error_study(spec, sizes=(500, 5000, 50000))
        means = [g["mean_rel_error"] for g in report.summary]
        assert means[0] > means[1] > means[2]
        for g in report.summary:
            sub = [r["rel_error"] for r in report.rows if r["n"] == g["n"]]
            arr = np.array(sub)
            assert g["mean_rel_error"] == pytest.approx(arr.mean(), rel=1e-12)
            assert g["se_rel_error"] == pytest.approx(
                arr.std(ddof=1) / math.sqrt(len(sub)), rel=1e-9
            )

    def test_needs_analytic_truth(self):
        spec = StudySpec(
            model=IidGaussianSpec(2), replications=2, stopping=[100]
        )
        with pytest.raises(DomainError):
            relative_error_study(spec, sizes=(100,))

    def test_sizes_default_to_spec_stopping(self):
        spec = StudySpec(model=var1_benchmark(3), replications=2,
                         stopping=(300, 1200), seed_base=4)

        def rows(report):
            return [{k: v for k, v in r.items() if k != "seconds"} for r in report.rows]

        assert rows(relative_error_study(spec)) == rows(
            relative_error_study(spec, sizes=spec.stopping))
        sequential = StudySpec(model=var1_benchmark(3), replications=1,
                               stopping=_seq_config())
        with pytest.raises(DomainError, match="needs fixed-n lengths"):
            relative_error_study(sequential)

    def test_sequential_spec_refused_with_sizes(self):
        # sizes and b_n come from a fixed-n spec only: none of this
        # StoppingConfig's values would reach a row
        spec = StudySpec(var1_benchmark(3), 1,
                         _seq_config(metric="absolute", n_max=500))
        with pytest.raises(DomainError, match="^relative_error study needs fixed-n "
                           "lengths, got a StoppingConfig$"):
            relative_error_study(spec, sizes=(300,))

    @pytest.mark.parametrize("unread,message", [
        ({"methods": ("ubm",)}, "relative_error study runs mbm only, got methods ubm"),
        ({"methods": ("mbm", "ubm")},
         "relative_error study runs mbm only, got methods mbm, ubm"),
        ({"alpha": 0.5}, "relative_error study reads no alpha, got 0.5"),
    ])
    def test_unread_fields_refused(self, unread, message):
        spec = StudySpec(var1_benchmark(3), 1, (300,), **unread)
        with pytest.raises(DomainError, match=f"^{message}$"):
            relative_error_study(spec)

    def test_repeated_sizes_refused(self):
        spec = StudySpec(model=var1_benchmark(3), replications=2, stopping=(300,))
        with pytest.raises(DomainError, match=r"^sizes: 300 is given more than once$"):
            relative_error_study(spec, sizes=(300, 1200, 300))


class TestBatchSensitivityStudy:
    def test_grid_shape(self):
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=2,
            stopping=_seq_config(),
            seed_base=3,
        )
        report = batch_sensitivity_study(spec, nus=(0.4, 0.5), eps_list=(0.3, 0.5))
        assert len(report.rows) == 2 * 2 * 2
        assert len(report.summary) == 4
        pairs = {(g["nu"], g["eps"]) for g in report.summary}
        assert pairs == {(0.4, 0.3), (0.4, 0.5), (0.5, 0.3), (0.5, 0.5)}
        for g in report.summary:
            assert math.isfinite(g["mean_max_eigenvalue"])

    def test_requires_sequential(self):
        spec = StudySpec(
            model=IidGaussianSpec(2), replications=2, stopping=[100]
        )
        with pytest.raises(DomainError):
            batch_sensitivity_study(spec, nus=(0.5,))

    @pytest.mark.parametrize("methods,metric,message", [
        (("ubm",), "relative_sd", "batch_sensitivity study runs mbm only, got methods ubm"),
        (("mbm",), "absolute",
         "batch_sensitivity study runs relative_sd in every cell, got metric 'absolute'"),
        (("mbm",), "univariate_bonferroni", "got metric 'univariate_bonferroni'"),
    ])
    def test_unread_fields_refused(self, methods, metric, message):
        spec = StudySpec(IidGaussianSpec(2), 1, _seq_config(metric=metric), methods=methods)
        with pytest.raises(DomainError, match=message):
            batch_sensitivity_study(spec, nus=(0.5,))

    def test_batch_policy_refused(self):
        # every cell sets b_n = floor(n^nu), so fixed:7 would reach no row
        spec = StudySpec(IidGaussianSpec(2), 1,
                         _seq_config(batch_policy=BatchPolicy.fixed(7)))
        with pytest.raises(DomainError, match=r"^batch_sensitivity study sets b_n = "
                           r"floor\(n\^nu\) in every cell, got batch_policy "
                           r"BatchPolicy\(kind='fixed', nu=0.5, b=7\)$"):
            batch_sensitivity_study(spec, nus=(0.5,))

    @pytest.mark.parametrize("nus,eps_list,message", [
        ((0.4, 0.5, 0.4), None, "nus: 0.4"),
        ((0.5,), (0.3, 0.3), "eps_list: 0.3"),
    ])
    def test_repeated_cells_refused(self, nus, eps_list, message):
        spec = StudySpec(model=IidGaussianSpec(2), replications=2, stopping=_seq_config())
        with pytest.raises(DomainError, match=f"^{message} is given more than once$"):
            batch_sensitivity_study(spec, nus, eps_list)

    def test_cells_share_one_source(self, monkeypatch):
        made = []
        real = IidGaussianSpec.make_source
        monkeypatch.setattr(
            IidGaussianSpec, "make_source",
            lambda self, seed: made.append(seed) or real(self, seed),
        )
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=2,
            stopping=_seq_config(),
            seed_base=3,
        )
        report = batch_sensitivity_study(spec, nus=(0.4, 0.5), eps_list=(0.3, 0.5))
        assert len(report.rows) == 8
        assert made == [3, 4]

    def test_too_few_batches_reported_like_coverage(self):
        # n_max = 3 under nu = .9 ends with b_n = 2, a_n = 1
        spec = StudySpec(
            model=var1_benchmark(5),
            replications=1,
            stopping=_seq_config(n_star=2, n_max=3),
        )
        nu9 = dataclasses.replace(spec, stopping=dataclasses.replace(
            spec.stopping, batch_policy=BatchPolicy.exponent(0.9)))
        with pytest.raises(InsufficientData) as cov:
            coverage_study(nu9)
        with pytest.raises(InsufficientData) as sens:
            batch_sensitivity_study(spec, nus=(0.9,))
        assert "at least 2 batches" in str(sens.value)
        assert str(sens.value) == str(cov.value)


class TestReadStudyConfig:
    GOOD = (
        "# comment\n"
        "study = coverage\n"
        "model = iid:p=2\n"
        "mode = fixed\n"
        "fixed_n = 300, 600\n"
        "replications = 4\n"
        "alpha = 0.10\n"
        "seed_base = 9\n"
    )

    def test_good_fixed(self, tmp_path):
        parsed = read_study_config(_write(tmp_path, self.GOOD))
        assert parsed["study"] == "coverage"
        spec = parsed["spec"]
        assert spec.is_fixed_n and spec.stopping == (300, 600)
        assert spec.seed_base == 9

    def test_good_sequential_auto_nstar(self, tmp_path):
        text = (
            "study = coverage\nmodel = iid:p=2\nmode = sequential\n"
            "epsilon = 0.2\nalpha = 0.10\nn_star = auto\n"
            "replications = 2\nseed_base = 0\n"
        )
        parsed = read_study_config(_write(tmp_path, text))
        cfg = parsed["spec"].stopping
        assert isinstance(cfg, StoppingConfig)
        from mcstop import default_nstar

        assert cfg.n_star == default_nstar(2, 0.10, 0.2, BatchPolicy.exponent())

    def test_methods_by_their_row_names(self, tmp_path):
        text = self.GOOD + "methods = mbm, ubm_bonferroni, ubm\n"
        spec = read_study_config(_write(tmp_path, text))["spec"]
        assert spec.methods == ("mbm", "ubm_bonferroni", "ubm")
        with pytest.raises(ConfigError, match=r"unknown methods \['ubm_uncorrected'\]"):
            read_study_config(_write(tmp_path, self.GOOD + "methods = ubm_uncorrected\n"))

    def test_unknown_keys_listed(self, tmp_path):
        text = self.GOOD + "zeta = 1\nansatz = 2\n"
        with pytest.raises(ConfigError, match="unknown config keys: ansatz, zeta"):
            read_study_config(_write(tmp_path, text))

    def test_duplicate_key(self, tmp_path):
        text = self.GOOD + "alpha = 0.2\n"
        with pytest.raises(ConfigError, match="duplicate key 'alpha'"):
            read_study_config(_write(tmp_path, text))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            read_study_config(_write(tmp_path, "study coverage\n"))

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError, match="replications"):
            read_study_config(
                _write(
                    tmp_path,
                    "study = coverage\nmodel = iid:p=2\nmode = fixed\n"
                    "fixed_n = 100\nseed_base = 0\n",
                )
            )
        with pytest.raises(ConfigError, match="seed_base"):
            read_study_config(
                _write(
                    tmp_path,
                    "study = coverage\nmodel = iid:p=2\nmode = fixed\n"
                    "fixed_n = 100\nreplications = 2\n",
                )
            )
        # the common keys are required entries of each row, read with it;
        # study is read first, because it picks the row
        for line, message in (
                ("study = coverage\n", "study config needs study"),
                ("model = iid:p=2\n", "fixed coverage study needs model"),
                ("fixed_n = 300, 600\n", "fixed coverage study needs fixed_n")):
            with pytest.raises(ConfigError) as exc:
                read_study_config(_write(tmp_path, self.GOOD.replace(line, "")))
            assert str(exc.value) == message

    def test_bad_values(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value for 'replications'"):
            read_study_config(
                _write(tmp_path, self.GOOD.replace("= 4", "= four"))
            )
        with pytest.raises(ConfigError, match="unknown study"):
            read_study_config(
                _write(tmp_path, self.GOOD.replace("coverage", "nosuch"))
            )
        with pytest.raises(ConfigError, match="unknown mode"):
            read_study_config(
                _write(tmp_path, self.GOOD.replace("= fixed", "= nosuch"))
            )

    def test_mode_requirements(self, tmp_path):
        text = (
            "study = coverage\nmodel = iid:p=2\nmode = sequential\n"
            "replications = 2\nseed_base = 0\n"
        )
        with pytest.raises(ConfigError, match="epsilon"):
            read_study_config(_write(tmp_path, text))
        text2 = (
            "study = relative_error\nmodel = var1_bench5\n"
            "replications = 2\nseed_base = 0\n"
        )
        with pytest.raises(ConfigError, match="sizes"):
            read_study_config(_write(tmp_path, text2))
        text3 = (
            "study = batch_sensitivity\nmodel = iid:p=2\n"
            "replications = 2\nseed_base = 0\n"
        )
        with pytest.raises(ConfigError, match="nus"):
            read_study_config(_write(tmp_path, text3))

    @pytest.mark.parametrize("line", ["", "n_star = auto\n"])
    def test_batch_sensitivity_needs_an_integer_n_star(self, tmp_path, line):
        # auto resolves at epsilon (0.05) and nu = 0.5, then floors every cell:
        # 7180 rows for this eps = 0.2 cell, whose own floor is 449
        text = ("study = batch_sensitivity\nmodel = var1_bench5\nnus = 0.5\n"
                "eps_list = 0.2\nreplications = 1\nseed_base = 0\n")
        message = ("batch_sensitivity study needs an integer n_star: auto would "
                    "resolve at one (nu, eps) for every cell" if line
                    else "batch_sensitivity study needs n_star")
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text + line))
        assert str(exc.value) == message
        with pytest.raises(ConfigError, match="nus"):
            read_study_config(_write(tmp_path, text.replace("nus = 0.5\n", "") + line))
        parsed = read_study_config(_write(tmp_path, text + "n_star = 449\n"))
        assert parsed["spec"].stopping.n_star == 449

    @pytest.mark.parametrize("key,value", [
        ("metric", "absolute"), ("batch", "fixed:7"), ("epsilon", "0.1"),
    ])
    def test_batch_sensitivity_refuses_ignored_keys(self, tmp_path, key, value):
        # every cell runs relative_sd at b_n = floor(n^nu) and its eps_list value
        text = ("study = batch_sensitivity\nmodel = iid:p=2\nnus = 0.5\n"
                "eps_list = 0.3\nn_star = 100\nreplications = 1\nseed_base = 0\n")
        with pytest.raises(ConfigError, match=f"refuses '{key}'"):
            read_study_config(_write(tmp_path, f"{text}{key} = {value}\n"))
        assert read_study_config(_write(tmp_path, text))["eps_list"] == (0.3,)

    def test_batch_sensitivity_epsilon_with_eps_list(self, tmp_path):
        text = ("study = batch_sensitivity\nmodel = iid:p=2\nnus = 0.5\neps_list = 0.3\n"
                "epsilon = 0.1\nn_star = 100\nreplications = 1\nseed_base = 0\n")
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text))
        assert str(exc.value) == ("batch_sensitivity study refuses 'epsilon' with "
                                  "eps_list, which sets each cell's epsilon")

    def test_batch_sensitivity_epsilon_without_eps_list(self, tmp_path):
        # without eps_list the one cell runs at epsilon
        text = ("study = batch_sensitivity\nmodel = iid:p=2\nnus = 0.5\n"
                "epsilon = 0.3\nn_star = 100\nreplications = 1\nseed_base = 0\n")
        parsed = read_study_config(_write(tmp_path, text))
        assert parsed["spec"].stopping.epsilon == 0.3
        assert parsed["eps_list"] is None

    def test_batch_forms(self, tmp_path):
        text = self.GOOD + "batch = fixed:50\n"
        parsed = read_study_config(_write(tmp_path, text))
        assert parsed["spec"].eff_policy == BatchPolicy.fixed(50)
        text = self.GOOD + "batch = nu:0.75\n"
        parsed = read_study_config(_write(tmp_path, text))
        assert parsed["spec"].eff_policy == BatchPolicy.exponent(0.75)
        with pytest.raises(ConfigError, match="batch"):
            read_study_config(_write(tmp_path, self.GOOD + "batch = 50\n"))
        with pytest.raises(ConfigError, match="unknown batch kind"):
            read_study_config(_write(tmp_path, self.GOOD + "batch = b:50\n"))

    def test_run_study_dispatch(self, tmp_path):
        parsed = read_study_config(_write(tmp_path, self.GOOD))
        report = run_study(parsed)
        assert report.study == "coverage"
        assert len(report.rows) == 4 * 2

    def test_unparsable_key_reported_before_rule_checks(self, tmp_path):
        text = (
            "study = coverage\nmodel = iid:p=2\nmode = sequential\nepsilon = 0.2\n"
            "replications = 2\nseed_base = 0\nn_star = abc\nn_max = x\n"
        )
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text))
        assert str(exc.value) == "bad value for 'n_max': 'x'"

    def test_fixed_mode_refuses_sequential_keys(self, tmp_path):
        # a fixed-n study would read none of them: refused by name, not ignored
        for line in ("n_star = 100", "metric = absolute", "n_max = 1000",
                     "check_growth = 0.2", "epsilon = 0.1"):
            key = line.split()[0]
            with pytest.raises(ConfigError) as exc:
                read_study_config(_write(tmp_path, f"{self.GOOD}{line}\n"))
            assert str(exc.value) == (
                f"fixed coverage study refuses {key!r}, which it does not read")
        text = self.GOOD + "n_star = abc\nmetric = nosuch\nn_max = x\ncheck_growth = y\n"
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text))
        assert str(exc.value) == ("fixed coverage study refuses 'check_growth', "
                                  "'metric', 'n_max', 'n_star', which it does not read")

    # One minimal config per (study, mode), and the keys it does not read.
    COMMON = "model = iid:p=2\nreplications = 1\nseed_base = 0\n"
    MINIMAL = {
        "fixed coverage": "study = coverage\nmode = fixed\nfixed_n = 300\n",
        "sequential coverage": "study = coverage\nepsilon = 0.2\n",
        "relative_error": "study = relative_error\nsizes = 300\n",
        "batch_sensitivity": "study = batch_sensitivity\nnus = 0.5\nn_star = 100\n",
    }
    VALID = {"mode": "sequential", "methods": "ubm", "fixed_n": "300", "alpha": "0.2",
             "epsilon": "0.1", "n_star": "100", "metric": "absolute",
             "batch": "fixed:7", "check_growth": "0.2", "n_max": "1000",
             "sizes": "300", "nus": "0.5", "eps_list": "0.2"}
    UNREAD = {
        "fixed coverage": ("epsilon", "n_star", "metric", "check_growth", "n_max",
                           "sizes", "nus", "eps_list"),
        "sequential coverage": ("fixed_n", "sizes", "nus", "eps_list"),
        "relative_error": ("mode", "methods", "fixed_n", "alpha", "epsilon", "n_star",
                           "metric", "check_growth", "n_max", "nus", "eps_list"),
        "batch_sensitivity": ("mode", "methods", "fixed_n", "metric", "batch", "sizes"),
    }

    @pytest.mark.parametrize("name,key", [(name, key) for name, keys in UNREAD.items()
                                          for key in keys])
    def test_keys_a_study_does_not_read_are_refused(self, tmp_path, name, key):
        # each of these configs ran, ignoring the key; the mode key of a
        # sequential coverage config is the one way to pick the fixed row
        value = "fixed" if key == "mode" else self.VALID[key]
        text = f"{self.MINIMAL[name]}{self.COMMON}{key} = {value}\n"
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text))
        assert str(exc.value) == f"{name} study refuses {key!r}, which it does not read"

    def test_minimal_configs_read_every_other_key(self, tmp_path):
        for name, minimal in self.MINIMAL.items():
            given = {line.split(" = ")[0] for line in minimal.splitlines()}
            extra = "".join(f"{key} = {value}\n" for key, value in self.VALID.items()
                            if key not in (*self.UNREAD[name], *given)
                            and not (name == "batch_sensitivity" and key == "epsilon"))
            assert read_study_config(_write(tmp_path, minimal + self.COMMON + extra))

    @pytest.mark.parametrize("name,keys", [
        ("fixed coverage", ("fixed_n",)), ("sequential coverage", ("epsilon",)),
        ("relative_error", ("sizes",)), ("batch_sensitivity", ("nus",)),
        ("batch_sensitivity", ("n_star",)), ("batch_sensitivity", ("nus", "n_star")),
    ])
    def test_one_needs_wording(self, tmp_path, name, keys):
        text = "".join(line + "\n" for line in self.MINIMAL[name].splitlines()
                       if not line.startswith(keys))
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, text + self.COMMON))
        assert str(exc.value) == f"{name} study needs {', '.join(keys)}"

    @pytest.mark.parametrize("name,line", [
        ("fixed coverage", "fixed_n = 1.5"),
        ("relative_error", "sizes = 100, x"),
        ("batch_sensitivity", "nus ="),
        ("batch_sensitivity", "eps_list = 0.2,,0.3"),
    ])
    def test_bad_list_names_its_key(self, tmp_path, name, line):
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        conf = "".join(f"{row}\n" for row in self.MINIMAL[name].splitlines()
                       if not row.startswith(key))
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, f"{conf}{self.COMMON}{line}\n"))
        assert str(exc.value) == f"bad value for {key!r}: {text!r}"

    @pytest.mark.parametrize("name,line,message", [
        ("fixed coverage", "methods = mbm, ubm, mbm", "methods: 'mbm'"),
        ("fixed coverage", "fixed_n = 300, 600, 300", "fixed_n: 300"),
        ("relative_error", "sizes = 300, 300", "sizes: 300"),
        ("batch_sensitivity", "nus = 0.5, 0.50", "nus: 0.5"),
        ("batch_sensitivity", "eps_list = 0.2, 0.3, 0.2", "eps_list: 0.2"),
    ])
    def test_repeated_list_entry_refused(self, tmp_path, name, line, message):
        # a fixed-n iid:p=2 study at 20 replications with methods = mbm, mbm
        # reported count 40 and se_coverage 0.057 (20 and 0.082 without)
        key = line.split()[0]
        conf = "".join(f"{row}\n" for row in self.MINIMAL[name].splitlines()
                       if not row.startswith(key))
        with pytest.raises(ConfigError) as exc:
            read_study_config(_write(tmp_path, f"{conf}{self.COMMON}{line}\n"))
        assert str(exc.value) == f"{message} is given more than once"

    def test_readme_key_table_is_the_code_table(self):
        # README's "applies to" column names each (study, mode) that reads a
        # key, * where it is required; a key that every row requires reads "all*"
        readme = (CONFIGS.parent / "README.md").read_text()
        section = readme.split("## Study configuration files\n", 1)[1].split("\n## ")[0]
        table = [line for line in section.splitlines() if line.startswith("| `")]
        applies = {}
        for line in table:
            key, column = (cell.strip() for cell in line.split("|")[1:3])
            applies[key.strip("`")] = column
        readers = {}
        for (study, mode), keys in experiments.STUDY_KEYS.items():
            name = f"{mode} {study}" if mode else study
            for key, default in keys.items():
                star = "*" if default is experiments.REQUIRED else ""
                readers.setdefault(key, []).append(name + star)
        expected = {key: "all*" if len(names) == len(experiments.STUDY_KEYS)
                    and all(name.endswith("*") for name in names) else ", ".join(names)
                    for key, names in readers.items()}
        assert applies == expected
        assert [key for key, column in applies.items() if column == "all*"] == [
            "study", "model", "replications", "seed_base"]


class TestShippedConfigs:
    def _spec(self, name):
        return read_study_config(str(CONFIGS / name))["spec"]

    def test_var1_sequential(self):
        assert self._spec("var1_sequential.conf").stopping == StoppingConfig(
            epsilon=0.05, alpha=0.10, n_star=1000, batch_policy=BatchPolicy.exponent(),
            metric="relative_sd", check_growth=0.10, n_max=10**8)

    def test_logistic_coverage(self):
        spec = self._spec("logistic_coverage.conf")
        assert (spec.stopping, spec.eff_alpha) == ((100000,), 0.10)

    def test_var1_relative_error(self):
        assert self._spec("var1_relative_error.conf").stopping == (1000, 10000, 100000)


class TestReportOutput:
    def _tiny_report(self):
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=3,
            stopping=[200],
            seed_base=1,
        )
        return coverage_study(spec)

    def test_csv_round_trip(self, tmp_path):
        report = self._tiny_report()
        path = tmp_path / "rows.csv"
        report.write_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        assert set(rows[0]) == set(report.rows[0])
        for got, want in zip(rows, report.rows):
            assert int(got["replication"]) == want["replication"]
            assert float(got["ess"]) == pytest.approx(want["ess"], rel=1e-15)
            assert int(got["covered"]) == want["covered"]

    def test_json_nan_to_null(self, tmp_path):
        from mcstop.experiments import StudyReport

        report = StudyReport(
            study="coverage",
            rows=({"replication": 0, "x": 1.0},),
            summary=({"method": "mbm", "mean_x": float("nan"), "count": 1},),
        )
        path = tmp_path / "summary.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["study"] == "coverage"
        assert payload["groups"][0]["mean_x"] is None
        assert payload["groups"][0]["count"] == 1

    def test_json_round_trip(self, tmp_path):
        report = self._tiny_report()
        path = tmp_path / "summary.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert len(payload["groups"]) == len(report.summary)
        g0, s0 = payload["groups"][0], report.summary[0]
        assert g0["coverage"] == pytest.approx(s0["coverage"])

    def test_format_table_shape(self):
        report = self._tiny_report()
        text = report.format_table()
        lines = text.splitlines()
        assert len(lines) == 2 + len(report.summary)
        assert "coverage" in lines[0]
        assert "count" in lines[0]
        # every data line ends with the replication count
        assert lines[2].rstrip().endswith("3")


class TestWorkers:
    def test_parallel_matches_serial(self, monkeypatch):
        spec = StudySpec(
            model=IidGaussianSpec(2),
            replications=4,
            stopping=[400],
            seed_base=11,
        )
        monkeypatch.setenv("MCSTOP_WORKERS", "1")
        serial = coverage_study(spec)
        monkeypatch.setenv("MCSTOP_WORKERS", "2")
        parallel = coverage_study(spec)
        assert len(serial.rows) == len(parallel.rows)
        for ra, rb in zip(serial.rows, parallel.rows):
            for key in ra:
                if key == "seconds":
                    continue
                assert ra[key] == rb[key], key

    @pytest.mark.parametrize("study", ["sequential", "relative_error", "sensitivity"])
    def test_parallel_matches_serial_every_study(self, monkeypatch, study):
        seq = StudySpec(
            model=var1_benchmark(3),
            replications=3,
            stopping=_seq_config(epsilon=0.2, n_star=300),
            methods=("mbm", "ubm"),
            seed_base=7,
        )
        run = {
            "sequential": lambda: coverage_study(seq),
            "relative_error": lambda: relative_error_study(
                StudySpec(model=var1_benchmark(3), replications=3,
                          stopping=[10], seed_base=7),
                sizes=(500, 2000),
            ),
            "sensitivity": lambda: batch_sensitivity_study(
                dataclasses.replace(seq, methods=("mbm",)), nus=(0.4, 0.5),
                eps_list=(0.2, 0.3)
            ),
        }[study]
        # The first run starts without spares; the serial and parallel
        # runs after it start from NaN-filled ones (forked workers inherit
        # them), and every replication after a worker's first recycles.
        _fresh_spares(monkeypatch)
        monkeypatch.setenv("MCSTOP_WORKERS", "1")
        serial = run()
        for workers in ("1", "2"):
            _nan_spares(3)
            monkeypatch.setenv("MCSTOP_WORKERS", workers)
            again = run()
            assert len(serial.rows) == len(again.rows) > 0
            for ra, rb in zip(serial.rows, again.rows):
                assert {k: v for k, v in ra.items() if k != "seconds"} == {
                    k: v for k, v in rb.items() if k != "seconds"
                }

    def test_bad_workers_value(self, monkeypatch):
        spec = StudySpec(
            model=IidGaussianSpec(2), replications=1, stopping=[100]
        )
        monkeypatch.setenv("MCSTOP_WORKERS", "two")
        with pytest.raises(ConfigError, match="MCSTOP_WORKERS"):
            coverage_study(spec)

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("MCSTOP_WORKERS", raw)
        with pytest.raises(ConfigError, match="MCSTOP_WORKERS"):
            _workers()

    @pytest.mark.parametrize("raw,cpus,expected", [
        ("64", 4, 4), ("3", 8, 3), ("1", 8, 1), ("5", None, 1),
    ])
    def test_workers_capped_at_cpu_count(self, monkeypatch, raw, cpus, expected):
        monkeypatch.setenv("MCSTOP_WORKERS", raw)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _workers() == expected

    def test_workers_capped_at_affinity_mask(self, monkeypatch):
        # a one-CPU mask on a machine with more CPUs online allows 1 worker
        monkeypatch.setenv("MCSTOP_WORKERS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sysconf", lambda name: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers() == 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("MCSTOP_WORKERS", raising=False)
        assert _workers() == 1
