"""Print the outputs that a change to the stopping summary must keep.

Usage:
  python3 tools/summary_parity.py [--src DIR] > outputs.txt

Runs, on the mcstop package under --src (default: this checkout's src):
  - sequential coverage studies, each of the 4 metrics x 3 methods;
  - fixed-n coverage studies under 3 batch policies x 3 methods, at
    lengths that include a not positive definite Σ_n, and one on the
    logistic model, whose truth is the proxy reference mean;
  - two batch sensitivity grids;
  - run_sequential with each metric, as None, a rule name, a check
    function and a ChainMatrix callable, including runs capped by n_max;
  - check_univariate(chain, config) under each metric, and
    check_relative_sd and check_absolute, on one grid of 4 lengths x 3
    tolerances, on both sides of each threshold;
  - `mcstop stop --json` on a model, and `mcstop replicate
    configs/var1_sequential.conf` (its table, CSV rows and JSON summary);
  - `mcstop ess` and `mcstop confregion --directions`, in text and JSON,
    on seeded chain files, including one whose Σ_n is not positive
    definite (a_n <= p) and one with a_n < 2;
  - read_study_config on a minimal config of each study and mode, on
    each of those with one more key, with one of its keys left out and
    with a bad or repeated list, and on the three shipped configs;
  - `mcstop replicate` on copies of the three shipped configs cut to 2
    replications and short lengths (exit code, stderr, CSV rows);
  - three 12-call `mcstop stop --input --resume` walks (RESUME_WALKS),
    with the SHA-256 of the state file and the row cache after each call;
  - parse_model_spec on every form it accepts and on one text per
    refusal (MODEL_SPECS), each with its spec's type and parameters or
    its error.
Each output is one line: study rows without their `seconds` column,
StoppingResult reprs, CLI calls with their exit code, stdout and stderr.
Paths are printed relative to the checkout or to the scratch directory,
so the lines do not depend on where either is. Diff the output of two
checkouts to compare them. Lines 549 and 660 and the last line are each
a SHA-256 of all lines before them; line 549 closes the outputs before
the study configs, and line 660 the study configs.
"""
import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("relative_sd", "absolute", "univariate_bonferroni",
           "univariate_uncorrected")
METHODS = ("mbm", "ubm_bonferroni", "ubm")


def rows(report):
    for row in report.rows:
        yield repr({k: v for k, v in row.items() if k != "seconds"})
    yield repr(report.summary)


def studies(m):
    bench5 = m.var1_benchmark(5)
    for metric in METRICS:
        cfg = m.StoppingConfig(epsilon=0.15, alpha=0.10, n_star=1000,
                               metric=metric)
        spec = m.StudySpec(bench5, 4, cfg, methods=METHODS, seed_base=3)
        yield f"sequential coverage {metric}"
        yield from rows(m.coverage_study(spec))
    for batch in ("nu:0.5", "nu:0.3333333333333333", "fixed:20"):
        spec = m.StudySpec(bench5, 3, (20, 40, 500, 3000), methods=METHODS,
                           seed_base=7, batch_policy=m.BatchPolicy.parse(batch))
        yield f"fixed-n coverage {batch}"
        yield from rows(m.coverage_study(spec))
    spec = m.StudySpec(m.logistic_benchmark(), 2, (3000, 5000), methods=METHODS,
                       seed_base=5)
    yield "fixed-n coverage logistic"
    yield from rows(m.coverage_study(spec))
    grids = ((bench5, (1 / 3, 0.5), (0.2, 0.1)),
             (m.IidGaussianSpec(3), (0.4, 0.6), (0.3,)))
    for model, nus, eps_list in grids:
        cfg = m.StoppingConfig(epsilon=0.1, alpha=0.10, n_star=200)
        spec = m.StudySpec(model, 3, cfg, seed_base=11)
        yield f"batch sensitivity p={model.p}"
        yield from rows(m.batch_sensitivity_study(spec, nus, eps_list))


def runs(m):
    bench5 = m.var1_benchmark(5)
    check = {"relative_sd": m.check_relative_sd, "absolute": m.check_absolute,
             "univariate_bonferroni": m.check_univariate,
             "univariate_uncorrected": m.check_univariate}
    for metric in METRICS:
        eps = 0.5 if metric == "absolute" else 0.1
        cfg = m.StoppingConfig(epsilon=eps, alpha=0.10, n_star=500,
                               metric=metric)
        callable_rule = lambda chain, c, f=check[metric]: f(chain, c)
        for seed in (1, 2, 3):
            for rule in (None, metric):
                yield f"{metric} seed {seed} rule {rule}"
                yield repr(m.run_sequential(bench5.make_source(seed), rule, cfg))
        for rule in (check[metric], callable_rule):
            yield f"{metric} {getattr(rule, '__name__', '')}"
            yield repr(m.run_sequential(bench5.make_source(4), rule, cfg))
        for n_star, n_max, batch in ((500, 900, "nu:0.5"), (2, 20, "nu:0.5"),
                                     (2, 3, "nu:0.9")):
            capped = dataclasses.replace(
                cfg, n_star=n_star, n_max=n_max,
                batch_policy=m.BatchPolicy.parse(batch))
            yield f"{metric} capped n_max {n_max} {batch}"
            yield repr(m.run_sequential(bench5.make_source(5), None, capped))
        yield f"{metric} iid p=3"
        yield repr(m.run_sequential(m.IidGaussianSpec(3).make_source(6), None,
                                    dataclasses.replace(cfg, epsilon=0.2)))
    source = bench5.make_source(9)
    grid = [(n, eps) for n in (2, 40, 3000, 20000) for eps in (0.05, 0.1, 0.3)]
    for metric in METRICS:
        results = [m.check_univariate(source.take(n), m.StoppingConfig(
                       epsilon=eps, alpha=0.10, n_star=0, metric=metric))
                   for n, eps in grid]
        yield f"check_univariate {metric} {results}"
    for check in (m.check_relative_sd, m.check_absolute):
        results = [check(source.take(n), m.StoppingConfig(
                       epsilon=eps, alpha=0.10, n_star=0)) for n, eps in grid]
        yield f"{check.__name__} {results}"


def cli(m, workdir):
    from mcstop import cli as mcli

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mcli.main(argv)
        line = f"{argv} -> {code} {out.getvalue()!r} {err.getvalue()!r}"
        return line.replace(workdir, "<workdir>").replace(f"{ROOT}{os.sep}", "")

    for rule in METRICS:
        yield call(["stop", "--model", "var1_bench5", "--seed", "3", "--eps",
                    "0.15", "--rule", rule, "--json"])
    yield call(["stop", "--model", "var1_bench5", "--seed", "3", "--eps",
                "0.01", "--nstar", "500", "--nmax", "2000", "--json"])
    prefix = os.path.join(workdir, "var1_sequential")
    conf = str(ROOT / "configs" / "var1_sequential.conf")
    yield call(["replicate", conf, "--out-prefix", prefix])
    with open(prefix + ".csv", newline="") as fh:
        for row in csv.DictReader(fh):
            row.pop("seconds")
            yield repr(row)
    with open(prefix + ".json") as fh:
        yield fh.read()
    yield from estimators_cli(m, workdir, call)


def estimators_cli(m, workdir, call):
    """`ess` and `confregion` on seeded chains, not positive definite included."""
    rows = m.var1_benchmark(5).make_source(8).take(3000).data
    dirs = os.path.join(workdir, "dirs.csv")
    with open(dirs, "w") as fh:
        fh.write("1,0,0,0,0\n0,0,1,0,0\n1,1,1,1,1\n")
    # (rows, --batch): a_n = 55 and 14 (positive definite), a_n = 5 = p
    # (Σ_n not positive definite) and a_n = 1
    chains = ((rows, "nu:0.5"), (rows[:700], "nu:0.6"), (rows[:20], "nu:0.5"),
              (rows[:5], "nu:0.9"))
    for k, (data, batch) in enumerate(chains):
        path = os.path.join(workdir, f"chain{k}.csv")
        np.savetxt(path, data, fmt="%.17g", delimiter=",")
        for fmt in ([], ["--json"]):
            yield call(["ess", path, "--batch", batch, *fmt])
            yield call(["confregion", path, "--batch", batch, "--alpha", "0.1",
                        "--directions", dirs, *fmt])


# One minimal config per study and mode, and a valid value for every key.
CONFIG_COMMON = "model = iid:p=2\nreplications = 1\nseed_base = 0\n"
MINIMAL_CONFIGS = {
    "fixed coverage": "study = coverage\nmode = fixed\nfixed_n = 300\n",
    "sequential coverage": "study = coverage\nepsilon = 0.2\n",
    "relative_error": "study = relative_error\nsizes = 300\n",
    "batch_sensitivity": "study = batch_sensitivity\nnus = 0.5\nn_star = 100\n",
}
CONFIG_VALUES = {"mode": "fixed", "methods": "ubm", "fixed_n": "300", "alpha": "0.2",
                 "epsilon": "0.1", "n_star": "100", "metric": "absolute",
                 "batch": "fixed:7", "check_growth": "0.2", "n_max": "1000",
                 "sizes": "300", "nus": "0.5", "eps_list": "0.2", "zeta": "1"}
BAD_LISTS = {"methods": ("mbm, mbm",), "fixed_n": ("1.5", "300, 300"),
             "sizes": ("100, x", "300, 300"), "nus": ("", "0.5, 0.50"),
             "eps_list": ("0.2,,0.3", "0.2, 0.2")}
# The shipped configs cut to 2 replications and short lengths.
REDUCED = {"var1_sequential.conf": {},
           "logistic_coverage.conf": {"fixed_n": "3000"},
           "var1_relative_error.conf": {"sizes": "1000, 10000"}}


def configs(m, workdir):
    from mcstop import cli as mcli

    path = os.path.join(workdir, "study.conf")

    def parsed(text):
        with open(path, "w") as fh:
            fh.write(text)
        return config_outcome(m, path)

    for name, minimal in MINIMAL_CONFIGS.items():
        lines = minimal.splitlines()
        yield f"config {name}: {parsed(minimal + CONFIG_COMMON)}"
        for key, value in CONFIG_VALUES.items():
            if f"{key} =" not in minimal:
                line = f"{key} = {value}"
                yield f"config {name} + {line}: {parsed(minimal + CONFIG_COMMON + line)}"
        for k, line in enumerate(lines[1:], start=1):
            rest = "".join(f"{x}\n" for x in lines[:k] + lines[k + 1:])
            yield f"config {name} - {line}: {parsed(rest + CONFIG_COMMON)}"
        for key, values in BAD_LISTS.items():
            for value in values:
                line = f"{key} = {value}"
                kept = "".join(f"{x}\n" for x in lines if not x.startswith(key))
                yield f"config {name} + {line}: {parsed(kept + CONFIG_COMMON + line)}"
    for conf, cuts in REDUCED.items():
        yield f"config {conf}: {config_outcome(m, str(ROOT / 'configs' / conf))}"
        cuts = {"replications": "2", **cuts}
        with open(ROOT / "configs" / conf) as src, open(path, "w") as fh:
            for line in src:
                key = line.partition("=")[0].strip()
                fh.write(f"{key} = {cuts[key]}\n" if key in cuts else line)
        prefix = os.path.join(workdir, "reduced")
        err = io.StringIO()
        # stdout is left out: a relative_error table has a seconds column
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = mcli.main(["replicate", path, "--out-prefix", prefix])
        yield f"replicate {conf} reduced -> {code} {err.getvalue()!r}"
        with open(prefix + ".csv", newline="") as fh:
            for row in csv.DictReader(fh):
                row.pop("seconds")
                yield repr(row)


# Three 12-call resume walks on seeded two-column chains with a header:
# (name, seed, --format, the first call's flags, calls). A call is (the rows
# the file holds, flags, an event before it). "rewritten" changes row 3 and
# "truncated" cuts the file to half; "partial" appends an unterminated line;
# "no cache" deletes the row cache; "cut state" cuts the state file, and a
# dict edits its keys. Edits of the chain or the state last for that call.
RESUME_WALKS = (
    ("csv", 41, "csv", ["--eps", "0.1", "--alpha", "0.10", "--nstar", "100"], (
        (80, [], None), (150, ["--json"], None), (150, [], None),
        (300, ["--eps", "0.2"], None), (300, [], "rewritten"),
        (300, ["--json"], None), (500, [], None), (800, ["--json"], None),
        (1100, ["--alpha", "0.1", "--json"], None), (1400, [], None),
        (1400, ["--json"], None), (1500, ["--eps", "0.2", "--json"], None))),
    ("tsv", 42, "tsv", ["--eps", "0.05", "--rule", "absolute", "--nstar", "200"], (
        (150, ["--json"], None), (250, ["--json"], "partial"), (400, ["--json"], None),
        (400, ["--format", "csv"], None), (1000, ["--json"], None),
        (2200, ["--json"], "no cache"), (3200, ["--json"], None), (4500, [], None),
        (6500, ["--json"], None), (8000, ["--json"], None), (9300, ["--json"], None),
        (9300, [], None))),
    ("univariate", 43, "csv", ["--eps", "0.05", "--rule", "univariate_bonferroni",
                               "--nstar", "300", "--nmax", "5000"], (
        (200, [], None), (400, [], None), (400, [], {"next_checkpoint": 2}),
        (400, [], {"done": "yes"}), (400, [], "cut state"), (900, [], None),
        (900, [], "truncated"), (1600, ["--nstar", "auto"], None),
        (2500, ["--json"], None), (3600, [], None), (5200, ["--json"], None),
        (5200, [], None))),
)


def resume_walks(workdir):
    """One line per call: argv, exit code, stdout, stderr, state and cache SHA-256."""
    from mcstop import cli as mcli

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    def write(path, raw):
        with open(path, "wb") as fh:
            fh.write(raw)

    for name, seed, fmt, first, calls in RESUME_WALKS:
        rows = np.random.default_rng(seed).standard_normal((10000, 2))
        delim = "\t" if fmt == "tsv" else ","
        path = os.path.join(workdir, f"walk-{name}.{fmt}")
        state = os.path.join(workdir, f"walk-{name}.json")
        cache = state + ".rows.npy"
        for k, (n, flags, event) in enumerate(calls):
            kept = {p: read(p) for p in (state, cache) if os.path.exists(p)}
            data = rows[:n // 2 if event == "truncated" else n].copy()
            if event == "rewritten":
                data[3] += 1.0
            lines = [delim.join(("a", "b"))] + [delim.join(map(repr, r))
                                                for r in data.tolist()]
            tail = "0.5" if event == "partial" else ""
            write(path, ("\n".join(lines) + "\n" + tail).encode())
            if event == "no cache":
                os.remove(cache)
            elif event == "cut state":
                write(state, kept[state][:40])
            elif isinstance(event, dict):
                write(state, json.dumps({**json.loads(kept[state]), **event}).encode())
            argv = ["stop", "--input", path, "--resume", state,
                    *([] if "--format" in flags else ["--format", fmt]),
                    *(first if k == 0 else []), *flags]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mcli.main(argv)
            digests = [hashlib.sha256(read(p)).hexdigest() if os.path.exists(p)
                       else "absent" for p in (state, cache)]
            line = (f"resume {name} {k + 1} {event or ''}: {argv} -> {code} "
                    f"{out.getvalue()!r} {err.getvalue()!r} "
                    f"state {digests[0]} cache {digests[1]}")
            yield line.replace(workdir, "<workdir>")
            if event == "cut state" or isinstance(event, dict):
                for p, raw in kept.items():
                    write(p, raw)


# Every accepted model-spec form, with and without each option and with
# whitespace, then one text per refusal: unknown kind, no =, unread option,
# repeated option, missing option, bad number and values outside a domain.
MODEL_SPECS = (
    "iid:p=5", "  iid:p = 5 ", "var1_bench5", " var1_bench50 ",
    "var1:phi=0.9,0.5;rho=0.8", "var1:rho=0.8;phi=0.9,0.5",
    "var1:phi=0.9,0.5;rho=0.8;scale=2.0", "var1: phi = 0.9, 0.5 ; rho = 0.8 ; scale = 2",
    "var1:phi=-0.3;rho=-0.5;scale=1e-3", "logistic", "logistic:", "logistic:tau2=2.0",
    "logistic:proposal_sd=0.2", "logistic:tau2=2.0;proposal_sd=0.2",
    "logistic: proposal_sd = .2 ;tau2= 2",
    "nosuch:p=2", "var1_bench6", "iid:p5", "logistic:tau2=2;", "iid:p=5;extra=1",
    "var1:phi=0.5;rho=0.5;q=2", "logistic:sigma=1;eta=2", "iid:p=2;p=3",
    "var1:phi=0.5;rho=0.5;rho=0.9", "iid:", "var1:phi=0.5", "var1:scale=2",
    "iid:p=abc", "iid:p=2.0", "var1:phi=0.5,x;rho=0.5", "var1:phi=0.5;rho=0.5;scale=",
    "logistic:tau2=one", "iid:p=0", "logistic:proposal_sd=nan", "logistic:tau2=inf",
    "logistic:tau2=-1", "var1:phi=0.5;rho=0.5;scale=nan", "var1:phi=0.5;rho=0.5;scale=0",
    "var1:phi=0.5;rho=nan", "var1:phi=0.5;rho=1.0", "var1:phi=nan;rho=0.5",
    "var1:phi=1.0;rho=0.5",
)


def model_specs(m):
    """One line per MODEL_SPECS text: type, p and parameters, or the error.

    An array prints as its shape and the SHA-256 of its float64 bytes.
    """
    for text in MODEL_SPECS:
        try:
            spec = m.parse_model_spec(text)
        except Exception as exc:
            yield f"model {text!r}: {type(exc).__name__}: {exc}"
            continue
        model = getattr(spec, "model", None)
        params = [f"{type(spec).__name__} p={spec.p}"]
        for name in ("phi", "omega", "tau2", "proposal_sd"):
            if hasattr(model, name):
                value = getattr(model, name)
                if isinstance(value, np.ndarray):
                    raw = value.astype(np.float64).tobytes()
                    value = f"{value.shape} sha256 {hashlib.sha256(raw).hexdigest()}"
                params.append(f"{name} {value}")
        yield f"model {text!r}: {', '.join(params)}"


def config_outcome(m, path):
    """The parsed spec, its model by kind and p, or the error it raises."""
    try:
        parsed = m.read_study_config(path)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    spec = parsed["spec"]
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
              if f.name != "model"}
    rest = {k: v for k, v in parsed.items() if k not in ("study", "model", "spec")}
    return repr((parsed["study"], type(spec.model).__name__, spec.model.p, fields, rest))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the mcstop package to run")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    os.environ.pop("MCSTOP_WORKERS", None)
    import mcstop as m

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        # a digest line after each part: the first closes the outputs that
        # BENCH_17 to BENCH_21 record, the second the study-config outcomes
        # and the third the resume walks and the model specs
        for part in ((*studies(m), *runs(m), *cli(m, workdir)), configs(m, workdir),
                     (*resume_walks(workdir), *model_specs(m))):
            for line in part:
                print(line)
                digest.update(line.encode() + b"\n")
            line = f"sha256 {digest.hexdigest()}"
            print(line)
            digest.update(line.encode() + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
