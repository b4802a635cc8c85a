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
    definite (a_n <= p) and one with a_n < 2.
Each output is one line: study rows without their `seconds` column,
StoppingResult reprs, CLI calls with their exit code, stdout and stderr.
Paths are printed relative to the checkout or to the scratch directory,
so the lines do not depend on where either is. Diff the output of two
checkouts to compare them; the last line is a SHA-256 of all lines
before it.
"""
import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
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
        for line in (*studies(m), *runs(m), *cli(m, workdir)):
            print(line)
            digest.update(line.encode() + b"\n")
    print("sha256", digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
