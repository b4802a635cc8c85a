"""Command-line surface.

Subcommands: ess (effective sample size report), confregion
(confidence region geometry), stop (sequential stopping, either on a
built-in model or resumable over an externally grown chain file), and
replicate (config-driven replication studies).

Exit codes: 0 success, 1 user error (bad flags, unreadable input,
config violations), 2 numerical failure (non-positive-definite
estimates, insufficient data, cap exhaustion).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .chain import column_means, load_chain
from .errors import (
    ConfigError,
    DomainError,
    EmptyInput,
    McstopError,
    NotPositiveDefinite,
    NotStationary,
    ParseError,
)
from .estimators import BatchPolicy, batch_size, mbm
from .ess import eps_from_ess, ess_report, min_ess
from .experiments import parse_model_spec, read_study_config, run_study
from .regions import ellipse_boundary, make_region, scheffe_interval, vol_p
from .resume import stop_resume, stop_rule
from .stopping import RULE_PARAMS, RULES, run_sequential

_NOT_PD_MSG = "increase n: covariance estimate not positive definite (a_n ≤ p)"

# NotStationary is raised only while a model is built from a --model or
# config model spec.
_USER_ERRORS = (
    ConfigError,
    ParseError,
    EmptyInput,
    DomainError,
    NotStationary,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we want 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mcstop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_ess = sub.add_parser("ess",
                           help="effective sample size report for a chain file")
    p_ess.add_argument("input", nargs="?", help="chain file (CSV/TSV)")
    p_ess.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p_ess.add_argument("--batch", default="nu:0.5",
                       help="batch policy, nu:<float> or fixed:<int>")
    p_ess.add_argument("--alpha", type=float, default=0.05)
    p_ess.add_argument("--eps", type=float, default=0.05)
    p_ess.add_argument("-p", "--dims", type=int, default=None,
                       help="dimension for a threshold-only report (no input file)")
    p_ess.add_argument("--json", action="store_true")

    p_reg = sub.add_parser("confregion",
                           help="confidence region report for a chain file")
    p_reg.add_argument("input", help="chain file (CSV/TSV)")
    p_reg.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p_reg.add_argument("--batch", default="nu:0.5")
    p_reg.add_argument("--alpha", type=float, default=0.05)
    p_reg.add_argument("--directions", default=None,
                       help="CSV of direction vectors for Scheffé intervals")
    p_reg.add_argument("--ellipse", nargs=2, type=int, metavar=("I", "J"),
                       default=None, help="emit 2-D boundary points for coords I J")
    p_reg.add_argument("--resolution", type=int, default=360)
    p_reg.add_argument("--ellipse-out", default=None,
                       help="write boundary CSV here instead of stdout")
    p_reg.add_argument("--json", action="store_true")

    p_stop = sub.add_parser("stop",
                            help="run a sequential stopping rule")
    p_stop.add_argument("--model", default=None,
                        help="built-in sampler spec (e.g. iid:p=5, var1_bench5, "
                             "var1:phi=...;rho=..., logistic)")
    p_stop.add_argument("--seed", type=int, default=None,
                        help="required with --model")
    p_stop.add_argument("--input", default=None,
                        help="externally grown chain file (resume mode)")
    p_stop.add_argument("--resume", default=None,
                        help="sidecar JSON state path (resume mode)")
    p_stop.add_argument("--format", choices=("csv", "tsv"), default="csv")
    # None marks a flag the user did not pass: RULE_PARAMS holds the
    # defaults, and resume checks only flags that were passed. The rule's
    # flags stay text, read by stopping.rule_value as study config lines are.
    for key, (dest, default, _) in RULE_PARAMS.items():
        p_stop.add_argument(f"--{dest}", default=None,
                            choices=RULES if key == "metric" else None,
                            help="required" if default is None
                            else f"default {default}")
    p_stop.add_argument("--json", action="store_true")

    p_rep = sub.add_parser("replicate",
                           help="run a replication study from a config file")
    p_rep.add_argument("config", help="key = value study config")
    p_rep.add_argument("--out-prefix", default=None,
                       help="output prefix for <prefix>.csv and <prefix>.json "
                            "(default: config file stem)")
    p_rep.add_argument("--json", action="store_true",
                       help="also print the JSON summary to stdout")
    return parser


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def cmd_ess(args) -> int:
    if args.input is None:
        if args.dims is None:
            raise ConfigError("ess needs a chain file or -p <dims> for "
                              "a threshold-only report")
        p = args.dims
        threshold = min_ess(p, args.alpha, args.eps)
        payload = {
            "command": "ess",
            "p": p,
            "alpha": args.alpha,
            "epsilon": args.eps,
            "min_ess": threshold,
            "min_ess_ceiling": int(math.ceil(threshold)),
        }
        _emit(payload, args.json, [
            f"p: {p}  alpha: {args.alpha:g}  eps: {args.eps:g}",
            f"min ESS threshold: {int(math.ceil(threshold))} "
            f"(raw {threshold!r})",
        ])
        return 0
    chain = load_chain(args.input, format=args.format)
    if args.dims is not None and args.dims != chain.p:
        raise ConfigError(f"-p {args.dims} disagrees with chain p={chain.p}")
    rep = ess_report(chain, BatchPolicy.parse(args.batch))
    m_ess, u_ess, b_n = rep.ess_multivariate, rep.ess_univariate, rep.b_n
    a_n = chain.n // b_n
    threshold = min_ess(chain.p, args.alpha, args.eps)
    achieved_eps = eps_from_ess(chain.p, args.alpha, m_ess)
    verdict = bool(m_ess >= threshold)
    payload = {
        "command": "ess",
        "n": chain.n,
        "p": chain.p,
        "batch_size": b_n,
        "batch_count": a_n,
        "alpha": args.alpha,
        "epsilon": args.eps,
        "ess_multivariate": m_ess,
        "ess_univariate": [float(v) for v in u_ess],
        "min_ess": threshold,
        "min_ess_ceiling": int(math.ceil(threshold)),
        "eps_achieved": achieved_eps,
        "verdict": verdict,
    }
    uni = "  ".join(f"{v:.6g}" for v in u_ess)
    _emit(payload, args.json, [
        f"n: {chain.n}  p: {chain.p}  batch size: {b_n}  batches: {a_n}",
        f"multivariate ESS: {m_ess:.6g}",
        f"univariate ESS:   {uni}",
        f"min ESS threshold: {int(math.ceil(threshold))} (raw {threshold!r})",
        f"precision achieved at alpha={args.alpha:g}: {achieved_eps:.6g}",
        f"verdict: ESS {'meets' if verdict else 'below'} threshold "
        f"for eps={args.eps:g}",
    ])
    return 0


def cmd_confregion(args) -> int:
    chain = load_chain(args.input, format=args.format)
    policy = BatchPolicy.parse(args.batch)
    b_n = batch_size(chain.n, policy)
    sig = mbm(chain, b_n)
    center = column_means(chain)
    region = make_region(center, sig, chain.n, args.alpha)
    root = vol_p(region.log_volume, chain.p)
    payload = {
        "command": "confregion",
        "n": chain.n,
        "p": chain.p,
        "alpha": args.alpha,
        "batch_size": b_n,
        "batch_count": sig.a_n,
        "center": [float(v) for v in center.values],
        "cutoff": region.quantile,
        "log_volume": region.log_volume,
        "vol_p": root,
    }
    lines = [
        f"n: {chain.n}  p: {chain.p}  batch size: {b_n}  batches: {sig.a_n}",
        "center: " + "  ".join(f"{float(v):.8g}" for v in center.values),
        f"cutoff (scaled F): {region.quantile:.8g}",
        f"log volume: {region.log_volume!r}",
        f"Vol^(1/p): {root:.8g}",
    ]
    if args.directions is not None:
        dirs = load_chain(args.directions, format="csv")
        scheffe = []
        for k in range(dirs.n):
            lo, hi = scheffe_interval(dirs.data[k], region)
            scheffe.append({"direction": [float(v) for v in dirs.data[k]],
                            "lo": lo, "hi": hi})
            lines.append(f"scheffe[{k}]: [{lo:.8g}, {hi:.8g}]")
        payload["scheffe"] = scheffe
    if args.ellipse is not None:
        i, j = args.ellipse
        pts = ellipse_boundary(region, i, j, resolution=args.resolution)
        rows = [f"{float(x)!r},{float(y)!r}" for x, y in pts]
        payload["ellipse"] = {"i": i, "j": j, "rows": len(rows)}
        if args.ellipse_out:
            with open(args.ellipse_out, "w") as fh:
                fh.write("\n".join(rows) + "\n")
            lines.append(f"ellipse boundary: {len(rows)} points -> {args.ellipse_out}")
        else:
            lines.extend(rows)
    _emit(payload, args.json, lines)
    return 0


def _report_stop(result, p: int, as_json: bool, extra: dict) -> None:
    root = vol_p(result.log_volume, p)
    payload = {
        "command": "stop",
        "terminated": result.terminated,
        "reason": result.reason,
        "n_final": result.n_final,
        "ess_at_termination": result.ess_at_termination,
        "log_volume": result.log_volume,
        "vol_p": root,
    }
    payload.update(extra)
    _emit(payload, as_json, [
        f"reason: {result.reason}",
        f"n final: {result.n_final}",
        f"ESS at termination: {result.ess_at_termination:.6g}",
        f"Vol^(1/p): {root:.6g}",
    ])


def cmd_stop(args) -> int:
    flags = {key: getattr(args, dest) for key, (dest, _, _) in RULE_PARAMS.items()}
    if args.model is not None and args.input is not None:
        raise ConfigError("--model and --input are mutually exclusive")
    if args.model is not None:
        if args.seed is None:
            raise ConfigError("--model runs are randomized and require --seed")
        model = parse_model_spec(args.model)
        source = model.make_source(args.seed)
        _, config = stop_rule(flags, {}, model.p)
        result = run_sequential(source, None, config)
        _report_stop(result, model.p, args.json, {"model": args.model,
                                                  "seed": args.seed})
        return 0 if result.reason == "criterion_met" else 2
    if args.input is None:
        raise ConfigError("stop needs --model or --input")
    if args.resume is None:
        raise ConfigError("--input mode needs --resume <state file>")
    walk, rows = stop_resume(args.input, args.resume, args.format, flags)
    if walk is None:
        print("state file marks this run as finished", file=sys.stderr)
        return 0
    if walk.result is None:
        payload = {"command": "stop", "status": "continue",
                   "next_checkpoint": walk.next, "n_available": len(rows)}
        _emit(payload, args.json, [
            "criterion not yet met",
            f"extend the chain to at least {walk.next} rows and rerun",
        ])
        return 0
    _report_stop(walk.result, rows.shape[1], args.json, {"input": args.input})
    return 0 if walk.result.reason == "criterion_met" else 2


def cmd_replicate(args) -> int:
    parsed = read_study_config(args.config)
    report = run_study(parsed)
    stem = (args.out_prefix if args.out_prefix is not None
            else os.path.splitext(os.path.basename(args.config))[0])
    csv_path = stem + ".csv"
    json_path = stem + ".json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    print(report.format_table())
    print(f"rows -> {csv_path}")
    print(f"summary -> {json_path}")
    if args.json:
        with open(json_path) as fh:
            print(fh.read(), end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ess": cmd_ess,
        "confregion": cmd_confregion,
        "stop": cmd_stop,
        "replicate": cmd_replicate,
    }
    try:
        return handlers[args.command](args)
    except _USER_ERRORS as exc:
        print(f"mcstop: error: {exc}", file=sys.stderr)
        return 1
    except NotPositiveDefinite:
        print(f"mcstop: {_NOT_PD_MSG}", file=sys.stderr)
        return 2
    except McstopError as exc:
        print(f"mcstop: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
