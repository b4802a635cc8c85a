"""Command-line surface.

Subcommands: ess (effective sample size report), confregion
(confidence region geometry), stop (sequential stopping, either on a
built-in model or resumable over an externally grown chain file), and
replicate (config-driven replication studies).

Exit codes: 0 success, 1 user error (bad flags, unreadable input,
config violations), 2 numerical failure (non-positive-definite
estimates, insufficient data, cap exhaustion).

Resume mode (stop --input F --resume S) runs the checkpoint loop of
stopping.py from the state's next checkpoint up to the complete lines
of F; an unterminated last line may still be being written and is not
counted. The state file pins the rule: a passed flag that disagrees
with it is refused, and the file is replaced atomically. It also pins
the length and SHA-256 of the lines read so far, so a chain file whose
checked rows were rewritten or truncated is refused. The rows read so
far are kept in a binary row cache next to the state file, pinned by
its SHA-256, so a call parses only the lines appended since the last.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from .chain import ChainMatrix, column_means, load_chain, parse_rows
from .errors import (
    ConfigError,
    DomainError,
    EmptyInput,
    InsufficientBatches,
    InsufficientData,
    McstopError,
    NotPositiveDefinite,
    NotStationary,
    ParseError,
)
from .estimators import BatchPolicy, batch_size, mbm
from .ess import eps_from_ess, ess_report, min_ess
from .experiments import parse_model_spec, read_study_config, run_study
from .regions import ellipse_boundary, make_region, scheffe_interval, vol_p
from .samplers import FileChainSource
from .stopping import StoppingConfig, default_nstar, drive_checkpoints, run_sequential

_NOT_PD_MSG = "increase n: covariance estimate not positive definite (a_n ≤ p)"

_USER_ERRORS = (
    ConfigError,
    ParseError,
    EmptyInput,
    DomainError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)
_NUMERIC_ERRORS = (
    NotPositiveDefinite,
    InsufficientData,
    InsufficientBatches,
    NotStationary,
    McstopError,
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
    # None marks a flag the user did not pass: _stop_config applies the
    # defaults, and resume rejects only flags that were passed.
    p_stop.add_argument("--rule", default=None,
                        choices=("relative_sd", "absolute",
                                 "univariate_bonferroni", "univariate_uncorrected"),
                        help="default relative_sd")
    p_stop.add_argument("--eps", type=float, default=None)
    p_stop.add_argument("--alpha", type=float, default=None, help="default 0.05")
    p_stop.add_argument("--nstar", default=None,
                        help="auto (default) or an integer")
    p_stop.add_argument("--batch", default=None, help="default nu:0.5")
    p_stop.add_argument("--growth", type=float, default=None, help="default 0.10")
    p_stop.add_argument("--nmax", type=int, default=None, help="default 10^8")
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


def _require_pd(est) -> None:
    if not est.is_pd:
        raise NotPositiveDefinite(_NOT_PD_MSG)


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
    try:
        rep = ess_report(chain, BatchPolicy.parse(args.batch))
    except NotPositiveDefinite:
        raise NotPositiveDefinite(_NOT_PD_MSG) from None
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
    _require_pd(sig)
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


_STOP_DEFAULTS = {
    "rule": "relative_sd",
    "alpha": 0.05,
    "nstar": "auto",
    "batch": "nu:0.5",
    "growth": 0.10,
    "nmax": 10**8,
}


def _flag(args, name: str):
    value = getattr(args, name)
    return _STOP_DEFAULTS[name] if value is None else value


def _n_star(nstar: str, p: int, alpha: float, eps: float, policy) -> int:
    if nstar == "auto":
        return default_nstar(p, alpha, eps, policy)
    try:
        return int(nstar)
    except ValueError:
        raise ConfigError("--nstar must be an integer or auto") from None


def _stop_config(args, p: int) -> StoppingConfig:
    if args.eps is None:
        raise ConfigError("stop needs --eps")
    alpha = _flag(args, "alpha")
    policy = BatchPolicy.parse(_flag(args, "batch"))
    return StoppingConfig(
        epsilon=args.eps,
        alpha=alpha,
        n_star=_n_star(_flag(args, "nstar"), p, alpha, args.eps, policy),
        batch_policy=policy,
        metric=_flag(args, "rule"),
        check_growth=_flag(args, "growth"),
        n_max=_flag(args, "nmax"),
    )


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
    if args.model is not None and args.input is not None:
        raise ConfigError("--model and --input are mutually exclusive")
    if args.model is not None:
        if args.seed is None:
            raise ConfigError("--model runs are randomized and require --seed")
        model = parse_model_spec(args.model)
        source = model.make_source(args.seed)
        config = _stop_config(args, model.p)
        result = run_sequential(source, None, config)
        _report_stop(result, model.p, args.json, {"model": args.model,
                                                  "seed": args.seed})
        return 0 if result.reason == "criterion_met" else 2
    if args.input is None:
        raise ConfigError("stop needs --model or --input")
    if args.resume is None:
        raise ConfigError("--input mode needs --resume <state file>")
    return _stop_resume(args)


# The JSON type of each state key, and of the read_prefix keys a call reads.
# read_prefix's rows_sha256 and rows_format are left out: a value that is
# not the cache's digest or this call's --format only means a full parse.
_STATE_KEYS = {
    "epsilon": "a number", "alpha": "a number", "n_star": "an integer",
    "metric": "a string", "batch": "a string", "check_growth": "a number",
    "n_max": "an integer", "next_checkpoint": "an integer",
    "done": "true or false", "read_prefix": "an object",
}
_READ_PREFIX_KEYS = {"bytes": "an integer", "sha256": "a string"}
_JSON_TYPES = {"a number": (int, float), "an integer": int, "a string": str,
               "true or false": bool, "an object": dict}


def _check_keys(path: str, obj: dict, keys: dict, prefix: str = "") -> None:
    """Refuse a state file with a key missing or of the wrong JSON type."""
    for key, kind in keys.items():
        if key not in obj:
            raise ConfigError(f"state file {path} is missing key "
                              f"{prefix + key!r}; delete it to start over")
        value = obj[key]
        if (not isinstance(value, _JSON_TYPES[kind])
                or isinstance(value, bool) != (kind == "true or false")):
            raise ConfigError(f"state file {path} has {prefix}{key} = "
                              f"{json.dumps(value)}, not {kind}; "
                              "delete it to start over")


def _written_rows(path: str) -> bytes:
    """The complete lines of a chain file another process may be appending to.

    An unterminated last line may be a number cut short ("0.12" of
    "0.1234"), so it counts as not yet written.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw[: raw.rfind(b"\n") + 1]


def _pin_read_prefix(written: bytes, pinned) -> dict:
    """Byte length and SHA-256 of the lines read, checked against the last pin.

    A file that no longer begins with the pinned bytes (pinned is None on
    the first call) had checked rows rewritten, say by a sampler
    restarted with another seed, or cut.
    """
    view = memoryview(written)
    size = 0 if pinned is None else pinned["bytes"]
    digest = hashlib.sha256(view[:size])
    if pinned is not None and (len(view) < size
                               or digest.hexdigest() != pinned["sha256"]):
        raise ConfigError("rows checked by an earlier call were rewritten or "
                          "truncated; delete the state file to start over")
    digest.update(view[size:])
    return {"bytes": len(view), "sha256": digest.hexdigest()}


def _reject_conflicts(args, state: dict, p: int) -> None:
    """Refuse every passed rule flag that disagrees with the pinned state."""
    pinned = [
        ("--eps", "epsilon", args.eps, state["epsilon"]),
        ("--alpha", "alpha", args.alpha, state["alpha"]),
        ("--rule", "metric", args.rule, state["metric"]),
        ("--growth", "check_growth", args.growth, state["check_growth"]),
        ("--nmax", "n_max", args.nmax, state["n_max"]),
    ]
    if args.batch is not None:
        pinned.append(("--batch", "batch", BatchPolicy.parse(args.batch),
                       BatchPolicy.parse(state["batch"])))
    if args.nstar is not None:
        n_star = _n_star(args.nstar, p, state["alpha"], state["epsilon"],
                         BatchPolicy.parse(state["batch"]))
        pinned.append(("--nstar", "n_star", n_star, state["n_star"]))
    for flag, key, given, saved in pinned:
        if given is not None and given != saved:
            raise ConfigError(f"state file pins {key}; rerun without {flag} "
                              "or delete the state file")


def _replace_file(path: str, write, mode: str = "w") -> None:
    """Replace path atomically: a crash leaves the old file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_state(path: str, state: dict) -> None:
    def dump(fh):
        json.dump(state, fh, indent=2)
        fh.write("\n")

    _replace_file(path, dump)


def _write_row_cache(path: str, rows: np.ndarray) -> str:
    """Replace the row cache atomically and return its SHA-256."""
    buf = io.BytesIO()
    np.save(buf, rows, allow_pickle=False)
    _replace_file(path, lambda fh: fh.write(buf.getbuffer()), "wb")
    return hashlib.sha256(buf.getbuffer()).hexdigest()


def _read_row_cache(path: str, sha256) -> np.ndarray | None:
    """The cached rows if the cache's SHA-256 is the pinned one, else None."""
    if sha256 is None:
        return None
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    if hashlib.sha256(raw).hexdigest() != sha256:
        return None
    return np.load(io.BytesIO(raw), allow_pickle=False)


def _resume_rows(written: bytes, pinned: dict, cache_path: str,
                 format: str) -> ChainMatrix:
    """The chain in written, parsing only the bytes past the pinned prefix.

    The row cache holds the rows of the pinned prefix as read in the
    pinned format. A missing cache, one whose SHA-256 is not the pinned
    one, another --format, or new bytes the fast parser cannot read mean
    a full parse: it gives the rows, or raises load_chain's error with
    its absolute line number.
    """
    cached = None
    if pinned.get("rows_format") == format:
        cached = _read_row_cache(cache_path, pinned.get("rows_sha256"))
    if cached is not None:
        new = parse_rows(written[pinned["bytes"]:], format, cached.shape[1])
        if new is not None:
            return ChainMatrix(np.concatenate([cached, new]))
    return load_chain(written, format=format)


def _stop_resume(args) -> int:
    """Checkpoint an externally grown chain file across invocations.

    The sidecar JSON pins the rule parameters and the next checkpoint,
    so repeated invocations walk the same grid no matter how much the
    user appends between calls. Each call runs the same checkpoint
    loop as run_sequential, from the saved checkpoint up to the rows
    the file holds.
    """
    written = _written_rows(args.input)
    cache_path = f"{args.resume}.rows.npy"
    if os.path.exists(args.resume):
        with open(args.resume, "rb") as fh:
            try:
                state = json.loads(fh.read())
            except ValueError:
                state = None
        if not isinstance(state, dict):
            raise ConfigError(f"state file {args.resume} is not a JSON object; "
                              "delete it to start over")
        _check_keys(args.resume, state, _STATE_KEYS)
        _check_keys(args.resume, state["read_prefix"], _READ_PREFIX_KEYS,
                    "read_prefix.")
        read_prefix = _pin_read_prefix(written, state["read_prefix"])
        chain = _resume_rows(written, state["read_prefix"], cache_path, args.format)
        _reject_conflicts(args, state, chain.p)
        if state["done"]:
            print("state file marks this run as finished", file=sys.stderr)
            return 0
        batch_str = state["batch"]
        config = StoppingConfig(
            epsilon=state["epsilon"],
            alpha=state["alpha"],
            n_star=state["n_star"],
            batch_policy=BatchPolicy.parse(batch_str),
            metric=state["metric"],
            check_growth=state["check_growth"],
            n_max=state["n_max"],
        )
        start = state["next_checkpoint"]
    else:
        chain = load_chain(written, format=args.format)
        batch_str = _flag(args, "batch")
        config = _stop_config(args, chain.p)
        start = None
        read_prefix = _pin_read_prefix(written, None)
    run = drive_checkpoints(FileChainSource(chain), None, config,
                            start=start, available=chain.n)
    # The cache goes first: a crash before the state write leaves a cache
    # whose SHA-256 is not the pinned one, and the next call rebuilds it.
    read_prefix["rows_sha256"] = _write_row_cache(cache_path, chain.data)
    read_prefix["rows_format"] = args.format
    _write_state(args.resume, {
        "epsilon": config.epsilon,
        "alpha": config.alpha,
        "n_star": config.n_star,
        "metric": config.metric,
        "batch": batch_str,
        "check_growth": config.check_growth,
        "n_max": config.n_max,
        "next_checkpoint": run.next_checkpoint,
        "done": run.result is not None,
        "read_prefix": read_prefix,
    })
    if run.result is None:
        payload = {"command": "stop", "status": "continue",
                   "next_checkpoint": run.next_checkpoint, "n_available": chain.n}
        _emit(payload, args.json, [
            "criterion not yet met",
            f"extend the chain to at least {run.next_checkpoint} rows and rerun",
        ])
        return 0
    _report_stop(run.result, chain.p, args.json, {"input": args.input})
    return 0 if run.result.reason == "criterion_met" else 2


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
    except _NUMERIC_ERRORS as exc:
        print(f"mcstop: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
