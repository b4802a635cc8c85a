"""The resume protocol of `mcstop stop --input F --resume S`.

A call feeds the complete lines of F to a checkpoint walk of stopping.py;
an unterminated last line may still be being written and is not
counted. The state file S pins the rule: a passed flag that would change
it is refused. It also pins the length and SHA-256 of the lines read so
far, so a chain file whose checked rows were rewritten or truncated is
refused. The rows read so far are kept in a binary row cache,
S.rows.npy, pinned by its SHA-256, so a call parses only the lines
appended since the last and checks only the grid points past the cached
rows, which earlier calls checked. Without a valid cache it checks
again from n*: the verdicts there depend only on the rows, so they are
the same.

Writes, each replacing its file atomically through _replace_file, in
this order: the row cache, then the state file. A crash between them
leaves a cache whose SHA-256 is not the pinned one, which the next call
rebuilds. A refused call, or one on a finished state, writes neither.
"""
from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

from .chain import ChainMatrix, load_chain, parse_rows
from .errors import ConfigError
from .stopping import RULE_PARAMS, CheckpointWalk, StoppingConfig, rule_config, rule_value

# The JSON type of each state key, and of the read_prefix keys a call reads.
# read_prefix's rows_sha256 and rows_format are left out: a value that is
# not the cache's digest or this call's --format only means a full parse.
_STATE_KEYS = {**{key: kind for key, (_, _, kind) in RULE_PARAMS.items()},
               "done": "true or false", "read_prefix": "an object"}
_READ_PREFIX_KEYS = {"bytes": "an integer", "sha256": "a string"}
_JSON_TYPES = {"a number": (int, float), "an integer": int, "a string": str,
               "true or false": bool, "an object": dict}


def stop_rule(flags: dict, state: dict, p: int) -> tuple[dict, StoppingConfig]:
    """The rule's state values and its StoppingConfig.

    flags holds the text passed for each RULE_PARAMS key, None where no
    flag was passed. With no state, the passed flags over the defaults.
    With a state, its pinned values: each passed flag, put alone into
    them, must give the same StoppingConfig, so it must also be valid on
    its own, and the first in key order that does not is refused.
    """
    if not state:
        values = {key: rule_value(key, default if flags[key] is None else flags[key])
                  for key, (_, default, _) in RULE_PARAMS.items()}
        if values["epsilon"] is None:
            raise ConfigError("stop needs --eps")
        config = rule_config(values, p)
        return dict(values, n_star=config.n_star), config
    values = {key: state[key] for key in RULE_PARAMS}
    config = rule_config(values, p)
    for key, (dest, _, _) in RULE_PARAMS.items():
        given = flags[key]
        if given is not None and rule_config({**values, key: given}, p) != config:
            raise ConfigError(f"state file pins {key}; rerun without --{dest} "
                              "or delete the state file")
    return values, config


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


def _pin_read_prefix(written: bytes, pinned: dict) -> dict:
    """Byte length and SHA-256 of the lines read, checked against the last pin.

    A file that no longer begins with the pinned bytes (pinned is empty
    on the first call) had checked rows rewritten, say by a sampler
    restarted with another seed, or cut.
    """
    view = memoryview(written)
    size = pinned.get("bytes", 0)
    digest = hashlib.sha256(view[:size])
    if pinned and (len(view) < size or digest.hexdigest() != pinned["sha256"]):
        raise ConfigError("rows checked by an earlier call were rewritten or "
                          "truncated; delete the state file to start over")
    digest.update(view[size:])
    return {"bytes": len(view), "sha256": digest.hexdigest()}


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
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    if hashlib.sha256(raw).hexdigest() != sha256:
        return None
    return np.load(io.BytesIO(raw), allow_pickle=False)


def _read_state(path: str) -> dict:
    """The resume state at path, each key type-checked; {} if there is none."""
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        try:
            state = json.loads(fh.read())
        except ValueError:
            state = None
    if not isinstance(state, dict):
        raise ConfigError(f"state file {path} is not a JSON object; "
                          "delete it to start over")
    _check_keys(path, state, _STATE_KEYS)
    _check_keys(path, state["read_prefix"], _READ_PREFIX_KEYS, "read_prefix.")
    return state


def _resume_rows(written: bytes, pinned: dict, cache_path: str,
                 format: str) -> tuple[ChainMatrix, int]:
    """The chain in written and how many of its rows the row cache gave.

    The row cache holds the rows of the pinned prefix as read in the
    pinned format. No pin, a missing cache, one whose SHA-256 is not the
    pinned one, another --format, or new bytes the fast parser cannot
    read mean a full parse, and 0: it gives the rows, or raises
    load_chain's error with its absolute line number.
    """
    cached = None
    if pinned.get("rows_format") == format:
        cached = _read_row_cache(cache_path, pinned.get("rows_sha256"))
    if cached is not None:
        new = parse_rows(written[pinned["bytes"]:], format, cached.shape[1])
        if new is not None:
            return ChainMatrix(np.concatenate([cached, new])), len(cached)
    return load_chain(written, format=format), 0


def stop_resume(chain_path: str, state_path: str, format: str,
                flags: dict) -> tuple[CheckpointWalk | None, ChainMatrix]:
    """One call: its checkpoint walk (None on a finished state) and chain.

    The state pins the rule, so repeated calls walk one grid however
    much is appended between them; the first call, with no state yet,
    starts it. The walk is decided, or its next is the length the next
    check needs. flags is as for stop_rule.
    """
    written = _written_rows(chain_path)
    cache_path = f"{state_path}.rows.npy"
    state = _read_state(state_path)
    pinned = state.get("read_prefix", {})
    read_prefix = _pin_read_prefix(written, pinned)
    chain, checked = _resume_rows(written, pinned, cache_path, format)
    values, config = stop_rule(flags, state, chain.p)
    if state.get("done"):
        return None, chain
    walk = CheckpointWalk(None, config, chain.p, checked)
    walk.feed(chain.data)
    read_prefix["rows_sha256"] = _write_row_cache(cache_path, chain.data)
    read_prefix["rows_format"] = format
    _write_state(state_path, dict(values, done=walk.result is not None,
                                  read_prefix=read_prefix))
    return walk, chain
