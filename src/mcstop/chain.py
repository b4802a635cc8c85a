"""Data model for Monte Carlo output and file ingestion.

A ChainMatrix is an ordered n-by-p matrix of draws; row t is the t-th
retained draw of the transformed output. Row order is simulation order
and estimators downstream are order sensitive, so the matrix is frozen
after construction. SpareRows keeps one row buffer per p for reuse by
the checkpoint engine, the reference estimate and the chain sources.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, Optional, Union

import numpy as np

from .errors import DomainError, EmptyInput, ParseError


@dataclass(frozen=True)
class ChainMatrix:
    """Ordered matrix of output draws; immutable after construction."""

    data: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DomainError(f"chain data must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyInput("chain must have at least one row and one column")
        if not np.isfinite(arr).all():
            raise DomainError("chain contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MeanVector:
    """A length-p vector of means, paired with the chain dimension."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise DomainError("mean vector must have at least one entry")
        if not np.isfinite(arr).all():
            raise DomainError("mean vector contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def p(self) -> int:
        return self.values.size


# The largest buffer a SpareRows keeps. The longest chains of the
# acceptance studies (criterion 8's ubm_bonferroni decisions, about 1.1 M
# rows of p = 5 in buffers doubled to 2.1 M rows, 84 MB) fit; a spare
# never pins more than this per p.
SPARE_BYTES = 2**27


class SpareRows:
    """One spare (rows, p) float64 buffer per p, kept for the next user.

    glibc hands large freed blocks back to the system, so a buffer
    allocated afresh for every decision faults its pages in again each
    time. A user that is done with its buffer gives it back, and the
    next user of the same p takes it, contents and all: it must write
    every entry before reading it. give keeps the latest buffer of at
    most SPARE_BYTES; take empties the slot, so no two users share one.

    The pools keep their buffers until the process ends. At most they
    hold, per p used, one buffer of at most SPARE_BYTES in each of the
    two row pools (the checkpoint engine's, which the final estimate
    borrows, and the chain sources'), plus 3·4096·p·8 bytes of VAR(1)
    block scratch.
    """

    def __init__(self):
        self._slots = {}

    def take(self, p: int) -> Optional[np.ndarray]:
        return self._slots.pop(p, None)

    def give(self, buf: np.ndarray) -> None:
        if buf.nbytes <= SPARE_BYTES:
            self._slots[buf.shape[1]] = buf


def _decimal(cell: str):
    """The value of an ASCII decimal literal, or None.

    The grammar is [+-] digits [. digits] [(e|E) [+-] digits] (one side
    of the point may be empty), or inf / infinity / nan in any case,
    which _parse_cell rejects by line. That is float()'s grammar minus
    digit-group underscores ("1_0") and non-ASCII digits.
    """
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_cell(cell: str, line_no: int) -> float:
    v = _decimal(cell)
    if v is None:
        raise ParseError(
            f"non-numeric cell {cell!r} at line {line_no}", row=line_no
        )
    if math.isinf(v) or math.isnan(v):
        raise ParseError(
            f"cell {cell!r} at line {line_no} is not a finite double", row=line_no
        )
    return v


def _nonblank_lines(text: str) -> list:
    return list(filter(str.strip, text.splitlines()))


def _is_header(line: str, delim: str) -> bool:
    """Line 1 is a header iff every field on it fails numeric parsing.

    A mixed line is a corrupt data row, not a header.
    """
    return all(_decimal(c.strip()) is None for c in line.split(delim))


def _fast_rows(lines: list, delim: str, width: int) -> Optional[np.ndarray]:
    """The float64 rows of non-blank data lines, or None to walk them.

    NumPy's C text reader takes all the lines in one call. Like float(),
    it converts each whitespace-stripped cell with CPython's correctly
    rounded PyOS_string_to_double, so the values are float()'s bit for
    bit. The screens hold it to the per-line walk's grammar: ASCII lines
    without "_", width cells on every line, finite values. None means
    some line fails a screen or the reader; the walk settles which.
    """
    if not lines:
        return np.empty((0, width))
    if (not all(map(str.isascii, lines))
            or any(map(str.__contains__, lines, repeat("_")))):
        return None
    try:
        out = np.loadtxt(lines, dtype=np.float64, delimiter=delim,
                         comments=None, ndmin=2)
    except ValueError:
        return None
    return out if out.shape[1] == width and np.isfinite(out).all() else None


def _walk_rows(text: str, delim: str) -> np.ndarray:
    """Parse line by line; raises the first error with its line number."""
    rows: list[list[float]] = []
    width = None
    seen_first = False
    for i, ln in enumerate(text.splitlines(), start=1):
        if ln.strip() == "":
            continue
        cells = [c.strip() for c in ln.split(delim)]
        if not seen_first:
            seen_first = True
            if _is_header(ln, delim):
                continue
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"ragged row at line {i}: expected {width} fields, got {len(cells)}",
                row=i,
            )
        rows.append([_parse_cell(c, i) for c in cells])
    if not rows:
        raise EmptyInput("no data rows in chain input")
    return np.array(rows, dtype=np.float64)


def _utf8(raw: bytes) -> str:
    """raw decoded as UTF-8; ParseError names the line of the first bad byte."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; "x" counts a partial last line
        line_no = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(
            f"byte 0x{raw[exc.start]:02x} at line {line_no} is not UTF-8 text",
            row=line_no,
        ) from None


def _delimiter(format: str) -> str:
    if format not in ("csv", "tsv"):
        raise DomainError(f"format must be 'csv' or 'tsv', got {format!r}")
    return "," if format == "csv" else "\t"


def load_chain(source: Union[str, bytes, IO], format: str = "csv") -> ChainMatrix:
    """Read a chain from a delimited text stream.

    Parameters
    ----------
    source : path, bytes, or file-like object
        Rectangular numeric rows, one draw per line. A single header
        line is auto-detected: line 1 is a header iff every field on it
        fails numeric parsing (a mixed line is treated as corrupt data).
    format : {"csv", "tsv"}
        Field delimiter selection. No quoting support; the payload is
        numeric only.
    """
    delim = _delimiter(format)
    if isinstance(source, str):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    text = _utf8(raw)

    lines = _nonblank_lines(text)
    if lines and _is_header(lines[0], delim):
        del lines[0]
    data = _fast_rows(lines, delim, lines[0].count(delim) + 1) if lines else None
    if data is None:
        data = _walk_rows(text, delim)
    return ChainMatrix(data)


def parse_rows(raw: bytes, format: str, width: int) -> Optional[np.ndarray]:
    """The rows of header-less chain bytes, each width wide, or None.

    This is load_chain's fast path without header detection, for bytes
    that continue a file whose earlier lines were already read. None
    means the bytes are not UTF-8 or some line is not a row of width
    plain decimals; load_chain on the whole file then gives the rows or
    the error with its absolute line number.
    """
    delim = _delimiter(format)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return _fast_rows(_nonblank_lines(text), delim, width)


def column_means(chain: ChainMatrix) -> MeanVector:
    """Arithmetic mean of each column, the running estimate of the target."""
    return MeanVector(chain.data.mean(axis=0))
