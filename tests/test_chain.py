"""Chain container and file-loading behavior."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcstop.chain as chain_mod
from mcstop.chain import ChainMatrix, MeanVector, column_means, load_chain, parse_rows
from mcstop.errors import DomainError, EmptyInput, ParseError


# The per-line parser load_chain used before its vectorised pass, kept
# verbatim as the oracle for values and errors.
def _ref_decimal(cell: str):
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _ref_parse_cell(cell: str, line_no: int) -> float:
    v = _ref_decimal(cell)
    if v is None:
        raise ParseError(
            f"non-numeric cell {cell!r} at line {line_no}", row=line_no
        )
    if math.isinf(v) or math.isnan(v):
        raise ParseError(
            f"cell {cell!r} at line {line_no} is not a finite double", row=line_no
        )
    return v


def _ref_load_chain(raw: bytes, format: str = "csv") -> ChainMatrix:
    delim = "," if format == "csv" else "\t"
    text = raw.decode("utf-8")
    rows: list[list[float]] = []
    width = None
    seen_first = False
    for i, ln in enumerate(text.splitlines(), start=1):
        if ln.strip() == "":
            continue
        cells = [c.strip() for c in ln.split(delim)]
        if not seen_first:
            seen_first = True
            # Line 1 is a header iff every field fails numeric parse
            # (a mixed line is a corrupt data row, not a header).
            if all(_ref_decimal(c) is None for c in cells):
                continue
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"ragged row at line {i}: expected {width} fields, got {len(cells)}",
                row=i,
            )
        rows.append([_ref_parse_cell(c, i) for c in cells])

    if not rows:
        raise EmptyInput("no data rows in chain input")
    return ChainMatrix(np.array(rows, dtype=np.float64))


def _outcome(load, raw, fmt):
    """Bitwise rows on success, else (type, message, row) of the error."""
    try:
        data = load(raw, format=fmt).data
    except (ParseError, EmptyInput) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return "rows", data.shape, data.tobytes()


_BREAKS = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c"])
_SPECIAL_CELLS = st.sampled_from([
    "_", "1_0", "inf", "-Infinity", "nan", "1e999", "１", "1e٥", "", " ",
    " 2 ", "\x1f3", "\xa04", "β_1", "名前", "y_2"])
_HOSTILE_CELLS = st.one_of(
    st.text(alphabet="0123456789+-.eE", max_size=6),
    _SPECIAL_CELLS,
    _SPECIAL_CELLS,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_SEPARATORS = st.sampled_from([",", "\t", " "])


@st.composite
def _hostile_text(draw):
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            line = draw(st.sampled_from(["", " ", "\t", "  \t "]))
        else:
            sep = draw(_SEPARATORS)
            line = sep.join(draw(st.lists(_HOSTILE_CELLS, min_size=1, max_size=4)))
        parts.append(line + draw(_BREAKS))
    return "".join(parts)


@st.composite
def _mostly_valid_text(draw):
    """A rectangular file, maybe with a header, with at most one hostile edit."""
    fmt = draw(st.sampled_from(["csv", "tsv"]))
    delim = "," if fmt == "csv" else "\t"
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n * width, max_size=n * width))
    lines = [delim.join(repr(v) for v in cells[i * width:(i + 1) * width])
             for i in range(n)]
    if draw(st.booleans()):
        lines.insert(0, delim.join(draw(st.sampled_from(["β_1", "y_1", "x", "名前"]))
                                   for _ in range(width)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        cell = draw(_HOSTILE_CELLS)
        row = lines[i].split(delim)
        row[draw(st.integers(0, len(row) - 1))] = cell
        if draw(st.booleans()):
            row.append(cell)
        lines[i] = delim.join(row)
    brk = draw(_BREAKS)
    return fmt, brk.join(lines) + brk


class TestChainMatrix:
    def test_basic(self):
        ch = ChainMatrix(np.arange(6.0).reshape(3, 2))
        assert ch.n == 3 and ch.p == 2
        assert ch.data.dtype == np.float64

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            ChainMatrix(np.empty((0, 3)))
        with pytest.raises(EmptyInput):
            ChainMatrix(np.empty((3, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ChainMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            ChainMatrix(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DomainError):
            ChainMatrix(np.zeros(4))

    def test_immutable(self):
        ch = ChainMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ch.data[0, 0] = 5.0

    def test_int_input_coerced(self):
        ch = ChainMatrix(np.array([[1, 2], [3, 4]]))
        assert ch.data.dtype == np.float64


class TestLoadChain:
    def test_plain_csv(self, chain_file):
        path = chain_file([[1.0, 2.0], [3.0, 4.0]])
        ch = load_chain(path)
        assert ch.n == 2 and ch.p == 2
        np.testing.assert_array_equal(ch.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped_when_all_fields_nonnumeric(self, chain_file):
        path = chain_file(None, raw="a,b\n1,2\n3,4\n")
        ch = load_chain(path)
        assert ch.n == 2
        np.testing.assert_array_equal(ch.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_mixed_first_line_is_corrupt_data(self, chain_file):
        # "1,x": one numeric field, so not a header; the bad cell is an error
        path = chain_file(None, raw="1,x\n2,3\n")
        with pytest.raises(ParseError) as exc:
            load_chain(path)
        assert exc.value.row == 1

    def test_bad_cell_reports_line_number(self, chain_file):
        path = chain_file(None, raw="a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            load_chain(path)
        assert exc.value.row == 3

    def test_ragged_row(self, chain_file):
        path = chain_file(None, raw="1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            load_chain(path)
        assert exc.value.row == 2

    def test_empty_file(self, chain_file):
        path = chain_file(None, raw="")
        with pytest.raises(EmptyInput):
            load_chain(path)

    def test_header_only(self, chain_file):
        path = chain_file(None, raw="a,b\n")
        with pytest.raises(EmptyInput):
            load_chain(path)

    def test_overflow_literal_rejected(self, chain_file):
        path = chain_file(None, raw="1e999,2\n")
        with pytest.raises(ParseError) as exc:
            load_chain(path)
        assert exc.value.row == 1

    def test_nan_literal_rejected(self, chain_file):
        path = chain_file(None, raw="nan,2\n")
        with pytest.raises(ParseError):
            load_chain(path)

    def test_underscore_digits_rejected(self, chain_file):
        # float() reads "1_0" as 10.0; a chain file holds plain decimals
        path = chain_file(None, raw="1_0,2\n")
        with pytest.raises(ParseError) as exc:
            load_chain(path)
        assert exc.value.row == 1

    @pytest.mark.parametrize("cell", ["１", "١.5", "1e٥"])
    def test_non_ascii_digits_rejected(self, cell):
        with pytest.raises(ParseError) as exc:
            load_chain(f"1,2\n3,{cell}\n".encode("utf-8"))
        assert exc.value.row == 2

    @pytest.mark.parametrize("raw,row", [
        (b"1,2\n\xff,4\n", 2),
        (b"\xfe,b\n1,2\n", 1),
        (b"a,b\r\n1,2\r\n\r\n3,4\xc3\n", 4),
        (b"1,2\n3,4\n5,\x80", 3),
    ])
    def test_non_utf8_bytes_name_their_line(self, raw, row):
        with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
            load_chain(raw)
        assert exc.value.row == row
        assert f"at line {row} " in str(exc.value)

    def test_non_finite_first_line_is_data_not_header(self, chain_file):
        path = chain_file(None, raw="inf,-Infinity\n1,2\n")
        with pytest.raises(ParseError, match="not a finite double") as exc:
            load_chain(path)
        assert exc.value.row == 1

    def test_decimal_forms_accepted(self, chain_file):
        cells = ["-1", "+2.5", ".5", "5.", "1e3", "-2.5E-02", "7e+1", "-0"]
        ch = load_chain(chain_file(None, raw=",".join(cells) + "\n"))
        np.testing.assert_array_equal(ch.data[0], [float(c) for c in cells])

    def test_tsv(self, chain_file):
        path = chain_file(None, raw="1\t2\n3\t4\n", name="chain.tsv")
        ch = load_chain(path, format="tsv")
        assert ch.p == 2

    def test_bytes_source(self):
        ch = load_chain(b"1,2\n3,4\n")
        assert ch.n == 2

    def test_file_like_source(self):
        ch = load_chain(io.StringIO("5,6\n7,8\n"))
        np.testing.assert_array_equal(ch.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_blank_lines_skipped(self, chain_file):
        path = chain_file(None, raw="1,2\n\n3,4\n\n")
        assert load_chain(path).n == 2

    def test_unknown_format(self, chain_file):
        path = chain_file([[1.0]])
        with pytest.raises(DomainError):
            load_chain(path, format="parquet")

    def test_round_trip_preserves_values(self, chain_file, rng):
        x = rng.standard_normal((11, 3))
        path = chain_file(x)
        np.testing.assert_array_equal(load_chain(path).data, x)


class TestLoadChainMatchesReference:
    """load_chain gives the per-line parser's rows bitwise, or its error."""

    @settings(max_examples=400, deadline=None)
    @given(text=_hostile_text(), fmt=st.sampled_from(["csv", "tsv"]))
    def test_hostile_text(self, text, fmt):
        raw = text.encode("utf-8")
        assert _outcome(load_chain, raw, fmt) == _outcome(_ref_load_chain, raw, fmt)

    @settings(max_examples=400, deadline=None)
    @given(case=_mostly_valid_text())
    def test_mostly_valid_text(self, case):
        fmt, text = case
        raw = text.encode("utf-8")
        assert _outcome(load_chain, raw, fmt) == _outcome(_ref_load_chain, raw, fmt)

    @pytest.mark.parametrize("text", [
        "\x1f1,2\n3,4\x1f\n",         # str.strip() drops \x1f; float() does not
        "1,\xa02\n3,4\n",              # non-ASCII padding around a valid cell
        "x_1,y\n1,2\n",                # header with "_" on the fast path
        "1,2\n\n  \n3,4\r\n5,6\x0c7,8\n",
    ])
    def test_edge_texts(self, text):
        raw = text.encode("utf-8")
        assert _outcome(load_chain, raw, "csv") == _outcome(_ref_load_chain, raw, "csv")

    def test_rows_past_a_chunk(self, rng):
        x = rng.standard_normal((2 * chain_mod._CHUNK_LINES + 5, 3))
        buf = io.StringIO()
        np.savetxt(buf, x, fmt="%.17g", delimiter=",")
        lines = buf.getvalue().splitlines()
        raw = ("a,b,c\n" + "\n".join(lines) + "\n").encode()
        assert load_chain(raw).data.tobytes() == x.tobytes()
        lines[-3] = "1,2,oops"
        bad = ("a,b,c\n" + "\n".join(lines) + "\n").encode()
        assert _outcome(load_chain, bad, "csv") == _outcome(_ref_load_chain, bad, "csv")

    def test_header_keeps_the_fast_path(self, monkeypatch, rng):
        calls = []
        for name in ("_decimal", "_parse_cell"):
            real = getattr(chain_mod, name)

            def spy(*a, _real=real, _name=name):
                calls.append(_name)
                return _real(*a)

            monkeypatch.setattr(chain_mod, name, spy)
        x = rng.standard_normal((1000, 2))
        body = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in x)
        ch = load_chain(f"β_1,β_2\n{body}\n".encode("utf-8"))
        assert ch.data.tobytes() == x.tobytes()
        assert len(calls) <= 2

    @settings(max_examples=200, deadline=None)
    @given(case=_mostly_valid_text(), cut=st.integers(0, 40))
    def test_parse_rows_continues_a_prefix(self, case, cut):
        """parse_rows on the bytes past a line break gives load_chain's later rows."""
        fmt, text = case
        raw = text.encode("utf-8")
        lines = raw.splitlines(keepends=True)
        head = b"".join(lines[:max(1, min(cut, len(lines) - 1))])
        try:
            whole = load_chain(raw, format=fmt).data
            first = load_chain(head, format=fmt).data
        except (ParseError, EmptyInput):
            return
        tail = parse_rows(raw[len(head):], fmt, whole.shape[1])
        if tail is not None:
            assert np.concatenate([first, tail]).tobytes() == whole.tobytes()


class TestColumnMeans:
    def test_values(self):
        ch = ChainMatrix(np.array([[1.0, 10.0], [3.0, 30.0]]))
        mv = column_means(ch)
        assert isinstance(mv, MeanVector)
        np.testing.assert_allclose(mv.values, [2.0, 20.0])
        assert mv.p == 2

    def test_matches_numpy(self, rng):
        x = rng.standard_normal((57, 4))
        np.testing.assert_array_equal(
            column_means(ChainMatrix(x)).values, x.mean(axis=0)
        )
