"""Chain container and file-loading behavior."""
import io

import numpy as np
import pytest

from mcstop.chain import ChainMatrix, MeanVector, column_means, load_chain
from mcstop.errors import DomainError, EmptyInput, ParseError


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
