import numpy as np
import pytest

from spintrap import trace as trace_module
from spintrap.trace import CsvFormatError, SignalTrace, read_trace_csv, write_trace_csv


def _trace(**kwargs):
    return SignalTrace("tau", [1e-6, 2e-6, 3e-6], [0.5, 0.25, 0.125], **kwargs)


def _write(trace, path):
    """Write ``trace``'s columns with its meta, axis kind and units."""
    write_trace_csv(path, trace.x, trace.y, {**trace.meta, "axis_kind": trace.axis_kind, "units": trace.units})


class TestColumns:
    def test_columns_are_read_only_float64(self):
        trace = _trace(y_stderr=[1, 2, 3])
        for column in (trace.x, trace.y, trace.y_stderr):
            assert isinstance(column, np.ndarray) and column.dtype == np.float64
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_y_stderr_defaults_to_none(self):
        assert _trace().y_stderr is None

    def test_caller_array_is_copied_not_frozen(self):
        x, y, se = np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([0.1, 0.2])
        trace = SignalTrace("time", x, y, y_stderr=se)
        x[0], y[0], se[0] = -1.0, -2.0, -3.0
        assert x.flags.writeable and y.flags.writeable and se.flags.writeable
        assert trace.x.tolist() == [0.0, 1.0]
        assert trace.y.tolist() == [2.0, 3.0]
        assert trace.y_stderr.tolist() == [0.1, 0.2]
        assert not any(np.shares_memory(a, b) for a, b in ((x, trace.x), (y, trace.y), (se, trace.y_stderr)))

    def test_replace_shares_the_columns(self):
        trace = _trace(y_stderr=[1, 2, 3])
        other = trace.replace(meta={"config_hash": "0"})
        for name in ("x", "y", "y_stderr"):
            assert np.shares_memory(getattr(other, name), getattr(trace, name))

    def test_frozen_view_or_other_dtype_is_copied(self):
        # only a read-only float64 array that owns its data is shared
        view, ints = np.array([0.0, 1.0, 2.0])[:2], np.array([0, 1])
        for column in (view, ints):
            column.flags.writeable = False
            trace = SignalTrace("time", column, column)
            assert not np.shares_memory(trace.x, column) and trace.x.dtype == np.float64

    @pytest.mark.parametrize("y_stderr", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], []])
    def test_y_stderr_length_must_match_x(self, y_stderr):
        with pytest.raises(ValueError, match="len\\(y_stderr\\)"):
            _trace(y_stderr=y_stderr)

    def test_length_and_order_checks(self):
        with pytest.raises(ValueError, match="len\\(x\\)"):
            SignalTrace("time", [0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            SignalTrace("time", [0.0, 0.0], [1.0, 2.0])


class TestCsvRoundTrip:
    def test_full_precision_values_survive_bit_for_bit(self, tmp_path):
        x = np.array([5e-324, 0.1, 1 / 3, 1.0])
        y = np.array([-0.0, 1 / 3, 0.1, 5e-324])
        path = str(tmp_path / "t.csv")
        _write(SignalTrace("time", x, y), path)
        back = read_trace_csv(path)
        assert back.x.tobytes() == x.tobytes()
        assert back.y.tobytes() == y.tobytes()  # keeps the sign of -0.0

    def test_rows_across_write_chunks(self, tmp_path):
        """The writer formats the rows in chunks; a trace that ends one row
        past two full chunks is written row for row, each at 17 digits, and
        columns of Python floats are written as the same values in arrays."""
        n = 2 * trace_module._CHUNK_ROWS + 1
        rng = np.random.default_rng(7)
        x, y = np.cumsum(rng.uniform(0.1, 1.0, n)), rng.standard_normal(n)
        path, from_lists = tmp_path / "long.csv", tmp_path / "lists.csv"
        _write(SignalTrace("time", x, y), str(path))
        rows = path.read_text().split("x,y\n", 1)[1]
        assert rows == "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x.tolist(), y.tolist()))
        write_trace_csv(str(from_lists), x.tolist(), y.tolist(), {"axis_kind": "time", "units": "dimensionless"})
        assert from_lists.read_text() == path.read_text()

    def test_y_stderr_is_not_written(self, tmp_path):
        path = tmp_path / "t.csv"
        _write(_trace(y_stderr=[0.01, 0.02, 0.03]), str(path))
        text = path.read_text()
        assert "y_stderr" not in text
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows == ["x,y", "9.9999999999999995e-07,0.5", "1.9999999999999999e-06,0.25",
                        "3.0000000000000001e-06,0.125"]
        assert read_trace_csv(str(path)).y_stderr is None


class TestCsvErrors:
    def test_x_order_error_names_the_file_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# config_hash=a\nx,y\n1,2\n2,3\n# comment\n3,4\n3,5\n")
        with pytest.raises(CsvFormatError, match="^row 7: x values not strictly increasing$"):
            read_trace_csv(str(path))
