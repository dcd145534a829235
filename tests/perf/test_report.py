"""Table rendering and duration formatting of the benchmark harness."""

import pytest

from repro.util import format_seconds, format_table


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "seconds,want",
        [
            (2.5, "2.50 s"),
            (1.0, "1.00 s"),
            (0.0421, "42.1 ms"),
            (1e-3, "1.0 ms"),
            (3.5e-5, "35.0 us"),
            (1e-6, "1.0 us"),
            (5e-8, "50 ns"),
            (0.0, "0 ns"),
        ],
    )
    def test_unit_selection(self, seconds, want):
        assert format_seconds(seconds) == want

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            format_seconds(-1e-3)


class TestFormatTable:
    ROWS = [
        {"name": "alltoall", "ms": 1.25, "count": 3},
        {"name": "allreduce", "ms": 10.5, "count": 12},
    ]

    def test_header_separator_and_rows(self):
        out = format_table(self.ROWS)
        lines = out.splitlines()
        assert lines[0].split() == ["name", "ms", "count"]
        assert set(lines[1]) == {"-", " "}
        assert lines[2].split() == ["alltoall", "1.25", "3"]
        assert lines[3].split() == ["allreduce", "10.5", "12"]

    def test_columns_align(self):
        out = format_table(self.ROWS)
        widths = {len(line) for line in out.splitlines()}
        assert len(widths) == 1  # every line padded to the same width

    def test_title_prepended(self):
        out = format_table(self.ROWS, title="Fig. X")
        assert out.splitlines()[0] == "Fig. X"

    def test_column_selection_and_order(self):
        out = format_table(self.ROWS, columns=["count", "name"])
        lines = out.splitlines()
        assert lines[0].split() == ["count", "name"]
        assert "1.25" not in out

    def test_missing_cell_renders_empty(self):
        out = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert out.splitlines()[2].split() == ["1"]  # no b-cell on row 1

    def test_floatfmt_applies_to_floats_only(self):
        out = format_table([{"f": 0.123456, "i": 7}])
        assert "0.123" in out and "7" in out and "0.123456" not in out

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"
        assert format_table([], title="T") == "T\n(no rows)"
