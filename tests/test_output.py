"""CSV rendering helpers."""

import math

import numpy as np

from afcsim.output import TRACE_HEADER, format_value, trace_rows, write_csv
from afcsim.propagation import TimeSignal


class TestFormatValue:
    def test_bools_render_lowercase(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_floats_round_trip(self):
        for value in (0.1, 1.0 / 3.0, 2.5e-17, np.float64(0.1)):
            assert float(format_value(value)) == value

    def test_other_types_pass_through(self):
        assert format_value(3) == "3"
        assert format_value("ok") == "ok"


class TestWriteCsv:
    def test_writes_header_and_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        count = write_csv(path, ("a", "b"), [(1, True), (2.5, "x")])
        assert count == 2
        lines = path.read_text().splitlines()
        assert lines == ["a,b", "1,true", "2.5,x"]

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv(path, ("a",), []) == 0
        assert path.read_text() == "a\n"


class TestTraceRows:
    def test_window_and_normalisation(self):
        times = np.arange(-4.0, 18.0, 2.0)
        values = np.full(times.size, 2.0 + 0.0j)
        signal = TimeSignal(times=times, values=values)
        rows = trace_rows(signal, reference=8.0, lo=-1.0, hi=5.0)
        # delays -1 T .. 5 T with T = pi keep t in [-pi, 5 pi)
        assert [row[0] for row in rows] == [t / math.pi for t in times[1:-1]]
        assert all(row[1] == 2.0 and row[2] == 0.0 for row in rows)
        assert all(row[3] == 0.5 for row in rows)
        assert len(TRACE_HEADER) == len(rows[0])
