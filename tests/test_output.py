"""CSV rendering helpers."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afcsim.output import (
    _BLOCK_ROWS,
    TRACE_HEADER,
    format_value,
    trace_columns,
    write_csv,
)
from afcsim.propagation import TimeSignal


def reference_csv(path, header, columns):
    """The row-by-row writer: csv.writer with format_value per cell."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format_value(cell) for cell in row])


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


_TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r\'é'), max_size=6)
_FLOATS = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)
_CELLS = st.one_of(
    _FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    _TEXT,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
)
_ARRAYS = [
    (np.float64, _FLOATS),
    (np.float32, st.floats(width=32)),
    (np.int64, st.integers(-(2**62), 2**62)),
    (np.bool_, st.booleans()),
]


@st.composite
def _tables(draw):
    """Header and columns; cells repeat a short drawn pattern down each column."""
    rows = draw(
        st.one_of(
            st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
            st.integers(0, 5),
        )
    )
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    columns = []
    for _ in range(width):
        dtype, cells = draw(st.sampled_from(_ARRAYS + [(None, _CELLS)]))
        pattern = draw(st.lists(cells, min_size=1, max_size=8))
        if dtype is None:
            columns.append([pattern[i % len(pattern)] for i in range(rows)])
        else:
            columns.append(np.resize(np.array(pattern, dtype=dtype), rows))
    return header, columns


class TestWriteCsv:
    def test_writes_header_and_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        count = write_csv(path, ("a", "b"), [[1, 2.5], [True, "x"]])
        assert count == 2
        lines = path.read_text().splitlines()
        assert lines == ["a,b", "1,true", "2.5,x"]

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert write_csv(path, ("a",), [[]]) == 0
        assert path.read_text() == "a\n"

    def test_float_columns_use_shortest_repr(self, tmp_path):
        path = tmp_path / "floats.csv"
        values = np.array([0.1, -0.0, 5e-324, 1e16, math.nan, -math.inf])
        assert write_csv(path, ("x",), [values]) == values.size
        assert path.read_text().split("\n")[1:-1] == [
            "0.1", "-0.0", "5e-324", "1e+16", "nan", "-inf"
        ]

    def test_text_cells_are_quoted(self, tmp_path):
        path = tmp_path / "text.csv"
        write_csv(path, ("status", "n"), [["failed: a, b", 'say "x"'], [1, 2]])
        with path.open(newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["status", "n"], ["failed: a, b", "1"], ['say "x"', "2"]
            ]

    @pytest.mark.parametrize(
        ("header", "columns", "message"),
        [
            (("a", "b"), [[1]], "2 header names for 1 columns"),
            ((), [], "0 header names for 0 columns"),
            (("a", "b"), [[1, 2], [3]], "columns differ in length: 2, 1"),
        ],
    )
    def test_rejects_ragged_tables(self, tmp_path, header, columns, message):
        with pytest.raises(ValueError, match=message):
            write_csv(tmp_path / "bad.csv", header, columns)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(table=_tables())
    def test_matches_row_writer(self, tmp_path, table):
        header, columns = table
        rows = len(columns[0])
        assert write_csv(tmp_path / "columns.csv", header, columns) == rows
        reference_csv(tmp_path / "rows.csv", header, columns)
        assert (tmp_path / "columns.csv").read_bytes() == (
            tmp_path / "rows.csv"
        ).read_bytes()

    def test_memory_is_bounded_in_the_row_count(self, tmp_path):
        rows = 2**16
        columns = [np.linspace(-1.0, 1.0, rows) * (k + math.pi) for k in range(4)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "long.csv", ("a", "b", "c", "d"), columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole file is about 6 MB of text; one block is about 0.2 MB
        assert peak < 4 * 2**20


class TestTraceColumns:
    def test_window_and_normalisation(self):
        times = np.arange(-4.0, 18.0, 2.0)
        values = np.full(times.size, 2.0 + 0.0j)
        signal = TimeSignal(times=times, values=values)
        columns = trace_columns(signal, reference=8.0, lo=-1.0, hi=5.0)
        t_over_T, re_field, im_field, intensity = columns
        # delays -1 T .. 5 T with T = pi keep t in [-pi, 5 pi)
        assert t_over_T.tolist() == [t / math.pi for t in times[1:-1]]
        assert np.all(re_field == 2.0) and np.all(im_field == 0.0)
        assert np.all(intensity == 0.5)
        assert len(TRACE_HEADER) == len(columns)

    def test_intensity_rounds_as_scalar_abs_squared(self):
        rng = np.random.default_rng(7)
        size = 20000
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (2, size))
        values = rng.standard_normal(size) * scale[0] + 1j * (
            rng.standard_normal(size) * scale[1]
        )
        signal = TimeSignal(times=np.linspace(0.0, 1.0, size), values=values)
        reference = 0.37
        intensity = trace_columns(signal, reference, 0.0, 1.0)[3]
        expected = [abs(v) ** 2 / reference for v in values]
        assert intensity.tolist() == expected
