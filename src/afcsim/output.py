"""Deterministic text output helpers shared by the CLI layers.

CSV files are written by column: each float64 array column is rendered
with the shortest round-trip ``repr`` of its values, every other cell
through :func:`format_value`, and the lines are joined and written in
blocks of a fixed number of rows, so memory stays bounded whatever the
table length.  Text cells are quoted as ``csv.writer`` quotes them
(minimal quoting, ``"\\n"`` line ends).
"""

from __future__ import annotations

import csv
import functools
import io
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, TextIO

import numpy as np

from .combs import ECHO_DELAY

if TYPE_CHECKING:
    from .propagation import TimeSignal

__all__ = ["TRACE_HEADER", "format_value", "trace_columns", "write_csv"]

# Rows rendered and written at a time: large enough that the per-block
# overhead vanishes, small enough that the rendered text stays small.
_BLOCK_ROWS = 2048


def format_value(value: object) -> str:
    """Render a cell; floats keep full round-trip precision."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@functools.lru_cache(maxsize=256)
def _quoted(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _cells(column: Sequence[object], start: int, stop: int) -> list[str]:
    part = column[start:stop]
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        # ``tolist`` yields Python floats, whose ``repr`` is the text
        # ``format_value`` gives each element.
        return list(map(repr, part.tolist()))
    return [_quoted(format_value(cell)) for cell in part]


def _write_lines(handle: TextIO, cells: list[list[str]]) -> None:
    """Write the lines of one block, given as columns of rendered cells."""
    if len(cells) == 1:
        # A row that is one empty field is written as "" so that the
        # line is not blank, as csv.writer does.
        cells = [[cell or '""' for cell in cells[0]]]
    handle.write("\n".join(map(",".join, zip(*cells))))
    handle.write("\n")


def write_csv(
    path: Path, header: Sequence[str], columns: Sequence[Sequence[object]]
) -> int:
    """Write equal-length columns under a header line; return the row count."""
    if len(columns) != len(header) or not header:
        raise ValueError(
            f"{len(header)} header names for {len(columns)} columns"
        )
    count = len(columns[0])
    if any(len(column) != count for column in columns):
        lengths = ", ".join(str(len(column)) for column in columns)
        raise ValueError(f"columns differ in length: {lengths}")
    with path.open("w", newline="") as handle:
        _write_lines(handle, [[_quoted(str(name))] for name in header])
        for start in range(0, count, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, count)
            _write_lines(handle, [_cells(c, start, stop) for c in columns])
    return count


TRACE_HEADER = ("t_over_T", "re_field", "im_field", "intensity")


def trace_columns(
    signal: "TimeSignal",
    reference: float,
    lo: float = -1.0,
    hi: float = 5.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trace restricted to ``[lo, hi)`` echo delays, intensity normalised.

    Returns the columns of :data:`TRACE_HEADER`.  The intensity is
    ``|v|**2 / reference`` computed as ``hypot`` then ``pow``, which
    rounds as the scalar ``abs(v) ** 2`` does; ``np.abs(v) ** 2`` can
    differ in the last place.
    """
    mask = (signal.times >= lo * ECHO_DELAY) & (signal.times < hi * ECHO_DELAY)
    values = signal.values[mask]
    magnitude = np.hypot(values.real, values.imag)
    return (
        signal.times[mask] / ECHO_DELAY,
        values.real,
        values.imag,
        np.float_power(magnitude, 2.0) / reference,
    )
