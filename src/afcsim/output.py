"""Deterministic text output helpers shared by the CLI layers."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .combs import ECHO_DELAY

if TYPE_CHECKING:
    from .propagation import TimeSignal

__all__ = ["TRACE_HEADER", "format_value", "trace_rows", "write_csv"]


def format_value(value: object) -> str:
    """Render a cell; floats keep full round-trip precision."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write rows with a header line, returning the row count."""
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])
            count += 1
    return count


TRACE_HEADER = ("t_over_T", "re_field", "im_field", "intensity")


def trace_rows(
    signal: "TimeSignal",
    reference: float,
    lo: float = -1.0,
    hi: float = 5.0,
) -> list[tuple[float, float, float, float]]:
    """Trace restricted to ``[lo, hi)`` echo delays, intensity normalised."""
    mask = (signal.times >= lo * ECHO_DELAY) & (signal.times < hi * ECHO_DELAY)
    return [
        (
            float(t / ECHO_DELAY),
            float(v.real),
            float(v.imag),
            float(abs(v) ** 2 / reference),
        )
        for t, v in zip(signal.times[mask], signal.values[mask])
    ]
