"""Parameter sweeps and optimum finding for storage efficiency."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .combs import MediumSpec
from .propagation import Probe
from .protocols import RunSpec, recall
from .train import closed_train, ideal_limit_intensity, optimal_depth

__all__ = [
    "SweepKind",
    "SweepAxis",
    "SweepRequest",
    "SweepRow",
    "SweepResult",
    "golden_section_max",
    "sweep",
    "optimal_curve",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERATIONS = 200


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Maximise a unimodal function on ``[lo, hi]``.

    Plain golden-section search; returns the midpoint of the final
    bracket and the function value there.
    """
    if hi <= lo:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERATIONS):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


class SweepKind(str, enum.Enum):
    FIRST_ECHO = "first-echo"
    TWO_PASS = "two-pass"


@dataclass(frozen=True)
class SweepAxis:
    """Swept parameter: one of ``d_p``, ``finesse``, ``gamma``."""

    # The parameters a sweep can vary, and the spacings of its points.
    PARAMETERS: ClassVar[tuple[str, ...]] = ("d_p", "finesse", "gamma")
    SCALES: ClassVar[tuple[str, ...]] = ("linear", "log")

    name: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in self.PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.name!r}")
        for name in ("start", "stop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.steps < 2:
            raise ValueError(f"sweep_steps must be >= 2, got {self.steps}")
        if self.scale not in self.SCALES:
            choices = " or ".join(self.SCALES)
            raise ValueError(f"scale must be {choices}, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ValueError(
                "sweep_scale = log needs positive sweep_start and sweep_stop, "
                f"got {self.start} and {self.stop}"
            )
        if self.stop <= self.start:
            raise ValueError(
                "sweep_stop must exceed sweep_start, got "
                f"sweep_start = {self.start} and sweep_stop = {self.stop}"
            )

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True, kw_only=True)
class SweepRequest(RunSpec):
    """A run swept along ``axis``: each point replaces the axis's field."""

    axis: SweepAxis
    kind: SweepKind = SweepKind.FIRST_ECHO
    refine: bool = True
    simulate: bool = False


@dataclass(frozen=True)
class SweepRow:
    value: float
    efficiency: float
    intensities: tuple[float, ...]
    status: str


@dataclass
class SweepResult:
    """``request`` is the request as run, its ``k_max`` capped at 3."""

    request: SweepRequest
    rows: tuple[SweepRow, ...]
    best_value: float
    best_efficiency: float
    refined: bool


def _point(request: SweepRequest, value: float) -> SweepRequest:
    return replace(request, **{request.axis.name: value})


def _efficiency(
    point: SweepRequest,
    simulation: Callable[[], tuple[Probe, np.ndarray | None]] | None,
) -> float:
    """Recall efficiency at one sweep point, simulated or in closed form.

    ``simulation`` returns the sweep's probe and shared comb response
    (None if the points do not share one) for a simulation, and is None
    for the closed form, so a closed sweep accepts any ``samples`` and
    ``span_factor``.
    """
    passes = 2 if point.kind is SweepKind.TWO_PASS else 1
    if simulation is None:
        return recall(point, passes=passes, simulate=False).closed_efficiency
    probe, response = simulation()
    result = recall(point, passes=passes, probe=probe, response=response)
    assert result.simulated_efficiency is not None
    return result.simulated_efficiency


def _echo_intensities(point: SweepRequest) -> tuple[float, ...]:
    """Closed-form intensities of echoes 1..k_max at this sweep point."""
    coeffs = closed_train(point.comb(), MediumSpec(point.d_p), point.k_max)
    return tuple(float(coeffs.intensity(k)) for k in range(1, point.k_max + 1))


def _rows(request: SweepRequest) -> list[SweepRow]:
    """One row per axis value, a failed point recording its error.

    The probe and shared response are locals here, so they are freed
    when the rows are done: the error :func:`sweep` raises when every
    point failed does not keep them alive in its traceback.
    """
    simulation = None
    if request.simulate:

        @functools.cache
        def simulation() -> tuple[Probe, np.ndarray | None]:
            probe = request.probe()
            # along d_p every point has the same comb on the same grid
            shared = request.axis.name == "d_p"
            return probe, request.response(probe.grid) if shared else None

    rows = []
    for value in request.axis.values():
        point = _point(request, float(value))
        try:
            efficiency = _efficiency(point, simulation)
            intensities = _echo_intensities(point)
            rows.append(SweepRow(float(value), efficiency, intensities, "ok"))
        except (ValueError, ZeroDivisionError) as exc:
            rows.append(SweepRow(float(value), math.nan, (), f"failed: {exc}"))
    return rows


def sweep(request: SweepRequest) -> SweepResult:
    """Evaluate the efficiency along the axis, then refine the optimum.

    Every point reads echoes ``1 .. min(k_max, 3)``; a ``k_max`` below 1
    is rejected before any point runs.  Each grid point is evaluated in
    closed form or by simulation per ``request.simulate``; failures are
    recorded per row rather than aborting the sweep.  A simulated sweep
    builds one :class:`Probe`, at its first point, and every point reads
    that probe's spectrum and input peak.  A sweep over ``d_p`` also
    builds the comb's response on the probe's grid there, once, and
    every point passes it to :func:`recall`; along any other axis each
    point computes its own.  A probe or response that cannot be built
    fails each row with the same message.  Refinement brackets the best
    grid point and runs a golden-section search on the closed form
    (simulation values are too expensive to bracket tightly and follow
    the same trend).
    """
    if request.k_max < 1:
        raise ValueError(
            f"k_max must be >= 1 to read the first echo, got {request.k_max}"
        )
    request = replace(request, k_max=min(request.k_max, 3))
    rows = _rows(request)
    ok = [r for r in rows if r.status == "ok"]
    if not ok:
        first = rows[0]
        raise ValueError(
            f"every sweep point failed; at {request.axis.name} = "
            f"{first.value:.6g}: {first.status.removeprefix('failed: ')}"
        )
    best = max(ok, key=lambda r: r.efficiency)
    best_value, best_efficiency = best.value, best.efficiency
    refined = False
    if request.refine:
        values = [r.value for r in ok]
        i = values.index(best.value)
        if 0 < i < len(ok) - 1:
            lo, hi = values[i - 1], values[i + 1]
            best_value, best_efficiency = golden_section_max(
                lambda v: _efficiency(_point(request, v), None), lo, hi
            )
            refined = True
    return SweepResult(
        request=request,
        rows=tuple(rows),
        best_value=best_value,
        best_efficiency=best_efficiency,
        refined=refined,
    )


def optimal_curve(finesse_values: np.ndarray | list[float]) -> np.ndarray:
    """Best single-pass recall of unbroadened square combs.

    Returns rows ``(finesse, optimal depth, intensity at the optimum)``;
    the depth column is exactly twice the finesse and the intensity
    approaches ``4 exp(-2)`` from below as the finesse grows.
    """
    finesse_values = np.asarray(finesse_values, dtype=float)
    out = np.empty((finesse_values.size, 3))
    for i, finesse in enumerate(finesse_values):
        comb = RunSpec(finesse=finesse).comb()
        out[i] = (
            finesse,
            optimal_depth(comb),
            ideal_limit_intensity(float(finesse)),
        )
    return out
