"""Parameter sweeps and optimum finding for storage efficiency."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .combs import CombShape, CombSpec, MediumSpec
from .propagation import (
    DEFAULT_SAMPLES,
    DEFAULT_SPAN_FACTOR,
    FrequencyGrid,
    PulseSpec,
    TransferModel,
)
from .protocols import recall
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


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-6,
    max_iter: int = 200,
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
    for _ in range(max_iter):
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

    name: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.name not in ("d_p", "finesse", "gamma"):
            raise ValueError(f"unknown sweep parameter {self.name!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ValueError("log scale needs positive endpoints")
        if self.stop <= self.start:
            raise ValueError("stop must exceed start")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRequest:
    axis: SweepAxis
    kind: SweepKind = SweepKind.FIRST_ECHO
    shape: CombShape = CombShape.SQUARE
    finesse: float = 5.0
    d_p: float = 10.0
    gamma: float = 0.0
    pair_count: int = 9
    k_max: int = 3
    refine: bool = True
    simulate: bool = False
    model: TransferModel = TransferModel.BROADENED
    harmonics: int | None = 2000
    sigma: float = 5.0
    span_factor: float = DEFAULT_SPAN_FACTOR
    samples: int = DEFAULT_SAMPLES
    oversample: int = 16


@dataclass(frozen=True)
class SweepRow:
    value: float
    efficiency: float
    intensities: tuple[float, ...]
    status: str


@dataclass
class SweepResult:
    request: SweepRequest
    rows: tuple[SweepRow, ...]
    best_value: float
    best_efficiency: float
    refined: bool


def _combination(request: SweepRequest, value: float) -> tuple[CombSpec, MediumSpec]:
    params = {
        "finesse": request.finesse,
        "gamma": request.gamma,
        "d_p": request.d_p,
    }
    params[request.axis.name] = value
    comb = CombSpec.from_finesse(
        request.shape,
        params["finesse"],
        pair_count=request.pair_count,
        gamma=params["gamma"],
    )
    return comb, MediumSpec(params["d_p"])


def _efficiency(request: SweepRequest, value: float, simulate: bool) -> float:
    """Recall efficiency at one sweep point, simulated or in closed form.

    The pulse and grid are built only for a simulation, so a closed
    sweep accepts any ``samples`` and ``span_factor``.
    """
    comb, medium = _combination(request, value)
    passes = 2 if request.kind is SweepKind.TWO_PASS else 1
    if not simulate:
        return recall(comb, medium, passes=passes, simulate=False).closed_efficiency
    pulse = PulseSpec(sigma=request.sigma)
    result = recall(
        comb,
        medium,
        passes=passes,
        pulse=pulse,
        grid=FrequencyGrid.for_pulse(pulse, request.span_factor, request.samples),
        model=request.model,
        harmonics=request.harmonics,
        k_max=request.k_max,
        oversample=request.oversample,
    )
    assert result.simulated_efficiency is not None
    return result.simulated_efficiency


def _echo_intensities(request: SweepRequest, value: float) -> tuple[float, ...]:
    """Closed-form intensities of echoes 1..k_max at this sweep point."""
    comb, medium = _combination(request, value)
    coeffs = closed_train(comb, medium, request.k_max)
    return tuple(float(coeffs.intensity(k)) for k in range(1, request.k_max + 1))


def sweep(request: SweepRequest) -> SweepResult:
    """Evaluate the efficiency along the axis, then refine the optimum.

    Each grid point is evaluated in closed form or by simulation per
    ``request.simulate``; failures are recorded per row rather than
    aborting the sweep.  Refinement brackets the best grid point and
    runs a golden-section search on the closed form (simulation values
    are too expensive to bracket tightly and follow the same trend).
    """
    rows = []
    for value in request.axis.values():
        try:
            efficiency = _efficiency(request, float(value), request.simulate)
            intensities = _echo_intensities(request, float(value))
            rows.append(SweepRow(float(value), efficiency, intensities, "ok"))
        except (ValueError, ZeroDivisionError) as exc:
            rows.append(SweepRow(float(value), math.nan, (), f"failed: {exc}"))
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
                lambda v: _efficiency(request, v, False), lo, hi
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
        comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
        out[i] = (
            finesse,
            optimal_depth(comb),
            ideal_limit_intensity(float(finesse)),
        )
    return out
