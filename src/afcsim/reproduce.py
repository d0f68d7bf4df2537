"""Canned reference runs with embedded pass/fail checks.

Each target recomputes one reference result (a response curve, an
efficiency figure, a simulated trace), writes the data as CSV and
compares scalar figures of merit against expected values pinned at
stated tolerances.  Targets take no configuration: they are fixed
regression points, runnable as ``afcsim reproduce <name>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .combs import CombShape, CombSpec, MediumSpec, population_difference
from .output import TRACE_HEADER, trace_rows, write_csv
from .propagation import (
    FrequencyGrid,
    PulseSpec,
    TransferModel,
    build_transfer,
    peak_in_window,
    transmit,
)
from .protocols import TimeBinQubit, recall, timebin_spectrum
from .susceptibility import (
    chi_square_series,
    epsilon_broadened,
    epsilon_peak_center,
    epsilon_window_center,
)
from .sweeps import optimal_curve
from .train import broadened_A_coefficients, closed_train, first_echo_intensity

__all__ = ["Check", "TargetReport", "TARGETS", "run_target"]


@dataclass(frozen=True)
class Check:
    label: str
    value: float
    expected: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and abs(self.value - self.expected) <= self.tol


@dataclass(frozen=True)
class TargetReport:
    name: str
    checks: tuple[Check, ...]
    files: tuple[Path, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _midgrid(lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform grid of cell midpoints; never lands on tooth edges."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _comb_profiles(out_dir: Path) -> TargetReport:
    nu = _midgrid(-3.0, 3.0, 2400)
    square = population_difference(
        CombSpec(CombShape.SQUARE, half_width=0.1), nu
    )
    lorentz = population_difference(
        CombSpec(CombShape.LORENTZIAN, half_width=0.1), nu
    )
    harmonic = population_difference(CombSpec(CombShape.HARMONIC), nu)
    path = out_dir / "comb-profiles.csv"
    write_csv(
        path,
        ("delta_over_nu0", "square", "lorentzian", "harmonic"),
        zip(nu, square, lorentz, harmonic),
    )
    checks = (
        Check("square duty cycle", float(square.mean()), 0.1, 2e-3),
        Check("square peak height", float(square.max()), 1.0, 0.0),
        Check("harmonic peak height", float(harmonic.max()), 1.0, 1e-4),
    )
    return TargetReport("comb-profiles", checks, (path,))


def _echo_vs_depth(out_dir: Path) -> TargetReport:
    depths = np.arange(0.25, 60.001, 0.25)
    columns = {}
    for finesse in (2.0, 5.0, 10.0):
        comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
        columns[finesse] = np.array(
            [first_echo_intensity(comb, MediumSpec(d)) for d in depths]
        )
    path = out_dir / "echo-vs-depth.csv"
    write_csv(
        path,
        ("d_p", "i1_finesse2", "i1_finesse5", "i1_finesse10"),
        zip(depths, columns[2.0], columns[5.0], columns[10.0]),
    )
    checks = []
    for finesse, best_d, best_i in (
        (2.0, 4.0, 0.219397),
        (5.0, 10.0, 0.473749),
        (10.0, 20.0, 0.523764),
    ):
        j = int(np.argmax(columns[finesse]))
        checks.append(
            Check(f"optimal depth (finesse {finesse:g})", float(depths[j]), best_d, 0.25)
        )
        checks.append(
            Check(
                f"peak first-echo intensity (finesse {finesse:g})",
                float(columns[finesse][j]),
                best_i,
                2e-3,
            )
        )
    return TargetReport("echo-vs-depth", tuple(checks), (path,))


def _optimal_recall(out_dir: Path) -> TargetReport:
    curve = optimal_curve(np.arange(2, 65, dtype=float))
    path = out_dir / "optimal-recall.csv"
    write_csv(path, ("finesse", "optimal_depth", "intensity"), curve)
    at32 = float(curve[curve[:, 0] == 32.0][0, 2])
    increasing = float(np.all(np.diff(curve[:, 2]) > 0.0))
    checks = (
        Check("intensity at finesse 32", at32, 0.54, 5e-3),
        Check("intensity increases with finesse", increasing, 1.0, 0.0),
    )
    return TargetReport("optimal-recall", checks, (path,))


def _broadened_response(
    name: str, delta: float, gamma: float, peak: float, window: float
) -> Callable[[Path], TargetReport]:
    def run(out_dir: Path) -> TargetReport:
        nu = _midgrid(-2.5, 2.5, 2000)
        packed = epsilon_broadened(nu, delta, gamma=gamma, pair_count=9)
        path = out_dir / f"{name}.csv"
        write_csv(
            path,
            ("nu_over_nu0", "absorption", "dispersion"),
            zip(nu, packed.real, packed.imag),
        )
        checks = (
            Check(
                "absorption at first tooth centre",
                epsilon_peak_center(delta, gamma=gamma, pair_count=9),
                peak,
                1e-3,
            ),
            Check(
                "residual absorption at window centre",
                epsilon_window_center(delta, gamma=gamma, pair_count=9),
                window,
                2e-5,
            ),
        )
        return TargetReport(name, checks, (path,))

    return run


def _harmonic_weights_table(out_dir: Path) -> TargetReport:
    deltas = np.arange(0.05, 0.451, 0.05)
    rows = []
    worst_a0 = 0.0
    worst_a1 = 0.0
    for delta in deltas:
        coeffs = broadened_A_coefficients(float(delta), gamma=0.01, pair_count=9)
        rows.append(
            (
                float(delta),
                coeffs.a0,
                coeffs.a1_absorption,
                coeffs.a1_full,
                coeffs.a1_closed,
            )
        )
        worst_a0 = max(worst_a0, abs(coeffs.a0 - delta))
        worst_a1 = max(worst_a1, abs(coeffs.a1_absorption / coeffs.a1_closed - 1.0))
    path = out_dir / "harmonic-weights.csv"
    write_csv(
        path,
        ("delta_over_nu0", "a0", "a1_absorption", "a1_full", "a1_closed"),
        rows,
    )
    checks = (
        Check("worst |a0 - duty cycle|", worst_a0, 0.0, 1e-3),
        Check("worst first-harmonic mismatch", worst_a1, 0.0, 1e-3),
    )
    return TargetReport("harmonic-weights", checks, (path,))


def _series_response(out_dir: Path) -> TargetReport:
    nu = _midgrid(-2.0, 2.0, 1600)
    truncated = chi_square_series(nu, 0.1, harmonics=2000)
    resummed = chi_square_series(nu, 0.1, harmonics=None)
    path = out_dir / "series-response.csv"
    write_csv(
        path,
        (
            "nu_over_nu0",
            "absorption_series",
            "dispersion_series",
            "absorption_resummed",
            "dispersion_resummed",
        ),
        zip(nu, truncated.real, truncated.imag, resummed.real, resummed.imag),
    )
    binary_dev = float(
        np.max(np.minimum(np.abs(resummed.real), np.abs(resummed.real - 1.0)))
    )
    checks = (
        Check("series duty cycle", float(truncated.real.mean()), 0.1, 1e-3),
        Check("resummed absorption is binary", binary_dev, 0.0, 1e-9),
    )
    return TargetReport("series-response", checks, (path,))


def _echo_train(
    name: str,
    finesse: float,
    d_p: float,
    gamma: float,
    dominant: int,
    compare_up_to: int,
) -> Callable[[Path], TargetReport]:
    """Simulated trace plus train, checked against the closed form."""

    def run(out_dir: Path) -> TargetReport:
        if gamma == 0.0:
            comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
            model, harmonics = TransferModel.IDEAL, None
        else:
            # Teeth must cover the simulation grid or the pulse wings
            # see bare line edges and the totals drift.
            comb = CombSpec.from_finesse(
                CombShape.SQUARE, finesse, pair_count=40, gamma=gamma
            )
            model, harmonics = TransferModel.BROADENED, None
        result = recall(
            comb, MediumSpec(d_p), model=model, harmonics=harmonics, k_max=3
        )
        signal, train = result.signal, result.train
        reference = train.reference_intensity
        closed = closed_train(comb, MediumSpec(d_p), 3)
        trace_path = out_dir / f"{name}.csv"
        write_csv(
            trace_path,
            TRACE_HEADER,
            trace_rows(signal, comb.delay_time, reference),
        )
        train_path = out_dir / f"{name}-train.csv"
        write_csv(
            train_path,
            ("k", "intensity", "closed_intensity", "arrival_over_T"),
            (
                (
                    e.index,
                    e.intensity,
                    closed.intensity(e.index),
                    "" if e.arrival is None else e.arrival / comb.delay_time,
                )
                for e in train.entries
            ),
        )
        checks = [
            Check(
                f"echo {k} intensity vs closed form (relative)",
                train.intensity(k) / closed.intensity(k) - 1.0,
                0.0,
                0.01,
            )
            for k in range(compare_up_to + 1)
        ]
        checks.append(
            Check(
                "dominant train index",
                float(int(np.argmax(train.intensities))),
                float(dominant),
                0.0,
            )
        )
        return TargetReport(name, tuple(checks), (trace_path, train_path))

    return run


def _depth_scan_closed(out_dir: Path) -> TargetReport:
    depths = np.arange(0.5, 50.001, 0.5)
    comb = CombSpec.from_finesse(CombShape.SQUARE, 5.0)
    rows = []
    for d in depths:
        coeffs = closed_train(comb, MediumSpec(float(d)), 3)
        rows.append((float(d),) + tuple(coeffs.intensity(k) for k in (1, 2, 3)))
    path = out_dir / "depth-scan.csv"
    write_csv(path, ("d_p", "i1", "i2", "i3"), rows)
    table = np.array(rows)
    checks = []
    for k, best_d, best_i in (
        (1, 10.0, 0.473749),
        (2, 25.0, 0.344954),
        (3, 42.0, 0.277899),
    ):
        j = int(np.argmax(table[:, k]))
        checks.append(Check(f"echo {k} optimal depth", float(table[j, 0]), best_d, 0.5))
        checks.append(Check(f"echo {k} peak intensity", float(table[j, k]), best_i, 2e-3))
    return TargetReport("depth-scan", tuple(checks), (path,))


def _timebin_pair(out_dir: Path) -> TargetReport:
    comb = CombSpec.from_finesse(CombShape.SQUARE, 5.0)
    medium = MediumSpec(10.0)
    period = comb.delay_time
    qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=0.4 * period, phi=0.7)
    grid = FrequencyGrid.for_pulse(PulseSpec(sigma=qubit.sigma))
    transfer = build_transfer(
        comb, medium, grid, TransferModel.IDEAL, harmonics=None
    )
    half = 0.5 * qubit.tau
    # The early input bin's peak is the reference, so c1 cancels and
    # the normalised recall compares directly with the echo efficiency.
    signal, reference = transmit(
        timebin_spectrum(qubit, grid), transfer, reference_window=(-half, half)
    )
    bins = {}
    for label, center in (
        ("prompt_early", 0.0),
        ("prompt_late", qubit.tau),
        ("delayed_early", period),
        ("delayed_late", period + qubit.tau),
    ):
        bins[label] = peak_in_window(signal, center - half, center + half)
    trace_path = out_dir / "timebin-pair.csv"
    write_csv(
        trace_path,
        TRACE_HEADER,
        trace_rows(signal, period, reference, -0.5, 2.0),
    )
    bins_path = out_dir / "timebin-pair-bins.csv"
    write_csv(
        bins_path,
        ("bin", "re_amplitude", "im_amplitude", "arrival_over_T"),
        (
            (label, amp.real, amp.imag, t / period)
            for label, (amp, t) in bins.items()
        ),
    )
    early, _ = bins["delayed_early"]
    late, _ = bins["delayed_late"]
    ratio = abs(early) / abs(late)
    phase = float(np.angle(late / early))
    recalled = abs(early) ** 2 / reference
    closed = first_echo_intensity(comb, medium)
    checks = (
        Check("delayed amplitude ratio", ratio, abs(qubit.c1) / abs(qubit.c2), 1.5e-3),
        Check("delayed relative phase", phase, qubit.phi, 1e-3),
        Check(
            "delayed early-bin recall vs closed form (relative)",
            recalled / closed - 1.0,
            0.0,
            0.01,
        ),
    )
    return TargetReport("timebin-pair", checks, (trace_path, bins_path))


def _efficiency_point(
    name: str,
    finesse: float,
    d_p: float,
    expected: float,
    tol: float,
    passes: int,
) -> Callable[[Path], TargetReport]:
    """Closed-form efficiency pin plus simulation agreement."""

    def run(out_dir: Path) -> TargetReport:
        comb = CombSpec.from_finesse(
            CombShape.SQUARE, finesse, pair_count=40, gamma=0.005
        )
        result = recall(comb, MediumSpec(d_p), passes=passes)
        path = out_dir / f"{name}.csv"
        write_csv(
            path,
            (
                "protocol",
                "finesse",
                "d_p",
                "gamma",
                "closed_efficiency",
                "simulated_efficiency",
            ),
            [
                (
                    "two-pass" if passes == 2 else "first-echo",
                    finesse,
                    d_p,
                    0.005,
                    result.closed_efficiency,
                    result.simulated_efficiency,
                )
            ],
        )
        assert result.simulated_efficiency is not None
        checks = (
            Check("closed-form efficiency", result.closed_efficiency, expected, tol),
            Check(
                "simulation vs closed form (relative)",
                result.simulated_efficiency / result.closed_efficiency - 1.0,
                0.0,
                0.01,
            ),
        )
        return TargetReport(name, checks, (path,))

    return run


def _harmonic_poisson(out_dir: Path) -> TargetReport:
    comb = CombSpec(CombShape.HARMONIC)
    train = closed_train(comb, MediumSpec(4.0), 12)
    path = out_dir / "harmonic-comb-train.csv"
    write_csv(
        path,
        ("k", "amplitude", "intensity"),
        (
            (k, float(train.prompt_factor.real * train.values[k]), train.intensity(k))
            for k in range(train.k_max + 1)
        ),
    )
    rate = 1.0
    poisson_dev = max(
        abs(train.values[k] - rate**k / math.factorial(k))
        for k in range(train.k_max + 1)
    )
    full = closed_train(comb, MediumSpec(4.0), 60)
    amplitude_sum = float(full.prompt_factor.real * full.values.sum())
    checks = (
        Check("first-echo intensity at depth 4", train.intensity(1), math.exp(-2.0), 1e-4),
        Check("relative amplitudes follow the factorial law", poisson_dev, 0.0, 1e-12),
        Check("field amplitudes sum to unity", amplitude_sum, 1.0, 1e-12),
    )
    return TargetReport("harmonic-comb-train", checks, (path,))


def _shallow_depth_pin(out_dir: Path) -> TargetReport:
    comb = CombSpec.from_finesse(CombShape.SQUARE, 10.0)
    value = first_echo_intensity(comb, MediumSpec(2.0))
    path = out_dir / "shallow-depth.csv"
    write_csv(path, ("finesse", "d_p", "intensity"), [(10.0, 2.0, value)])
    return TargetReport(
        "shallow-depth",
        (Check("first-echo intensity", value, 0.0317, 5e-4),),
        (path,),
    )


def _window_floor_pin(out_dir: Path) -> TargetReport:
    small = epsilon_window_center(0.1, gamma=0.01, pair_count=9)
    large = epsilon_window_center(0.1, gamma=0.01, pair_count=100000)
    path = out_dir / "window-floor.csv"
    write_csv(
        path,
        ("pair_count", "absorption_at_window_centre"),
        [(9, small), (100000, large)],
    )
    checks = (
        Check("window floor, long comb", large, 1.57e-3, 2e-5),
        Check("background transmission at depth 20", math.exp(-20.0 * small), 0.97, 5e-3),
    )
    return TargetReport("window-floor", checks, (path,))


TARGETS: dict[str, tuple[str, Callable[[Path], TargetReport]]] = {
    "comb-profiles": (
        "population profiles of the three tooth shapes",
        _comb_profiles,
    ),
    "echo-vs-depth": (
        "first-echo efficiency against depth for three finesses",
        _echo_vs_depth,
    ),
    "optimal-recall": (
        "best single-pass recall as a function of finesse",
        _optimal_recall,
    ),
    "broadened-response": (
        "broadened comb response, duty cycle 0.1",
        _broadened_response(
            "broadened-response", 0.1, 0.01, 0.937, 1.552e-3
        ),
    ),
    "broadened-response-wide": (
        "broadened comb response, duty cycle 0.2",
        _broadened_response(
            "broadened-response-wide", 0.2, 0.02, 0.93853, 6.3688e-3
        ),
    ),
    "harmonic-weights": (
        "integrated response harmonics against the closed forms",
        _harmonic_weights_table,
    ),
    "series-response": (
        "truncated against resummed ideal square-comb response",
        _series_response,
    ),
    "echo-train-f2": (
        "simulated echo train, finesse 2 at optimal depth",
        _echo_train("echo-train-f2", 2.0, 4.0, 0.0, dominant=1, compare_up_to=3),
    ),
    "echo-train-f5": (
        "simulated echo train, finesse 5, broadened teeth",
        _echo_train("echo-train-f5", 5.0, 10.0, 0.005, dominant=1, compare_up_to=1),
    ),
    "echo-train-deep": (
        "simulated echo train, depth favouring the second echo",
        _echo_train("echo-train-deep", 5.0, 25.0, 0.0, dominant=2, compare_up_to=3),
    ),
    "echo-train-deeper": (
        "simulated echo train, depth favouring the third echo",
        _echo_train("echo-train-deeper", 5.0, 42.0, 0.0, dominant=3, compare_up_to=3),
    ),
    "depth-scan": (
        "closed-form intensities of the first three echoes against depth",
        _depth_scan_closed,
    ),
    "timebin-pair": (
        "two-bin state stored and recalled, phase and ratio preserved",
        _timebin_pair,
    ),
    "efficiency-017": (
        "first-echo efficiency 0.17 at depth 3",
        _efficiency_point("efficiency-017", 5.0, 3.0, 0.17, 5e-3, passes=1),
    ),
    "efficiency-046": (
        "first-echo efficiency 0.46 at depth 10",
        _efficiency_point("efficiency-046", 5.0, 10.0, 0.46, 5e-3, passes=1),
    ),
    "efficiency-086": (
        "two-pass recall 0.86 at finesse 5, depth 10",
        _efficiency_point("efficiency-086", 5.0, 10.0, 0.86, 1e-2, passes=2),
    ),
    "efficiency-095": (
        "two-pass recall 0.95 at finesse 10, depth 20",
        _efficiency_point("efficiency-095", 10.0, 20.0, 0.95, 1e-2, passes=2),
    ),
    "harmonic-comb-train": (
        "factorial echo train of the raised-cosine comb",
        _harmonic_poisson,
    ),
    "shallow-depth": (
        "first-echo efficiency in the weak-absorption regime",
        _shallow_depth_pin,
    ),
    "window-floor": (
        "residual absorption at the window centre",
        _window_floor_pin,
    ),
}


def run_target(name: str, out_dir: Path) -> TargetReport:
    if name not in TARGETS:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown target {name!r}; known targets: {known}")
    return TARGETS[name][1](out_dir)
