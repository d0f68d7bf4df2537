"""Canned reference runs with embedded pass/fail checks.

Each target recomputes one reference result (a response curve, an
efficiency figure, a simulated trace) and returns scalar figures of
merit, each checked against an expected value pinned at a stated
tolerance, together with the tables of its data.  :func:`run_target`
writes each table as ``<name><suffix>.csv``, ``<name>`` being the
target's key in :data:`TARGETS`, so a target never names its own files.
Targets take no configuration: they are fixed regression points,
runnable as ``afcsim reproduce <name>``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .combs import ECHO_DELAY, CombShape, CombSpec, MediumSpec, RunSpec
from .output import TRACE_HEADER, trace_columns, write_csv
from .propagation import peak_in_window
from .protocols import TimeBinQubit, recall
from .susceptibility import (
    chi_square_series,
    epsilon_broadened,
    epsilon_peak_center,
    epsilon_window_center,
    population_difference,
)
from .sweeps import optimal_curve
from .train import broadened_A_coefficients, closed_train, first_echo_intensity

__all__ = ["Check", "TargetReport", "TARGETS", "run_target"]

# The simulated pins' grid: half-span six pulse scales, 2^15 samples.
_PIN_GRID = dict(span_factor=6.0, samples=2**15)


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


# One CSV of a target: file-name suffix, header and columns.
_Table = tuple[str, Sequence[str], Sequence[Sequence[object]]]
# What a target returns: its checks and its tables.
_Result = tuple[Sequence[Check], Sequence[_Table]]


def _midgrid(lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform grid of cell midpoints; never lands on tooth edges."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _comb_profiles() -> _Result:
    nu = _midgrid(-3.0, 3.0, 2400)
    square = population_difference(
        CombSpec(CombShape.SQUARE, half_width=0.1), nu
    )
    lorentz = population_difference(
        CombSpec(CombShape.LORENTZIAN, half_width=0.1), nu
    )
    harmonic = population_difference(CombSpec(CombShape.HARMONIC), nu)
    checks = (
        Check("square duty cycle", float(square.mean()), 0.1, 2e-3),
        Check("square peak height", float(square.max()), 1.0, 0.0),
        Check("harmonic peak height", float(harmonic.max()), 1.0, 1e-4),
    )
    header = ("delta_over_nu0", "square", "lorentzian", "harmonic")
    return checks, [("", header, (nu, square, lorentz, harmonic))]


def _echo_vs_depth() -> _Result:
    depths = np.arange(0.25, 60.001, 0.25)
    columns = {}
    for finesse in (2.0, 5.0, 10.0):
        comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
        columns[finesse] = np.array(
            [first_echo_intensity(comb, MediumSpec(d)) for d in depths]
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
    header = ("d_p", "i1_finesse2", "i1_finesse5", "i1_finesse10")
    return checks, [("", header, (depths, columns[2.0], columns[5.0], columns[10.0]))]


def _optimal_recall() -> _Result:
    curve = optimal_curve(np.arange(2, 65, dtype=float))
    at32 = float(curve[curve[:, 0] == 32.0][0, 2])
    increasing = float(np.all(np.diff(curve[:, 2]) > 0.0))
    checks = (
        Check("intensity at finesse 32", at32, 0.54, 5e-3),
        Check("intensity increases with finesse", increasing, 1.0, 0.0),
    )
    return checks, [("", ("finesse", "optimal_depth", "intensity"), curve.T)]


def _broadened_response(
    delta: float, gamma: float, peak: float, window: float
) -> _Result:
    nu = _midgrid(-2.5, 2.5, 2000)
    packed = epsilon_broadened(nu, delta, gamma=gamma, pair_count=9)
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
    header = ("nu_over_nu0", "absorption", "dispersion")
    return checks, [("", header, (nu, packed.real, packed.imag))]


def _harmonic_weights_table() -> _Result:
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
    checks = (
        Check("worst |a0 - duty cycle|", worst_a0, 0.0, 1e-3),
        Check("worst first-harmonic mismatch", worst_a1, 0.0, 1e-3),
    )
    header = ("delta_over_nu0", "a0", "a1_absorption", "a1_full", "a1_closed")
    return checks, [("", header, list(zip(*rows)))]


def _series_response() -> _Result:
    nu = _midgrid(-2.0, 2.0, 1600)
    truncated = chi_square_series(nu, 0.1, harmonics=2000)
    resummed = chi_square_series(nu, 0.1, harmonics=None)
    binary_dev = float(
        np.max(np.minimum(np.abs(resummed.real), np.abs(resummed.real - 1.0)))
    )
    checks = (
        Check("series duty cycle", float(truncated.real.mean()), 0.1, 1e-3),
        Check("resummed absorption is binary", binary_dev, 0.0, 1e-9),
    )
    header = (
        "nu_over_nu0",
        "absorption_series",
        "dispersion_series",
        "absorption_resummed",
        "dispersion_resummed",
    )
    columns = (nu, truncated.real, truncated.imag, resummed.real, resummed.imag)
    return checks, [("", header, columns)]


def _echo_train(
    finesse: float, d_p: float, gamma: float, dominant: int, compare_up_to: int
) -> _Result:
    """Simulated trace plus train, checked against the closed form."""
    if gamma == 0.0:
        settings = dict(model="ideal", harmonics=None)
    else:
        # Teeth must cover the simulation grid or the pulse wings
        # see bare line edges and the totals drift.
        settings = dict(pair_count=40, gamma=gamma)
    run = RunSpec(finesse=finesse, d_p=d_p, k_max=3, **settings, **_PIN_GRID)
    result = recall(run)
    signal, train = result.signal, result.train
    closed = closed_train(run.comb(), MediumSpec(d_p), 3)
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
    trace = ("", TRACE_HEADER, trace_columns(signal, train.reference_intensity))
    train_table = (
        "-train",
        ("k", "intensity", "closed_intensity", "arrival_over_T"),
        (
            [e.index for e in train.entries],
            [e.intensity for e in train.entries],
            [closed.intensity(e.index) for e in train.entries],
            [
                "" if e.arrival is None else e.arrival / ECHO_DELAY
                for e in train.entries
            ],
        ),
    )
    return checks, [trace, train_table]


def _depth_scan_closed() -> _Result:
    depths = np.arange(0.5, 50.001, 0.5)
    comb = CombSpec.from_finesse(CombShape.SQUARE, 5.0)
    rows = []
    for d in depths:
        coeffs = closed_train(comb, MediumSpec(float(d)), 3)
        rows.append((float(d),) + tuple(coeffs.intensity(k) for k in (1, 2, 3)))
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
    return checks, [("", ("d_p", "i1", "i2", "i3"), list(zip(*rows)))]


def _timebin_pair() -> _Result:
    """A two-bin state stored by :func:`recall` at one and two passes.

    Both bins see the same comb, so in closed form the delayed pair is
    the input pair times one scalar: each pass count is checked against
    the input's amplitude ratio and relative phase, and the early bin's
    recall against the closed efficiency of the same :func:`recall`
    call.  The tables hold the single pass.
    """
    qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=0.4 * ECHO_DELAY, phi=0.7)
    run = RunSpec(
        sigma=qubit.sigma, k_max=1, model="ideal", harmonics=None, **_PIN_GRID
    )
    # The early input bin's peak is the reference, so c1 cancels and
    # the normalised recall compares directly with the closed efficiency.
    probe = replace(run.probe(), pulses=qubit.pulses())
    # both passes store the state in the same comb on the same grid
    response = run.response(probe.grid)
    half = 0.5 * qubit.tau
    ratio = abs(qubit.c1) / abs(qubit.c2)
    phase = cmath.phase(qubit.c2 * cmath.exp(1j * qubit.phi) / qubit.c1)
    centers = {
        "prompt_early": 0.0,
        "prompt_late": qubit.tau,
        "delayed_early": ECHO_DELAY,
        "delayed_late": ECHO_DELAY + qubit.tau,
    }
    checks = []
    outputs = {}
    for passes in (1, 2):
        result = recall(run, passes=passes, probe=probe, response=response)
        signal = result.signal
        bins = {
            label: peak_in_window(signal, center - half, center + half)
            for label, center in centers.items()
        }
        outputs[passes] = signal, bins
        early, _ = bins["delayed_early"]
        late, _ = bins["delayed_late"]
        prefix = "two-pass " if passes == 2 else ""
        checks += [
            Check(
                f"{prefix}delayed amplitude ratio",
                abs(early) / abs(late),
                ratio,
                1.5e-3,
            ),
            Check(
                f"{prefix}delayed relative phase",
                float(np.angle(late / early)),
                phase,
                1e-3,
            ),
            Check(
                f"{prefix}delayed early-bin recall vs closed form (relative)",
                abs(early) ** 2 / probe.reference / result.closed_efficiency - 1.0,
                0.0,
                0.01,
            ),
        ]
    signal, bins = outputs[1]
    trace = ("", TRACE_HEADER, trace_columns(signal, probe.reference, -0.5, 2.0))
    bins_table = (
        "-bins",
        ("bin", "re_amplitude", "im_amplitude", "arrival_over_T"),
        (
            list(bins),
            [amp.real for amp, _ in bins.values()],
            [amp.imag for amp, _ in bins.values()],
            [t / ECHO_DELAY for _, t in bins.values()],
        ),
    )
    return checks, [trace, bins_table]


def _efficiency_point(
    finesse: float, d_p: float, expected: float, tol: float, passes: int
) -> _Result:
    """Closed-form efficiency pin plus simulation agreement."""
    run = RunSpec(
        finesse=finesse, d_p=d_p, gamma=0.005, pair_count=40, k_max=5, **_PIN_GRID
    )
    result = recall(run, passes=passes)
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
    header = (
        "protocol",
        "finesse",
        "d_p",
        "gamma",
        "closed_efficiency",
        "simulated_efficiency",
    )
    columns = [
        ["two-pass" if passes == 2 else "first-echo"],
        [finesse],
        [d_p],
        [0.005],
        [result.closed_efficiency],
        [result.simulated_efficiency],
    ]
    return checks, [("", header, columns)]


def _harmonic_poisson() -> _Result:
    comb = CombSpec(CombShape.HARMONIC)
    train = closed_train(comb, MediumSpec(4.0), 12)
    ks = range(train.k_max + 1)
    rate = 1.0
    poisson_dev = max(
        abs(train.values[k] - rate**k / math.factorial(k))
        for k in ks
    )
    full = closed_train(comb, MediumSpec(4.0), 60)
    amplitude_sum = float(full.prompt_factor.real * full.values.sum())
    checks = (
        Check("first-echo intensity at depth 4", train.intensity(1), math.exp(-2.0), 1e-4),
        Check("relative amplitudes follow the factorial law", poisson_dev, 0.0, 1e-12),
        Check("field amplitudes sum to unity", amplitude_sum, 1.0, 1e-12),
    )
    columns = (
        ks,
        [float(train.prompt_factor.real * train.values[k]) for k in ks],
        [train.intensity(k) for k in ks],
    )
    return checks, [("", ("k", "amplitude", "intensity"), columns)]


def _shallow_depth_pin() -> _Result:
    comb = CombSpec.from_finesse(CombShape.SQUARE, 10.0)
    value = first_echo_intensity(comb, MediumSpec(2.0))
    checks = (Check("first-echo intensity", value, 0.0317, 5e-4),)
    return checks, [("", ("finesse", "d_p", "intensity"), [[10.0], [2.0], [value]])]


def _window_floor_pin() -> _Result:
    small = epsilon_window_center(0.1, gamma=0.01, pair_count=9)
    large = epsilon_window_center(0.1, gamma=0.01, pair_count=100000)
    checks = (
        Check("window floor, long comb", large, 1.57e-3, 2e-5),
        Check("background transmission at depth 20", math.exp(-20.0 * small), 0.97, 5e-3),
    )
    header = ("pair_count", "absorption_at_window_centre")
    return checks, [("", header, [[9, 100000], [small, large]])]


TARGETS: dict[str, tuple[str, Callable[[], _Result]]] = {
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
        partial(_broadened_response, 0.1, 0.01, 0.937, 1.552e-3),
    ),
    "broadened-response-wide": (
        "broadened comb response, duty cycle 0.2",
        partial(_broadened_response, 0.2, 0.02, 0.93853, 6.3688e-3),
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
        partial(_echo_train, 2.0, 4.0, 0.0, dominant=1, compare_up_to=3),
    ),
    "echo-train-f5": (
        "simulated echo train, finesse 5, broadened teeth",
        partial(_echo_train, 5.0, 10.0, 0.005, dominant=1, compare_up_to=1),
    ),
    "echo-train-deep": (
        "simulated echo train, depth favouring the second echo",
        partial(_echo_train, 5.0, 25.0, 0.0, dominant=2, compare_up_to=3),
    ),
    "echo-train-deeper": (
        "simulated echo train, depth favouring the third echo",
        partial(_echo_train, 5.0, 42.0, 0.0, dominant=3, compare_up_to=3),
    ),
    "depth-scan": (
        "closed-form intensities of the first three echoes against depth",
        _depth_scan_closed,
    ),
    "timebin-pair": (
        "two-bin state stored and recalled at one and two passes, "
        "phase and ratio preserved",
        _timebin_pair,
    ),
    "efficiency-017": (
        "first-echo efficiency 0.17 at depth 3",
        partial(_efficiency_point, 5.0, 3.0, 0.17, 5e-3, passes=1),
    ),
    "efficiency-046": (
        "first-echo efficiency 0.46 at depth 10",
        partial(_efficiency_point, 5.0, 10.0, 0.46, 5e-3, passes=1),
    ),
    "efficiency-086": (
        "two-pass recall 0.86 at finesse 5, depth 10",
        partial(_efficiency_point, 5.0, 10.0, 0.86, 1e-2, passes=2),
    ),
    "efficiency-095": (
        "two-pass recall 0.95 at finesse 10, depth 20",
        partial(_efficiency_point, 10.0, 20.0, 0.95, 1e-2, passes=2),
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
    """Run target ``name`` and write its tables as ``out_dir/<name><suffix>.csv``."""
    if name not in TARGETS:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown target {name!r}; known targets: {known}")
    checks, tables = TARGETS[name][1]()
    files = []
    for suffix, header, columns in tables:
        files.append(out_dir / f"{name}{suffix}.csv")
        write_csv(files[-1], header, columns)
    return TargetReport(name, tuple(checks), tuple(files))
