"""Storage protocols built on top of single-comb propagation.

Efficiencies are quoted two ways wherever possible: a closed form from
the train coefficients of the periodic comb, and a direct simulation
(Gaussian pulse in, peak intensity of the re-emission out, normalised
to the simulated input peak so grid truncation cancels).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .combs import CombSpec, MediumSpec
from .propagation import (
    FrequencyGrid,
    PulseSpec,
    PulseTrain,
    TimeSignal,
    TransferFunction,
    TransferModel,
    _echo_peak,
    build_transfer,
    extract_train,
    gaussian_spectrum,
    signal_to_spectrum,
    spectrum_to_signal,
    transmit,
)
from .train import first_echo_intensity, prompt_attenuation

__all__ = [
    "ProtocolResult",
    "TimeBinQubit",
    "TimeBinResult",
    "single_pass",
    "two_pass_interfere",
    "timebin_transform",
    "timebin_spectrum",
]

@dataclass(frozen=True)
class ProtocolResult:
    """Closed-form and simulated figures of merit for one protocol run."""

    closed_efficiency: float
    simulated_efficiency: float | None
    train: PulseTrain | None
    energies: dict[str, float] | None


def single_pass(
    comb: CombSpec,
    medium: MediumSpec,
    *,
    pulse: PulseSpec | None = None,
    grid: FrequencyGrid | None = None,
    model: TransferModel = TransferModel.BROADENED,
    harmonics: int | None = 2000,
    k_max: int = 5,
    oversample: int = 16,
    simulate: bool = True,
) -> ProtocolResult:
    """Store one pulse, read the echo train, report the first-echo efficiency.

    The closed-form efficiency is the periodic-comb expression; the
    simulation uses the requested transfer model on a grid defaulting
    to :meth:`FrequencyGrid.for_pulse`.
    """
    closed = first_echo_intensity(comb, medium)
    if not simulate:
        return ProtocolResult(closed, None, None, None)
    pulse = pulse or PulseSpec()
    grid = grid or FrequencyGrid.for_pulse(pulse)
    transfer = build_transfer(comb, medium, grid, model, harmonics)
    incoming, output, reference = transmit(
        gaussian_spectrum(pulse, grid), transfer, oversample
    )
    train = extract_train(
        output,
        comb.delay_time,
        k_max,
        reference_intensity=reference,
    )
    energies = {
        "input": incoming.energy(),
        "transmitted": output.energy(),
    }
    return ProtocolResult(
        closed_efficiency=closed,
        simulated_efficiency=train.intensity(1),
        train=train,
        energies=energies,
    )


def _second_pass(
    first: TimeSignal,
    transfer: TransferFunction,
    window: tuple[float, float],
    mismatch_time: float,
    mismatch_phase: float,
) -> TimeSignal:
    """Send the windowed part of a signal through the medium again.

    The forward transform of the padded first-pass signal has the grid
    spacing, so its central ``grid.samples`` points are exactly the
    transfer grid.  The second pass is band-limited to that band: the
    rest is leakage from the hard time window and is dropped.  The
    output lands on the identical time axis, so fields can be
    superposed sample by sample.
    """
    lo, hi = window
    mask = (first.times >= lo) & (first.times < hi)
    _, padded = signal_to_spectrum(
        TimeSignal(times=first.times, values=first.values * mask)
    )
    grid = transfer.grid
    left = (padded.size - grid.samples) // 2
    band = padded[left : left + grid.samples] * transfer.values
    if mismatch_time != 0.0 or mismatch_phase != 0.0:
        band = band * np.exp(1j * (grid.points() * mismatch_time + mismatch_phase))
    return spectrum_to_signal(band, grid, padded.size // grid.samples)


def two_pass_interfere(
    comb: CombSpec,
    medium: MediumSpec,
    *,
    pulse: PulseSpec | None = None,
    grid: FrequencyGrid | None = None,
    model: TransferModel = TransferModel.BROADENED,
    harmonics: int | None = 2000,
    oversample: int = 16,
    mismatch_time: float = 0.0,
    mismatch_phase: float = 0.0,
    simulate: bool = True,
) -> ProtocolResult:
    """Recycle the transmitted prompt through the comb once more.

    The echo the second pass creates overlaps the first-pass echo; for
    matched paths the fields add as ``C1 (1 + C0)``, which boosts the
    recalled intensity to ``I1 (1 + C0)^2``.  The closed form is quoted
    for matched paths; ``mismatch_time`` (a delay on the recycled path)
    and ``mismatch_phase`` affect only the simulation, letting the
    interference be detuned on purpose.  The recalled echo is read with
    the empty-window rule of :func:`afcsim.propagation.extract_train`,
    so a window without an echo gives a simulated efficiency of 0.

    The two fields add at unit weight, so the recall can exceed 1: for
    unbroadened square teeth the optimum over ``d_p`` of
    ``I1 (1 + C0)^2`` passes 1 at ``F = 6.2561`` (``d_p = 9.486``) and
    rises with ``F`` towards a supremum of 1.08847, reached at
    ``d_p / F = 1.5162``.
    """
    c0 = prompt_attenuation(comb, medium)
    closed = first_echo_intensity(comb, medium) * (1.0 + c0) ** 2
    if not simulate:
        return ProtocolResult(closed, None, None, None)
    pulse = pulse or PulseSpec()
    grid = grid or FrequencyGrid.for_pulse(pulse)
    transfer = build_transfer(comb, medium, grid, model, harmonics)
    incoming, first, reference = transmit(
        gaussian_spectrum(pulse, grid), transfer, oversample
    )
    half = 0.5 * comb.delay_time
    center = pulse.center
    second = _second_pass(
        first,
        transfer,
        window=(center - half, center + half),
        mismatch_time=mismatch_time,
        mismatch_phase=mismatch_phase,
    )
    combined = TimeSignal(times=first.times, values=first.values + second.values)
    echo_window = (center + half, center + 3.0 * half)
    peak = _echo_peak(combined, *echo_window, 0.5 * half)
    simulated = 0.0 if peak is None else abs(peak[0]) ** 2 / reference
    energies = {
        "input": incoming.energy(),
        "echo_window": combined.energy(*echo_window),
    }
    return ProtocolResult(
        closed_efficiency=closed,
        simulated_efficiency=simulated,
        train=None,
        energies=energies,
    )


@dataclass(frozen=True)
class TimeBinQubit:
    """Two Gaussian bins separated by ``tau``, relative phase ``phi``.

    The state is ``c1 |early> + exp(1j phi) c2 |late>``; amplitudes must
    be normalised.  ``sigma`` is the temporal decay rate of each bin.
    """

    c1: complex
    c2: complex
    tau: float
    phi: float = 0.0
    sigma: float = 7.0

    def __post_init__(self) -> None:
        norm = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if not math.isclose(norm, 1.0, rel_tol=0.0, abs_tol=1e-6):
            raise ValueError(f"bin amplitudes must be normalised, got norm {norm}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    @classmethod
    def normalized(
        cls,
        c1: complex,
        c2: complex,
        tau: float,
        phi: float = 0.0,
        sigma: float = 7.0,
    ) -> "TimeBinQubit":
        scale = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
        if scale == 0.0:
            raise ValueError("bin amplitudes cannot both vanish")
        return cls(c1 / scale, c2 / scale, tau, phi, sigma)


@dataclass(frozen=True)
class TimeBinResult:
    """Amplitudes of the four output bins and delayed-pair diagnostics."""

    prompt: tuple[complex, complex]
    delayed: tuple[complex, complex]
    phase: float
    ratio: float
    probabilities: tuple[float, float]
    efficiency: float
    passes: int


def timebin_transform(
    qubit: TimeBinQubit,
    comb: CombSpec,
    medium: MediumSpec,
    *,
    passes: int = 1,
) -> TimeBinResult:
    """Map a two-bin state through the storage protocol, in closed form.

    Both bins see the same comb, so the delayed pair keeps the input
    amplitude ratio and relative phase exactly; the protocol changes
    only the overall recalled fraction (``C1^2``, or
    ``C1^2 (1 + C0)^2`` when the prompt is recycled in a second pass;
    like :func:`two_pass_interfere`, that factor exceeds 1 for square
    teeth above ``F = 6.2561`` near the optimal depth).
    """
    if passes not in (1, 2):
        raise ValueError(f"passes must be 1 or 2, got {passes}")
    c0 = prompt_attenuation(comb, medium)
    echo = math.sqrt(first_echo_intensity(comb, medium))
    factor = echo if passes == 1 else echo * (1.0 + c0)
    early = complex(qubit.c1)
    late = complex(qubit.c2) * cmath.exp(1j * qubit.phi)
    delayed = (early * factor, late * factor)
    total = abs(delayed[0]) ** 2 + abs(delayed[1]) ** 2
    phase = cmath.phase(delayed[1] / delayed[0]) if delayed[0] != 0 else qubit.phi
    ratio = (
        abs(delayed[0] / delayed[1]) if delayed[1] != 0 else math.inf
    )
    return TimeBinResult(
        prompt=(early * c0**passes, late * c0**passes),
        delayed=delayed,
        phase=phase,
        ratio=ratio,
        probabilities=(
            abs(delayed[0]) ** 2 / total,
            abs(delayed[1]) ** 2 / total,
        ),
        efficiency=total,
        passes=passes,
    )


def timebin_spectrum(qubit: TimeBinQubit, grid: FrequencyGrid) -> np.ndarray:
    """Input spectrum of the two-bin state, for direct simulation."""
    early = gaussian_spectrum(
        PulseSpec(
            amplitude=abs(qubit.c1),
            sigma=qubit.sigma,
            center=0.0,
            phase=cmath.phase(qubit.c1) if qubit.c1 != 0 else 0.0,
        ),
        grid,
    )
    late_phase = (
        cmath.phase(qubit.c2) if qubit.c2 != 0 else 0.0
    ) + qubit.phi
    late = gaussian_spectrum(
        PulseSpec(
            amplitude=abs(qubit.c2),
            sigma=qubit.sigma,
            center=qubit.tau,
            phase=late_phase,
        ),
        grid,
    )
    return early + late
