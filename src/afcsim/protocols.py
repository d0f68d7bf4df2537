"""Storage protocols built on top of single-comb propagation.

Efficiencies are quoted two ways wherever possible: a closed form from
the train coefficients of the periodic comb, and a direct simulation
(Gaussian pulse in, peak intensity of the re-emission out, normalised
to the simulated input peak so grid truncation cancels).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .combs import ECHO_DELAY, MediumSpec, RunSpec
from .propagation import (
    FrequencyGrid,
    Probe,
    PulseSpec,
    PulseTrain,
    TimeSignal,
    _OVERSAMPLE,
    build_transfer,
    extract_train,
    signal_to_spectrum,
    spectrum_to_signal,
)
from .train import first_echo_intensity, prompt_attenuation

__all__ = [
    "ProtocolResult",
    "TimeBinQubit",
    "recall",
]


@dataclass(frozen=True)
class ProtocolResult:
    """Closed-form and simulated figures of merit for one protocol run.

    ``signal`` is the output field the train was read from, on the
    :func:`afcsim.propagation.echo_window` of ``k_max``; any energy
    inside it is ``signal.energy(lo, hi)``.  With two passes it is the
    first-pass output plus the second-pass output, so its echo 0 holds
    both prompts.  Without a simulation, ``train`` and ``signal`` are
    None.
    """

    closed_efficiency: float
    simulated_efficiency: float | None
    train: PulseTrain | None
    signal: TimeSignal | None


def _second_pass(
    first: TimeSignal,
    transfer: np.ndarray,
    grid: FrequencyGrid,
    window: tuple[float, float],
    mismatch_time: float,
    mismatch_phase: float,
) -> TimeSignal:
    """Send a signal's prompt, its part in ``[-T/2, T/2)``, through the medium again.

    ``first`` lies on the time grid of every run (see :class:`Probe`), and
    ``transfer`` is the medium's ``H`` on ``grid``.  The prompt samples go
    straight onto ``grid`` by the forward chirp-z transform: the second
    pass is band-limited to that band, and what the hard time window
    leaks beyond it is dropped.  The output lands on ``window`` again,
    the identical time axis, so fields can be superposed sample by sample.
    """
    half = 0.5 * ECHO_DELAY
    mask = (first.times >= -half) & (first.times < half)
    prompted = TimeSignal(times=first.times[mask], values=first.values[mask])
    band = signal_to_spectrum(prompted, grid, _OVERSAMPLE) * transfer
    if mismatch_time != 0.0 or mismatch_phase != 0.0:
        band = band * np.exp(1j * (grid.points() * mismatch_time + mismatch_phase))
    return spectrum_to_signal(band, grid, _OVERSAMPLE, window)


def recall(
    spec: RunSpec,
    *,
    passes: int = 1,
    probe: Probe | None = None,
    response: np.ndarray | None = None,
    mismatch_time: float = 0.0,
    mismatch_phase: float = 0.0,
    simulate: bool = True,
) -> ProtocolResult:
    """Store the run's input and report the first-echo recall efficiency.

    ``spec`` gives the comb, the depth ``d_p``, the transfer model and
    its harmonic count.  The closed form is the first-echo intensity
    ``I1`` of the periodic comb.  The simulation sends the ``probe``'s
    pulses (``spec.probe()`` by default) through the transfer on the
    probe's grid, computes the output only on the echo window of
    ``probe.k_max``, on the grid zero-padded 16 times, reads echoes
    ``0 .. k_max`` with :func:`afcsim.propagation.extract_train` and
    quotes echo 1, so a window without an echo gives 0.  Pass a
    ``probe`` only to share one across the points of a sweep or to carry
    a time-bin state's pulses.
    The comb's response on the probe's grid is computed afresh for each
    call unless ``response`` gives it, as ``spec.response(probe.grid)``,
    to share between calls on one comb and grid, such as the depths of
    a sweep or the pass counts of one state.
    Intensities are relative to ``probe.reference``, the peak input
    intensity inside the first pulse's bin (for overlapping pulses, the
    peak of their sum there), which a probe computes once for every
    call it is passed to.  For a time-bin state (see
    :meth:`TimeBinQubit.pulses`) ``signal`` holds every output bin;
    both bins see the same comb, so in closed form the delayed pair is
    the input pair times one scalar of squared modulus
    ``closed_efficiency``, keeping the input's ratio and relative phase.

    With ``passes = 2`` the transmitted prompt, the output in
    ``[-T/2, T/2)``, is sent through the comb once more.  The echo the
    second pass creates overlaps the first-pass echo; for matched paths
    the fields add as ``C1 (1 + C0)``, which boosts the recall to
    ``I1 (1 + C0)^2``.  The closed form is quoted for matched paths;
    ``mismatch_time`` (a delay on the recycled path) and
    ``mismatch_phase`` act only on the simulated second pass, letting
    the interference be detuned on purpose.  Either one away from 0
    without both ``passes = 2`` and ``simulate`` raises ``ValueError``.

    The two fields add at unit weight, so the recall can exceed 1: for
    unbroadened square teeth the optimum over ``d_p`` of
    ``I1 (1 + C0)^2`` passes 1 at ``F = 6.2561`` (``d_p = 9.486``) and
    rises with ``F`` towards a supremum of 1.08847, reached at
    ``d_p / F = 1.5162``.
    """
    if passes not in (1, 2):
        raise ValueError(f"passes must be 1 or 2, got {passes}")
    mismatch = (("mismatch_time", mismatch_time), ("mismatch_phase", mismatch_phase))
    for name, value in mismatch:
        if value != 0.0 and passes == 1:
            raise ValueError(
                f"{name} = {value} needs passes = 2: a single pass has no recycled path"
            )
        if value != 0.0 and not simulate:
            raise ValueError(
                f"{name} = {value} needs simulate = true: the closed form covers "
                "matched paths only"
            )
    comb, medium = spec.comb(), MediumSpec(spec.d_p)
    closed = first_echo_intensity(comb, medium)
    if passes == 2:
        closed *= (1.0 + prompt_attenuation(comb, medium)) ** 2
    if not simulate:
        return ProtocolResult(closed, None, None, None)
    if probe is None:
        probe = spec.probe()
    if probe.k_max < 1:
        raise ValueError(
            f"k_max must be >= 1 to read the first echo, got {probe.k_max}"
        )
    transfer = build_transfer(
        comb, medium, probe.grid, spec.model, spec.harmonics, response=response
    )
    reference = probe.reference
    signal = spectrum_to_signal(
        probe.spectrum * transfer, probe.grid, _OVERSAMPLE, probe.window
    )
    if passes == 2:
        second = _second_pass(
            signal, transfer, probe.grid, probe.window, mismatch_time, mismatch_phase
        )
        signal = replace(signal, values=signal.values + second.values)
    train = extract_train(signal, probe.k_max, reference_intensity=reference)
    return ProtocolResult(closed, train.intensity(1), train, signal)


@dataclass(frozen=True)
class TimeBinQubit:
    """Two Gaussian bins separated by ``tau``, relative phase ``phi``.

    The state is ``c1 |early> + exp(1j phi) c2 |late>``; amplitudes must
    be normalised.  ``sigma`` is the temporal decay rate of each bin.
    :meth:`pulses` gives the state as a probe's input, so :func:`recall`
    stores it like any pulse and states its closed form.
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
        for name in ("tau", "sigma", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0.0 and name != "phi":
                raise ValueError(f"{name} must be positive, got {value}")

    def pulses(self) -> tuple[PulseSpec, PulseSpec]:
        """The early bin at ``t = 0`` and the late bin at ``tau``, as input pulses.

        Each carries its amplitude's modulus and phase; the late bin's
        phase adds ``phi``.
        """
        early = PulseSpec(
            amplitude=abs(self.c1),
            sigma=self.sigma,
            center=0.0,
            phase=cmath.phase(self.c1) if self.c1 != 0 else 0.0,
        )
        late_phase = (cmath.phase(self.c2) if self.c2 != 0 else 0.0) + self.phi
        late = PulseSpec(
            amplitude=abs(self.c2),
            sigma=self.sigma,
            center=self.tau,
            phase=late_phase,
        )
        return early, late
