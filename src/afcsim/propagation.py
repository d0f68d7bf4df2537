"""Spectral propagation of pulses through a prepared comb.

The field convention is ``F(nu) = int f(t) exp(+1j nu t) dt`` with the
inverse carrying ``exp(-1j nu t) / 2 pi``, so multiplying a spectrum by
``exp(1j nu T)`` delays the signal by ``T``.  A medium with packed
response ``chi'' + 1j chi'`` (see :mod:`afcsim.susceptibility`)
multiplies the field spectrum by

    H(nu) = exp(-(d_p / 2) (chi''(nu) - 1j chi'(nu))),

the one-sided exponent that keeps re-emission at positive delays.

Grids are symmetric, binary-sized and centred on zero; transforms use
the centred-index phase factors worked out for exactly these grids, so
both directions are unitary up to the stated quadrature weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .combs import CombShape, CombSpec, MediumSpec
from . import susceptibility as sus

__all__ = [
    "DEFAULT_SPAN_FACTOR",
    "DEFAULT_SAMPLES",
    "TransferModel",
    "FrequencyGrid",
    "PulseSpec",
    "TimeSignal",
    "TransferFunction",
    "TrainEntry",
    "PulseTrain",
    "comb_response",
    "build_transfer",
    "gaussian_spectrum",
    "spectrum_to_signal",
    "signal_to_spectrum",
    "propagate",
    "transmit",
    "peak_in_window",
    "check_time_window",
    "extract_train",
]


# Library grid defaults: half-span in pulse widths, and sample count.
DEFAULT_SPAN_FACTOR = 6.0
DEFAULT_SAMPLES = 2**15


class TransferModel(str, enum.Enum):
    """Which response model feeds the transfer function.

    IDEAL is the infinite periodic comb (series, or resummed when the
    harmonic count is ``None``); IDEAL_FINITE keeps the finite tooth
    count but no broadening; BROADENED is the finite comb with
    Lorentzian teeth.  Harmonic and Lorentzian tooth shapes have exact
    periodic forms that already include broadening, so for them all
    models coincide except IDEAL_FINITE, which is only defined for
    square teeth.
    """

    IDEAL = "ideal"
    IDEAL_FINITE = "ideal-finite"
    BROADENED = "broadened"


def comb_response(
    comb: CombSpec,
    nu: np.ndarray | float,
    model: TransferModel = TransferModel.BROADENED,
    harmonics: int | None = 2000,
) -> np.ndarray:
    """Packed response ``chi'' + 1j chi'`` of a comb under a model."""
    model = TransferModel(model)
    if comb.shape is CombShape.HARMONIC:
        if model is TransferModel.IDEAL_FINITE:
            raise ValueError("harmonic combs are inherently periodic")
        return sus.harmonic_comb_response(nu, gamma=comb.gamma)
    if comb.shape is CombShape.LORENTZIAN:
        if model is TransferModel.IDEAL_FINITE:
            raise ValueError("no finite-comb form for Lorentzian teeth")
        return sus.lorentzian_comb_response(
            nu, 1.0 / comb.finesse, gamma=comb.gamma
        )
    if model is TransferModel.IDEAL:
        if comb.gamma != 0.0:
            raise ValueError("ideal square model has no broadening; use BROADENED")
        return sus.chi_square_series(nu, 1.0 / comb.finesse, harmonics)
    if model is TransferModel.IDEAL_FINITE or comb.gamma == 0.0:
        return sus.chi_square_exact(nu, 1.0 / comb.finesse, comb.pair_count)
    return sus.epsilon_broadened(
        nu, comb.half_width, gamma=comb.gamma, pair_count=comb.pair_count
    )


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric detuning grid ``(k - samples/2) * spacing``."""

    half_span: float
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self) -> None:
        if self.half_span <= 0.0:
            raise ValueError(f"half_span must be positive, got {self.half_span}")
        if self.samples < 16 or self.samples & (self.samples - 1):
            raise ValueError(
                f"samples must be a power of two >= 16, got {self.samples}"
            )

    @classmethod
    def for_pulse(
        cls,
        pulse: "PulseSpec",
        span_factor: float = DEFAULT_SPAN_FACTOR,
        samples: int = DEFAULT_SAMPLES,
    ) -> "FrequencyGrid":
        return cls(span_factor * pulse.sigma, samples)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_span / self.samples

    def points(self) -> np.ndarray:
        return (np.arange(self.samples) - self.samples // 2) * self.spacing


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian input pulse ``amplitude e^{1j phase} exp(-sigma^2 (t - center)^2)``.

    ``sigma`` is the temporal decay rate; the spectrum is Gaussian with
    standard deviation ``sigma * sqrt(2)`` in detuning.
    """

    amplitude: float = 1.0
    sigma: float = 5.0
    center: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass
class TimeSignal:
    """Complex field samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def energy(self, lo: float | None = None, hi: float | None = None) -> float:
        """Integrated intensity, optionally restricted to ``[lo, hi)``."""
        mask = np.ones(self.times.size, dtype=bool)
        if lo is not None:
            mask &= self.times >= lo
        if hi is not None:
            mask &= self.times < hi
        return float(np.sum(np.abs(self.values[mask]) ** 2) * self.dt)


@dataclass
class TransferFunction:
    """Transfer samples ``H(nu)`` on a detuning grid."""

    grid: FrequencyGrid
    values: np.ndarray


def transfer_exponent(packed: np.ndarray, d_p: float) -> np.ndarray:
    """``exp(-(d_p/2)(chi'' - 1j chi'))`` from a packed response."""
    return np.exp(-0.5 * d_p * (packed.real - 1j * packed.imag))


def build_transfer(
    comb: CombSpec,
    medium: MediumSpec,
    grid: FrequencyGrid,
    model: TransferModel = TransferModel.BROADENED,
    harmonics: int | None = 2000,
) -> TransferFunction:
    """Sample the transfer of a comb on a grid.

    Raises ``ValueError`` if any sample is non-finite: one such sample
    would spread through every FFT that follows.
    """
    nu = grid.points()
    with np.errstate(invalid="ignore"):
        values = transfer_exponent(
            comb_response(comb, nu, TransferModel(model), harmonics), medium.d_p
        )
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(
            f"transfer is non-finite at {int(bad.sum())} grid samples, first at "
            f"detuning {nu[np.argmax(bad)]:.6g}: a sample sits on a sharp "
            "tooth edge; change finesse, samples or span_factor, or use gamma > 0"
        )
    return TransferFunction(grid=grid, values=values)


def gaussian_spectrum(pulse: PulseSpec, grid: FrequencyGrid) -> np.ndarray:
    nu = grid.points()
    envelope = (math.sqrt(math.pi) / pulse.sigma) * np.exp(
        -(nu**2) / (4.0 * pulse.sigma**2)
    )
    carrier = np.exp(1j * (pulse.phase + nu * pulse.center))
    return pulse.amplitude * envelope * carrier


def _alternating(n: int) -> np.ndarray:
    alt = np.ones(n)
    alt[1::2] = -1.0
    return alt


def spectrum_to_signal(
    spectrum: np.ndarray,
    grid: FrequencyGrid,
    oversample: int = 16,
) -> TimeSignal:
    """Inverse transform onto the centred time grid.

    Zero-pads the spectrum symmetrically by ``oversample`` so the time
    step shrinks accordingly; the window length ``2 pi / spacing`` is
    unchanged.  ``oversample`` must be a power of two.
    """
    if oversample < 1 or oversample & (oversample - 1):
        raise ValueError(f"oversample must be a power of two, got {oversample}")
    m = grid.samples
    if spectrum.shape != (m,):
        raise ValueError("spectrum does not match the grid")
    total = m * oversample
    left = (total - m) // 2
    padded = np.zeros(total, dtype=complex)
    padded[left : left + m] = spectrum
    dt = 2.0 * math.pi / (total * grid.spacing)
    alt = _alternating(total)
    values = (grid.spacing / (2.0 * math.pi)) * alt * np.fft.fft(padded * alt)
    times = (np.arange(total) - total // 2) * dt
    return TimeSignal(times=times, values=values)


def signal_to_spectrum(signal: TimeSignal) -> tuple[np.ndarray, np.ndarray]:
    """Forward transform back to the matching centred detuning grid.

    Inverse of :func:`spectrum_to_signal` on the padded grid it
    produced: returns ``(nu, spectrum)`` with ``nu`` spanning the full
    padded resolution, spacing ``2 pi / (n dt)``.
    """
    n = signal.times.size
    if n & (n - 1):
        raise ValueError(f"signal length must be a power of two, got {n}")
    dnu = 2.0 * math.pi / (n * signal.dt)
    alt = _alternating(n)
    spectrum = signal.dt * alt * n * np.fft.ifft(signal.values * alt)
    nu = (np.arange(n) - n // 2) * dnu
    return nu, spectrum


def propagate(
    spectrum: np.ndarray,
    transfer: TransferFunction,
    oversample: int = 16,
) -> TimeSignal:
    """Apply the transfer on its grid and return the output signal."""
    return spectrum_to_signal(spectrum * transfer.values, transfer.grid, oversample)


def transmit(
    spectrum: np.ndarray,
    transfer: TransferFunction,
    oversample: int = 16,
    reference_window: tuple[float, float] | None = None,
) -> tuple[TimeSignal, TimeSignal, float]:
    """Send an input spectrum through the medium.

    Returns the input signal, the output signal and the input peak
    intensity inside ``reference_window`` (the whole time window by
    default).  Simulated intensities are quoted relative to that peak,
    so grid truncation cancels.
    """
    incoming = spectrum_to_signal(spectrum, transfer.grid, oversample)
    if reference_window is None:
        reference_window = (incoming.times[0], incoming.times[-1] + incoming.dt)
    amplitude, _ = peak_in_window(incoming, *reference_window)
    outgoing = propagate(spectrum, transfer, oversample)
    return incoming, outgoing, abs(amplitude) ** 2


@dataclass(frozen=True)
class TrainEntry:
    """Echo ``index`` of a train; ``arrival`` is None when its window
    holds no echo (see :func:`extract_train`)."""

    index: int
    amplitude: complex
    intensity: float
    arrival: float | None


@dataclass
class PulseTrain:
    """Interpolated peaks of a signal sampled once per expected delay."""

    entries: tuple[TrainEntry, ...]
    reference_intensity: float

    def entry(self, index: int) -> TrainEntry:
        for e in self.entries:
            if e.index == index:
                return e
        raise KeyError(f"no train entry with index {index}")

    def amplitude(self, index: int) -> complex:
        return self.entry(index).amplitude

    def intensity(self, index: int) -> float:
        return self.entry(index).intensity

    @property
    def intensities(self) -> np.ndarray:
        return np.array([e.intensity for e in self.entries])

    @property
    def total_intensity(self) -> float:
        return float(self.intensities.sum())


def peak_in_window(
    signal: TimeSignal,
    lo: float,
    hi: float,
) -> tuple[complex, float]:
    """Sub-sample peak of ``|field|`` inside ``[lo, hi)``.

    Quadratic interpolation of the intensity locates the peak offset;
    the complex amplitude is read off a second-order Lagrange fit of
    the field at the same offset, which keeps the phase.
    """
    return _interpolated_peak(signal, _largest(signal, lo, hi))


def _largest(signal: TimeSignal, lo: float, hi: float) -> int:
    """Index of the largest ``|field|`` in ``[lo, hi)``."""
    idx = np.nonzero((signal.times >= lo) & (signal.times < hi))[0]
    if idx.size == 0:
        raise ValueError(f"window [{lo}, {hi}) contains no samples")
    return int(idx[np.argmax(np.abs(signal.values[idx]))])


def _interpolated_peak(signal: TimeSignal, j: int) -> tuple[complex, float]:
    values = signal.values
    j = min(max(j, 1), values.size - 2)
    i_m, i_0, i_p = (np.abs(values[j + s]) ** 2 for s in (-1, 0, 1))
    denom = i_m - 2.0 * i_0 + i_p
    offset = 0.0 if denom == 0.0 else 0.5 * (i_m - i_p) / denom
    offset = float(np.clip(offset, -0.5, 0.5))
    s_m, s_0, s_p = values[j - 1], values[j], values[j + 1]
    amplitude = (
        s_0
        + offset * (s_p - s_m) / 2.0
        + offset**2 * (s_p - 2.0 * s_0 + s_m) / 2.0
    )
    return complex(amplitude), float(signal.times[j] + offset * signal.dt)


def _echo_peak(
    signal: TimeSignal, lo: float, hi: float, margin: float
) -> tuple[complex, float] | None:
    """Sub-sample peak of the echo in ``[lo, hi)``, or None if there is none.

    The window holds an echo only if its largest ``|field|`` is a peak:
    larger than all of ``|field|`` within ``margin`` beyond either edge,
    and not on the window's first or last sample.  Otherwise it holds
    only the flank or ringing of a neighbour.
    """
    times = signal.times
    j = _largest(signal, lo - margin, hi + margin)
    if not (0 < j < times.size - 1 and times[j - 1] >= lo and times[j + 1] < hi):
        return None
    return _interpolated_peak(signal, j)


def check_time_window(
    signal: TimeSignal, period: float, k_max: int, *, trace: bool = False
) -> None:
    """Raise ``ValueError`` unless echo ``k_max`` arrives inside the window.

    An echo past the end of the time window would alias to negative
    times.  With ``trace`` the window must also hold the whole period
    after echo ``k_max``, so that a trace over ``[-1, k_max + 1)``
    periods is not cut short.
    """
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    end = signal.times[-1] + signal.dt
    advice = "raise samples, lower span_factor or lower k_max"
    if k_max * period >= end:
        raise ValueError(
            f"time window ends at {end / period:.3g} T, too short for echo "
            f"k_max = {k_max}; {advice}"
        )
    if trace and (k_max + 1) * period > end:
        raise ValueError(
            f"time window ends at {end / period:.3g} T, too short for the "
            f"trace to k_max + 1 = {k_max + 1} T; {advice}"
        )


def extract_train(
    signal: TimeSignal,
    period: float,
    k_max: int,
    *,
    reference_intensity: float | None = None,
) -> PulseTrain:
    """Read echoes ``0 .. k_max`` off a propagated signal.

    Window ``k`` is ``[k * period - w, k * period + w)`` with
    ``w = 0.5 * period``.  Intensities are peak field intensities
    divided by ``reference_intensity`` when given (the simulated input
    peak, so grid truncation cancels).  A window holds an echo only if
    :func:`_echo_peak` finds one with a margin of ``w / 2``; otherwise
    its entry has intensity 0 and no arrival.  Echo ``k_max`` must
    arrive inside the time window (see :func:`check_time_window`).
    """
    check_time_window(signal, period, k_max)
    ref = 1.0 if reference_intensity is None else reference_intensity
    entries = []
    w = 0.5 * period
    for k in range(k_max + 1):
        peak = _echo_peak(signal, k * period - w, k * period + w, 0.5 * w)
        if peak is None:
            entries.append(TrainEntry(k, 0j, 0.0, None))
            continue
        amplitude, arrival = peak
        entries.append(
            TrainEntry(
                index=k,
                amplitude=amplitude,
                intensity=abs(amplitude) ** 2 / ref,
                arrival=arrival,
            )
        )
    return PulseTrain(entries=tuple(entries), reference_intensity=ref)
