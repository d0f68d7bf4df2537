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

The zero-padded time window spans ``2 pi / spacing``, hundreds of echo
delays on the usual grids, while a protocol reads only a few of them.
Every transform therefore takes a time window and computes only its
samples, by chirp-z transforms of the spectrum's positive and negative
halves, each costing about ``samples / 2`` plus the window's sample
count, not ``samples * oversample``, so a large ``oversample`` is cheap.
The transforms take it as an argument; every run fixes it at 16
(``_OVERSAMPLE``, see :class:`Probe`), a time step of
``pi / (16 span_factor sigma)``.  A mirror-symmetric spectrum,
``X(-nu) = conj X(nu)`` as an even real pulse through a symmetric comb
gives, needs only one of the two.  Windowed samples carry exactly the
times of the zero-padded FFT, and an unbounded window ``(-inf, inf)``
yields all of them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .combs import ECHO_DELAY, CombShape, CombSpec, MediumSpec
from . import susceptibility as sus

__all__ = [
    "TransferModel",
    "FrequencyGrid",
    "PulseSpec",
    "Probe",
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
    "echo_window",
    "peak_in_window",
    "check_time_window",
    "extract_train",
]


# Largest |H| a transfer may reach: see build_transfer.
_MAX_GAIN = 1e10

# Largest pulse rate sigma and grid half-span, and the inverse of the
# smallest sigma: the Gaussian spectrum divides by sigma^2 and the sharp
# comb squares detunings, so both squares must stay finite and nonzero.
_SQUARE_SAFE = 1e150

# Zero-padding factor of every run's time grid.
_OVERSAMPLE = 16


class TransferModel(str, enum.Enum):
    """Which response model feeds the transfer function.

    IDEAL is the infinite periodic comb of the run's tooth shape,
    broadened by the run's ``gamma``: the closed forms describe it, and
    broadening damps its harmonic ``k`` by ``exp(-pi gamma k)``.  For
    square teeth it is a series, resummed when the harmonic count is
    ``None``.  BROADENED is the finite comb, with Lorentzian-broadened
    teeth, sharp at ``gamma = 0``.  Harmonic and Lorentzian teeth have
    exact periodic forms, so for them the two models coincide.
    """

    IDEAL = "ideal"
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
        return sus.harmonic_comb_response(nu, gamma=comb.gamma)
    if comb.shape is CombShape.LORENTZIAN:
        return sus.lorentzian_comb_response(
            nu, 1.0 / comb.finesse, gamma=comb.gamma
        )
    if model is TransferModel.IDEAL:
        if comb.finesse <= 1.0:
            raise ValueError(
                f"finesse must exceed 1 for the ideal square comb, got "
                f"{comb.finesse}; raise finesse or use model = broadened"
            )
        return sus.chi_square_series(
            nu, 1.0 / comb.finesse, harmonics, gamma=comb.gamma
        )
    return sus.epsilon_broadened(
        nu, comb.half_width, gamma=comb.gamma, pair_count=comb.pair_count
    )


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric detuning grid ``(k - samples/2) * spacing``."""

    half_span: float
    samples: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.half_span):
            raise ValueError(f"half_span must be finite, got {self.half_span}")
        if self.half_span <= 0.0:
            raise ValueError(f"half_span must be positive, got {self.half_span}")
        if self.samples < 16 or self.samples & (self.samples - 1):
            raise ValueError(
                f"samples must be a power of two >= 16, got {self.samples}"
            )

    @classmethod
    def for_pulse(
        cls, pulse: "PulseSpec", span_factor: float, samples: int
    ) -> "FrequencyGrid":
        """Grid of half-span ``span_factor * pulse.sigma``."""
        if not (math.isfinite(span_factor) and span_factor > 0.0):
            raise ValueError(
                f"span_factor must be finite and positive, got {span_factor}"
            )
        half_span = span_factor * pulse.sigma
        if half_span > _SQUARE_SAFE:
            raise ValueError(
                f"span_factor * sigma, the grid's half-span, must be at most "
                f"{_SQUARE_SAFE:g}, got {half_span:g}"
            )
        return cls(half_span, samples)

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
        for name in ("amplitude", "sigma", "center", "phase"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 1.0 / _SQUARE_SAFE <= self.sigma <= _SQUARE_SAFE:
            raise ValueError(
                f"sigma must lie between {1.0 / _SQUARE_SAFE:g} and "
                f"{_SQUARE_SAFE:g}, got {self.sigma}"
            )


@dataclass
class TimeSignal:
    """Complex field samples on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        """The time step, from the whole run of samples.

        Neighbouring samples far from ``t = 0`` differ by the step only
        to about 1e-11 relative; the span divided by the sample count
        is exact to rounding.
        """
        return float((self.times[-1] - self.times[0]) / (self.times.size - 1))

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


def _exponent(packed: np.ndarray, d_p: float) -> np.ndarray:
    """The exponent ``-(d_p/2)(chi'' - 1j chi')`` of the transfer."""
    return -0.5 * d_p * (packed.real - 1j * packed.imag)


def transfer_exponent(packed: np.ndarray, d_p: float) -> np.ndarray:
    """``exp(-(d_p/2)(chi'' - 1j chi'))`` from a packed response."""
    return np.exp(_exponent(packed, d_p))


def _grid_response(
    comb: CombSpec,
    grid: FrequencyGrid,
    model: TransferModel,
    harmonics: int | None,
) -> np.ndarray:
    """Packed response of a comb on a grid, read-only so callers can share it.

    Every comb's response at ``-nu`` is the conjugate of that at ``nu``.
    On a grid of more than 1024 samples the comb is evaluated once, on
    ``0, spacing, ..., half_span``; the lower half and the unpaired edge
    sample ``-half_span`` are their conjugates, so the halves mirror
    each other bit for bit.  A smaller grid is evaluated whole.
    """
    with np.errstate(invalid="ignore"):
        if grid.samples <= 1024:
            packed = comb_response(comb, grid.points(), model, harmonics)
        else:
            h = grid.samples // 2
            nu = np.arange(h + 1) * grid.spacing
            upper = comb_response(comb, nu, model, harmonics)
            packed = np.empty(grid.samples, dtype=complex)
            packed[h:] = upper[:h]
            np.conjugate(upper[:0:-1], out=packed[:h])
    packed.flags.writeable = False
    return packed


def build_transfer(
    comb: CombSpec,
    medium: MediumSpec,
    grid: FrequencyGrid,
    model: TransferModel = TransferModel.BROADENED,
    harmonics: int | None = 2000,
    *,
    response: np.ndarray | None = None,
) -> TransferFunction:
    """Sample the transfer of a comb on a grid.

    ``response`` is the comb's packed response on ``grid`` under
    ``model`` and ``harmonics``, as :meth:`afcsim.protocols.RunSpec.response`
    gives it; when None it is computed afresh.  Pass one only to share
    it between calls that differ in ``medium`` alone, such as the depths
    of a sweep: nothing but its shape is checked against the other
    arguments.  Nothing is kept between calls.

    The values are :func:`transfer_exponent` of that response, bit for
    bit.  When the exponent's halves mirror each other (see
    :func:`_mirror_halves`), only the centre, the upper half and the
    edge sample are exponentiated, and the lower half is the conjugate
    of the upper.  At a positive depth every response does on grids of
    more than 1024 samples, which :func:`_grid_response` mirrors.

    Raises ``ValueError`` if ``response`` does not have one sample per
    grid point; if any sample is non-finite: one such sample
    would spread through every FFT that follows; or if any gains more
    than ``_MAX_GAIN``.  A passive comb never amplifies, but the
    truncated ideal series dips up to 9 % below zero absorption near
    tooth edges, a gain of up to ``exp(0.045 d_p)`` that swamps the
    output of a deep comb.
    """
    if response is None:
        response = _grid_response(comb, grid, model, harmonics)
    elif response.shape != (grid.samples,):
        raise ValueError(
            f"response has shape {response.shape}, the grid needs ({grid.samples},)"
        )
    with np.errstate(invalid="ignore"):
        exponent = _exponent(response, medium.d_p)
        gain = exponent.real > math.log(_MAX_GAIN)
        if gain.any():
            raise ValueError(
                f"transfer gains more than {_MAX_GAIN:.0e} at {int(gain.sum())} grid "
                f"samples, first at detuning {grid.points()[np.argmax(gain)]:.6g}, "
                "where the absorption is negative; lower d_p or use model = broadened"
            )
        upper, lower = _mirror_halves(exponent)
        # exp keeps the sign of a zero imaginary part, which conj flips
        if lower is None and upper.imag.all():
            h = grid.samples // 2
            values = np.empty_like(exponent)
            np.exp(exponent[h:], out=values[h:])
            np.exp(exponent[:1], out=values[:1])
            np.conjugate(values[:h:-1], out=values[1:h])
        else:
            values = np.exp(exponent)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(
            f"transfer is non-finite at {int(bad.sum())} grid samples, first at "
            f"detuning {grid.points()[np.argmax(bad)]:.6g}: a sample sits on a "
            "sharp tooth edge; change finesse, samples or span_factor, or use "
            "gamma > 0"
        )
    return TransferFunction(grid=grid, values=values)


def gaussian_spectrum(pulse: PulseSpec, grid: FrequencyGrid) -> np.ndarray:
    nu = grid.points()
    envelope = (math.sqrt(math.pi) / pulse.sigma) * np.exp(
        -(nu**2) / (4.0 * pulse.sigma**2)
    )
    if pulse.center == 0.0 and pulse.phase == 0.0:
        # the carrier is exp(0j) = 1 exactly, so the product would only
        # convert: same bits, zero imaginary parts positive
        return (pulse.amplitude * envelope).astype(complex)
    carrier = np.exp(1j * (pulse.phase + nu * pulse.center))
    return pulse.amplitude * envelope * carrier


def _time_step(grid: FrequencyGrid, oversample: int) -> tuple[int, float]:
    """Length and step of the zero-padded time grid ``s dt``, ``s`` centred."""
    if oversample < 1 or oversample & (oversample - 1):
        raise ValueError(f"oversample must be a power of two, got {oversample}")
    total = grid.samples * oversample
    return total, 2.0 * math.pi / (total * grid.spacing)


def _first_index(x: float, dt: float, half: int) -> int:
    """Least ``s`` in ``[-half, half]`` with ``s * dt >= x``, else ``half``."""
    s = math.ceil(min(max(x / dt, -half), half))
    while s > -half and (s - 1) * dt >= x:
        s -= 1
    while s < half and s * dt < x:
        s += 1
    return s


def _fast_length(n: int) -> int:
    """Least ``2^a 3^b 5^c >= n``: a transform length numpy does fast."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd
            while length < n:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


@functools.lru_cache(maxsize=8)
def _chirp_plan(
    samples: int, oversample: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bluestein factors between a half spectrum and a run of time samples.

    With ``n = samples * oversample``, positive frequency index
    ``q = i + 1`` for ``i < samples/2 - 1`` and time index
    ``s = start + j``, ``2 q s = a(i) + b(j) - (i - j)^2`` where
    ``a(i) = i^2 + 2 start i`` and ``b(j) = j^2 + 2 (start + j)``.  So
    ``exp(-2j pi q s / n) = pre[i] post[j] g(i - j)`` with the chirp
    ``g(e) = exp(1j pi e^2 / n)``, and the sum over ``i`` is one
    convolution.  The negative frequencies ``-q`` are the same sum of the
    conjugated half, conjugated (see :func:`_mirror_halves`); of the two
    unpaired frequencies, ``0`` has unit factors and the grid's edge
    ``-samples/2`` has ``edge[j] = exp(1j pi s / oversample)``.

    Returns ``(pre, post, kernel, edge)``, ``kernel`` being the FFT of
    ``g`` laid out for the convolution.  The integer phases are reduced
    modulo ``2 n`` (``2 oversample`` for ``edge``) before ``exp``, so
    each factor is exact to rounding whatever ``n``.  Plans are shared
    by every caller and are read-only.
    """
    n = samples * oversample

    def chirp(k: np.ndarray) -> np.ndarray:
        return np.exp(-1j * (math.pi / n) * (k % (2 * n)))

    terms = samples // 2 - 1
    i = np.arange(terms, dtype=np.int64)
    j = np.arange(count, dtype=np.int64)
    e = np.arange(1 - terms, count, dtype=np.int64)
    size = _fast_length(terms + count - 1)
    g = np.zeros(size, dtype=complex)
    g[e % size] = np.conj(chirp(e * e))
    plan = (
        chirp(i * i + 2 * start * i),
        chirp(j * j + 2 * (start + j)),
        np.fft.fft(g),
        np.exp(1j * (math.pi / oversample) * ((start + j) % (2 * oversample))),
    )
    for factor in plan:
        factor.flags.writeable = False
    return plan


def _mirror_halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Positive half ``x[h+1:]`` and conjugated negative half ``conj(x[h-1:0:-1])``.

    ``h = x.size // 2`` is the centre of a grid array, and entry ``i`` of
    either half is the sample ``i + 1`` away from it.  The second half is
    None when it equals the first, as for a mirror-symmetric array
    ``x[h - q] == conj(x[h + q])``: a linear map of the first half then
    stands for both.
    """
    h = x.size // 2
    upper = x[h + 1 :]
    lower = np.conj(x[h - 1 : 0 : -1])
    return upper, None if np.array_equal(upper, lower) else lower


def spectrum_to_signal(
    spectrum: np.ndarray,
    grid: FrequencyGrid,
    oversample: int,
    window: tuple[float, float],
) -> TimeSignal:
    """Inverse transform onto the samples ``lo <= t < hi`` of the time grid.

    The time grid is that of the spectrum zero-padded symmetrically by
    ``oversample``, a power of two: a step ``oversample`` times finer
    than the unpadded one over the same full window of length
    ``2 pi / spacing``, centred on ``t = 0``.  Only the samples of
    ``window = (lo, hi)``, clipped to the full window, are computed, by
    a chirp-z transform of each half of the spectrum with one cached
    plan (see :func:`_chirp_plan`) plus the centre and edge samples
    directly: their times are exactly the padded FFT's and their values
    agree with it to rounding.  When the halves mirror each other (see
    :func:`_mirror_halves`) one transform serves both.
    """
    m = grid.samples
    if spectrum.shape != (m,):
        raise ValueError("spectrum does not match the grid")
    total, dt = _time_step(grid, oversample)
    scale = grid.spacing / (2.0 * math.pi)
    lo, hi = window
    half = total // 2
    start, stop = (_first_index(x, dt, half) for x in window) if lo < hi else (0, 0)
    if stop - start < 2:
        raise ValueError(
            f"window [{lo}, {hi}) holds fewer than two time samples; "
            "raise sigma or span_factor"
        )
    pre, post, kernel, edge = _chirp_plan(m, oversample, start, stop - start)

    def zoom(x: np.ndarray) -> np.ndarray:
        convolved = np.fft.ifft(np.fft.fft(x * pre, kernel.size) * kernel)
        return post * convolved[: stop - start]

    upper, lower = _mirror_halves(spectrum)
    positive = zoom(upper)
    negative = positive if lower is None else zoom(lower)
    values = spectrum[m // 2] + positive + np.conj(negative) + spectrum[0] * edge
    return TimeSignal(times=np.arange(start, stop) * dt, values=scale * values)


def signal_to_spectrum(
    signal: TimeSignal, grid: FrequencyGrid, oversample: int
) -> np.ndarray:
    """Forward transform onto the grid: the inverse of :func:`spectrum_to_signal`.

    ``signal`` must be a run of consecutive samples of the time grid
    that ``spectrum_to_signal`` uses for ``grid`` and ``oversample``;
    the samples outside the run count as zero.  Returns the spectrum on
    ``grid.points()``: the band of the padded transform that the grid
    covers, computed by the adjoint of the same chirp-z plan, once for
    each half of the band, without the padding.
    """
    total, dt = _time_step(grid, oversample)
    half = total // 2
    count = signal.times.size
    start = round(float(signal.times[0]) / dt) if count else 0
    if not (
        count
        and -half <= start
        and start + count <= half
        and np.array_equal(signal.times, np.arange(start, start + count) * dt)
    ):
        raise ValueError(
            "signal is not a run of time samples of this grid and oversample"
        )
    pre, post, kernel, edge = _chirp_plan(grid.samples, oversample, start, count)

    def adjoint(x: np.ndarray) -> np.ndarray:
        convolved = np.fft.ifft(
            np.fft.fft(np.conj(post) * x, kernel.size) * np.conj(kernel)
        )
        return np.conj(pre) * convolved[: pre.size]

    h = grid.samples // 2
    spectrum = np.empty(grid.samples, dtype=complex)
    spectrum[h + 1 :] = adjoint(signal.values)
    spectrum[h - 1 : 0 : -1] = np.conj(adjoint(np.conj(signal.values)))
    spectrum[h] = signal.values.sum()
    spectrum[0] = (np.conj(edge) * signal.values).sum()
    return dt * spectrum


def propagate(
    spectrum: np.ndarray,
    transfer: TransferFunction,
    oversample: int,
    window: tuple[float, float],
) -> TimeSignal:
    """Apply the transfer on its grid and return the output signal."""
    return spectrum_to_signal(
        spectrum * transfer.values, transfer.grid, oversample, window
    )


def echo_window(k_max: int) -> tuple[float, float]:
    """Time window ``[-T, (k_max + 2) T)`` read for echoes ``0 .. k_max``.

    ``T`` is :data:`afcsim.combs.ECHO_DELAY`.  The window holds the
    margins :func:`extract_train` searches around each echo and a trace
    over ``[-1, k_max + 1)`` delays.  A negative ``k_max`` gets the
    window of ``k_max = 0``.
    """
    return -ECHO_DELAY, (max(k_max, 0) + 2) * ECHO_DELAY


@dataclass(frozen=True)
class Probe:
    """Gaussian input pulses on a grid, read on the echo window of ``k_max``.

    The probe is the library's only input path: every simulated
    intensity is divided by its ``reference``, read on the grid
    zero-padded ``_OVERSAMPLE`` (16) times, as
    :func:`afcsim.protocols.recall` reads every output.  ``pulses`` are
    added in order into one input field: a single pulse, or the bins of
    a time-bin state (see :meth:`afcsim.protocols.TimeBinQubit.pulses`).
    One probe serves every transfer on its grid, such as the points of a
    sweep.  ``spectrum`` and ``reference`` are computed on first access
    and then kept, so a run that fails before its first transform
    computes neither.  Only ``pulses`` is checked here, so that
    ``reference`` is a peak: there is at least one pulse, the first has
    a nonzero amplitude and no later one shares its centre.  A bad
    ``k_max`` is reported by the first transform or train that reads it.
    """

    pulses: tuple[PulseSpec, ...]
    grid: FrequencyGrid
    k_max: int

    def __post_init__(self) -> None:
        if not self.pulses:
            raise ValueError("pulses must hold at least one pulse")
        first, *rest = self.pulses
        if first.amplitude == 0.0:
            raise ValueError(
                "pulses: the first pulse's amplitude must be nonzero, "
                "its peak is the reference"
            )
        if any(pulse.center == first.center for pulse in rest):
            raise ValueError(
                f"pulses: a later pulse shares the first pulse's centre "
                f"{first.center}, leaving the reference no bin"
            )

    @property
    def window(self) -> tuple[float, float]:
        return echo_window(self.k_max)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Input spectrum on the grid, the sum of the pulses', read-only."""
        first, *rest = self.pulses
        spectrum = gaussian_spectrum(first, self.grid)
        for pulse in rest:
            spectrum += gaussian_spectrum(pulse, self.grid)
        spectrum.flags.writeable = False
        return spectrum

    @functools.cached_property
    def reference(self) -> float:
        """Peak input intensity inside the first pulse's bin; quoting
        intensities relative to it cancels grid truncation.

        A lone pulse's bin is the whole echo window.  Among several, the
        first pulse's bin is its centre plus or minus half the distance
        to the nearest other centre, so no other pulse's peak is read.
        Overlapping pulses read the peak of their sum there: two unit
        pulses of ``sigma`` 5 at centres 0 and 1e-3 read 3.96.
        """
        first, *rest = self.pulses
        if rest:
            half = 0.5 * min(abs(pulse.center - first.center) for pulse in rest)
            lo, hi = first.center - half, first.center + half
        else:
            lo, hi = self.window
        incoming = spectrum_to_signal(
            self.spectrum, self.grid, _OVERSAMPLE, self.window
        )
        amplitude, _ = peak_in_window(incoming, lo, hi)
        return abs(amplitude) ** 2


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


def check_time_window(signal: TimeSignal, k_max: int, *, trace: bool = False) -> None:
    """Raise ``ValueError`` unless echo ``k_max >= 0`` arrives inside the window.

    An echo past the end of the time window would alias to negative
    times.  With ``trace`` the window must also hold the whole delay
    ``T`` after echo ``k_max``, so that a trace over ``[-1, k_max + 1)``
    delays is not cut short.

    The window ends where the signal's samples end, ``times[-1] + dt``.
    Windowed transforms clip to the full time window, so on the
    :func:`echo_window` of ``k_max`` this is the full window's end when
    the echo window was clipped, and at least ``(k_max + 2) T`` when it
    was not: the verdict is that of the full window either way.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    end = float(signal.times[-1] + signal.dt)
    advice = "raise samples, lower span_factor or lower k_max"
    if k_max * ECHO_DELAY >= end:
        raise ValueError(
            f"time window ends at {end / ECHO_DELAY:.3g} T, too short for echo "
            f"k_max = {k_max}; {advice}"
        )
    if trace and (k_max + 1) * ECHO_DELAY > end:
        raise ValueError(
            f"time window ends at {end / ECHO_DELAY:.3g} T, too short for the "
            f"trace to k_max + 1 = {k_max + 1} T; {advice}"
        )


def extract_train(
    signal: TimeSignal,
    k_max: int,
    *,
    reference_intensity: float | None = None,
) -> PulseTrain:
    """Read echoes ``0 .. k_max`` off a propagated signal.

    Window ``k`` is ``[k T - w, k T + w)`` with ``w = T / 2``, ``T``
    being :data:`afcsim.combs.ECHO_DELAY`.  Intensities are peak field
    intensities divided by ``reference_intensity`` when given (the
    simulated input peak, so grid truncation cancels).  A window holds an echo only if
    :func:`_echo_peak` finds one with a margin of ``w / 2``; otherwise
    its entry has intensity 0 and no arrival.  Echo ``k_max`` must
    arrive inside the time window (see :func:`check_time_window`).
    """
    check_time_window(signal, k_max)
    ref = 1.0 if reference_intensity is None else reference_intensity
    entries = []
    w = 0.5 * ECHO_DELAY
    for k in range(k_max + 1):
        peak = _echo_peak(signal, k * ECHO_DELAY - w, k * ECHO_DELAY + w, 0.5 * w)
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
