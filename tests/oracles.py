"""Independent references the tests check the library against.

None of these runs in the package: each is a second, slower or more
direct route to a number the package computes another way.

* :func:`full_transform` and :func:`full_forward`: the whole zero-padded
  FFT pair, against which the windowed chirp-z transforms are compared;
* :func:`lorentzian_convolution`: the broadened comb by quadrature;
* :func:`kramers_kronig`: the dispersion from the absorption;
* :func:`coefficients_numeric`: the echo train by Fourier projection of
  one period of the transfer;
* :func:`tooth_sum`: the finite square comb summed tooth by tooth, in
  float64, against which the product of tooth ratios is compared;
* :func:`tooth_sum_longdouble`: the same sum in ``np.longdouble``, one
  detuning at a time, against which both of the package's kernels are
  held to a stated bound.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from afcsim.combs import CombShape, CombSpec, MediumSpec
from afcsim.propagation import (
    FrequencyGrid,
    TimeSignal,
    TransferModel,
    comb_response,
    transfer_exponent,
)
from afcsim.susceptibility import odd_peak_centers, population_difference
from afcsim.train import TrainCoefficients


def _alternating(n: int) -> np.ndarray:
    alt = np.ones(n)
    alt[1::2] = -1.0
    return alt


def full_transform(
    spectrum: np.ndarray, grid: FrequencyGrid, oversample: int
) -> TimeSignal:
    """Inverse transform onto the whole centred time grid, by one FFT.

    Zero-pads the spectrum symmetrically by ``oversample`` so the time
    step shrinks accordingly; the window length ``2 pi / spacing`` is
    unchanged.  Every sample of the window is computed.
    """
    m = grid.samples
    total = m * oversample
    dt = 2.0 * math.pi / (total * grid.spacing)
    scale = grid.spacing / (2.0 * math.pi)
    left = (total - m) // 2
    padded = np.zeros(total, dtype=complex)
    padded[left : left + m] = spectrum
    alt = _alternating(total)
    values = scale * alt * np.fft.fft(padded * alt)
    times = (np.arange(total) - total // 2) * dt
    return TimeSignal(times=times, values=values)


def full_forward(
    values: np.ndarray, grid: FrequencyGrid, oversample: int
) -> np.ndarray:
    """Band of the full zero-padded forward FFT of a whole time window."""
    n = grid.samples * oversample
    dt = 2.0 * math.pi / (n * grid.spacing)
    alt = np.where(np.arange(n) % 2, -1.0, 1.0)
    padded = dt * alt * n * np.fft.ifft(values * alt)
    left = (n - grid.samples) // 2
    return padded[left : left + grid.samples]


def lorentzian_convolution(
    comb: CombSpec | Callable[[np.ndarray], np.ndarray],
    nu: np.ndarray | float,
    *,
    gamma: float | None = None,
    support: float | None = None,
    rtol: float = 1e-10,
) -> np.ndarray:
    """Numerically convolve a population profile with a Lorentzian.

    Direct quadrature of

        absorption(v) = (1/pi) int_0^inf [n(v+u) + n(v-u)] g/(u^2+g^2) du
        dispersion(v) = (1/pi) int_0^inf [n(v+u) - n(v-u)] u/(u^2+g^2) du

    used as an independent check of the closed forms.  ``comb`` may be
    a :class:`CombSpec` (profile from :func:`population_difference`,
    ``gamma`` defaulting to its broadening) or any callable profile, in
    which case ``gamma`` and a finite ``support`` (profile vanishes for
    ``|x| > support``) are required.
    """
    if isinstance(comb, CombSpec):
        profile = lambda x: population_difference(comb, x)  # noqa: E731
        if gamma is None:
            gamma = comb.gamma
        if support is None:
            support = (2 * comb.pair_count + 1) + comb.half_width
            if comb.shape is not CombShape.SQUARE:
                # Slow tails: pad until the profile is negligible.
                support += 40.0 * comb.half_width
    else:
        profile = comb
        if gamma is None or support is None:
            raise ValueError("callable profiles need explicit gamma and support")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    from scipy.integrate import quad

    scalar = np.ndim(nu) == 0
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    out = np.empty(nu.shape, dtype=complex)
    for i, v in enumerate(nu):
        upper = support + abs(v)

        def even(u: float, v: float = v) -> float:
            return float(profile(v + u) + profile(v - u))

        def odd(u: float, v: float = v) -> float:
            return float(profile(v + u) - profile(v - u))

        absorption = quad(
            lambda u: even(u) * gamma / (u * u + gamma * gamma),
            0.0,
            upper,
            epsabs=0.0,
            epsrel=rtol,
            limit=400,
        )[0] / np.pi
        dispersion = quad(
            lambda u: odd(u) * u / (u * u + gamma * gamma),
            0.0,
            upper,
            epsabs=1e-14,
            epsrel=rtol,
            limit=400,
        )[0] / np.pi
        out[i] = absorption + 1j * dispersion
    return complex(out[0]) if scalar else out


def kramers_kronig(
    absorption: np.ndarray,
    nu: np.ndarray,
    *,
    periodic: bool = False,
    pad_factor: int = 8,
) -> np.ndarray:
    """Dispersion from absorption via the causality relation.

    Computes ``-H[absorption]`` with ``H`` the Hilbert transform, using
    the FFT sign multiplier.  With ``periodic=True`` the grid must
    cover an integer number of periods of a periodic absorption; the
    circular transform is then exact harmonic by harmonic.  Otherwise
    the signal is zero-padded by ``pad_factor`` and the result is
    reliable away from the grid edges only.
    """
    absorption = np.asarray(absorption, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if absorption.shape != nu.shape or absorption.ndim != 1:
        raise ValueError("absorption and nu must be matching 1-d arrays")
    n = absorption.size
    if periodic:
        padded = absorption
    else:
        if pad_factor < 1:
            raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
        pad = (pad_factor - 1) * n
        left = pad // 2
        padded = np.concatenate(
            [np.zeros(left), absorption, np.zeros(pad - left)]
        )
    freqs = np.fft.fftfreq(padded.size)
    hilbert = np.fft.ifft(np.fft.fft(padded) * (-1j) * np.sign(freqs)).real
    if not periodic:
        hilbert = hilbert[left : left + n]
    return -hilbert


def coefficients_numeric(
    comb: CombSpec,
    medium: MediumSpec,
    k_max: int,
    *,
    model: TransferModel = TransferModel.IDEAL,
    harmonics: int | None = 2000,
    resolution: int = 2**18,
) -> TrainCoefficients:
    """Train coefficients by Fourier projection of one period of ``H``.

    Samples the transfer on one period with half-sample offsets (so no
    sample lands on a tooth edge) and reads ``a_m C0`` off the DFT.
    Any model accepted by :func:`afcsim.propagation.comb_response`
    works; finite-comb models make ``H`` only approximately periodic,
    which shows up as a small leakage floor.  The exponent of the
    truncated square series aliases onto the low modes unless
    ``resolution`` is at least ``32 * harmonics`` (2000 harmonics still
    give errors of 1e-4 at ``2**15`` samples), so smaller resolutions
    are rejected.
    """
    if resolution < 4 * (k_max + 1) or resolution & (resolution - 1):
        raise ValueError("resolution must be a power of two well above k_max")
    if harmonics is not None and resolution < 32 * harmonics:
        raise ValueError(
            f"resolution {resolution} is below 32 * harmonics = {32 * harmonics}: "
            "the truncated series would alias; raise resolution or lower harmonics"
        )
    p = resolution
    nu = -1.0 + 2.0 * (np.arange(p) + 0.5) / p
    h = transfer_exponent(comb_response(comb, nu, model, harmonics), medium.d_p)
    m = np.arange(k_max + 1)
    spectrum = np.fft.fft(h)[: k_max + 1] / p
    scaled = (-1.0) ** m * np.exp(-1j * m * math.pi / p) * spectrum
    prompt = scaled[0]
    return TrainCoefficients(prompt_factor=complex(prompt), values=scaled / prompt)


def tooth_sum(
    nu: np.ndarray, delta: float, gamma: float, centers: np.ndarray
) -> np.ndarray:
    """Packed response of the finite comb, summed tooth by tooth."""
    x = nu[..., np.newaxis] - centers
    up = x + delta
    lo = np.subtract(x, delta, out=x)
    if gamma == 0.0:
        absorption = 0.5 * (np.sign(up) - np.sign(lo)).sum(axis=-1)
        with np.errstate(divide="ignore"):
            dispersion = -(0.5 / np.pi) * np.log(up**2 / lo**2).sum(axis=-1)
    else:
        # arctan(up / gamma) - arctan(lo / gamma) as one atan2: up > lo
        # puts the difference in (0, pi), the range of atan2 with a
        # positive first argument, so every term is passive.  The
        # temporaries, each a block of detunings times teeth, are reused
        # in place.
        steps = up * lo
        steps += gamma**2
        absorption = (
            np.arctan2(2.0 * delta * gamma, steps, out=steps).sum(axis=-1) / np.pi
        )
        np.square(up, out=up)
        up += gamma**2
        np.square(lo, out=lo)
        lo += gamma**2
        ratio = np.divide(up, lo, out=up)
        dispersion = -(0.5 / np.pi) * np.log(ratio, out=ratio).sum(axis=-1)
    # Assembling via 1j * inf would poison the real part with nan.
    packed = np.empty(np.shape(absorption), dtype=complex)
    packed.real = absorption
    packed.imag = dispersion
    return packed


def tooth_sum_longdouble(
    nu: np.ndarray | float, delta: float, gamma: float, pair_count: int
) -> np.ndarray:
    """:func:`tooth_sum` over all ``2 pair_count + 2`` teeth in long double.

    One detuning at a time, in runs of ``2**16`` teeth, so that memory
    does not grow with the tooth count.  Each distance ``nu - c`` is
    exact, so a sample reads as on a tooth edge exactly where it is one.
    Returns a ``np.clongdouble`` array of the shape of ``nu``.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    first, stop = -2 * pair_count - 1, 2 * pair_count + 2
    nu = np.asarray(nu, dtype=float)
    packed = np.empty(nu.shape, dtype=np.clongdouble)
    for index, value in np.ndenumerate(nu):
        absorption = dispersion = ld(0)
        for start in range(first, stop, 2**17):
            x = ld(value) - np.arange(start, min(start + 2**17, stop), 2, dtype=ld)
            up, lo = x + ld(delta), x - ld(delta)
            if gamma == 0.0:
                absorption += (np.sign(up) - np.sign(lo)).sum() / 2
                with np.errstate(divide="ignore"):
                    dispersion -= np.log(np.abs(up / lo)).sum() / pi
            else:
                g = ld(gamma)
                absorption += np.arctan2(2 * ld(delta) * g, up * lo + g * g).sum() / pi
                ratio = (up * up + g * g) / (lo * lo + g * g)
                dispersion -= np.log(ratio).sum() / (2 * pi)
        packed.real[index] = absorption
        packed.imag[index] = dispersion
    return packed
