"""Complex linear response of prepared combs.

Every function here returns the response packed into a single complex
array ``absorption + 1j * dispersion``.  Both parts are real spectra;
the packing is a container, not an analytic-signal convention.  The
propagation layer unpacks them into the one-sided transfer exponent
``absorption - 1j * dispersion`` (see :mod:`afcsim.propagation`), which
is what multiplies the field.

Detunings are angular and in units of ``nu0``, so tooth centres sit at
odd integers (window-centred layout, see :mod:`afcsim.combs`).

Absorption is normalised to unit tooth height: a monochromatic field at
a tooth centre of an ideal comb decays as ``exp(-d_p / 2)`` in field
for peak optical depth ``d_p``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .combs import CombSpec, CombShape, odd_peak_centers, population_difference

__all__ = [
    "chi_square_series",
    "chi_square_exact",
    "epsilon_broadened",
    "epsilon_window_center",
    "epsilon_peak_center",
    "harmonic_comb_response",
    "lorentzian_comb_response",
    "lorentzian_convolution",
    "kramers_kronig",
    "square_harmonic_weights",
]


def square_harmonic_weights(inv_finesse: float, harmonics: int) -> np.ndarray:
    """Cosine-series weights ``c_k`` of the periodic square comb.

    The infinite comb of unit-height square teeth with duty cycle
    ``inv_finesse`` has absorption
    ``chi'' = inv_finesse + sum_k c_k cos(k pi nu)`` with

        c_k = (2 / pi) (-1)^k sin(k pi inv_finesse) / k.

    Returns ``c_1 .. c_harmonics``.
    """
    k = np.arange(1, harmonics + 1)
    return (2.0 / np.pi) * (-1.0) ** k * np.sin(k * np.pi * inv_finesse) / k


def chi_square_series(
    nu: np.ndarray | float,
    inv_finesse: float,
    harmonics: int | None = 2000,
) -> np.ndarray:
    """Response of the infinite (periodic) square comb.

    With ``harmonics`` a positive integer the cosine series for the
    absorption and its conjugate sine series for the dispersion are
    summed to that order; truncation shows the usual ringing at tooth
    edges.  With ``harmonics=None`` the series is resummed in closed
    form: the absorption is then exactly 0 or 1 (1/2 on edges) and the
    dispersion is the exact logarithmic profile, divergent at edges.

    A 1-d, ascending ``nu`` that is uniform to rounding is summed as a
    chirp-z transform, in O(L log L) time for L = N + harmonics; it
    agrees with term-by-term summation to about 1e-11.  Scalars and
    other grids are summed term by term.

    Returns ``absorption + 1j * dispersion``.
    """
    if not 0.0 < inv_finesse < 1.0:
        raise ValueError(f"inv_finesse must lie in (0, 1), got {inv_finesse}")
    nu = np.asarray(nu, dtype=float)
    phase = np.pi * nu
    if harmonics is None:
        # Resummation of sum_k c_k x^k / with x on the unit circle; the
        # branch of log never wraps because |arg| stays below pi/2.
        x = np.exp(1j * phase)
        alpha = np.pi * inv_finesse
        with np.errstate(divide="ignore", invalid="ignore"):
            onesided = inv_finesse + np.log(
                (1.0 + x * np.exp(-1j * alpha)) / (1.0 + x * np.exp(1j * alpha))
            ) / (1j * np.pi)
        return np.conj(onesided)
    if harmonics < 1:
        raise ValueError(f"harmonics must be >= 1 or None, got {harmonics}")
    weights = square_harmonic_weights(inv_finesse, harmonics)
    step = _uniform_step(nu)
    if step is not None:
        return _series_chirp_z(nu[0], step, nu.size, inv_finesse, weights)
    xbar = np.exp(-1j * phase)
    power = np.ones_like(xbar)
    acc = np.full(nu.shape, inv_finesse, dtype=complex)
    for c_k in weights:
        power = power * xbar
        acc += c_k * power
    return acc


def _uniform_step(nu: np.ndarray) -> float | None:
    """Step of a 1-d ascending grid that is uniform to rounding, else None."""
    if nu.ndim != 1 or nu.size < 2:
        return None
    step = (nu[-1] - nu[0]) / (nu.size - 1)
    deviation = np.abs(nu - (nu[0] + step * np.arange(nu.size))).max()
    if step > 0.0 and deviation <= 4.0 * np.finfo(float).eps * np.abs(nu).max():
        return float(step)
    return None


def _series_chirp_z(
    start: float, step: float, points: int, mean: float, weights: np.ndarray
) -> np.ndarray:
    """``mean + sum_k c_k exp(-1j pi k nu_j)`` on ``nu_j = start + j step``.

    A chirp-z transform by Bluestein's algorithm: with
    ``k j = (k^2 + j^2 - (k - j)^2) / 2`` the sum over ``k`` becomes a
    convolution with the chirp ``w(m) = exp(-1j pi step m^2 / 2)``,
    done with three FFTs.  The chirp has period ``4 / step`` in ``m^2``;
    reducing ``m^2`` by it before ``exp`` keeps every phase below 2 pi,
    so its rounding error no longer grows as ``m^2`` (about 1e-9 rad at
    2^16 points).  The rounding of the period itself only shifts
    ``step`` by about 1e-16 relative, the same for every chirp factor.
    """
    coeffs = np.concatenate(([mean], weights))
    terms = coeffs.size
    size = 1 << (points + terms - 2).bit_length()
    m = np.arange(max(points, terms), dtype=float)
    chirp = np.exp(-0.5j * np.pi * step * np.mod(m * m, 4.0 / step))
    series = np.zeros(size, dtype=complex)
    series[:terms] = coeffs * np.exp(-1j * np.pi * start * m[:terms]) * chirp[:terms]
    kernel = np.zeros(size, dtype=complex)
    kernel[:points] = np.conj(chirp[:points])
    kernel[size - terms + 1 :] = np.conj(chirp[terms - 1 : 0 : -1])
    convolved = np.fft.ifft(np.fft.fft(series) * np.fft.fft(kernel))
    return chirp[:points] * convolved[:points]


def chi_square_exact(
    nu: np.ndarray | float,
    inv_finesse: float,
    pair_count: int = 9,
) -> np.ndarray:
    """Unbroadened finite square comb: indicator absorption, log dispersion.

    Absorption is 1 inside teeth, 0 outside and exactly 1/2 on edges.
    Dispersion diverges logarithmically at edges (returned as ``inf``).
    """
    return epsilon_broadened(nu, inv_finesse, gamma=0.0, pair_count=pair_count)


# Detunings per block of the finite comb: the (block, teeth) broadcast
# stays in cache and memory stays O(N), while each row is summed exactly
# as a single broadcast would sum it.
_COMB_BLOCK = 1024


def epsilon_broadened(
    nu: np.ndarray | float,
    delta: float,
    *,
    gamma: float = 0.01,
    pair_count: int = 9,
) -> np.ndarray:
    """Finite square comb with Lorentzian-broadened teeth, in closed form.

    Each tooth of half-width ``delta`` convolved with a Lorentzian of
    HWHM ``gamma`` contributes arctan steps to the absorption and a log
    ratio to the dispersion; the sum runs over all ``2 pair_count + 2``
    teeth.  ``gamma = 0`` reduces to sharp indicator teeth.

    Returns ``absorption + 1j * dispersion``.
    """
    nu = np.asarray(nu, dtype=float)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    centers = odd_peak_centers(pair_count)
    if nu.size <= _COMB_BLOCK:
        return _finite_comb(nu, delta, gamma, centers)
    flat = nu.ravel()
    packed = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, _COMB_BLOCK):
        stop = start + _COMB_BLOCK
        packed[start:stop] = _finite_comb(flat[start:stop], delta, gamma, centers)
    return packed.reshape(nu.shape)


def _finite_comb(
    nu: np.ndarray, delta: float, gamma: float, centers: np.ndarray
) -> np.ndarray:
    """Packed response of the finite comb, one broadcast over all teeth."""
    up = nu[..., np.newaxis] - centers + delta
    lo = nu[..., np.newaxis] - centers - delta
    if gamma == 0.0:
        absorption = 0.5 * (np.sign(up) - np.sign(lo)).sum(axis=-1)
        with np.errstate(divide="ignore"):
            dispersion = -(0.5 / np.pi) * np.log(up**2 / lo**2).sum(axis=-1)
        # Assembling via 1j * inf would poison the real part with nan.
        packed = np.empty(np.broadcast(absorption, dispersion).shape, dtype=complex)
        packed.real = absorption
        packed.imag = dispersion
        return packed
    # A subnormal gamma overflows the ratios to +-inf, whose arctan is
    # the exact sharp step.
    with np.errstate(over="ignore"):
        absorption = (np.arctan(up / gamma) - np.arctan(lo / gamma)).sum(axis=-1) / np.pi
    dispersion = -(0.5 / np.pi) * np.log(
        (up**2 + gamma**2) / (lo**2 + gamma**2)
    ).sum(axis=-1)
    return absorption + 1j * dispersion


def epsilon_window_center(
    delta: float, *, gamma: float = 0.01, pair_count: int = 9
) -> float:
    """Residual absorption at the centre of a transparency window."""
    return float(
        epsilon_broadened(0.0, delta, gamma=gamma, pair_count=pair_count).real
    )


def epsilon_peak_center(
    delta: float, *, gamma: float = 0.01, pair_count: int = 9
) -> float:
    """Absorption at the centre of the first tooth."""
    return float(
        epsilon_broadened(1.0, delta, gamma=gamma, pair_count=pair_count).real
    )


def harmonic_comb_response(
    nu: np.ndarray | float, *, gamma: float = 0.0
) -> np.ndarray:
    """Periodic raised-cosine comb, optionally broadened.

    The profile has a single harmonic, so broadening only damps it:
    ``chi'' - 1j chi' = 1/2 + (q / 2) exp(1j pi nu)`` with
    ``q = exp(-pi gamma)``.
    """
    nu = np.asarray(nu, dtype=float)
    q = np.exp(-np.pi * gamma)
    onesided = 0.5 - 0.5 * q * np.exp(1j * np.pi * nu)
    return np.conj(onesided)


def lorentzian_comb_response(
    nu: np.ndarray | float,
    inv_finesse: float,
    *,
    gamma: float = 0.0,
) -> np.ndarray:
    """Periodic comb of Lorentzian teeth of HWHM ``inv_finesse``.

    The periodised Lorentzian sums to a closed form; extra homogeneous
    broadening ``gamma`` just adds to the tooth width inside the decay
    factor ``q = exp(-pi (Gamma + gamma))``:

        chi'' - 1j chi' = (pi / (2 F)) (1 - q x) / (1 + q x),
        x = exp(1j pi nu).

    Normalised to unit tooth height at ``gamma = 0``.
    """
    if not 0.0 < inv_finesse:
        raise ValueError(f"inv_finesse must be positive, got {inv_finesse}")
    nu = np.asarray(nu, dtype=float)
    q = np.exp(-np.pi * (inv_finesse + gamma))
    x = np.exp(1j * np.pi * nu)
    onesided = (np.pi / 2.0) * inv_finesse * (1.0 - q * x) / (1.0 + q * x)
    return np.conj(onesided)


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
    # scipy is imported here, not at module level: nothing else in the
    # package needs it, and importing scipy.integrate at package import
    # would more than double the start-up time of every command-line run.
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
