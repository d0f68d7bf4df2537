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

import math

import numpy as np

from .combs import _GAMMA_FLOOR, odd_peak_centers

__all__ = [
    "check_harmonics",
    "chi_square_series",
    "chi_square_exact",
    "epsilon_broadened",
    "epsilon_window_center",
    "epsilon_peak_center",
    "harmonic_comb_response",
    "lorentzian_comb_response",
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


# The series needs about 230 bytes per harmonic, 30 MiB at this bound.
_MAX_HARMONICS = 2**17


def check_harmonics(harmonics: int | None) -> int | None:
    """``harmonics`` if it is None or in [1, 2^17], else ValueError."""
    if harmonics is not None and not 1 <= harmonics <= _MAX_HARMONICS:
        raise ValueError(f"harmonics must be in [1, {_MAX_HARMONICS}], got {harmonics}")
    return harmonics


def chi_square_series(
    nu: np.ndarray | float,
    inv_finesse: float,
    harmonics: int | None = 2000,
    *,
    gamma: float = 0.0,
) -> np.ndarray:
    """Response of the infinite (periodic) square comb, optionally broadened.

    Broadening each tooth by a Lorentzian of HWHM ``gamma`` damps
    harmonic ``k`` by ``q^k`` with ``q = exp(-pi gamma)``, as for the
    Lorentzian and harmonic combs.  With ``harmonics`` an integer from 1 to
    2^17 the cosine series for the absorption and its conjugate sine
    series for the dispersion are summed to that order; truncation shows
    the usual ringing at tooth edges.  With ``harmonics=None`` the
    series is resummed in closed form.  For the sharp comb (``q == 1``,
    which ``gamma`` below about 2e-17 rounds to) the absorption, rounded
    to the nearest half, is then exactly 0 or 1 (a sample on a tooth
    edge reads 0, 1/2 or 1, as the rounding of its phase falls) and the
    dispersion is the exact logarithmic profile, divergent at edges; for
    ``q < 1`` both are smooth and finite, the absorption clipped at 0.

    A 1-d, ascending ``nu`` that is uniform to rounding is summed as a
    chirp-z transform, in O(L log L) time for L = N + harmonics; it
    agrees with term-by-term summation to about 1e-11.  Scalars and
    other grids are summed term by term.  Every detuning given is
    evaluated (see :func:`afcsim.propagation._grid_response`).

    Returns ``absorption + 1j * dispersion``.
    """
    if not 0.0 < inv_finesse < 1.0:
        raise ValueError(f"inv_finesse must lie in (0, 1), got {inv_finesse}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    check_harmonics(harmonics)
    nu = np.asarray(nu, dtype=float)
    q = math.exp(-math.pi * gamma)
    if harmonics is None:
        return _square_resummed(nu, inv_finesse, q)
    damping = q ** np.arange(1, harmonics + 1)
    weights = square_harmonic_weights(inv_finesse, harmonics) * damping
    return _square_series(nu, inv_finesse, weights)


def _square_resummed(nu: np.ndarray, inv_finesse: float, q: float) -> np.ndarray:
    """The resummed series ``inv_finesse + sum_k c_k q^k exp(-1j pi k nu)``."""
    # Resummation of sum_k c_k (q x)^k with x on the unit circle; the
    # branch of log never wraps because |arg| stays below pi/2.
    x = q * np.exp(1j * (np.pi * nu))
    alpha = np.pi * inv_finesse
    with np.errstate(divide="ignore", invalid="ignore"):
        onesided = inv_finesse + np.log(
            (1.0 + x * np.exp(-1j * alpha)) / (1.0 + x * np.exp(1j * alpha))
        ) / (1j * np.pi)
    packed = np.empty(nu.shape, dtype=complex)
    if q == 1.0:
        # The sharp comb absorbs 0, 1/2 or 1 but for rounding, which
        # would dip below zero between teeth and amplify; + 0.0 turns
        # -0.0 into 0.0.
        packed.real = np.round(2.0 * onesided.real) / 2.0 + 0.0
    else:
        # Below gamma of about 1e-15 rounding leaves the absorption
        # between teeth as low as -7e-17; clipped, it never amplifies.
        packed.real = np.maximum(onesided.real, 0.0)
    packed.imag = -onesided.imag
    return packed


def _square_series(nu: np.ndarray, mean: float, weights: np.ndarray) -> np.ndarray:
    """``mean + sum_k weights[k - 1] exp(-1j pi k nu)``, chirp-z or term by term."""
    step = _uniform_step(nu)
    if step is not None:
        return _series_chirp_z(nu[0], step, nu.size, mean, weights)
    xbar = np.exp(-1j * (np.pi * nu))
    power = np.ones_like(xbar)
    acc = np.full(nu.shape, mean, dtype=complex)
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
    pair_count: int,
) -> np.ndarray:
    """Unbroadened finite square comb: indicator absorption, log dispersion.

    Absorption is 1 inside teeth, 0 outside and exactly 1/2 on edges.
    Dispersion diverges logarithmically at edges (returned as ``inf``).
    """
    return epsilon_broadened(nu, inv_finesse, gamma=0.0, pair_count=pair_count)


# Blocks of at most _COMB_BLOCK detunings and _COMB_PAIRS detunings x teeth
_COMB_BLOCK = 1024
_COMB_PAIRS = 2**15
_PRODUCT_TEETH = 256
_NEAR_TEETH = 32


def epsilon_broadened(
    nu: np.ndarray | float,
    delta: float,
    *,
    gamma: float,
    pair_count: int,
) -> np.ndarray:
    """Finite square comb with Lorentzian-broadened teeth, in closed form.

    A tooth of half-width ``delta`` at ``c``, convolved with a Lorentzian
    of HWHM ``gamma``, contributes ``-(1/pi) log r_c`` to the packed
    response, with the tooth ratio ``r_c = (nu - c + delta + 1j gamma) /
    (nu - c - delta + 1j gamma)``: its angle is the arctan step of the
    absorption, its modulus the log of the dispersion.  Over all
    ``2 pair_count + 2`` teeth the response is read from the product
    ``P`` of the ratios: absorption ``|arg P| / pi``, dispersion
    ``-ln|P| / pi``.  Teeth that do not overlap (``delta <= 1``) subtend
    at most ``pi`` together, so the angle never wraps and the absorption
    lies in [0, 1].  ``gamma = 0`` reduces to sharp indicator teeth: the
    ratios are real, the absorption is 1 where ``P < 0`` and 0 where
    ``P > 0``, and a sample on a tooth edge, where ``P`` is 0 or
    infinite, absorbs 1/2 with infinite dispersion.  Teeth of half-width
    ``delta = 1`` touch, tiling ``[-(2 pair_count + 2), 2 pair_count +
    2]``; their product telescopes to that one wide tooth, which is
    evaluated instead, so the shared edges are finite for every
    ``gamma``.  ``gamma`` must be 0 or at least 1e-150, as for
    :class:`afcsim.combs.CombSpec`, so that ``gamma**2`` is clear of
    underflow.

    Against the sum tooth by tooth, the product's rounding grows from
    7e-16 at 20 teeth to 3.3e-15 at 256 and 6.3e-15 at 512; so above 256
    teeth only the 32 nearest each detuning are multiplied out and the
    rest taken in closed form (:func:`_many_teeth`), in time and memory
    that do not grow with the tooth count.  Detunings go in blocks of one
    width, at most 1024 and at most ``2**15 // teeth`` multiplied out,
    the last overlapping the one before: a detuning's value does not
    depend on its block.  Every detuning given is evaluated (see
    :func:`afcsim.propagation._grid_response`).

    Returns ``absorption + 1j * dispersion``.
    """
    nu = np.asarray(nu, dtype=float)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not (gamma == 0.0 or gamma >= _GAMMA_FLOOR):
        raise ValueError(f"gamma must be 0 or at least {_GAMMA_FLOOR:g}, got {gamma}")
    teeth = 2 * pair_count + 2
    if delta == 1.0:
        # each shared edge would add +inf - inf for a sharp tooth
        delta, teeth, centers = float(teeth), 1, np.zeros((1, 1))
    elif teeth <= _PRODUCT_TEETH:
        centers = odd_peak_centers(pair_count)[:, np.newaxis]
    terms = _stirling_terms(delta) if teeth > _PRODUCT_TEETH else ()
    run = teeth if teeth <= _PRODUCT_TEETH else _NEAR_TEETH
    flat = nu.ravel()
    rows = min(_COMB_BLOCK, max(1, _COMB_PAIRS // run))
    # blocks of one width, the last overlapping the one before
    width = -(-flat.size // max(1, -(-flat.size // rows)))
    # the blocks share one workspace, whose pages are touched once
    shape = (run, width)
    work = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex))

    def comb(x: np.ndarray) -> np.ndarray:
        if teeth <= _PRODUCT_TEETH:
            return _finite_comb(x, delta, gamma, centers, work)
        return _many_teeth(x, delta, gamma, teeth // 2, work, terms)

    if flat.size <= rows:
        return comb(flat).reshape(nu.shape)
    packed = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, width):
        start = min(start, flat.size - width)
        packed[start : start + width] = comb(flat[start : start + width])
    return packed.reshape(nu.shape)


def _finite_comb(
    nu: np.ndarray, delta: float, gamma: float, centers: np.ndarray, work: tuple
) -> np.ndarray:
    """Packed response of the finite comb, one product of tooth ratios.

    ``nu`` is 1-d; ``centers`` broadcast to the (teeth, detunings) block
    of ratios.  ``work`` holds the temporaries: two real, one complex.
    """
    x, up, ratios = work
    np.subtract(nu, centers, out=x)
    np.add(x, delta, out=up)
    lo = np.subtract(x, delta, out=x)
    if gamma == 0.0:
        packed = np.empty(nu.size, dtype=complex)
        # A sample on an edge makes one ratio 0 or infinite; teeth that do
        # not touch never share an edge, so the product is never 0 * inf.
        with np.errstate(divide="ignore"):
            product = _row_product(np.divide(up, lo, out=up))
            packed.imag = np.log(np.abs(product)) / -np.pi
        packed.real = np.where(np.isfinite(packed.imag), product < 0.0, 0.5)
        return packed
    # r = (up lo + gamma^2 - 2j delta gamma) / (lo^2 + gamma^2), assembled
    # in place of a complex division
    np.multiply(up, lo, out=up)
    up += gamma**2
    np.square(lo, out=lo)
    lo += gamma**2
    np.divide(up, lo, out=ratios.real)
    np.divide(-2.0 * delta * gamma, lo, out=ratios.imag)
    # log P = ln|P| + 1j arg P, with arg P in (-pi, 0] but for rounding
    packed = np.log(_row_product(ratios)) * (-1j / np.pi)
    np.abs(packed.real, out=packed.real)
    return packed


def _row_product(block: np.ndarray) -> np.ndarray:
    """Product of a (teeth, detunings) block's rows, multiplied in order.

    So each detuning's product is the same whatever the block's width,
    from two detunings on; numpy reduces a single column in another
    order, so a lone one is doubled.
    """
    if block.shape[1] == 1:
        return np.multiply.reduce(block.repeat(2, axis=1), axis=0)[:1]
    return np.multiply.reduce(block, axis=0)


def _many_teeth(
    nu: np.ndarray, delta: float, gamma: float, k: int, work: tuple, terms: tuple
) -> np.ndarray:
    """Packed response of ``2 k`` teeth, tooth ``j`` at ``2 j + 1``.

    The ``r = 32`` teeth ``j0 .. j0 + r - 1`` centred on each detuning are
    multiplied out by :func:`_finite_comb`.  Past them, with ``h = delta /
    2`` and ``m = (nu - 2 j0 - 1 + 1j gamma) / 2``, tooth ``j0 + p`` has
    ratio ``(m - p + h) / (m - p - h)``.  With ``L(z) = Gamma(z + h) /
    Gamma(z - h)`` the ``b = j0 + k`` teeth below the run multiply to
    ``L(m + b + 1) / L(m + 1)``, the ``a = k - r - j0`` above it to
    ``L(r - m) / L(r + a - m)``.  Each ``L`` has ``Re z >= (r - 1) / 2``,
    where Stirling's series about ``w = z - 1/2`` with ``terms`` (see
    :func:`_stirling_terms`) holds to 1e-17.  At ``gamma = 0`` the far
    teeth multiply to a positive number: the absorption stays 0, 1/2 or 1.
    """
    r = _NEAR_TEETH
    j0 = np.clip(np.round((nu - 1.0) / 2.0) - r / 2, -k, k - r)
    centers = 2.0 * (j0 + np.arange(r)[:, np.newaxis]) + 1.0
    packed = _finite_comb(nu, delta, gamma, centers, work)
    # w for the four L; a run at an end of the comb has no teeth beyond
    # it, and that side's two w are the same stand-in, whose L cancel
    m = (nu - centers[0] + 1j * gamma) / 2.0
    below, above, empty = j0 + k, k - r - j0, (r - 1) / 2
    low = np.where(below > 0, m + 0.5, empty)
    high = np.where(above > 0, r - 0.5 - m, empty)
    w = np.array([low + below, low, high, high + above])
    u, tail = (1.0 / w) ** 2, np.zeros_like(w)
    for term in terms:
        tail = (tail + term) * u
    # one log of the four w's ratio, not four logs that cancel
    log_far = delta * np.log(w[0] / w[1] * (w[2] / w[3]))
    log_far -= tail[0] - tail[1] + tail[2] - tail[3]
    return packed - 1j * np.conj(log_far) / np.pi


def _stirling_terms(delta: float) -> tuple[float, ...]:
    """``c_n`` of ``log L = delta log w - sum_n c_n / w^(n - 1)``, odd n, 15 to 3."""
    # c_n = 2 B_n(1/2 + h) / (n (n - 1)), with B_n(1/2 + h) summed from
    # B_i(1/2) = (2^(1 - i) - 1) B_i: no cancellation as h -> 0
    terms, h = [], delta / 2.0
    for n in range(15, 1, -2):
        b_n = sum(
            math.comb(n, i) * (2.0 ** (1 - i) - 1.0) * b * h ** (n - i)
            for i, b in zip(range(0, n, 2), _BERNOULLI)
        )
        terms.append(2.0 * b_n / (n * (n - 1)))
    return tuple(terms)


# The even Bernoulli numbers B_0, B_2, ..., B_14
_BERNOULLI = (1.0, 1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def epsilon_window_center(delta: float, *, gamma: float, pair_count: int) -> float:
    """Residual absorption at the centre of a transparency window."""
    return float(
        epsilon_broadened(0.0, delta, gamma=gamma, pair_count=pair_count).real
    )


def epsilon_peak_center(delta: float, *, gamma: float, pair_count: int) -> float:
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
