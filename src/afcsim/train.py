"""Closed-form pulse-train coefficients and their numeric counterparts.

Writing the one-sided response as ``1/A + sum_k b-harmonics`` turns the
transfer into ``C0 * sum_m a_m exp(1j m nu T)``: a prompt attenuation
``C0`` times a train of re-emissions at multiples of the comb delay.
This module computes the ``a_m`` exactly from the tooth shape and, as a
cross-check, numerically from any transfer model by projecting one
period of ``H`` onto its Fourier modes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .combs import CombShape, CombSpec, MediumSpec
from .propagation import TransferModel, comb_response, transfer_exponent
from .susceptibility import epsilon_broadened, square_harmonic_weights

__all__ = [
    "Provenance",
    "TrainCoefficients",
    "BroadenedCoefficients",
    "prompt_attenuation",
    "first_echo_amplitude",
    "first_echo_intensity",
    "optimal_depth",
    "ideal_limit_intensity",
    "series_coefficients_square",
    "harmonic_train",
    "lorentzian_train",
    "closed_train",
    "coefficients_numeric",
    "broadened_A_coefficients",
]


class Provenance(str, enum.Enum):
    CLOSED = "closed-form"
    NUMERIC = "numeric-projection"


@dataclass(frozen=True)
class TrainCoefficients:
    """Prompt factor ``C0`` and relative amplitudes ``a_0 .. a_k``.

    The field emitted at delay ``k T`` has amplitude
    ``prompt_factor * values[k]`` relative to the input peak;
    ``values[0]`` is 1 by construction.
    """

    prompt_factor: complex
    values: np.ndarray
    provenance: Provenance

    def amplitude(self, k: int) -> complex:
        return complex(self.prompt_factor * self.values[k])

    def intensity(self, k: int) -> float:
        return abs(self.amplitude(k)) ** 2

    def intensities(self) -> np.ndarray:
        return np.abs(self.prompt_factor * self.values) ** 2

    @property
    def k_max(self) -> int:
        return self.values.size - 1


def _mean_response(comb: CombSpec) -> float:
    """Period-average of the one-sided response, i.e. the A0 coefficient."""
    if comb.shape is CombShape.SQUARE:
        return 1.0 / comb.finesse
    if comb.shape is CombShape.HARMONIC:
        return 0.5
    return math.pi / (2.0 * comb.finesse)


def _decay_factor(comb: CombSpec) -> float:
    """Per-delay dephasing ``q`` of the first harmonic."""
    gamma = comb.gamma
    if comb.shape is CombShape.LORENTZIAN:
        gamma = gamma + comb.half_width
    return math.exp(-math.pi * gamma)


def prompt_attenuation(comb: CombSpec, medium: MediumSpec) -> float:
    """Field attenuation ``C0 = exp(-A0 d_p / 2)`` of the prompt pulse."""
    return math.exp(-0.5 * _mean_response(comb) * medium.d_p)


def first_echo_amplitude(comb: CombSpec, medium: MediumSpec) -> float:
    """Field amplitude ``C1 = a1 C0`` of the first re-emission."""
    d_p = medium.d_p
    q = _decay_factor(comb)
    if comb.shape is CombShape.SQUARE:
        a1 = (d_p / math.pi) * math.sin(math.pi / comb.finesse) * q
    elif comb.shape is CombShape.HARMONIC:
        a1 = 0.25 * d_p * q
    else:
        a1 = (math.pi * d_p / (2.0 * comb.finesse)) * q
    return a1 * prompt_attenuation(comb, medium)


def first_echo_intensity(comb: CombSpec, medium: MediumSpec) -> float:
    """Recall efficiency ``C1^2`` of the first re-emission."""
    return first_echo_amplitude(comb, medium) ** 2


def optimal_depth(comb: CombSpec) -> float:
    """Depth maximising the first echo: ``2 / A0`` for any tooth shape."""
    return 2.0 / _mean_response(comb)


def ideal_limit_intensity(finesse: float) -> float:
    """First-echo intensity of an unbroadened square comb at optimal depth.

    ``(2 F / pi)^2 sin^2(pi / F) exp(-2)``, increasing in ``F`` towards
    the ``4 exp(-2) = 0.54`` ceiling.
    """
    if finesse <= 1.0:
        raise ValueError(f"finesse must exceed 1, got {finesse}")
    return (2.0 * finesse / math.pi) ** 2 * math.sin(
        math.pi / finesse
    ) ** 2 * math.exp(-2.0)


def _exponentiate_series(b: np.ndarray) -> np.ndarray:
    """Coefficients of ``exp(sum_k b_k x^k)`` up to ``x^len(b)``.

    Standard power-series recursion
    ``m a_m = sum_{j=1}^{m} j b_j a_{m-j}`` with ``a_0 = 1``.
    """
    k_max = b.size
    a = np.zeros(k_max + 1)
    a[0] = 1.0
    j = np.arange(1, k_max + 1)
    for m in range(1, k_max + 1):
        a[m] = np.sum(j[:m] * b[:m] * a[m - 1 :: -1]) / m
    return a


def series_coefficients_square(
    d_p: float,
    finesse: float,
    k_max: int,
    *,
    gamma_over_nu0: float = 0.0,
) -> TrainCoefficients:
    """Exact train of the periodic square comb.

    Exponentiating the harmonic part of the response gives
    ``b_k = -(d_p / (k pi)) (-1)^k sin(k pi / F) q^k`` and the recursion
    for ``a_m``; broadening enters only through ``q``.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    q = math.exp(-math.pi * gamma_over_nu0)
    weights = square_harmonic_weights(1.0 / finesse, max(k_max, 1))
    k = np.arange(1, max(k_max, 1) + 1)
    b = -0.5 * d_p * weights * q**k
    a = _exponentiate_series(b)[: k_max + 1]
    return TrainCoefficients(
        prompt_factor=math.exp(-0.5 * d_p / finesse),
        values=a,
        provenance=Provenance.CLOSED,
    )


def harmonic_train(
    d_p: float, k_max: int, *, gamma_over_nu0: float = 0.0
) -> TrainCoefficients:
    """Poisson train of the raised-cosine comb: ``a_k = (d_p q / 4)^k / k!``."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    rate = 0.25 * d_p * math.exp(-math.pi * gamma_over_nu0)
    k = np.arange(k_max + 1)
    values = rate**k / np.array([math.factorial(int(m)) for m in k], dtype=float)
    return TrainCoefficients(
        prompt_factor=math.exp(-0.25 * d_p),
        values=values,
        provenance=Provenance.CLOSED,
    )


def lorentzian_train(
    d_p: float,
    finesse: float,
    k_max: int,
    *,
    gamma_over_nu0: float = 0.0,
) -> TrainCoefficients:
    """Train of the periodic Lorentzian comb via the same recursion.

    Here ``b_k = -(pi d_p / (2 F)) (-q)^k`` with
    ``q = exp(-pi (1/F + gamma/nu0))``.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    q = math.exp(-math.pi * (1.0 / finesse + gamma_over_nu0))
    k = np.arange(1, max(k_max, 1) + 1)
    b = -(math.pi * d_p / (2.0 * finesse)) * (-q) ** k
    a = _exponentiate_series(b)[: k_max + 1]
    return TrainCoefficients(
        prompt_factor=math.exp(-0.25 * math.pi * d_p / finesse),
        values=a,
        provenance=Provenance.CLOSED,
    )


def closed_train(comb: CombSpec, medium: MediumSpec, k_max: int) -> TrainCoefficients:
    """Exact train of the periodic comb, dispatched on the tooth shape."""
    if comb.shape is CombShape.SQUARE:
        return series_coefficients_square(
            medium.d_p, comb.finesse, k_max, gamma_over_nu0=comb.gamma
        )
    if comb.shape is CombShape.HARMONIC:
        return harmonic_train(medium.d_p, k_max, gamma_over_nu0=comb.gamma)
    return lorentzian_train(
        medium.d_p, comb.finesse, k_max, gamma_over_nu0=comb.gamma
    )


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
    which shows up as a small leakage floor.
    """
    if resolution < 4 * (k_max + 1) or resolution & (resolution - 1):
        raise ValueError("resolution must be a power of two well above k_max")
    p = resolution
    theta = -math.pi + 2.0 * math.pi * (np.arange(p) + 0.5) / p
    if (
        comb.shape is CombShape.SQUARE
        and model is TransferModel.IDEAL
        and harmonics is not None
    ):
        # On this period grid the series is one inverse DFT, with no
        # chirp needed (chi_square_series uses a chirp-z transform on
        # other uniform grids); it is exact because the series length
        # stays below the resolution.
        if harmonics >= p:
            raise ValueError("harmonics must be below resolution")
        weights = square_harmonic_weights(1.0 / comb.finesse, harmonics)
        g = np.zeros(p, dtype=complex)
        k = np.arange(1, harmonics + 1)
        g[1 : harmonics + 1] = (
            -0.5 * medium.d_p * weights * np.exp(1j * k * (math.pi / p - math.pi))
        )
        exponent = -0.5 * medium.d_p / comb.finesse + p * np.fft.ifft(g)
        h = np.exp(exponent)
    else:
        nu = theta / math.pi
        h = transfer_exponent(
            comb_response(comb, nu, model, harmonics), medium.d_p
        )
    m = np.arange(k_max + 1)
    spectrum = np.fft.fft(h)[: k_max + 1] / p
    scaled = (-1.0) ** m * np.exp(-1j * m * math.pi / p) * spectrum
    prompt = scaled[0]
    return TrainCoefficients(
        prompt_factor=complex(prompt),
        values=scaled / prompt,
        provenance=Provenance.NUMERIC,
    )


@dataclass(frozen=True)
class BroadenedCoefficients:
    """First response harmonics of a broadened finite comb.

    ``a1_absorption`` integrates the absorption alone against the first
    cosine mode; ``a1_full`` uses both quadratures, which causality
    makes redundant in the infinite-comb limit (the two converge to
    each other and to ``a1_closed`` as the tooth count grows).
    """

    a0: float
    a1_absorption: float
    a1_full: float
    a1_closed: float


def broadened_A_coefficients(
    delta: float,
    *,
    gamma: float = 0.01,
    pair_count: int = 9,
) -> BroadenedCoefficients:
    """Integrate the broadened response over the central period ``[-1, 1]``."""
    # Imported on first use to keep scipy out of the package import
    # (see lorentzian_convolution).
    from scipy.integrate import quad

    def packed(nu: float) -> complex:
        return complex(
            epsilon_broadened(nu, delta, gamma=gamma, pair_count=pair_count)
        )

    breaks = [-1.0 + delta, 1.0 - delta]

    def integrate(f) -> float:
        return quad(
            f, -1.0, 1.0, points=breaks, limit=200, epsabs=1e-13, epsrel=1e-12
        )[0]

    a0 = integrate(lambda nu: packed(nu).real) / 2.0
    a1_absorption = -integrate(
        lambda nu: packed(nu).real * math.cos(math.pi * nu)
    )
    a1_full = -integrate(
        lambda nu: (
            packed(nu).real * math.cos(math.pi * nu)
            - packed(nu).imag * math.sin(math.pi * nu)
        )
    ) / 2.0
    a1_closed = (2.0 / math.pi) * math.sin(math.pi * delta) * math.exp(
        -math.pi * gamma
    )
    return BroadenedCoefficients(
        a0=a0,
        a1_absorption=a1_absorption,
        a1_full=a1_full,
        a1_closed=a1_closed,
    )
