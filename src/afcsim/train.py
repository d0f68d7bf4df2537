"""Closed-form pulse-train coefficients.

Writing the one-sided response as ``1/A + sum_k b-harmonics`` turns the
transfer into ``C0 * sum_m a_m exp(1j m nu T)``: a prompt attenuation
``C0`` times a train of re-emissions at multiples of the comb delay.
This module computes the ``a_m`` exactly from the tooth shape, and the
first response harmonics of a broadened finite comb by quadrature.
Nothing here runs the spectral simulation, which checks these numbers
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .combs import CombShape, CombSpec, MediumSpec
from .susceptibility import epsilon_broadened

__all__ = [
    "TrainCoefficients",
    "BroadenedCoefficients",
    "prompt_attenuation",
    "first_echo_amplitude",
    "first_echo_intensity",
    "optimal_depth",
    "ideal_limit_intensity",
    "closed_train",
    "broadened_A_coefficients",
]


@dataclass(frozen=True)
class TrainCoefficients:
    """Prompt factor ``C0`` and relative amplitudes ``a_0 .. a_k``.

    The field emitted at delay ``k T`` has amplitude
    ``prompt_factor * values[k]`` relative to the input peak;
    ``values[0]`` is 1 by construction.
    """

    prompt_factor: complex
    values: np.ndarray

    def amplitude(self, k: int) -> complex:
        return complex(self.prompt_factor * self.values[k])

    def intensity(self, k: int) -> float:
        return abs(self.amplitude(k)) ** 2

    @property
    def k_max(self) -> int:
        return self.values.size - 1


def _closed_form(comb: CombSpec) -> tuple[float, float, Callable[[float, int], float]]:
    """The per-shape table behind every closed form in this module.

    Returns the period-average ``A0`` of the one-sided response, the
    per-delay dephasing ``q`` of the first harmonic, and the law
    ``w(d_p, k)`` of the exponent coefficients ``b_k = w(d_p, k) q^k``:

    * Lorentzian: ``A0 = pi / (2F)``, ``q = exp(-pi (gamma + 1/F))``,
      ``b_k = -(pi d_p / (2F)) (-q)^k``;
    * harmonic (raised cosine): ``A0 = 1/2``, ``q = exp(-pi gamma)``,
      ``b_1 = d_p q / 4`` and no higher terms, so the train is Poisson;
    * square: ``A0 = 1/F``, ``q = exp(-pi gamma)``,
      ``b_k = -(d_p / (k pi)) (-1)^k sin(k pi / F) q^k``.

    Broadening enters only through ``q``.  The law is plain ``math``,
    so the scalar figures below cost a few microseconds.
    """
    finesse = comb.finesse
    if comb.shape is CombShape.LORENTZIAN:
        q = math.exp(-math.pi * (comb.gamma + comb.half_width))
        return math.pi / (2.0 * finesse), q, lambda d_p, k: (
            -(math.pi * d_p / (2.0 * finesse)) * (-1.0) ** k
        )
    q = math.exp(-math.pi * comb.gamma)
    if comb.shape is CombShape.HARMONIC:
        return 0.5, q, lambda d_p, k: 0.25 * d_p if k == 1 else 0.0
    inv = 1.0 / finesse
    # -d_p / 2 times the cosine weight c_k of square_harmonic_weights
    return inv, q, lambda d_p, k: -0.5 * d_p * (
        (2.0 / math.pi) * (-1.0) ** k * math.sin(k * math.pi * inv) / k
    )


def prompt_attenuation(comb: CombSpec, medium: MediumSpec) -> float:
    """Field attenuation ``C0 = exp(-A0 d_p / 2)`` of the prompt pulse."""
    return math.exp(-0.5 * _closed_form(comb)[0] * medium.d_p)


def first_echo_amplitude(comb: CombSpec, medium: MediumSpec) -> float:
    """Field amplitude ``C1 = a1 C0 = b_1 C0`` of the first re-emission."""
    _, q, law = _closed_form(comb)
    return law(medium.d_p, 1) * q * prompt_attenuation(comb, medium)


def first_echo_intensity(comb: CombSpec, medium: MediumSpec) -> float:
    """Recall efficiency ``C1^2`` of the first re-emission."""
    return first_echo_amplitude(comb, medium) ** 2


def optimal_depth(comb: CombSpec) -> float:
    """Depth maximising the first echo: ``2 / A0`` for any tooth shape."""
    return 2.0 / _closed_form(comb)[0]


def ideal_limit_intensity(finesse: float) -> float:
    """First-echo intensity of an unbroadened square comb at optimal depth.

    ``(2 F / pi)^2 sin^2(pi / F) exp(-2)``, increasing in ``F`` towards
    the ``4 exp(-2) = 0.54`` ceiling.
    """
    if finesse <= 1.0:
        raise ValueError(f"finesse must exceed 1, got {finesse}")
    comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
    return first_echo_intensity(comb, MediumSpec(optimal_depth(comb)))


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


def closed_train(comb: CombSpec, medium: MediumSpec, k_max: int) -> TrainCoefficients:
    """Exact train of the periodic comb: exponentiate the shape's ``b_k``.

    Where ``C0`` underflows to 0, every amplitude is 0 and the series,
    which may overflow there, is left out: ``values`` is ``1, 0, 0, ...``.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    prompt = prompt_attenuation(comb, medium)
    if prompt == 0.0:
        return TrainCoefficients(prompt, np.eye(1, k_max + 1)[0])
    _, q, law = _closed_form(comb)
    b = np.array([law(medium.d_p, k) for k in range(1, k_max + 1)])
    b = b * q ** np.arange(1, k_max + 1)
    return TrainCoefficients(prompt_factor=prompt, values=_exponentiate_series(b))


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


# Distances of the quadrature breaks from the broadened tooth edge, in
# units of gamma: a grading by 4 from the step's width outwards.
_EDGE_SCALES = (1.0, 4.0, 16.0, 64.0, 256.0)

# The positive abscissae of QUADPACK's 21-point Gauss-Kronrod rule on
# [-1, 1]; the other ten are their negatives and the 21st is 0.
_KRONROD_21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)


def _kronrod_nodes(breaks: list[float]) -> np.ndarray:
    """Distinct 21-point Gauss-Kronrod nodes of the panels between ``breaks``.

    These are the nodes that ``quad`` with ``points`` evaluates before it
    bisects any panel, rounded as QUADPACK rounds them: ``c`` and
    ``c +- h x`` with ``c = (a + b) / 2`` and ``h = (b - a) / 2``.
    """
    a = np.array(breaks[:-1])
    b = np.array(breaks[1:])
    center = 0.5 * (a + b)
    offsets = np.multiply.outer(0.5 * (b - a), _KRONROD_21).ravel()
    centers = np.repeat(center, len(_KRONROD_21))
    return np.unique(np.concatenate((center, centers - offsets, centers + offsets)))


def broadened_A_coefficients(
    delta: float,
    *,
    gamma: float,
    pair_count: int,
) -> BroadenedCoefficients:
    """Integrate the broadened response over the central period ``[-1, 1]``.

    The comb is symmetric about ``nu = 0``, so all three integrands are
    even: each is integrated over ``[0, 1]`` and doubled.  ``delta``
    must lie in ``(0, 1]``, as for any :class:`CombSpec`.

    ``quad`` gets break points at the tooth edge ``e = 1 - delta`` and at
    ``e +- k gamma`` for ``k`` in 1, 4, 16, 64 and 256, those inside
    ``(0, 1)``; at ``gamma = 0`` the edge is the only one.  The comb is
    evaluated once per distinct node across the three integrals: 1764
    times for the nine ``harmonic-weights`` deltas at ``gamma = 0.01``,
    where the edge alone as a break took 3822.  The nodes of ``quad``'s
    first pass, 21 per panel, are evaluated in one vectorised call before
    it runs (1596 of the 1764), bit for bit as one call per node would
    give them; only the nodes its bisections add (168) are evaluated one
    at a time.  ``quad`` still decides convergence; a batched rule that
    replaces it is ROADMAP item 4.
    """
    comb = CombSpec(
        CombShape.SQUARE, half_width=delta, pair_count=pair_count, gamma=gamma
    )
    # scipy is imported here, not at module level: nothing else in the
    # package needs it, and importing scipy.integrate at package import
    # would more than double the start-up time of every command-line run.
    from scipy.integrate import quad

    # Broadened, the tooth edge is an arctan step of width gamma, whose
    # tails fall off as gamma / x.  Breaks at gamma, 4 gamma, ... 256 gamma
    # either side of it spare quad the bisections that find the step, and
    # keep its error estimate honest: with the one break at the edge,
    # delta 0.05 and gamma 1e-6 miss a0 by 9e-7 while quad reports 4e-14.
    edge = 1.0 - delta
    near = {edge + sign * k * gamma for k in _EDGE_SCALES for sign in (-1.0, 1.0)}
    points = sorted(p for p in {edge} | near if 0.0 < p < 1.0)

    # The three integrals share most of their nodes, and a1_full reads
    # both parts at each: evaluate the comb once per distinct node.  The
    # nodes of quad's first pass are known in advance and evaluated in
    # one call; a node that a bisection adds is evaluated on its own.
    nodes = _kronrod_nodes([0.0, *points, 1.0])
    first_pass = epsilon_broadened(nodes, delta, gamma=gamma, pair_count=pair_count)
    values = dict(zip(nodes.tolist(), first_pass.tolist()))

    def packed(nu: float) -> complex:
        value = values.get(nu)
        if value is None:
            value = values[nu] = complex(
                epsilon_broadened(nu, delta, gamma=gamma, pair_count=pair_count)
            )
        return value

    def integrate(f) -> float:
        # epsabs is halved so the doubled integral keeps its bound of 1e-13.
        return 2.0 * quad(
            f, 0.0, 1.0, points=points, limit=200, epsabs=5e-14, epsrel=1e-12
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
    # The first cosine weight of the response, -c_1 q, is the first
    # exponent coefficient b_1 at d_p = 2.
    _, q, law = _closed_form(comb)
    return BroadenedCoefficients(
        a0=a0,
        a1_absorption=a1_absorption,
        a1_full=a1_full,
        a1_closed=law(2.0, 1) * q,
    )
