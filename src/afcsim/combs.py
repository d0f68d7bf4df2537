"""Comb geometry: periodic absorption gratings and their spectral layout.

A comb is a periodic sequence of narrow absorption peaks written into a
broad line.  Everything downstream keys off a single layout convention,
fixed here once and for all:

* detuning ``nu = 0`` sits at the centre of a transparency window,
* peak centres sit at odd multiples of ``nu0``, so the period is
  ``2 * nu0``,
* a pulse stored at ``t = 0`` is re-emitted in echoes at ``t = k * T``
  with ``T = pi / nu0`` (angular-frequency detunings throughout).

``nu0`` is the unit of frequency, not a parameter: detunings are in
units of ``nu0``, so the period is 2 and ``T = pi`` is the constant
:data:`ECHO_DELAY`.  Only :class:`UnitScale` converts to laboratory
units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ECHO_DELAY",
    "HARMONIC_FINESSE",
    "CombShape",
    "CombSpec",
    "MediumSpec",
    "UnitScale",
    "odd_peak_centers",
    "population_difference",
]

# Echo spacing ``T = pi / nu0`` in units where ``nu0 = 1``, for every comb.
ECHO_DELAY = math.pi

# A raised-cosine grating has fixed width-to-period ratio, hence fixed finesse.
HARMONIC_FINESSE = 2.0

# Least nonzero gamma, as for sigma: gamma**2 stays clear of underflow.
_GAMMA_FLOOR = 1e-150


class CombShape(str, enum.Enum):
    """Peak profile of the periodic grating."""

    SQUARE = "square"
    LORENTZIAN = "lorentzian"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class CombSpec:
    """Geometry of a finite comb of ``2 * (pair_count + 1)`` peaks.

    Parameters
    ----------
    shape:
        Peak profile.
    half_width:
        Half-width of a single peak, in ``(0, 1]``: the half-duration
        ``delta`` of a square tooth, or the HWHM ``Gamma`` of a
        Lorentzian tooth.
        Ignored for the harmonic shape, whose width is fixed by its
        period.
    pair_count:
        Peaks sit at ``2k + 1`` for ``k = -pair_count - 1 .. pair_count``,
        i.e. ``pair_count + 1`` peaks on each side.
    gamma:
        Homogeneous HWHM broadening each tooth by a Lorentzian of this
        half-width.  Zero means an ideal (unbroadened) comb.  Otherwise it
        must lie between 1e-150 and about 1.3e154, so that its square is
        finite and clear of underflow.
    """

    shape: CombShape
    half_width: float = 0.2
    pair_count: int = 9
    gamma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", CombShape(self.shape))
        if self.pair_count < 0:
            raise ValueError(f"pair_count must be >= 0, got {self.pair_count}")
        if not (self.gamma == 0.0 or self.gamma >= _GAMMA_FLOOR):
            raise ValueError(
                f"gamma must be 0 or at least {_GAMMA_FLOOR:g}, got {self.gamma}"
            )
        if not math.isfinite(self.gamma * self.gamma):
            # The broadened kernels square gamma; above about 1.3e154
            # that overflows.
            raise ValueError(
                f"gamma must be below about 1.3e154 so that gamma**2 is "
                f"finite, got {self.gamma}"
            )
        if self.shape is CombShape.HARMONIC:
            object.__setattr__(self, "half_width", 1.0 / HARMONIC_FINESSE)
        elif not 0.0 < self.half_width <= 1.0:
            raise ValueError(
                f"half_width must lie in (0, 1], got {self.half_width}"
            )

    @classmethod
    def from_finesse(
        cls,
        shape: CombShape | str,
        finesse: float,
        *,
        pair_count: int = 9,
        gamma: float = 0.0,
    ) -> "CombSpec":
        """Build a comb from its finesse instead of its peak width.

        The finesse must be at least 1: a peak no wider than the period.
        """
        shape = CombShape(shape)
        if not finesse >= 1.0:
            raise ValueError(f"finesse must be >= 1, got {finesse}")
        if shape is CombShape.HARMONIC:
            if not math.isclose(finesse, HARMONIC_FINESSE):
                raise ValueError(
                    "harmonic combs have fixed finesse "
                    f"{HARMONIC_FINESSE}, got {finesse}"
                )
            return cls(shape, pair_count=pair_count, gamma=gamma)
        return cls(
            shape,
            half_width=1.0 / finesse,
            pair_count=pair_count,
            gamma=gamma,
        )

    @property
    def finesse(self) -> float:
        """Period-to-width ratio ``nu0 / half_width``."""
        return 1.0 / self.half_width


@dataclass(frozen=True)
class MediumSpec:
    """Optical depth of the prepared medium.

    ``d_p`` is the peak optical depth: the absorption exponent for a
    monochromatic field tuned to a tooth centre is ``exp(-d_p)`` in
    intensity.
    """

    d_p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.d_p):
            raise ValueError(f"d_p must be finite, got {self.d_p}")
        if self.d_p < 0.0:
            raise ValueError(f"d_p must be >= 0, got {self.d_p}")


@dataclass(frozen=True)
class UnitScale:
    """Converter between normalised and laboratory units.

    ``nu0_hz`` is the physical value of the unit detuning as an
    ordinary frequency in Hz (not angular).  Normalised detuning ``nu``
    maps to ``nu * nu0_hz`` Hz and normalised time ``t`` (in units of
    the echo spacing ``T``) maps to ``t / (2 * nu0_hz)`` seconds, since
    one period ``2 nu0`` of angular detuning corresponds to an echo
    spacing of ``1 / (2 nu0_hz)``.
    """

    nu0_hz: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.nu0_hz):
            raise ValueError(f"nu0_hz must be finite, got {self.nu0_hz}")
        if self.nu0_hz <= 0.0:
            raise ValueError(f"nu0_hz must be positive, got {self.nu0_hz}")

    def frequency_hz(self, nu: float | np.ndarray) -> float | np.ndarray:
        """Physical frequency offset in Hz for a normalised detuning."""
        return nu * self.nu0_hz

    def time_s(self, t_over_T: float | np.ndarray) -> float | np.ndarray:
        """Physical time in seconds for a time in echo-spacing units."""
        return t_over_T / (2.0 * self.nu0_hz)


def odd_peak_centers(pair_count: int) -> np.ndarray:
    """Tooth centres ``2k + 1`` for ``k = -pair_count - 1 .. pair_count``."""
    return np.arange(-2 * pair_count - 1, 2 * pair_count + 2, 2, dtype=float)


def population_difference(comb: CombSpec, delta: np.ndarray | float) -> np.ndarray:
    """Normalised population profile ``n(delta)`` of the bare comb.

    The profile is the sum of single-tooth profiles over all teeth,
    normalised to unit peak height.  Square teeth are indicator
    functions of ``[c - half_width, c + half_width]`` (edges included);
    Lorentzian teeth are ``1 / (1 + ((delta - c) / half_width)^2)``;
    harmonic teeth add up to the raised cosine
    ``(1 - cos(pi * delta)) / 2`` exactly, which is what this returns
    for that shape (its window centres fall at even detunings, matching
    the layout convention).
    """
    delta = np.asarray(delta, dtype=float)
    if comb.shape is CombShape.HARMONIC:
        return 0.5 * (1.0 - np.cos(np.pi * delta))
    centers = odd_peak_centers(comb.pair_count)
    offsets = delta[..., np.newaxis] - centers
    if comb.shape is CombShape.SQUARE:
        inside = np.abs(offsets) <= comb.half_width
        return inside.any(axis=-1).astype(float)
    profile = 1.0 / (1.0 + (offsets / comb.half_width) ** 2)
    return profile.sum(axis=-1)
