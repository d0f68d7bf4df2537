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

The module also holds the run description that the command line reads
and checks before any numerics: :class:`RunSpec`, the response models
(:class:`TransferModel`), the bound on the harmonic count and the
domains of a sweep's axis.  It imports no numpy, so reading and
refusing a configuration starts no array library; :meth:`RunSpec.probe`
and :meth:`RunSpec.response` import the propagation layer when called.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .propagation import FrequencyGrid, Probe

__all__ = [
    "ECHO_DELAY",
    "HARMONIC_FINESSE",
    "CombShape",
    "TransferModel",
    "CombSpec",
    "MediumSpec",
    "UnitScale",
    "RunSpec",
    "check_harmonics",
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


# The square series needs about 230 bytes per harmonic, 30 MiB at this
# bound.
_MAX_HARMONICS = 2**17


def check_harmonics(harmonics: int | None) -> int | None:
    """``harmonics`` if it is None or in [1, 2^17], else ValueError."""
    if harmonics is not None and not 1 <= harmonics <= _MAX_HARMONICS:
        raise ValueError(f"harmonics must be in [1, {_MAX_HARMONICS}], got {harmonics}")
    return harmonics


# The parameters a sweep can vary, and the spacings of its points (see
# :class:`afcsim.sweeps.SweepAxis`).
_SWEEP_PARAMETERS = ("d_p", "finesse", "gamma")
_SWEEP_SCALES = ("linear", "log")


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


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One run's comb, depth, probe and response model.

    :func:`afcsim.protocols.recall` takes it: every simulated run of the
    CLI, the sweeps and the reproduce targets is one call.  Defaults
    describe the reference setup: a square comb of finesse 5 at depth
    10, probed by a Gaussian pulse of spectral scale five tooth spacings
    on a 2^14-point grid spanning four of those scales.  Every run's
    time grid is that grid zero-padded 16 times, a step of
    ``pi / (16 span_factor sigma)``.
    ``shape`` and ``model`` take a :class:`CombShape` or
    :class:`TransferModel` or their string values.  Nothing is checked
    here: :meth:`comb` and :meth:`probe` name a bad setting.
    """

    shape: str = "square"
    finesse: float = 5.0
    d_p: float = 10.0
    gamma: float = 0.0
    pair_count: int = 9
    sigma: float = 5.0
    samples: int = 16384
    span_factor: float = 4.0
    model: str = "broadened"
    harmonics: int | None = 2000
    k_max: int = 8

    def comb(self) -> CombSpec:
        return CombSpec.from_finesse(
            self.shape, self.finesse, pair_count=self.pair_count, gamma=self.gamma
        )

    def probe(self) -> Probe:
        """The run's input pulse and grid, read on the echo window of ``k_max``."""
        from .propagation import FrequencyGrid, Probe, PulseSpec

        pulse = PulseSpec(sigma=self.sigma)
        grid = FrequencyGrid.for_pulse(pulse, self.span_factor, self.samples)
        return Probe((pulse,), grid, self.k_max)

    def response(self, grid: FrequencyGrid) -> np.ndarray:
        """The comb's packed response on ``grid`` under the run's model, read-only.

        It does not depend on ``d_p``: runs that differ only in depth can
        share it through :func:`afcsim.protocols.recall`'s ``response``.
        """
        from .propagation import _grid_response

        return _grid_response(self.comb(), grid, self.model, self.harmonics)
