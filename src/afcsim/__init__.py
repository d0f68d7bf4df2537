"""Pulse storage and recall in periodic absorption combs.

A comb of narrow absorption teeth written into a broad line stores a
weak pulse and re-emits it as a train of echoes spaced by the inverse
tooth spacing.  The package provides the complex linear response of
square, Lorentzian and raised-cosine combs (ideal and broadened),
closed-form echo-train coefficients, a spectral propagation engine to
cross-check them, and models of the interference and time-bin storage
protocols built on top.

Each module's ``__all__`` is its public API; the package re-exports
them all, so a public name is declared in one place.
"""

from . import combs, propagation, protocols, susceptibility, sweeps, train
from .combs import *
from .propagation import *
from .protocols import *
from .susceptibility import *
from .sweeps import *
from .train import *

__version__ = "0.1.0"

__all__ = (
    combs.__all__
    + propagation.__all__
    + protocols.__all__
    + susceptibility.__all__
    + sweeps.__all__
    + train.__all__
)
