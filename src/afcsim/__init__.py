"""Pulse storage and recall in periodic absorption combs.

A comb of narrow absorption teeth written into a broad line stores a
weak pulse and re-emits it as a train of echoes spaced by the inverse
tooth spacing.  The package provides the complex linear response of
square, Lorentzian and raised-cosine combs (ideal and broadened),
closed-form echo-train coefficients, a spectral propagation engine to
cross-check them, and models of the interference and time-bin storage
protocols built on top.

Each module's ``__all__`` is its public API; the package re-exports
them all, so a public name is declared in one place.  Importing the
package imports none of its modules: a submodule is imported when it
is first named, and the first other name read (``__all__`` included)
imports the six public modules and binds their names (PEP 562).  So a
run that only reads its configuration starts no numerics.
"""

import importlib

__version__ = "0.1.0"

# The modules whose public names the package re-exports, in this order.
_PUBLIC = ("combs", "propagation", "protocols", "susceptibility", "sweeps", "train")


def __getattr__(name: str) -> object:
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    namespace = globals()
    if "__all__" not in namespace:
        modules = [importlib.import_module(f"{__name__}.{m}") for m in _PUBLIC]
        public = [(n, module) for module in modules for n in module.__all__]
        namespace.update((n, getattr(module, n)) for n, module in public)
        namespace["__all__"] = [n for n, _ in public]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
