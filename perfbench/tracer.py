"""Outside-in tracer for afcsim: spans around each public function.

The tracer never edits the package.  ``Tracer.install`` replaces every
public function of each traced module with a timing wrapper in every
module namespace that binds it (the defining module, the package, and
each module that imported it by name), so calls made through a module
global -- such as the ``comb_response`` lookup inside the
``build_transfer`` closure -- are caught as well.  ``uninstall`` puts
the originals back.

Spans are kept in memory as ``[name, start, end, parent, counts]``
lists and written out by ``dump`` when the run ends.  Work counts are
attached to a span only when no enclosing span of the same layer
already counts that quantity, so ``chi_square_exact`` calling
``epsilon_broadened`` counts its detuning points once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# Layers in the order they are reported.  ``combs`` costs under 1 % of
# the time and is folded into its callers.
LAYERS = (
    "susceptibility",
    "propagation",
    "protocols",
    "train",
    "sweeps",
    "output",
    "reproduce",
    "cli",
)

# Called once per CSV cell from inside ``write_csv``; a span per cell
# would cost more than the formatting it measures.
UNWRAPPED = frozenset({"output.format_value"})


def _size(value: Any) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(math.prod(shape))
    try:
        return len(value)
    except TypeError:
        return 1


def _teeth(a: Callable[[str], Any]) -> int:
    return 2 * (int(a("pair_count")) + 1)


def _file_bytes(a: Callable[[str], Any], result: Any) -> int:
    return Path(a("path")).stat().st_size


# Work counts per function.  Each entry maps a count name to a function
# of the argument accessor and the return value.
COUNTS: dict[str, dict[str, Callable[[Callable[[str], Any], Any], int]]] = {
    "susceptibility.chi_square_series": {
        "points": lambda a, r: _size(a("nu")),
        "harmonic_terms": lambda a, r: _size(a("nu")) * (a("harmonics") or 0),
    },
    "susceptibility.chi_square_exact": {
        "points": lambda a, r: _size(a("nu")),
        "tooth_evals": lambda a, r: _size(a("nu")) * _teeth(a),
    },
    "susceptibility.epsilon_broadened": {
        "points": lambda a, r: _size(a("nu")),
        "tooth_evals": lambda a, r: _size(a("nu")) * _teeth(a),
    },
    "susceptibility.epsilon_window_center": {
        "points": lambda a, r: 1,
        "tooth_evals": lambda a, r: _teeth(a),
    },
    "susceptibility.epsilon_peak_center": {
        "points": lambda a, r: 1,
        "tooth_evals": lambda a, r: _teeth(a),
    },
    "susceptibility.harmonic_comb_response": {"points": lambda a, r: _size(a("nu"))},
    "susceptibility.lorentzian_comb_response": {"points": lambda a, r: _size(a("nu"))},
    "susceptibility.lorentzian_convolution": {"points": lambda a, r: _size(a("nu"))},
    "susceptibility.kramers_kronig": {"points": lambda a, r: _size(a("nu"))},
    "propagation.spectrum_to_signal": {
        "fft_points": lambda a, r: int(a("grid").samples) * int(a("oversample")),
    },
    "propagation.signal_to_spectrum": {
        "fft_points": lambda a, r: _size(a("signal").times),
    },
    "sweeps.sweep": {"points": lambda a, r: len(r.rows)},
    "sweeps.optimal_curve": {"points": lambda a, r: _size(a("finesse_values"))},
    "output.write_csv": {"rows": lambda a, r: int(r), "bytes": _file_bytes},
}


def _accessor(sig: inspect.Signature) -> Callable[[tuple, dict], Callable[[str], Any]]:
    """Argument lookup by name that honours positions and defaults."""
    slots = {}
    for i, p in enumerate(sig.parameters.values()):
        positional = p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        slots[p.name] = (i if positional else None, p.default)

    def bind(args: tuple, kwargs: dict) -> Callable[[str], Any]:
        def get(name: str) -> Any:
            index, default = slots[name]
            if index is not None and index < len(args):
                return args[index]
            return kwargs.get(name, default)

        return get

    return bind


class Tracer:
    """Wraps afcsim's public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._counting: dict[tuple[str, str], int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced layers.

        ``scipy.integrate.quad`` is shimmed as well, wherever it is
        bound, to count integrand evaluations; it is imported here so a
        module that imports it lazily still gets the shim.
        """
        import scipy.integrate

        wrappers: dict[int, Any] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"afcsim.{layer}")
            for attr, fn in vars(module).items():
                qualified = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or qualified in UNWRAPPED
                ):
                    continue
                wrappers[id(fn)] = self._wrap(fn, layer, qualified)
        quad = scipy.integrate.quad
        wrappers[id(quad)] = self._quad_shim(quad)
        namespaces = [scipy.integrate] + [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "afcsim" or name.startswith("afcsim."))
        ]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._patches):
            setattr(namespace, attr, value)
        self._patches.clear()

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        counters = COUNTS.get(name, {})
        kinds = ("calls",) + tuple(counters)
        bind = _accessor(inspect.signature(fn)) if counters else None
        spans, stack, counting = self.spans, self._stack, self._counting
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            mine = [k for k in kinds if counting[(layer, k)] == 0]
            for k in kinds:
                counting[(layer, k)] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                for k in kinds:
                    counting[(layer, k)] -= 1
            if mine:
                get = bind(args, kwargs) if bind else None
                counts = span[4] = span[4] or {}
                for k in mine:
                    counts[k] = 1 if k == "calls" else counters[k](get, result)
            return result

        return wrapper

    def _quad_shim(self, quad: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(quad)
        def shim(func: Callable, *args: Any, **kwargs: Any) -> Any:
            calls = 0

            def integrand(*x: Any) -> Any:
                nonlocal calls
                calls += 1
                return func(*x)

            try:
                return quad(integrand, *args, **kwargs)
            finally:
                if stack:
                    counts = spans[stack[-1]][4] = spans[stack[-1]][4] or {}
                    counts["quad_integrand_calls"] = counts.get("quad_integrand_calls", 0) + calls

        return shim

    # -- span bookkeeping ---------------------------------------------

    def adopt(self, spans: list[list[Any]]) -> None:
        """Append spans recorded in another process, re-basing parents."""
        base = len(self.spans)
        for name, start, end, parent, counts in spans:
            self.spans.append(
                [name, start, end, parent + base if parent >= 0 else -1, counts]
            )

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}, separators=(",", ":")))


def self_times(spans: list[list[Any]]) -> list[float]:
    """Duration of each span minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer work counts and times for one traced round."""
    selfs = self_times(spans)
    by_fn: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    totals: dict[str, int] = defaultdict(int)
    durations: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, start, end, _, counts = span
        layer = name.split(".", 1)[0]
        by_fn[name] += own
        by_layer[layer] += own
        durations[name] += end - start
        for kind, value in (counts or {}).items():
            totals[f"{layer}.{kind}"] += value

    def fns(*names: str) -> float:
        return sum(by_fn[n] for n in names)

    points = totals["susceptibility.points"]
    return {
        "susceptibility.calls": totals["susceptibility.calls"],
        "susceptibility.points": points,
        "susceptibility.tooth_evals": totals["susceptibility.tooth_evals"],
        "susceptibility.harmonic_terms": totals["susceptibility.harmonic_terms"],
        "susceptibility.self_s": by_layer["susceptibility"],
        "susceptibility.ns_per_point": (
            by_layer["susceptibility"] / points * 1e9 if points else 0.0
        ),
        "propagation.fft_points": totals["propagation.fft_points"],
        "propagation.fft_s": fns(
            "propagation.spectrum_to_signal", "propagation.signal_to_spectrum"
        ),
        "propagation.transfer_s": fns(
            "propagation.build_transfer",
            "propagation.comb_response",
            "propagation.transfer_exponent",
        ),
        "propagation.extract_s": fns(
            "propagation.extract_train", "propagation.peak_in_window"
        ),
        "propagation.self_s": by_layer["propagation"],
        "protocols.calls": totals["protocols.calls"],
        "protocols.self_s": by_layer["protocols"],
        "train.calls": totals["train.calls"],
        "train.quad_integrand_calls": totals["train.quad_integrand_calls"],
        "train.self_s": by_layer["train"],
        "sweeps.points": totals["sweeps.points"],
        "sweeps.self_s": by_layer["sweeps"],
        "output.rows": totals["output.rows"],
        "output.bytes": totals["output.bytes"],
        "output.write_s": durations["output.write_csv"],
        "reproduce.self_s": by_layer["reproduce"],
        "cli.main_s": durations["cli.main"],
        "cli.self_s": by_layer["cli"],
    }


COUNT_METRICS = tuple(
    name
    for name in layer_metrics([])
    if not name.endswith("_s") and not name.endswith("ns_per_point")
)
