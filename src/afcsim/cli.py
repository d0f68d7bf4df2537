"""Command-line front end.

Everything is deterministic: no sampling, no clocks, no environment
dependence, so any invocation writes byte-identical CSV files.  Exit
codes: 0 on success, 1 for usage or configuration problems and for a
stdout that refuses a write, 2 when a reproduction target misses one of
its pinned checks.

Configuration is a flat ``key = value`` file; ``afcsim config`` prints
the canonical form of the resolved configuration (defaults merged with
the ``--config`` file), which parses back to the same settings.

``train``, ``propagate`` and ``protocol`` each read one
:func:`afcsim.protocols.recall` of the resolved configuration, and a
simulated ``sweep`` one at each point.
"""

from __future__ import annotations

import math
import os
import sys
from argparse import ArgumentParser, Namespace
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .combs import ECHO_DELAY, CombShape, MediumSpec, UnitScale
from .output import TRACE_HEADER, format_value, trace_columns, write_csv
from .propagation import TransferModel, build_transfer, check_time_window, comb_response
from .protocols import RunSpec, recall
from .susceptibility import check_harmonics
from .sweeps import SweepAxis, SweepKind, SweepRequest, sweep
from .train import closed_train

__all__ = [
    "ConfigError", "RunConfig", "canonical_config", "main", "parse_config", "reads"
]


class ConfigError(ValueError):
    """Configuration file rejected; the message carries the line number."""


class _StdoutFailed(Exception):
    """stdout refused a line of the run's report, so the run fails."""


def _say(text: str, end: str = "\n") -> None:
    """Print to stdout at once; a closed or full stdout raises ``_StdoutFailed``."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        # What stays buffered would fail again, with a traceback, when the
        # interpreter flushes stdout at exit; send it to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _StdoutFailed(f"cannot write to stdout: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class RunConfig(RunSpec):
    """Resolved settings shared by all subcommands.

    The :class:`RunSpec` fields come first, then the protocol and sweep
    settings; the config file lists them in that order.  ``passes`` must
    be 1 or 2 whichever subcommand runs: ``protocol`` and ``sweep`` both
    read it, ``passes = 2`` being the two-pass protocol.
    """

    passes: int = 1
    mismatch_time: float = 0.0
    mismatch_phase: float = 0.0
    simulate: bool = True
    sweep_parameter: str = "d_p"
    sweep_start: float = 1.0
    sweep_stop: float = 40.0
    sweep_steps: int = 40
    sweep_scale: str = "linear"
    sweep_simulate: bool = False

    def __post_init__(self) -> None:
        # checked here, not where protocol reads it, so that every
        # subcommand refuses the same file before it does any work
        if self.passes not in (1, 2):
            raise ValueError(f"passes must be 1 or 2, got {self.passes}")


_CONFIG_KEYS = [field.name for field in fields(RunConfig)]


def _cast_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _cast_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _cast_choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def cast(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
        return raw

    return cast


def _cast_harmonics(raw: str) -> int | None:
    return check_harmonics(None if raw == "none" else int(raw))


_CASTERS: dict[str, Callable[[str], object]] = {
    "shape": _cast_choice(tuple(s.value for s in CombShape)),
    "finesse": _cast_float,
    "d_p": _cast_float,
    "gamma": _cast_float,
    "pair_count": int,
    "sigma": _cast_float,
    "samples": int,
    "span_factor": _cast_float,
    "model": _cast_choice(tuple(m.value for m in TransferModel)),
    "harmonics": _cast_harmonics,
    "k_max": int,
    "passes": int,
    "mismatch_time": _cast_float,
    "mismatch_phase": _cast_float,
    "simulate": _cast_bool,
    "sweep_parameter": _cast_choice(SweepAxis.PARAMETERS),
    "sweep_start": _cast_float,
    "sweep_stop": _cast_float,
    "sweep_steps": int,
    "sweep_scale": _cast_choice(SweepAxis.SCALES),
    "sweep_simulate": _cast_bool,
}


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a :class:`RunConfig`.

    Unknown and duplicate keys are rejected with their line number, as
    are malformed values (non-finite floats included); ``#`` starts a
    comment anywhere on a line.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        rest = rest.strip()
        if key not in _CASTERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CASTERS[key](rest)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return RunConfig(**values)


def _render(value: object) -> str:
    """A setting's value as the config file spells it."""
    return "none" if value is None else format_value(value)


def canonical_config(config: RunConfig) -> str:
    """Emit every setting in declaration order; parses back unchanged."""
    return "".join(f"{key} = {_render(getattr(config, key))}\n" for key in _CONFIG_KEYS)


# Under ``--physical``, each dimensionless column named here gains a
# column in laboratory units, in this order after the table's own.
_PHYSICAL_COLUMNS = {
    "nu_over_nu0": ("frequency_hz", UnitScale.frequency_hz),
    "t_over_T": ("time_s", UnitScale.time_s),
    "arrival_over_T": ("arrival_s", UnitScale.time_s),
}


def _write(
    path: Path,
    header: Sequence[str],
    columns: Sequence[Sequence[object]],
    scale: UnitScale | None,
) -> None:
    """Write one table, with its physical-unit columns if ``scale`` is set."""
    header, columns = tuple(header), list(columns)
    if scale is not None:
        for name, column in list(zip(header, columns)):
            if name in _PHYSICAL_COLUMNS:
                unit_name, convert = _PHYSICAL_COLUMNS[name]
                header += (unit_name,)
                # an empty cell (no arrival) stays empty
                columns.append(
                    convert(scale, column)
                    if isinstance(column, np.ndarray)
                    else ["" if cell == "" else convert(scale, cell) for cell in column]
                )
    count = write_csv(path, header, columns)
    _say(f"wrote {path} ({count} rows)")


def cmd_spectrum(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    # Midpoint sampling keeps sharp-tooth models off their edge
    # singularities.
    nu = -2.5 + (np.arange(2000) + 0.5) * (5.0 / 2000)
    packed = comb_response(config.comb(), nu, config.model, config.harmonics)
    header = ("nu_over_nu0", "absorption", "dispersion")
    _write(args.out / "spectrum.csv", header, (nu, packed.real, packed.imag), scale)
    return 0


def cmd_transfer(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    comb, medium, grid = config.comb(), MediumSpec(config.d_p), config.probe().grid
    transfer = build_transfer(comb, medium, grid, config.model, config.harmonics)
    values = transfer.values
    _write(
        args.out / "transfer.csv",
        ("nu_over_nu0", "re", "im", "magnitude"),
        (grid.points(), values.real, values.imag, np.abs(values)),
        scale,
    )
    return 0


def cmd_propagate(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    result = recall(config)
    check_time_window(result.signal, config.k_max, trace=True)
    columns = trace_columns(
        result.signal, result.train.reference_intensity, -1.0, config.k_max + 1.0
    )
    _write(args.out / "trace.csv", TRACE_HEADER, columns, scale)
    return 0


def _relative_error(value: float, closed: float) -> tuple[float | str, str]:
    """CSV cell and printed form of ``value / closed - 1``.

    A closed value of zero (``d_p = 0``), or one so small that the ratio
    overflows, has no relative error: the cell is left empty and ``n/a``
    is printed.
    """
    rel = value / closed - 1.0 if closed > 0.0 else math.nan
    return (rel, f"{rel:+.2e}") if math.isfinite(rel) else ("", "n/a")


def _warn_above_unity(efficiency: float) -> None:
    """Flag a reported recall above 1 on stderr; CSVs and exit code stay."""
    if efficiency > 1.0:
        print(
            f"warning: recall efficiency {efficiency:.6f} is above 1, more "
            "energy than the input; the two-pass recall I1 (1 + C0)^2 adds "
            "both echoes at unit weight",
            file=sys.stderr,
        )


def cmd_train(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    train = recall(config).train
    closed = closed_train(config.comb(), MediumSpec(config.d_p), config.k_max)
    header = ("k", "intensity", "closed_intensity", "rel_error", "arrival_over_T")
    rows = []
    for entry in train.entries:
        reference_value = closed.intensity(entry.index)
        rel, rel_text = _relative_error(entry.intensity, reference_value)
        # A window without an echo has no arrival: its cells stay empty.
        arrival = "" if entry.arrival is None else entry.arrival / ECHO_DELAY
        rows.append((entry.index, entry.intensity, reference_value, rel, arrival))
        _say(
            f"k={entry.index} intensity={entry.intensity:.6f} "
            f"closed={reference_value:.6f} rel={rel_text}"
        )
    _write(args.out / "train.csv", header, list(zip(*rows)), scale)
    return 0


def cmd_protocol(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    result = recall(
        config,
        passes=config.passes,
        mismatch_time=config.mismatch_time,
        mismatch_phase=config.mismatch_phase,
        simulate=config.simulate,
    )
    label = "two-pass" if config.passes == 2 else "first-echo"
    simulated = result.simulated_efficiency
    rel, rel_text = (
        (math.nan, "")
        if simulated is None
        else _relative_error(simulated, result.closed_efficiency)
    )
    if simulated is None:
        _say(f"{label}: closed={result.closed_efficiency:.6f} (no simulation)")
    else:
        _say(
            f"{label}: closed={result.closed_efficiency:.6f} "
            f"simulated={simulated:.6f} rel={rel_text}"
        )
    _write(
        args.out / "protocol.csv",
        (
            "protocol",
            "shape",
            "finesse",
            "d_p",
            "gamma",
            "closed_efficiency",
            "simulated_efficiency",
            "rel_error",
        ),
        [
            [label],
            [config.shape],
            [config.finesse],
            [config.d_p],
            [config.gamma],
            [result.closed_efficiency],
            [math.nan if simulated is None else simulated],
            [rel],
        ],
        scale,
    )
    _warn_above_unity(max(result.closed_efficiency, simulated or 0.0))
    return 0


def cmd_sweep(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    result = sweep(
        SweepRequest(
            axis=SweepAxis(
                config.sweep_parameter,
                config.sweep_start,
                config.sweep_stop,
                config.sweep_steps,
                config.sweep_scale,
            ),
            kind=SweepKind.TWO_PASS if config.passes == 2 else SweepKind.FIRST_ECHO,
            simulate=config.sweep_simulate,
            **{f.name: getattr(config, f.name) for f in fields(RunSpec)},
        )
    )
    request = result.request
    k_cols = request.k_max
    header = (
        (config.sweep_parameter, "efficiency")
        + tuple(f"i{k}" for k in range(1, k_cols + 1))
        + ("status",)
    )
    rows = []
    for row in result.rows:
        padded = row.intensities + (math.nan,) * (k_cols - len(row.intensities))
        rows.append((row.value, row.efficiency) + padded + (row.status,))
    # A refined best is a closed-form optimum, also in a simulated sweep.
    if result.refined:
        note = " (refined on the closed form)" if request.simulate else " (refined)"
    else:
        note = " (simulated)" if request.simulate else ""
    _say(
        f"best {config.sweep_parameter}={result.best_value:.6g} "
        f"efficiency={result.best_efficiency:.6f}{note}"
    )
    _write(args.out / "sweep.csv", header, list(zip(*rows)), scale)
    _warn_above_unity(result.best_efficiency)
    return 0


def cmd_config(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    _say(canonical_config(config), end="")
    return 0


def cmd_reproduce(config: RunConfig, args: Namespace, scale: UnitScale | None) -> int:
    # Imported here: no other subcommand needs the reproduction targets.
    from .reproduce import TARGETS, run_target

    if args.target is None:
        for name in sorted(TARGETS):
            _say(f"{name}: {TARGETS[name][0]}")
        return 0
    try:
        report = run_target(args.target, args.out)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    for check in report.checks:
        status = "ok" if check.ok else "FAIL"
        _say(
            f"[{status:>4}] {report.name}: {check.label}: "
            f"value={check.value:.8g} expected={check.expected:.8g} "
            f"tol={check.tol:.2g}"
        )
    for path in report.files:
        _say(f"wrote {path}")
    return 0 if report.ok else 2


# Settings that more than one subcommand reads.
_SPECTRUM = {"shape", "finesse", "gamma", "pair_count", "model", "harmonics"}
_TRANSFER = _SPECTRUM | {"d_p", "sigma", "samples", "span_factor"}
_RUN = {field.name for field in fields(RunSpec)}
_PHYSICAL = {"--physical"}

# Each subcommand: the function it runs, its help line and the settings it
# reads (see reads()).  main refuses any other setting off its default, so
# that no setting is silently ignored.  A function takes the configuration,
# the parsed arguments (for --out and reproduce's target) and the unit scale.
_Run = Callable[[RunConfig, Namespace, UnitScale | None], int]
_COMMANDS: dict[str, tuple[_Run, str, set[str]]] = {
    "spectrum": (
        cmd_spectrum, "comb response over the central periods", _SPECTRUM | _PHYSICAL
    ),
    "transfer": (
        cmd_transfer, "complex transfer function on the grid", _TRANSFER | _PHYSICAL
    ),
    "propagate": (
        cmd_propagate, "time trace of the propagated pulse", _RUN | _PHYSICAL
    ),
    "train": (cmd_train, "echo train against the closed form", _RUN | _PHYSICAL),
    "protocol": (
        cmd_protocol,
        "single- or two-pass efficiency",
        _RUN | {"passes", "mismatch_time", "mismatch_phase", "simulate"},
    ),
    "sweep": (
        cmd_sweep,
        "efficiency along a parameter axis",
        _RUN | {"passes"} | {key for key in _CONFIG_KEYS if key.startswith("sweep_")},
    ),
    "config": (cmd_config, "print the resolved configuration", set(_CONFIG_KEYS)),
    "reproduce": (cmd_reproduce, "rerun a pinned reference result", set()),
}


def reads(command: str, config: RunConfig) -> set[str]:
    """The settings ``command`` reads under ``config``.

    Its row's set in the command table, less the key that a sweep sets
    at each of its points.
    """
    keys = _COMMANDS[command][2]
    return keys - {config.sweep_parameter} if command == "sweep" else keys


def _refuse_unread(command: str, config: RunConfig, physical: float | None) -> None:
    """Refuse the first setting off its default that ``command`` does not read.

    Config keys go in file order, then ``--physical``.
    """
    read, defaults = reads(command, config), RunConfig()
    settings = [(k, getattr(config, k), getattr(defaults, k)) for k in _CONFIG_KEYS]
    for key, value, default in [*settings, ("--physical", physical, None)]:
        if key not in read and value != default:
            raise ConfigError(f"{key} = {_render(value)} is not read by {command}")


class _Parser(ArgumentParser):
    # Usage problems are configuration problems: exit 1, reserve 2 for
    # failed reproduction checks.
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="afcsim",
        description="Pulse storage and recall in periodic absorption combs.",
    )
    parser.add_argument(
        "--config",
        type=Path,
        metavar="PATH",
        help="key = value settings file merged over the defaults",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("."),
        metavar="DIR",
        help="directory for CSV output (created if missing)",
    )
    parser.add_argument(
        "--physical",
        type=float,
        metavar="NU0_HZ",
        help="also emit physical-unit columns, taking nu0 as this many Hz",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    for name, (_, help_line, _) in _COMMANDS.items():
        commands.add_parser(name, help=help_line)
    commands.choices["reproduce"].add_argument(
        "target", nargs="?", help="target name; omit to list targets"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read {args.config}: {exc}") from exc
            config = parse_config(text)
        else:
            config = RunConfig()
        try:
            scale = None if args.physical is None else UnitScale(args.physical)
        except ValueError:
            raise ConfigError(
                "--physical takes nu0 in Hz, a positive finite number; "
                f"got {args.physical}"
            ) from None
        _refuse_unread(args.command, config, args.physical)
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](config, args, scale)
    except (ConfigError, ValueError, _StdoutFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
