"""Fingerprints of the CSV files and stdout of the CLI and the reproduce targets.

A fingerprint records, per file, its sha256, its row count and its
header; per column, a digest of its cells; and per numeric column, the
count of finite cells and their sum and L2 norm.
``tests/fingerprints.json`` holds the fingerprints of the runs in
:data:`RUNS` and each run's stdout, together with the environment that
wrote them; ``test_fingerprints.py`` reruns them and compares.

Rewrite the record from the repository root with::

    PYTHONPATH=src python tests/fingerprints.py

which also prints every file whose fingerprint moved, and by how much,
and every run whose stdout moved.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from afcsim.cli import main as afcsim
from afcsim.reproduce import TARGETS

RECORD = Path(__file__).with_name("fingerprints.json")

# Sums and norms match within REL_BOUND of a column's scale where the
# numpy version and the platform equal the record's, and within
# OTHER_BOUND elsewhere, where numpy may round its FFTs and its SIMD
# maths otherwise.  A column's scale is its recorded L2 norm, or, for one
# part of a complex pair (re_x and im_x), the pair's: the imaginary part
# of a near-real field is rounding beside its real part.  A sum's bound
# is also scaled by the square root of the finite count, the largest its
# magnitude can be for that norm.
REL_BOUND = 1e-12
OTHER_BOUND = 1e-9

# Each run: the directory its files go to, its config text (None for the
# defaults) and its arguments after ``--out``.  A run is named by its
# directory and arguments, as in ``product protocol``.
RUNS: list[tuple[str, str | None, list[str]]] = [
    *[("reproduce", None, ["reproduce", name]) for name in sorted(TARGETS)],
    # config and reproduce without a target write no CSV, only stdout
    *[
        ("defaults", None, [command])
        for command in (
            "spectrum transfer propagate train protocol sweep config reproduce"
        ).split()
    ],
    ("two-pass", "passes = 2\n", ["protocol"]),
    # echo window 0 holds no arrival: its arrival cells stay empty
    ("no-arrival", "finesse = 4.1\nd_p = 100\n", ["--physical", "2e6", "train"]),
    *[
        ("physical", None, ["--physical", "3.7e6", command])
        for command in "spectrum transfer propagate".split()
    ],
    # 82 broadened teeth: the finite comb as one product of tooth ratios
    ("product", "pair_count = 40\ngamma = 0.005\npasses = 2\n", ["protocol"]),
    # touching teeth (finesse 1) are one wide tooth
    ("touching", "finesse = 1\ngamma = 0.01\n", ["train"]),
    *[
        (shape, config, [command])
        for shape, config in (
            ("lorentzian", "shape = lorentzian\n"),
            ("harmonic", "shape = harmonic\nfinesse = 2\n"),
        )
        for command in ("transfer", "propagate")
    ],
    # finesse 4 fails on a tooth edge; its status cell holds commas
    (
        "finesse-sweep",
        "sweep_parameter = finesse\nsweep_start = 3.5\nsweep_stop = 4.5\n"
        "sweep_steps = 3\nsweep_simulate = true\n",
        ["sweep"],
    ),
    ("two-pass-sweep", "sweep_simulate = true\npasses = 2\n", ["sweep"]),
    # C0 underflows to 0 at these depths: closed trains stay finite
    ("deep-train", "d_p = 1e300\n", ["train"]),
    ("deep-sweep", "sweep_stop = 1e300\nsweep_steps = 3\n", ["sweep"]),
    ("deep-resummed", "model = ideal\nharmonics = none\nd_p = 1e300\n", ["protocol"]),
    (
        "deep-resummed-broadened",
        "model = ideal\nharmonics = none\ngamma = 1e-16\nd_p = 1e300\n",
        ["protocol"],
    ),
    ("ideal-broadened", "model = ideal\ngamma = 0.01\npasses = 2\n", ["protocol"]),
]


def environment() -> dict[str, object]:
    """What the exact bytes of a float's decimal form depend on."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": f"{sys.platform}-{platform.machine()}",
        # the SIMD kernels numpy picks for exp, log and friends on this CPU
        "simd": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


def column_bound(recorded: dict[str, object]) -> float:
    """The column bound for a record written in the ``recorded`` environment."""
    here = environment()
    same = all(here[key] == recorded.get(key) for key in ("numpy", "platform"))
    return REL_BOUND if same else OTHER_BOUND


def run_all(out: Path) -> dict[str, str]:
    """Write every run's CSV files under ``out``; a run that fails raises.

    Returns each run's stdout by its name, the output root spelled ``OUT``.
    """
    stdout = {}
    for directory, config, argv in RUNS:
        options = ["--out", str(out / directory)]
        if config is not None:
            path = out / f"{directory}.cfg"
            path.write_text(config)
            options += ["--config", str(path)]
        name = " ".join([directory, *argv])
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = afcsim([*options, *argv])
        if code != 0:
            raise RuntimeError(f"{name}: exited {code}")
        stdout[name] = printed.getvalue().replace(str(out), "OUT")
    return stdout


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def fingerprint(path: Path) -> dict[str, object]:
    """sha256, rows and header of one CSV, its columns' digests and sums.

    Raises ``ValueError`` if a row is not as wide as the header, as one
    whose text cell (a failed sweep point's status) lost its quotes.
    """
    data = path.read_bytes()
    header, *rows = csv.reader(io.StringIO(data.decode()))
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: line {line} has {len(row)} cells, the header {len(header)}"
            )
    columns, digests = {}, {}
    for name, cells in zip(header, zip(*rows)):
        text = "\n".join(cells).encode()
        digests[name] = hashlib.sha256(text).hexdigest()[:16]
        filled = [cell for cell in cells if cell != ""]
        values = [_number(cell) for cell in filled]
        if not filled or None in values:
            continue  # a text column: only the sha256 pins it
        finite = np.array([v for v in values if math.isfinite(v)])
        columns[name] = {
            "finite": int(finite.size),
            "sum": float(finite.sum()),
            # hypot scales its terms: a column of depths near 1e300
            # has a finite norm
            "norm": math.hypot(*finite.tolist()),
        }
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": len(rows),
        "header": header,
        "columns": columns,
        "digests": digests,
    }


def fingerprints(out: Path) -> dict[str, dict[str, object]]:
    """Fingerprint of every CSV under ``out``, by its relative path."""
    return {
        path.relative_to(out).as_posix(): fingerprint(path)
        for path in sorted(out.rglob("*.csv"))
    }


def _scale(columns: dict[str, dict[str, float]], column: str) -> float:
    """A column's recorded norm; for re_x or im_x, its complex pair's."""
    head, sep, tail = column.partition("_")
    if head in ("re", "im"):
        partner = columns.get(("im" if head == "re" else "re") + sep + tail)
        if partner is not None:
            return math.hypot(columns[column]["norm"], partner["norm"])
    return columns[column]["norm"]


def column_moves(
    recorded: dict[str, dict[str, object]], fresh: dict[str, dict[str, object]]
) -> list[tuple[float, str]]:
    """Each structural change and each column move, largest first.

    A column's move is the larger of its sum's and its norm's change,
    each over its scale (see ``REL_BOUND``), times the square root of
    the finite count for the sum.  Structural changes (a file, header, row
    count or finite count that differs) rank first, as infinite moves.
    """
    moves = []
    for name in sorted(recorded.keys() | fresh.keys()):
        old, new = recorded.get(name), fresh.get(name)
        if old is None or new is None:
            state = "new" if old is None else "missing"
            moves.append((math.inf, f"{name}: {state} file"))
            continue
        for key in ("header", "rows"):
            if old[key] != new[key]:
                moves.append((math.inf, f"{name}: {key} {new[key]} against {old[key]}"))
        for column, was in old["columns"].items():
            now = new["columns"].get(column)
            if now is None or now["finite"] != was["finite"]:
                moves.append((math.inf, f"{name}: column {column}: {now} against {was}"))
                continue
            scale = _scale(old["columns"], column) or 1.0
            move = max(
                abs(now["sum"] - was["sum"]) / (scale * math.sqrt(was["finite"])),
                abs(now["norm"] - was["norm"]) / scale,
            )
            if move:
                moves.append(
                    (
                        move,
                        f"{name}: column {column}: sum {now['sum']!r} against "
                        f"{was['sum']!r}, norm {now['norm']!r} against "
                        f"{was['norm']!r}; largest difference {move:.3g} relative",
                    )
                )
    return sorted(moves, key=lambda move: -move[0])


def stdout_moves(recorded: dict[str, str], fresh: dict[str, str]) -> list[str]:
    """Each run whose stdout differs from the record, and its first differing line."""
    moves = []
    for name in sorted(recorded.keys() | fresh.keys()):
        old, new = recorded.get(name), fresh.get(name)
        if old is None or new is None:
            moves.append(f"{name}: {'new' if old is None else 'missing'} run")
        elif old != new:
            # line ends kept, so that a lost final newline shows too
            lines = itertools.zip_longest(
                new.splitlines(keepends=True), old.splitlines(keepends=True)
            )
            line, now, was = next(
                (n, now, was) for n, (now, was) in enumerate(lines, 1) if now != was
            )
            moves.append(f"{name}: stdout line {line}: {now!r} against {was!r}")
    return moves


def fresh_record(out: Path) -> dict[str, dict[str, object]]:
    """Every run under ``out``: each file's fingerprint and each run's stdout."""
    stdout = run_all(out)
    return {"files": fingerprints(out), "stdout": stdout}


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        fresh = fresh_record(Path(out))
    if RECORD.exists():
        recorded = json.loads(RECORD.read_text())
        files = recorded["files"]
        moved = sorted(
            {name for name in fresh["files"] if files.get(name) != fresh["files"][name]}
            | (files.keys() - fresh["files"].keys())
        )
        for name in moved:
            print(f"moved: {name}")
        for _, message in column_moves(files, fresh["files"]):
            print(message)
        for message in stdout_moves(recorded["stdout"], fresh["stdout"]):
            print(f"moved: {message}")
    record = {"environment": environment(), **fresh}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {RECORD} ({len(fresh['files'])} files, {len(fresh['stdout'])} runs)"
    )


if __name__ == "__main__":
    main()
