"""The three benchmark workloads: input generators, runners and checks.

Every workload is a closed loop with one client: one operation at a
time, each one checked as soon as it returns.  Inputs come from the
seed alone and reach the program only through its public API or its
command line.

An operation *fails* when it raises, exits non-zero, returns or writes
a non-finite value in a row it calls ok, or is a reproduce target whose
report is not ok.  An operation that does not fail but whose output
breaks a check below makes the run *incorrect*.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

# Largest |simulated / closed - 1| a successful simulation may show.
# The seed commit's worst case on these inputs is under 2e-2 (finite
# pair_count 9 combs whose teeth do not cover the wide grid).
GAP_TOL = 0.05
# Echoes weaker than this sit near the floor that the finite time
# window leaves, so their relative gap says nothing about accuracy and
# is neither checked nor reported.
GAP_FLOOR = 1e-3


@dataclass(frozen=True)
class Op:
    """One operation.

    Equal ``key`` means equal inputs and so equal output.  Operations of
    one ``stratum`` do the same kind and amount of work, so the run
    compares their times across rounds.
    """

    key: str
    params: tuple[Any, ...]
    stratum: str


@dataclass
class Verdict:
    failed: bool = False
    correct: bool = True
    why: str = ""
    gaps: list[float] = field(default_factory=list)
    digest: str = ""


def _fail(why: str) -> Verdict:
    return Verdict(failed=True, why=why)


def _wrong(why: str) -> Verdict:
    return Verdict(correct=False, why=why)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        table = list(csv.reader(handle))
    return table[0], table[1:]


_NUMPY_SCALAR = re.compile(r"^np\.float64\((.*)\)$")


def number(cell: str) -> float:
    """A CSV cell as a float.

    With numpy 2 the package writes numpy scalars as ``np.float64(x)``;
    the value is still ``x``, so both spellings are read.
    """
    match = _NUMPY_SCALAR.match(cell)
    return float(match.group(1) if match else cell)


def non_finite_cells(rows: list[list[str]]) -> int:
    """Numeric cells that parse to nan or inf; text cells are skipped."""
    bad = 0
    for row in rows:
        for cell in row:
            try:
                value = number(cell)
            except ValueError:
                continue
            bad += not math.isfinite(value)
    return bad


def _digest(*paths: Path, text: str = "") -> str:
    h = hashlib.sha256(text.encode())
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# -- cli ----------------------------------------------------------------


class CliWorkload:
    """Fresh ``afcsim`` processes: the seven subcommands at defaults,
    ``protocol`` with two passes and ``train`` at finesse 4."""

    name = "cli"
    in_process = False
    OPS = (
        ("spectrum", "", "spectrum"),
        ("transfer", "", "transfer"),
        ("propagate", "", "propagate"),
        ("train", "", "train"),
        ("protocol", "", "protocol"),
        ("sweep", "", "sweep"),
        ("config", "", "config"),
        ("protocol-passes2", "passes = 2\n", "protocol"),
        ("train-finesse4", "finesse = 4\n", "train"),
    )
    WARM_UP = Op("config", ("config", None), "config")
    _WROTE = re.compile(r"^wrote (.+) \((\d+) rows\)$")

    def __init__(self) -> None:
        self.peak_rss_kb = 0
        self.configs: dict[str, Path] = {}

    def prepare(self, work: Path) -> None:
        for label, text, _ in self.OPS:
            if text:
                path = work / f"{label}.cfg"
                path.write_text(text)
                self.configs[label] = path

    def round_ops(self, seed: int, index: int) -> list[Op]:
        ops = [
            Op(label, (command, self.configs.get(label)), label)
            for label, _, command in self.OPS
        ]
        random.Random(f"cli:{seed}:{index}").shuffle(ops)
        return ops

    def execute(self, op: Op, out: Path, tracer: Any = None) -> dict[str, Any]:
        command, config = op.params
        argv = [sys.executable, str(HERE / "cli_child.py")]
        spans_path = out / "spans.json"
        if tracer is not None:
            argv += ["--trace-out", str(spans_path)]
        argv += ["--", "--out", str(out)]
        if config is not None:
            argv += ["--config", str(config)]
        argv.append(command)
        stdout_path, stderr_path = out / "stdout.txt", out / "stderr.txt"
        with stdout_path.open("wb") as stdout, stderr_path.open("wb") as stderr:
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None and spans_path.exists():
            tracer.adopt(_load_spans(spans_path))
        return {
            "code": proc.returncode,
            "stdout": stdout_path.read_text().replace(str(out), "OUT"),
            "stderr": stderr_path.read_text(),
            "out": out,
        }

    def check(self, op: Op, result: dict[str, Any]) -> Verdict:
        command = op.params[0]
        if result["code"] != 0:
            tail = result["stderr"].strip().splitlines()[-1:]
            return _fail(f"exit code {result['code']}: {tail}")
        stdout = result["stdout"]
        if command == "config":
            lines = stdout.splitlines()
            if not lines or not all(re.match(r"^\w+ = \S+$", ln) for ln in lines):
                return _wrong("config output is not key = value lines")
            return Verdict(digest=_digest(text=stdout))
        wrote = [m for m in map(self._WROTE.match, stdout.splitlines()) if m]
        if len(wrote) != 1:
            return _fail("no 'wrote PATH (N rows)' line")
        path = Path(wrote[0].group(1).replace("OUT", str(result["out"]), 1))
        count = int(wrote[0].group(2))
        if not path.is_file():
            return _fail(f"{path.name} was not written")
        header, rows = read_csv(path)
        if non_finite_cells(rows):
            return _fail(f"{path.name}: {non_finite_cells(rows)} non-finite cells")
        if "status" in header:
            status = header.index("status")
            if any(row[status] != "ok" for row in rows):
                return _fail(f"{path.name}: rows not ok")
        if len(rows) != count or count < 1:
            return _wrong(f"{path.name}: {len(rows)} rows, reported {count}")
        verdict = Verdict(digest=_digest(path, text=stdout))
        if "magnitude" in header:
            column = header.index("magnitude")
            if max(number(row[column]) for row in rows) > 1.0 + 1e-9:
                return _wrong("transfer magnitude above 1")
        if "rel_error" in header:
            column = header.index("rel_error")
            if command == "train":
                rows = [row for row in rows if row[0] == "1"]
            verdict.gaps = [abs(number(row[column])) for row in rows]
            if not rows or max(verdict.gaps) > GAP_TOL:
                return _wrong(f"{op.key}: simulation gap {verdict.gaps}")
        return verdict

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


def _load_spans(path: Path) -> list[list[Any]]:
    return json.loads(path.read_text())["spans"]


# -- sim-sweep ------------------------------------------------------------

# (shape, model, broadened teeth, pair_count, harmonics).  For
# Lorentzian and harmonic teeth every model is the same closed form and
# the width only changes a scalar, so one variant each suffices.
SWEEP_VARIANTS = (
    ("square", "broadened", False, 9, 2000),
    ("square", "broadened", False, 40, 2000),
    ("square", "broadened", True, 9, 2000),
    ("square", "broadened", True, 40, 2000),
    ("square", "ideal", False, 9, 2000),
    ("square", "ideal", False, 9, None),
    ("lorentzian", "broadened", True, 9, 2000),
    ("harmonic", "broadened", False, 9, 2000),
)
SWEEP_SAMPLES = (2**14, 2**15, 2**16)
SWEEP_SPANS = (4.0, 6.0)
# Values a user types.  On these grids every power-of-two finesse puts
# a sample exactly on a tooth edge of the unbroadened finite square
# comb, whose response is then infinite (the finesse-4 NaN of the
# command line); the other finesses never do.  Each square or
# Lorentzian variant draws one finesse from the first family and two
# from the second in every round, so edge-aligned grids occur in a
# fixed share of the operations whatever the seed.
SWEEP_FINESSE_FAMILIES = ((2.0, 4.0, 8.0), (3.0, 5.0, 10.0))
SWEEP_GAMMAS = (0.005, 0.01, 0.02)
SWEEP_DEPTH_OFFSETS = (1, 2, 3, 4)


def optimal_depth(shape: str, finesse: float) -> float:
    """Depth of the brightest first echo, ``2 / A0``, which users sweep around."""
    if shape == "square":
        return 2.0 * finesse
    if shape == "lorentzian":
        return 4.0 * finesse / math.pi
    return 4.0


class SimSweepWorkload:
    """In-process simulated first-echo sweeps over shapes, models and grids.

    A round holds every (variant, grid size) pair once, in a fixed
    order, each a two-point sweep of the depth ``d_p`` that brackets the
    optimal depth by whole numbers.  The seed draws the finesse, the
    depths and the tooth width of each sweep; the grid span alternates
    between 4 and 6 pulse widths.
    """

    name = "sim-sweep"
    in_process = True
    WARM_UP = Op("warm-up", ("square", "broadened", 9, 2000, 0.0, 2**14, 6.0, 5.0, 8.0, 12.0), "warm-up")

    def prepare(self, work: Path) -> None:
        from afcsim import sweeps, train
        from afcsim.combs import CombSpec, MediumSpec

        self.sweeps, self.train = sweeps, train
        self.CombSpec, self.MediumSpec = CombSpec, MediumSpec

    def round_ops(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"sim-sweep:{seed}:{index}")
        finesses = {}
        for v, (shape, *_) in enumerate(SWEEP_VARIANTS):
            if shape == "harmonic":
                finesses[v] = [2.0] * len(SWEEP_SAMPLES)
            else:
                edge, other = SWEEP_FINESSE_FAMILIES
                picks = [rng.choice(edge)] + [rng.choice(other) for _ in SWEEP_SAMPLES[1:]]
                rng.shuffle(picks)
                finesses[v] = picks
        ops = []
        for g, samples in enumerate(SWEEP_SAMPLES):
            for v, (shape, model, broadened, pair_count, harmonics) in enumerate(SWEEP_VARIANTS):
                gamma = rng.choice(SWEEP_GAMMAS) if broadened else 0.0
                span = SWEEP_SPANS[(g + v) % 2]
                finesse = finesses[v][g]
                best = round(optimal_depth(shape, finesse))
                start = float(max(1, best - rng.choice(SWEEP_DEPTH_OFFSETS)))
                stop = float(best + rng.choice(SWEEP_DEPTH_OFFSETS))
                params = (shape, model, pair_count, harmonics, gamma, samples, span, finesse, start, stop)
                ops.append(Op(repr(params), params, f"{v}:{samples}"))
        return ops

    def _request(self, params: tuple[Any, ...]) -> Any:
        shape, model, pair_count, harmonics, gamma, samples, span, finesse, start, stop = params
        return self.sweeps.SweepRequest(
            axis=self.sweeps.SweepAxis("d_p", start, stop, 2),
            kind=self.sweeps.SweepKind.FIRST_ECHO,
            shape=shape,
            gamma=gamma,
            pair_count=pair_count,
            simulate=True,
            model=model,
            harmonics=harmonics,
            samples=samples,
            span_factor=span,
            finesse=finesse,
        )

    def execute(self, op: Op, out: Path, tracer: Any = None) -> Any:
        try:
            return self.sweeps.sweep(self._request(op.params))
        except Exception as exc:  # the loop records the failure and goes on
            return exc

    def check(self, op: Op, result: Any) -> Verdict:
        if isinstance(result, Exception):
            return _fail(f"raised {result!r}")
        request = result.request
        for row in result.rows:
            if row.status != "ok":
                return _fail(f"row {row.value}: {row.status}")
            if not _finite(row.efficiency, *row.intensities):
                return _fail(f"row {row.value} is ok but not finite")
        if not _finite(result.best_value, result.best_efficiency):
            return _fail("best point is not finite")
        expected = [float(v) for v in request.axis.values()]
        if [row.value for row in result.rows] != expected:
            return _wrong("rows do not follow the axis")
        if not request.axis.start <= result.best_value <= request.axis.stop:
            return _wrong("best point outside the axis")
        verdict = Verdict(digest=repr([(r.efficiency, r.intensities) for r in result.rows]))
        comb = self.CombSpec.from_finesse(
            request.shape, request.finesse, pair_count=request.pair_count, gamma=request.gamma
        )
        for row in result.rows:
            if not 0.0 < row.efficiency <= 1.0 or any(not 0.0 <= i <= 1.0 for i in row.intensities):
                return _wrong(f"row {row.value}: efficiency outside (0, 1]")
            closed = self.train.first_echo_intensity(comb, self.MediumSpec(row.value))
            if closed >= GAP_FLOOR:
                verdict.gaps.append(abs(row.efficiency / closed - 1.0))
        if verdict.gaps and max(verdict.gaps) > GAP_TOL:
            return _wrong(f"simulation gap {max(verdict.gaps):.3g} for {op.key}")
        return verdict

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reproduce ------------------------------------------------------------


class ReproduceWorkload:
    """In-process ``reproduce.run_target`` over every registered target."""

    name = "reproduce"
    in_process = True
    WARM_UP = Op("echo-train-f2", ("echo-train-f2",), "echo-train-f2")

    def prepare(self, work: Path) -> None:
        from afcsim import reproduce

        self.reproduce = reproduce

    def round_ops(self, seed: int, index: int) -> list[Op]:
        ops = [Op(name, (name,), name) for name in sorted(self.reproduce.TARGETS)]
        random.Random(f"reproduce:{seed}:{index}").shuffle(ops)
        return ops

    def execute(self, op: Op, out: Path, tracer: Any = None) -> Any:
        try:
            return self.reproduce.run_target(op.params[0], out)
        except Exception as exc:  # the loop records the failure and goes on
            return exc

    def check(self, op: Op, result: Any) -> Verdict:
        if isinstance(result, Exception):
            return _fail(f"raised {result!r}")
        if not result.ok:
            bad = [c.label for c in result.checks if not c.ok]
            return _fail(f"checks failed: {bad}")
        if not result.files:
            return _wrong("no files written")
        for path in result.files:
            if not path.is_file():
                return _wrong(f"{path.name} missing")
            _, rows = read_csv(path)
            if not rows:
                return _wrong(f"{path.name} is empty")
            if non_finite_cells(rows):
                return _fail(f"{path.name}: {non_finite_cells(rows)} non-finite cells")
        verdict = Verdict(digest=_digest(*result.files))
        verdict.gaps = [abs(c.value) for c in result.checks if "(relative)" in c.label]
        return verdict

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliWorkload, SimSweepWorkload, ReproduceWorkload)}
