"""afcsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli|sim-sweep|reproduce \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported
from ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones plus the tracing
overhead.  Earlier lines list each metric with its unit and sample
count, and any failure or check that did not hold.

The loop runs whole rounds (see ``workloads.py``), at least three, and
stops at the round boundary closest to ``--seconds``, so every run
measures the same mix.  ``ops_per_s`` and ``op_p50_s`` take each kind
of operation at its median time over the rounds.  A traced run repeats round 0 as pairs, untraced then traced, so
its work counts are exact for the seed and the traced-to-untraced time
ratio is the tracing overhead.  See ``NOTES.md`` for what each metric
is expected to show.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One client, one operation at a time; no library thread pools.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Each operation's time is a median over rounds; three rounds let one
# slow round (the machine is shared) drop out of every median.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "sim_rel_gap_mean": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class Ledger:
    """Attempts, failures, correctness and timings of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times: dict[str, list[float]] = {}
        self.gaps: list[float] = []
        self.digests: dict[str, str] = {}

    def record(self, op: Any, seconds: float, verdict: Any) -> None:
        self.attempted += 1
        self.times.setdefault(op.stratum, []).append(seconds)
        if verdict.failed:
            self.failed += 1
            note(f"failed: {op.key}: {verdict.why}")
            return
        if not verdict.correct:
            self.correct = False
            note(f"incorrect: {op.key}: {verdict.why}")
            return
        previous = self.digests.setdefault(op.key, verdict.digest)
        if previous != verdict.digest:
            self.correct = False
            note(f"incorrect: {op.key}: output differs between repeats")
        self.gaps.extend(verdict.gaps)


def note(message: str) -> None:
    print(message, flush=True)


def run_op(workload: Any, op: Any, work: Path, ledger: Ledger, tracer: Any = None) -> float:
    """Run and check one operation in a fresh output directory; return its wall time."""
    out = Path(tempfile.mkdtemp(dir=work))
    start = time.perf_counter()
    result = workload.execute(op, out, tracer)
    seconds = time.perf_counter() - start
    ledger.record(op, seconds, workload.check(op, result))
    shutil.rmtree(out)
    return seconds


def timed_children(argv: list[str], repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh processes; each must exit 0."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr.strip()[-400:]}")
    return times


def import_times() -> list[float]:
    """Seconds a fresh ``import afcsim.cli`` takes, as each child reports."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), "--import-only"],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(workload: Any, args: argparse.Namespace, work: Path) -> tuple[Ledger, dict[str, tuple[float, int]]]:
    probe = [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--seed", str(args.seed), "--setup-probe"]
    setup = timed_children(probe, SETUP_REPEATS)
    ledger = Ledger()
    begin = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        for op in workload.round_ops(args.seed, index):
            run_op(workload, op, work, ledger)
        index += 1
        round_s = time.perf_counter() - round_start
        if index >= MIN_ROUNDS and time.perf_counter() - begin + round_s / 2 >= args.seconds:
            break
    ok = ledger.attempted - ledger.failed
    if not ok or not ledger.gaps:
        raise RuntimeError("no operation succeeded with a simulation to compare; nothing to measure")
    # A typical round: every stratum at its median time over the rounds.
    typical = [statistics.median(times) for times in ledger.times.values()]
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (ok / ledger.attempted * len(typical) / sum(typical), ledger.attempted),
        "op_p50_s": (statistics.median(typical), ledger.attempted),
        "peak_rss_mb": (workload.peak_rss_mb(), 1),
        "ok_share": (ok / ledger.attempted, ledger.attempted),
        "sim_rel_gap_mean": (statistics.fmean(ledger.gaps), len(ledger.gaps)),
    }
    note(f"rounds: {index}, operations: {ledger.attempted}, failed: {ledger.failed}")
    return ledger, metrics


def per_layer(workload: Any, args: argparse.Namespace, work: Path) -> tuple[Ledger, dict[str, tuple[float, int]]]:
    from tracer import COUNT_METRICS, Tracer, layer_metrics

    imports = import_times()
    ledger = Ledger()
    ops = workload.round_ops(args.seed, 0)
    rounds: list[dict[str, float]] = []
    overheads: list[float] = []
    spans: list[list[Any]] = []
    begin = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = sum(run_op(workload, op, work, ledger) for op in ops)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            traced = sum(run_op(workload, op, work, ledger, tracer) for op in ops)
        finally:
            tracer.uninstall()
        rounds.append(layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        overheads.append(traced / plain - 1.0)
        pair_s = time.perf_counter() - pair_start
        if time.perf_counter() - begin + pair_s / 2 >= args.seconds:
            break
    for name in COUNT_METRICS:
        if len({r[name] for r in rounds}) != 1:
            ledger.correct = False
            note(f"incorrect: work count {name} differs between repeats of one round")
    metrics = {name: (statistics.median(r[name] for r in rounds), len(rounds)) for name in rounds[0]}
    metrics["cli.import_s"] = (statistics.median(imports), len(imports))
    metrics["trace.overhead_share"] = (statistics.median(overheads), len(overheads))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spans-{workload.name}-seed{args.seed}.json").write_text(json.dumps({"rounds": spans}, separators=(",", ":")))
    note(f"traced rounds: {len(rounds)}, operations per round: {len(ops)}, failed: {ledger.failed}")
    return ledger, metrics


def main(argv: list[str]) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "afcsim" / "__init__.py").is_file():
        print(f"error: no afcsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(work)
        if workload.in_process:
            import afcsim

            if SRC.resolve() not in Path(afcsim.__file__).resolve().parents:
                print(f"error: afcsim imported from {afcsim.__file__}, not {SRC}", file=sys.stderr)
                return 2
        workload.round_ops(args.seed, 0)  # generating the inputs is part of set-up
        warm_up = Ledger()
        run_op(workload, workload.WARM_UP, work, warm_up)
        if warm_up.failed or not warm_up.correct:
            print("error: the warm-up operation did not succeed", file=sys.stderr)
            return 2
        if args.setup_probe:
            return 0
        runner = per_layer if args.trace else end_to_end
        ledger, metrics = runner(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    units = {name: layer_unit(name) for name in metrics} if args.trace else END_TO_END
    for name, (value, samples) in metrics.items():
        note(f"{workload.name:>10} {name:<32} {value!r:>24} {units[name]:<6} n={samples}")
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
