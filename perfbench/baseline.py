"""Repeat the benchmark over seeds and record medians, quartiles and spread.

    python3 perfbench/baseline.py [--workloads cli,sim-sweep,reproduce]
        [--seeds 10] [--seconds 30] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed (seeds 1..N), one run at a
time, and prints for every metric the median, the quartiles and the
spread, (Q3 - Q1) / median, with ``statistics.quantiles(values, n=4)``.
With ``--out`` it also writes those figures, every run's raw result and
a record of the machine and library versions to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, SRC, THREAD_ENV  # noqa: E402


def machine_record() -> dict[str, object]:
    """Versions, core count, CPU model and cache sizes of this machine."""
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout.split()
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "thread_env": THREAD_ENV,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict[str, object]:
    argv = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="cli,sim-sweep,reproduce")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record: dict[str, object] = {"machine": machine_record(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [dict(seed=seed, **run_once(workload, seed, args.seconds, args.trace)) for seed in range(1, args.seeds + 1)]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(unit=runs[0]["metrics"][name]["unit"], **summarise(values))
            m = metrics[name]
            print(f"{workload:>10} {name:<32} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {m['spread']:.4f}", flush=True)
        print(
            f"{workload:>10} correct: {all(r['correct'] for r in runs)}, "
            f"attempted: {[r['attempted'] for r in runs]}, failed: {[r['failed'] for r in runs]}",
            flush=True,
        )
        record["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
