"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They check the harness, not afcsim: metric naming, the span arithmetic,
failure accounting and that work counts repeat exactly for a seed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PER_LAYER = list(tracing.layer_metrics([])) + ["cli.import_s", "trace.overhead_share"]


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == {name: run.layer_unit(name) for name in PER_LAYER}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for name in list(declared_e2e) + list(declared_layer):
        assert NAME.match(name), name


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping, union
    # [1, 6]) and [8, 12] (clipped to [8, 10]); the first child has a
    # grandchild [2, 3].
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["sweeps.sweep", 1.0, 4.0, 0, None],
        ["susceptibility.epsilon_broadened", 2.0, 3.0, 1, None],
        ["output.write_csv", 3.0, 6.0, 0, None],
        ["train.optimal_depth", 8.0, 12.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["cli.main_s"] == pytest.approx(10.0)
    assert metrics["sweeps.self_s"] == pytest.approx(2.0)
    assert metrics["output.write_s"] == pytest.approx(3.0)


def test_work_is_counted_once_per_layer_and_uninstall_restores():
    import afcsim.propagation as propagation
    import afcsim.susceptibility as susceptibility
    from afcsim.combs import CombSpec, MediumSpec

    original = susceptibility.epsilon_broadened
    tracer = tracing.Tracer()
    tracer.install()
    try:
        nu = np.linspace(-2.0, 2.0, 101) + 1e-3
        susceptibility.chi_square_exact(nu, 0.2, 9)
        comb = CombSpec.from_finesse("square", 5.0, gamma=0.01)
        grid = propagation.FrequencyGrid(20.0, 64)
        propagation.build_transfer(comb, MediumSpec(10.0), grid)
    finally:
        tracer.uninstall()
    assert susceptibility.epsilon_broadened is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["susceptibility.calls"] == 2
    assert metrics["susceptibility.points"] == 101 + 64
    assert metrics["susceptibility.tooth_evals"] == (101 + 64) * 20
    names = [span[0] for span in tracer.spans]
    # The closure inside build_transfer reaches comb_response as a
    # module global; the tracer must see it there too.
    assert "propagation.comb_response" in names


def _sweep_result(efficiency: float) -> SimpleNamespace:
    axis = SimpleNamespace(name="d_p", start=5.0, stop=15.0, values=lambda: [5.0, 10.0, 15.0])
    request = SimpleNamespace(axis=axis, finesse=5.0, d_p=10.0, shape="square", pair_count=40, gamma=0.0)
    rows = [
        SimpleNamespace(value=v, efficiency=e, intensities=(), status="ok")
        for v, e in zip(axis.values(), (0.3, efficiency, 0.4))
    ]
    return SimpleNamespace(request=request, rows=rows, best_value=10.0, best_efficiency=0.4)


def test_non_finite_results_count_as_failed(tmp_path):
    sweep = workloads.SimSweepWorkload()
    sweep.prepare(tmp_path)
    op = workloads.Op("forced", (), "forced")
    ledger = run.Ledger()
    ledger.record(op, 1.0, sweep.check(op, _sweep_result(math.nan)))
    ledger.record(op, 1.0, sweep.check(op, ValueError("boom")))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 2, True)

    csv_path = tmp_path / "train.csv"
    csv_path.write_text("k,intensity,rel_error\n0,0.1,0.0\n1,nan,nan\n")
    result = {"code": 0, "stdout": f"wrote {csv_path} (2 rows)\n", "stderr": "", "out": tmp_path}
    verdict = workloads.CliWorkload().check(workloads.Op("train", ("train", None), "train"), result)
    assert verdict.failed
    assert workloads.CliWorkload().check(
        workloads.Op("train", ("train", None), "train"), dict(result, code=1)
    ).failed

    report = SimpleNamespace(ok=False, checks=(SimpleNamespace(label="x", ok=False),), files=())
    assert workloads.ReproduceWorkload().check(op, report).failed


def _traced_counts(workload, ops, work: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            out = work / f"{workload.name}-op{i}"
            out.mkdir()
            workload.execute(op, out, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    return {name: metrics[name] for name in tracing.COUNT_METRICS}


def test_work_counts_repeat_for_a_fixed_seed(tmp_path):
    repro = workloads.ReproduceWorkload()
    repro.prepare(tmp_path)
    sweep = workloads.SimSweepWorkload()
    sweep.prepare(tmp_path)
    targets = [workloads.Op(n, (n,), n) for n in ("harmonic-weights", "echo-train-f2")]
    small = [op for op in sweep.round_ops(7, 0) if op.params[5] == 2**14][:2]
    assert small == [op for op in sweep.round_ops(7, 0) if op.params[5] == 2**14][:2]
    counts = []
    for attempt in range(2):
        work = tmp_path / f"attempt{attempt}"
        work.mkdir()
        counts.append(
            {
                **_traced_counts(repro, targets, work),
                "sweep": _traced_counts(sweep, small, work),
            }
        )
    assert counts[0] == counts[1]
    for name in ("susceptibility.points", "train.quad_integrand_calls", "output.rows"):
        assert counts[0][name] > 0, name
    assert counts[0]["sweep"]["propagation.fft_points"] > 0
