"""Parameter sweeps, golden-section refinement, optimal-recall curve."""

import math
from dataclasses import replace

import numpy as np
import pytest

from afcsim.combs import CombShape, CombSpec, MediumSpec
from afcsim.propagation import FrequencyGrid, Probe, PulseSpec
from afcsim.protocols import RunSpec, recall
from afcsim.sweeps import (
    SweepAxis,
    SweepKind,
    SweepRequest,
    golden_section_max,
    optimal_curve,
    sweep,
)
from afcsim.train import first_echo_intensity


class TestGoldenSection:
    def test_finds_parabola_vertex(self):
        x, fx = golden_section_max(lambda v: -((v - 2.0) ** 2), 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-5)
        assert fx == pytest.approx(0.0, abs=1e-10)

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda v: v, 1.0, 1.0)


class TestSweepAxis:
    def test_linear_values(self):
        np.testing.assert_allclose(
            SweepAxis("d_p", 1.0, 3.0, 5).values(), [1.0, 1.5, 2.0, 2.5, 3.0]
        )

    def test_log_values(self):
        values = SweepAxis("gamma", 0.001, 0.1, 3, scale="log").values()
        np.testing.assert_allclose(values, [0.001, 0.01, 0.1], rtol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="depth", start=1.0, stop=2.0, steps=3),
            dict(name="d_p", start=1.0, stop=2.0, steps=1),
            dict(name="d_p", start=1.0, stop=2.0, steps=3, scale="cubic"),
            dict(name="d_p", start=0.0, stop=2.0, steps=3, scale="log"),
            dict(name="d_p", start=2.0, stop=2.0, steps=3),
        ],
    )
    def test_rejects_bad_axes(self, kwargs):
        with pytest.raises(ValueError):
            SweepAxis(**kwargs)

    @pytest.mark.parametrize("scale", ["linear", "log"])
    @pytest.mark.parametrize(
        ("start", "stop", "field"),
        [
            (math.nan, 5.0, "start"),
            (-math.inf, 5.0, "start"),
            (1.0, math.nan, "stop"),
            (1.0, math.inf, "stop"),
        ],
    )
    def test_rejects_non_finite_endpoints(self, scale, start, stop, field):
        value = start if field == "start" else stop
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SweepAxis("d_p", start, stop, 3, scale)


class TestDepthSweep:
    def test_refines_to_known_optimum(self):
        # F = 2: optimum at d_p = 2F with intensity (4/pi)^2 e^{-2}
        result = sweep(SweepRequest(axis=SweepAxis("d_p", 1.0, 10.0, 10), finesse=2.0))
        assert result.refined
        assert result.best_value == pytest.approx(4.0, abs=1e-4)
        assert result.best_efficiency == pytest.approx(0.21939729737767416, abs=1e-9)

    def test_boundary_best_is_not_refined(self):
        # past the optimum the efficiency decreases, so the edge wins
        result = sweep(SweepRequest(axis=SweepAxis("d_p", 5.0, 9.0, 5), finesse=2.0))
        assert not result.refined
        assert result.best_value == 5.0

    def test_harmonic_shape(self):
        result = sweep(
            SweepRequest(
                axis=SweepAxis("d_p", 2.0, 6.0, 5),
                shape=CombShape.HARMONIC,
                finesse=2.0,
            )
        )
        assert result.best_value == pytest.approx(4.0, abs=1e-4)
        assert result.best_efficiency == pytest.approx(math.exp(-2.0), abs=1e-9)
        # Poisson train: i2 / i1 = (d_p / 8)^2 at every depth
        for row in result.rows:
            i1, i2, _ = row.intensities
            assert i2 == pytest.approx(i1 * (row.value / 8.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        ("shape", "finesse"),
        [
            (CombShape.SQUARE, 5.0),
            (CombShape.LORENTZIAN, 5.0),
            (CombShape.HARMONIC, 2.0),
        ],
        ids=["square", "lorentzian", "harmonic"],
    )
    def test_rows_carry_echo_intensities(self, shape, finesse):
        result = sweep(
            SweepRequest(
                axis=SweepAxis("d_p", 8.0, 12.0, 3),
                shape=shape,
                finesse=finesse,
                k_max=3,
            )
        )
        row = result.rows[1]
        assert row.value == 10.0
        assert len(row.intensities) == 3
        assert row.intensities[0] == pytest.approx(row.efficiency, rel=1e-12)


class TestEchoCount:
    @pytest.mark.parametrize("simulate", [False, True])
    @pytest.mark.parametrize("k_max", [-1, 0])
    def test_rejects_k_max_without_first_echo(self, transforms, k_max, simulate):
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3), k_max=k_max, simulate=simulate
        )
        with pytest.raises(
            ValueError,
            match=f"^k_max must be >= 1 to read the first echo, got {k_max}$",
        ):
            sweep(request)
        assert sum(transforms.values()) == 0

    @pytest.mark.parametrize(("k_max", "read"), [(1, 1), (3, 3), (8, 3)])
    def test_reads_at_most_three_echoes(self, k_max, read):
        request = SweepRequest(axis=SweepAxis("d_p", 8.0, 12.0, 3), k_max=k_max)
        result = sweep(request)
        assert result.request == replace(request, k_max=read)
        assert {len(row.intensities) for row in result.rows} == {read}


class TestFinesseAndGammaSweeps:
    def test_finesse_optimum_at_fixed_depth(self):
        result = sweep(SweepRequest(axis=SweepAxis("finesse", 3.0, 8.0, 6)))
        assert result.refined
        assert result.best_value == pytest.approx(5.6002, abs=1e-3)
        assert result.best_efficiency == pytest.approx(0.480895, abs=1e-5)
        # self-check: a genuine local maximum of the closed form
        for probe in (result.best_value - 0.01, result.best_value + 0.01):
            comb = CombSpec.from_finesse(CombShape.SQUARE, probe)
            assert first_echo_intensity(comb, MediumSpec(10.0)) <= result.best_efficiency

    def test_gamma_monotonically_degrades_recall(self):
        result = sweep(SweepRequest(axis=SweepAxis("gamma", 0.001, 0.01, 5)))
        efficiencies = [r.efficiency for r in result.rows]
        assert all(hi > lo for hi, lo in zip(efficiencies, efficiencies[1:]))

    def test_failed_points_become_rows(self):
        # finesse 0.5 puts the tooth width above the spacing and fails
        result = sweep(SweepRequest(axis=SweepAxis("finesse", 0.5, 2.0, 2)))
        assert result.rows[0].status.startswith("failed")
        assert math.isnan(result.rows[0].efficiency)
        assert result.rows[1].status == "ok"
        assert result.best_value == 2.0

    def test_tooth_edge_rows_fail(self):
        # spacing 40/4096 puts a grid sample on the finesse-4 tooth edge
        # at 1.25, where the unbroadened finite square comb is infinite
        result = sweep(
            SweepRequest(
                axis=SweepAxis("finesse", 4.0, 5.0, 2),
                simulate=True,
                samples=2**12,
                span_factor=4.0,
            )
        )
        bad, good = result.rows
        assert bad.status.startswith("failed: transfer is non-finite")
        assert math.isnan(bad.efficiency)
        assert good.status == "ok"
        assert result.best_value == 5.0

    def test_all_failed_raises(self):
        # 64 samples end the time window at 1.6 T, before echo 3 at every depth
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3), simulate=True, samples=2**6
        )
        with pytest.raises(
            ValueError,
            match="every sweep point failed; at d_p = 8: time window ends at 1.6 T",
        ):
            sweep(request)


class TestTwoPassSweep:
    def test_rows_match_interference_identity(self):
        result = sweep(
            SweepRequest(axis=SweepAxis("d_p", 8.0, 12.0, 5), kind=SweepKind.TWO_PASS)
        )
        row = next(r for r in result.rows if r.value == 10.0)
        assert row.efficiency == pytest.approx(0.8864297147112277, rel=1e-12)

    def test_closed_sweep_builds_no_grid(self):
        # grid settings only matter when simulating
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 5), kind=SweepKind.TWO_PASS
        )
        odd = replace(request, samples=3, span_factor=-1.0)
        assert sweep(odd).rows == sweep(request).rows


class TestSimulatedSweep:
    def test_simulation_tracks_closed_form(self):
        axis = SweepAxis("d_p", 8.0, 12.0, 3)
        simulated = sweep(
            SweepRequest(
                axis=axis,
                gamma=0.005,
                pair_count=40,
                simulate=True,
                samples=2**12,
            )
        )
        closed = sweep(SweepRequest(axis=axis, gamma=0.005))
        for sim_row, closed_row in zip(simulated.rows, closed.rows):
            assert sim_row.efficiency == pytest.approx(closed_row.efficiency, rel=1e-3)

    def test_depth_sweep_computes_one_response(self, response_calls):
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3),
            gamma=0.005,
            pair_count=40,
            simulate=True,
            samples=2**12,
        )
        result = sweep(request)
        rows = result.rows
        assert len(response_calls) == 1
        # each point on its own, from a fresh response, gives the same bits
        pulse = PulseSpec(sigma=request.sigma)
        grid = FrequencyGrid.for_pulse(pulse, request.span_factor, request.samples)
        for row in rows:
            fresh = recall(
                RunSpec(d_p=row.value, gamma=0.005, pair_count=40),
                # the sweep reads echoes up to min(k_max, 3)
                probe=Probe((pulse,), grid, result.request.k_max),
            )
            assert row.status == "ok"
            assert row.efficiency == fresh.simulated_efficiency
        assert len(response_calls) == 1 + len(rows)


# Small grids on which every comb below is finite: broadened teeth
# cover the grid, so no sample sits on a sharp edge.
PROBED = dict(gamma=0.005, pair_count=40, simulate=True, samples=2**12)


class TestSweepProbe:
    """A simulated sweep reads one probe, built at its first simulated point."""

    @pytest.mark.parametrize("kind", list(SweepKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "axis",
        [
            SweepAxis("d_p", 6.0, 14.0, 3),
            SweepAxis("finesse", 3.0, 7.0, 3),
            SweepAxis("gamma", 0.002, 0.02, 3, scale="log"),
        ],
        ids=lambda a: a.name,
    )
    def test_rows_equal_standalone_recalls(self, response_calls, axis, kind):
        request = SweepRequest(axis=axis, kind=kind, **PROBED)
        result = sweep(request)
        rows = result.rows
        # only a depth sweep shares one comb response among its points
        assert len(response_calls) == (1 if axis.name == "d_p" else len(rows))
        pulse = PulseSpec(sigma=request.sigma)
        grid = FrequencyGrid.for_pulse(pulse, request.span_factor, request.samples)
        params = {"finesse": request.finesse, "gamma": request.gamma, "d_p": request.d_p}
        for row in rows:
            params[axis.name] = row.value
            alone = recall(
                RunSpec(pair_count=request.pair_count, **params),
                passes=2 if kind is SweepKind.TWO_PASS else 1,
                # the sweep reads echoes up to min(k_max, 3)
                probe=Probe((pulse,), grid, result.request.k_max),
            )
            assert row.status == "ok"
            assert row.efficiency == alone.simulated_efficiency

    @pytest.mark.parametrize(
        ("kind", "forward", "backward"),
        [
            # the input peak once, then the output of each point
            (SweepKind.FIRST_ECHO, lambda n: n + 1, lambda n: 0),
            # plus the prompt there and back again at each point
            (SweepKind.TWO_PASS, lambda n: 2 * n + 1, lambda n: n),
        ],
        ids=["first-echo", "two-pass"],
    )
    def test_input_is_transformed_once(self, transforms, kind, forward, backward):
        n = 4
        sweep(SweepRequest(axis=SweepAxis("d_p", 6.0, 14.0, n), kind=kind, **PROBED))
        assert transforms["spectrum_to_signal"] == forward(n)
        assert transforms["signal_to_spectrum"] == backward(n)

    def test_tooth_edge_everywhere_runs_no_transform(self, transforms):
        # spacing 40/4096 puts a grid sample on the finesse-4 tooth edge
        # at 1.25 at every depth
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3),
            finesse=4.0,
            simulate=True,
            samples=2**12,
            span_factor=4.0,
        )
        message = (
            "every sweep point failed; at d_p = 8: transfer is non-finite at 8 "
            "grid samples, first at detuning -18.75: a sample sits on a sharp "
            "tooth edge; change finesse, samples or span_factor, or use gamma > 0"
        )
        with pytest.raises(ValueError) as excinfo:
            sweep(request)
        assert str(excinfo.value) == message
        assert sum(transforms.values()) == 0

    def test_tooth_edge_row_keeps_its_status(self, transforms):
        result = sweep(
            SweepRequest(
                axis=SweepAxis("finesse", 4.0, 5.0, 2),
                simulate=True,
                samples=2**12,
                span_factor=4.0,
            )
        )
        assert [row.status for row in result.rows] == [
            "failed: transfer is non-finite at 8 grid samples, first at detuning "
            "-18.75: a sample sits on a sharp tooth edge; change finesse, samples "
            "or span_factor, or use gamma > 0",
            "ok",
        ]
        # the input peak and the one output, both at finesse 5
        assert transforms["spectrum_to_signal"] == 2

    def test_window_without_two_samples_fails_every_row(self, transforms):
        # the input peak's transform is the first to see the time step
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3), **dict(PROBED, sigma=0.001)
        )
        with pytest.raises(ValueError) as excinfo:
            sweep(request)
        assert str(excinfo.value) == (
            "every sweep point failed; at d_p = 8: window [-3.141592653589793, "
            "15.707963267948966) holds fewer than two time samples; raise sigma "
            "or span_factor"
        )
        # each row asks for the input peak afresh and fails on it
        assert transforms["spectrum_to_signal"] == 3

    def test_bad_grid_fails_every_row(self, transforms):
        request = SweepRequest(
            axis=SweepAxis("d_p", 8.0, 12.0, 3), **dict(PROBED, samples=3)
        )
        with pytest.raises(ValueError) as excinfo:
            sweep(request)
        assert str(excinfo.value) == (
            "every sweep point failed; at d_p = 8: samples must be a power of "
            "two >= 16, got 3"
        )
        assert sum(transforms.values()) == 0


class TestOptimalCurve:
    def test_reference_row(self):
        curve = optimal_curve([32.0])
        np.testing.assert_allclose(curve[0, :2], [32.0, 64.0])
        assert curve[0, 2] == pytest.approx(0.5396041663233373, abs=1e-12)

    def test_depth_column_doubles_finesse(self):
        curve = optimal_curve([2.0, 5.0, 10.0, 20.0])
        np.testing.assert_allclose(curve[:, 1], 2.0 * curve[:, 0], rtol=1e-14)

    def test_intensity_increases_towards_ceiling(self):
        curve = optimal_curve(np.arange(2.0, 40.0, 2.0))
        intensities = curve[:, 2]
        assert np.all(np.diff(intensities) > 0.0)
        assert intensities[-1] < 4.0 * math.exp(-2.0)
