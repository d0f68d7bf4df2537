"""Spectral-domain propagation: grids, transforms, transfer, train readout."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim import propagation
from afcsim.combs import ECHO_DELAY, CombSpec, CombShape, MediumSpec
from afcsim.propagation import (
    FrequencyGrid,
    Probe,
    PulseSpec,
    TimeSignal,
    TransferModel,
    build_transfer,
    check_time_window,
    comb_response,
    echo_window,
    extract_train,
    gaussian_spectrum,
    peak_in_window,
    propagate,
    signal_to_spectrum,
    spectrum_to_signal,
    transfer_exponent,
)
from afcsim.protocols import RunSpec
from afcsim.susceptibility import (
    chi_square_exact,
    chi_square_series,
    square_harmonic_weights,
)
from oracles import full_forward, full_transform


class TestFrequencyGrid:
    def test_points_are_centred(self):
        grid = FrequencyGrid(half_span=8.0, samples=64)
        nu = grid.points()
        assert nu.size == 64
        assert nu[32] == 0.0
        assert nu[0] == -8.0
        np.testing.assert_allclose(np.diff(nu), grid.spacing)

    def test_spacing(self):
        grid = FrequencyGrid(half_span=8.0, samples=64)
        assert grid.spacing == 0.25

    def test_for_pulse_scales_with_sigma(self):
        pulse = PulseSpec(sigma=5.0)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=10.0, samples=256)
        assert grid.half_span == 50.0
        assert grid.samples == 256

    @pytest.mark.parametrize("half_span", [0.0, -1.0])
    def test_rejects_bad_span(self, half_span):
        with pytest.raises(ValueError):
            FrequencyGrid(half_span=half_span, samples=64)

    @pytest.mark.parametrize("half_span", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_span(self, half_span):
        with pytest.raises(ValueError, match="half_span must be finite"):
            FrequencyGrid(half_span=half_span, samples=64)

    @pytest.mark.parametrize("samples", [8, 15, 100, 0])
    def test_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError):
            FrequencyGrid(half_span=1.0, samples=samples)


class TestPulseSpec:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            PulseSpec(sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite"):
            PulseSpec(sigma=sigma)

    def test_spectrum_peak(self):
        # F(nu) = A sqrt(pi)/sigma e^{-nu^2/4 sigma^2} e^{i(phase + nu c)}
        pulse = PulseSpec(amplitude=2.0, sigma=4.0, phase=0.5)
        grid = FrequencyGrid(half_span=32.0, samples=128)
        spec = gaussian_spectrum(pulse, grid)
        expected = 2.0 * math.sqrt(math.pi) / 4.0 * np.exp(0.5j)
        assert spec[64] == pytest.approx(expected)
        assert np.argmax(np.abs(spec)) == 64

    def test_spectrum_center_is_linear_phase(self):
        grid = FrequencyGrid(half_span=32.0, samples=128)
        base = gaussian_spectrum(PulseSpec(sigma=4.0), grid)
        shifted = gaussian_spectrum(PulseSpec(sigma=4.0, center=0.3), grid)
        np.testing.assert_allclose(
            shifted, base * np.exp(1j * grid.points() * 0.3), atol=1e-14
        )

    @pytest.mark.parametrize("samples", [2**14, 2**16])
    @pytest.mark.parametrize("amplitude", [1.0, -0.7])
    def test_spectrum_without_carrier_keeps_the_carrier_formulas_bits(
        self, amplitude, samples
    ):
        # a pulse at centre 0 and phase 0 skips its carrier exp(0j) = 1;
        # the bits agree, down to the sign of every zero, and the wide
        # span takes the envelope down to zero at the grid's edges
        pulse = PulseSpec(amplitude=amplitude, sigma=5.0)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=80.0, samples=samples)
        nu = grid.points()
        envelope = (math.sqrt(math.pi) / pulse.sigma) * np.exp(
            -(nu**2) / (4.0 * pulse.sigma**2)
        )
        carrier = np.exp(1j * (pulse.phase + nu * pulse.center))
        expected = pulse.amplitude * envelope * carrier
        spec = gaussian_spectrum(pulse, grid)
        assert spec.dtype == expected.dtype
        np.testing.assert_array_equal(spec.view(np.int64), expected.view(np.int64))
        assert (spec.real == 0.0).any()


class TestTransforms:
    def test_inverts_gaussian_analytically(self):
        pulse = PulseSpec(amplitude=1.2, sigma=5.0, center=0.25, phase=0.3)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=10.0, samples=2**12)
        signal = spectrum_to_signal(gaussian_spectrum(pulse, grid), grid, 8, (-1.0, 1.5))
        truth = (
            pulse.amplitude
            * np.exp(1j * pulse.phase)
            * np.exp(-(pulse.sigma**2) * (signal.times - pulse.center) ** 2)
        )
        assert np.abs(signal.values - truth).max() < 1e-11

    def test_time_step_and_window(self):
        # 256 samples of step 2 pi / (256 spacing), centred on t = 0; a
        # window is their run inside it, and an unbounded one all of them
        grid = FrequencyGrid(half_span=8.0, samples=64)
        dt = 2.0 * math.pi / (256 * grid.spacing)
        spectrum = np.ones(64, dtype=complex)
        signal = spectrum_to_signal(spectrum, grid, 4, (-1.0, 1.0))
        np.testing.assert_array_equal(signal.times, np.arange(-10, 11) * dt)
        assert signal.dt == pytest.approx(dt)
        signal = spectrum_to_signal(spectrum, grid, 4, (-math.inf, math.inf))
        assert signal.times.size == 256
        assert signal.dt == pytest.approx(dt)
        assert signal.times[128] == 0.0

    def test_round_trip_restores_spectrum(self):
        pulse = PulseSpec(sigma=5.0)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=10.0, samples=2**10)
        spec = gaussian_spectrum(pulse, grid)
        signal = spectrum_to_signal(spec, grid, 8, (-2.0, 2.0))
        back = signal_to_spectrum(signal, grid, 8)
        assert back.shape == spec.shape
        assert np.abs(back - spec).max() < 1e-11

    def test_linear_phase_delays_signal(self):
        # e^{i nu T} factor shifts the pulse to + T
        pulse = PulseSpec(sigma=5.0, center=0.25, phase=0.3)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=10.0, samples=2**12)
        spec = gaussian_spectrum(pulse, grid) * np.exp(1j * grid.points() * 0.75)
        signal = spectrum_to_signal(spec, grid, 8, (-1.0, 2.0))
        amplitude, arrival = peak_in_window(signal, 0.8, 1.2)
        assert arrival == pytest.approx(1.0, abs=1e-4)
        assert amplitude == pytest.approx(np.exp(0.3j), abs=1e-5)

    def test_parseval(self):
        pulse = PulseSpec(sigma=5.0)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=10.0, samples=2**12)
        spec = gaussian_spectrum(pulse, grid)
        energy = spectrum_to_signal(spec, grid, 4, (-2.0, 2.0)).energy()
        analytic = math.sqrt(math.pi / 2.0) / pulse.sigma
        spectral = float(np.sum(np.abs(spec) ** 2) * grid.spacing / (2.0 * math.pi))
        assert energy == pytest.approx(analytic, rel=1e-10)
        assert energy == pytest.approx(spectral, rel=1e-10)

    def test_rejects_bad_oversample(self):
        grid = FrequencyGrid(half_span=1.0, samples=16)
        with pytest.raises(ValueError):
            spectrum_to_signal(np.ones(16, dtype=complex), grid, 3, (0.0, 20.0))

    def test_rejects_mismatched_spectrum(self):
        grid = FrequencyGrid(half_span=1.0, samples=16)
        with pytest.raises(ValueError):
            spectrum_to_signal(np.ones(8, dtype=complex), grid, 4, (0.0, 20.0))

    def test_rejects_signal_off_the_time_grid(self):
        grid = FrequencyGrid(half_span=1.0, samples=16)
        signal = TimeSignal(times=np.linspace(0.0, 1.0, 12), values=np.zeros(12, dtype=complex))
        with pytest.raises(ValueError, match="not a run of time samples"):
            signal_to_spectrum(signal, grid, 4)
        # a run of the oversample-4 grid is not one of the oversample-8 grid
        window = spectrum_to_signal(np.ones(16, dtype=complex), grid, 4, (0.0, 20.0))
        signal_to_spectrum(window, grid, 4)
        with pytest.raises(ValueError, match="not a run of time samples"):
            signal_to_spectrum(window, grid, 8)


class TestWindowedTransforms:
    """Chirp-z windows against the full zero-padded FFT.

    Values are compared relative to the largest value of the full
    transform: samples far from the pulse are rounding noise in both.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        log_samples=st.integers(6, 12),
        log_oversample=st.integers(0, 5),
        lo=st.floats(-1.3, 1.0),
        width=st.floats(0.0, 2.6),
        seed=st.integers(0, 2**32 - 1),
        mirrored=st.booleans(),
    )
    def test_window_matches_full_transform(
        self, log_samples, log_oversample, lo, width, seed, mirrored
    ):
        # window ends in units of the full window's end, so both ends
        # are sometimes clipped
        grid = FrequencyGrid(half_span=30.0, samples=2**log_samples)
        oversample = 2**log_oversample
        rng = np.random.default_rng(seed)
        spectrum = rng.normal(size=grid.samples) + 1j * rng.normal(size=grid.samples)
        if mirrored:
            # X(-nu) = conj X(nu): one zoom serves both halves
            spectrum[1 : grid.samples // 2] = np.conj(spectrum[: grid.samples // 2 : -1])
        assert (propagation._mirror_halves(spectrum)[1] is None) == mirrored
        full = full_transform(spectrum, grid, oversample)
        end = full.times[-1] + full.dt
        window = (lo * end, (lo + width) * end)
        mask = (full.times >= window[0]) & (full.times < window[1])
        if mask.sum() < 2:
            with pytest.raises(ValueError, match="fewer than two time samples"):
                spectrum_to_signal(spectrum, grid, oversample, window)
            return
        zoom = spectrum_to_signal(spectrum, grid, oversample, window)
        assert zoom.times.tobytes() == full.times[mask].tobytes()
        scale = np.abs(full.values).max()
        assert np.abs(zoom.values - full.values[mask]).max() <= 1e-12 * scale

        band = signal_to_spectrum(
            TimeSignal(times=full.times[mask], values=full.values[mask]),
            grid,
            oversample,
        )
        reference = full_forward(np.where(mask, full.values, 0.0), grid, oversample)
        assert np.abs(band - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("unpaired", ["edge", "centre"])
    def test_unpaired_sample_matches_full_transform(self, unpaired):
        # the grid's edge -samples/2 and its centre 0 have no partner in
        # the half-spectrum zoom and are summed directly
        grid = FrequencyGrid(half_span=30.0, samples=64)
        spectrum = np.zeros(grid.samples, dtype=complex)
        spectrum[0 if unpaired == "edge" else grid.samples // 2] = 0.7 - 1.3j
        full = full_transform(spectrum, grid, 4)
        window = (-0.3, 0.2 * (full.times[-1] + full.dt))
        mask = (full.times >= window[0]) & (full.times < window[1])
        zoom = spectrum_to_signal(spectrum, grid, 4, window)
        assert zoom.times.tobytes() == full.times[mask].tobytes()
        assert np.abs(zoom.values - full.values[mask]).max() <= 1e-15
        band = signal_to_spectrum(zoom, grid, 4)
        reference = full_forward(np.where(mask, full.values, 0.0), grid, 4)
        assert np.abs(band - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_plan_holds_half_the_grid(self):
        # a plan over the positive frequencies only: pre-factors for
        # samples/2 - 1 of them, and a kernel of about samples/2 + count
        grid = FrequencyGrid(half_span=20.0, samples=2**16)
        signal = spectrum_to_signal(
            np.zeros(grid.samples, dtype=complex), grid, 16, echo_window(5)
        )
        count = signal.times.size
        start = round(signal.times[0] / propagation._time_step(grid, 16)[1])
        plan = propagation._chirp_plan(grid.samples, 16, start, count)
        assert sum(factor.nbytes for factor in plan) < 40 * (grid.samples // 2 + count)

    @pytest.mark.parametrize(
        ("samples", "half_span", "end"),
        # full windows ending at 1.6 T, and exactly at 8 T
        [(64, 20.0, "1.6"), (256, 16.0, "8")],
    )
    def test_echo_window_keeps_time_window_checks(self, samples, half_span, end):
        def verdict(signal, k, trace):
            try:
                check_time_window(signal, k, trace=trace)
            except ValueError as exc:
                return str(exc)
            return None

        grid = FrequencyGrid(half_span=half_span, samples=samples)
        spectrum = np.ones(samples, dtype=complex)
        full = full_transform(spectrum, grid, 4)
        verdicts = []
        for k in range(10):
            zoom = spectrum_to_signal(spectrum, grid, 4, echo_window(k))
            for trace in (False, True):
                verdicts.append(verdict(full, k, trace))
                assert verdict(zoom, k, trace) == verdicts[-1]
        assert None in verdicts
        assert verdicts[-1] == (
            f"time window ends at {end} T, too short for echo k_max = 9; "
            "raise samples, lower span_factor or lower k_max"
        )


class TestTimeSignal:
    def test_energy_window(self):
        times = np.arange(8) * 0.5
        values = np.zeros(8, dtype=complex)
        values[2] = 2.0
        values[5] = 1.0
        signal = TimeSignal(times=times, values=values)
        assert signal.energy() == pytest.approx(2.5)
        assert signal.energy(lo=1.0, hi=2.5) == pytest.approx(2.0)
        assert signal.energy(lo=2.5) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "half_span, samples, oversample", [(30.0, 2**14, 16), (7.3, 2**12, 64)]
    )
    def test_step_of_a_full_window_is_exact(self, half_span, samples, oversample):
        # neighbouring samples near -pi / spacing differ by the step
        # only to about 1e-11 relative
        grid = FrequencyGrid(half_span, samples)
        signal = spectrum_to_signal(
            np.zeros(samples, complex), grid, oversample, (-math.inf, math.inf)
        )
        assert signal.times.size == 2**18
        exact = 2.0 * math.pi / (signal.times.size * grid.spacing)
        assert abs(signal.dt / exact - 1.0) <= 4e-16


class TestTransfer:
    def test_pure_absorber(self):
        # packed 1 + 0j attenuates by e^{-d/2} with no phase
        h = transfer_exponent(np.array([1.0 + 0.0j]), 3.0)
        assert h[0] == pytest.approx(math.exp(-1.5))

    def test_pure_dispersion_is_unimodular(self):
        packed = 1j * np.linspace(-2.0, 2.0, 9)
        h = transfer_exponent(packed, 5.0)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-15)
        # chi' enters the exponent as + i chi' d/2
        assert h[-1] == pytest.approx(np.exp(5.0j))

    def test_build_transfer_matches_response(self):
        # bit for bit, whether or not the lower half is filled as the
        # mirror of the upper: zero depth, the 64-sample grids and the
        # overdamped combs (gamma 300, where exp(-pi gamma) underflows)
        # take the full exponential
        mirrored = 0
        for samples in (64, 2**12):
            grid = FrequencyGrid(half_span=4.0, samples=samples)
            for shape, model in itertools.product(CombShape, TransferModel):
                for gamma, d_p in itertools.product((0.0, 0.005, 300.0), (0.0, 10.0)):
                    comb = CombSpec(shape=shape, half_width=0.2, gamma=gamma)
                    harmonics = 2000 if model is TransferModel.IDEAL else None
                    packed = propagation._grid_response(comb, grid, model, harmonics)
                    transfer = build_transfer(comb, MediumSpec(d_p), grid, model)
                    expected = transfer_exponent(packed, d_p)
                    assert transfer.values.tobytes() == expected.tobytes()
                    upper, lower = propagation._mirror_halves(
                        propagation._exponent(packed, d_p)
                    )
                    mirrored += lower is None and upper.imag.all()
        assert mirrored >= 16

    def test_build_transfer_rejects_tooth_edge_sample(self):
        # spacing 1/8 puts samples on the edges at 1 +- 0.25
        comb = CombSpec.from_finesse(CombShape.SQUARE, 4.0)
        grid = FrequencyGrid(half_span=4.0, samples=64)
        with pytest.raises(ValueError, match="sharp tooth edge.*gamma > 0"):
            build_transfer(comb, MediumSpec(d_p=10.0), grid)

    def test_build_transfer_rejects_tooth_edge_sample_on_long_grid(self):
        # 2^14 samples, spacing 1/2048: evaluated in blocks, still non-finite
        comb = CombSpec.from_finesse(CombShape.SQUARE, 4.0)
        grid = FrequencyGrid(half_span=4.0, samples=2**14)
        with pytest.raises(ValueError, match="non-finite at 8 grid samples"):
            build_transfer(comb, MediumSpec(d_p=10.0), grid)

    @pytest.mark.parametrize("d_p", [1e4, 1e300])
    def test_build_transfer_rejects_gain(self, d_p):
        # the truncated series dips below zero absorption near tooth
        # edges; at 1e300 the exponential would overflow
        comb = CombSpec.from_finesse(CombShape.SQUARE, 5.0)
        grid = FrequencyGrid(half_span=4.0, samples=2**14)
        with pytest.raises(ValueError, match=r"gains more than 1e\+10 .* lower d_p"):
            build_transfer(comb, MediumSpec(d_p), grid, TransferModel.IDEAL)
        build_transfer(comb, MediumSpec(60.0), grid, TransferModel.IDEAL)

    def test_propagate_applies_transfer(self):
        pulse = PulseSpec(sigma=5.0)
        grid = FrequencyGrid.for_pulse(pulse, span_factor=6.0, samples=2**10)
        comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2)
        transfer = build_transfer(comb, MediumSpec(d_p=0.0), grid)
        spec = gaussian_spectrum(pulse, grid)
        window = echo_window(3)
        out = propagate(spec, transfer, 4, window)
        ref = spectrum_to_signal(spec, grid, 4, window)
        # zero depth is the identity channel
        np.testing.assert_allclose(out.values, ref.values, atol=1e-14)



class TestProbe:
    PULSE = PulseSpec(sigma=5.0)
    GRID = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**10)

    def test_window_is_echo_window_of_k_max(self):
        assert Probe((self.PULSE,), self.GRID, 5).window == echo_window(5)

    def test_builds_nothing_until_read(self, transforms):
        probe = Probe((self.PULSE,), self.GRID, k_max=5)
        assert "spectrum" not in vars(probe) and "reference" not in vars(probe)
        probe.spectrum
        assert transforms["spectrum_to_signal"] == 0
        probe.reference
        assert transforms["spectrum_to_signal"] == 1

    def test_spectrum_is_read_only_and_kept(self):
        probe = Probe((self.PULSE,), self.GRID, 5)
        np.testing.assert_array_equal(
            probe.spectrum, gaussian_spectrum(self.PULSE, self.GRID)
        )
        assert not probe.spectrum.flags.writeable
        assert probe.spectrum is probe.spectrum

    def test_reference_is_windowed_peak_read_once(self, transforms):
        probe = Probe((self.PULSE,), self.GRID, k_max=3)
        for _ in range(2):
            reference = probe.reference
        assert transforms["spectrum_to_signal"] == 1
        incoming = spectrum_to_signal(
            gaussian_spectrum(self.PULSE, self.GRID),
            self.GRID,
            propagation._OVERSAMPLE,
            echo_window(3),
        )
        amplitude, _ = peak_in_window(incoming, *echo_window(3))
        assert reference == abs(amplitude) ** 2

    @pytest.mark.parametrize(
        "centers, bin_",
        [((0.0, 1.2), (-0.6, 0.6)), ((0.4, 1.6, -0.4), (0.0, 0.8))],
        ids=["two", "nearest-of-three"],
    )
    def test_reference_of_several_pulses_is_first_peak_within_half_the_gap(
        self, centers, bin_
    ):
        # the later pulses are the larger, so only the bin keeps them out
        pulses = tuple(
            PulseSpec(amplitude=0.5 if i == 0 else 1.0, sigma=5.0, center=c)
            for i, c in enumerate(centers)
        )
        probe = Probe(pulses, self.GRID, k_max=3)
        incoming = spectrum_to_signal(
            probe.spectrum, self.GRID, propagation._OVERSAMPLE, echo_window(3)
        )
        amplitude, _ = peak_in_window(incoming, *bin_)
        assert probe.reference == abs(amplitude) ** 2
        assert probe.reference == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("field", ["amplitude", "center", "phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_pulse_rejects_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            PulseSpec(sigma=5.0, **{field: value})

    def test_rejects_no_pulses(self):
        with pytest.raises(ValueError, match="^pulses must hold at least one pulse$"):
            Probe((), self.GRID, 3)

    def test_rejects_silent_first_pulse(self):
        # its peak would be ringing, the reference of every intensity
        silent = PulseSpec(amplitude=0.0, sigma=5.0)
        late = PulseSpec(sigma=5.0, center=1.2)
        with pytest.raises(ValueError, match="^pulses: the first pulse's amplitude"):
            Probe((silent, late), self.GRID, 3)

    def test_rejects_later_pulse_at_first_centre(self):
        # the first pulse's bin would be empty
        pulses = (
            PulseSpec(sigma=5.0, center=0.4),
            PulseSpec(sigma=5.0, center=1.2),
            PulseSpec(amplitude=0.5, sigma=5.0, center=0.4),
        )
        with pytest.raises(ValueError, match="^pulses: a later pulse shares"):
            Probe(pulses, self.GRID, 3)
        with pytest.raises(ValueError, match="^pulses: a later pulse shares"):
            replace(Probe(pulses[:2], self.GRID, 3), pulses=pulses)


# Exactly evaluated models: (shape, model, broadened).  The
# truncated series is left out: its Gibbs undershoot is a negative
# absorption, |H| - 1 = 0.50 at finesse 5, d_p = 10 (4096 midpoints
# over [-3, 3]).
PASSIVE_MODELS = {
    "resummed square": (CombShape.SQUARE, TransferModel.IDEAL, False),
    "broadened resummed square": (CombShape.SQUARE, TransferModel.IDEAL, True),
    "finite square": (CombShape.SQUARE, TransferModel.BROADENED, False),
    "broadened square": (CombShape.SQUARE, TransferModel.BROADENED, True),
    "lorentzian": (CombShape.LORENTZIAN, TransferModel.BROADENED, True),
    "harmonic": (CombShape.HARMONIC, TransferModel.BROADENED, True),
}


class TestSharedResponse:
    """A caller that repeats a comb response passes it; nothing else keeps one."""

    COMB = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=0.005)
    GRID = FrequencyGrid(half_span=4.0, samples=256)

    def response(self, grid=GRID):
        return propagation._grid_response(
            self.COMB, grid, TransferModel.BROADENED, None
        )

    def test_depths_share_one_response_bit_for_bit(self, response_calls):
        response = self.response()
        for d_p in (5.0, 12.0):
            medium = MediumSpec(d_p)
            shared = build_transfer(self.COMB, medium, self.GRID, response=response)
            fresh = build_transfer(self.COMB, medium, self.GRID)
            np.testing.assert_array_equal(shared.values, fresh.values)
            fresh = transfer_exponent(comb_response(self.COMB, self.GRID.points()), d_p)
            np.testing.assert_array_equal(shared.values, fresh)
        # the shared response, then one for each call without it
        assert len(response_calls) == 3

    def test_each_call_computes_its_own(self, response_calls):
        for _ in range(2):
            build_transfer(self.COMB, MediumSpec(10.0), self.GRID)
        assert len(response_calls) == 2

    def test_run_response_is_the_read_only_comb_response(self):
        spec = RunSpec(gamma=0.005, samples=256)
        grid = spec.probe().grid
        response = spec.response(grid)
        np.testing.assert_array_equal(
            response, comb_response(spec.comb(), grid.points())
        )
        with pytest.raises(ValueError, match="read-only"):
            response[0] = 0.0

    @pytest.mark.parametrize("samples", [128, 512])
    def test_rejects_a_response_of_another_grid_size(self, samples):
        response = self.response(FrequencyGrid(half_span=4.0, samples=samples))
        message = rf"response has shape \({samples},\), the grid needs \(256,\)"
        with pytest.raises(ValueError, match=message):
            build_transfer(self.COMB, MediumSpec(10.0), self.GRID, response=response)


class TestPassivity:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(PASSIVE_MODELS)),
        finesse=st.floats(1.5, 50.0),
        gamma=st.one_of(st.just(0.0), st.floats(1e-150, 0.05)),
        d_p=st.floats(0.0, 40.0),
        pair_count=st.integers(0, 40),
    )
    def test_no_gain(self, name, finesse, gamma, d_p, pair_count):
        shape, model, broadened = PASSIVE_MODELS[name]
        comb = CombSpec(
            shape=shape,
            half_width=1.0 / finesse,
            pair_count=pair_count,
            gamma=gamma if broadened else 0.0,
        )
        # cell midpoints; an odd count keeps them off the usual tooth edges
        nu = -3.0 + (np.arange(1001) + 0.5) * 6.0 / 1001
        h = transfer_exponent(comb_response(comb, nu, model, None), d_p)
        assert np.abs(h).max() <= 1.0 + 1e-9


class TestMirroredResponse:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(list(CombShape)),
        model=st.sampled_from(list(TransferModel)),
        harmonics=st.sampled_from([2000, None]),
        gamma=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        finesse=st.floats(1.5, 30.0),
        pair_count=st.integers(0, 40),
        half_span=st.floats(1.0, 60.0),
        samples=st.sampled_from([2**11, 2**12, 2**13, 2**14]),
    )
    def test_every_grid_response_is_mirrored(
        self, shape, model, harmonics, gamma, finesse, pair_count, half_span, samples
    ):
        # so one chirp-z zoom serves both halves of every propagated pulse
        if shape is CombShape.HARMONIC:
            finesse = 2.0
        comb = CombSpec.from_finesse(
            shape, finesse, pair_count=pair_count, gamma=gamma
        )
        grid = FrequencyGrid(half_span, samples)
        packed = propagation._grid_response(comb, grid, model, harmonics)
        assert propagation._mirror_halves(packed)[1] is None
        if shape is not CombShape.SQUARE:
            # the closed forms mirror themselves: halving moves no bit
            whole = comb_response(comb, grid.points(), model, harmonics)
            assert packed.tobytes() == whole.tobytes()
        elif model is TransferModel.BROADENED:
            # the unpaired edge sample is the mirror of +half_span's
            edge = comb_response(comb, grid.half_span, model, harmonics)
            assert packed[:1].tobytes() == np.conj(edge).tobytes()

    @pytest.mark.parametrize("samples", [2**10, 2**12])
    def test_one_comb_call_on_the_grid_or_its_upper_half(
        self, response_calls, samples
    ):
        grid = FrequencyGrid(half_span=4.0, samples=samples)
        comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=0.005)
        propagation._grid_response(comb, grid, TransferModel.BROADENED, None)
        ((_, nu, _, _),) = response_calls
        if samples <= 1024:
            expected = grid.points()
        else:
            # 0, spacing, ..., half_span: 2049 ascending detunings at 2^12
            expected = np.append(grid.points()[samples // 2 :], grid.half_span)
        assert nu.tobytes() == expected.tobytes()


class TestCombResponseDispatch:
    @pytest.mark.parametrize("gamma", [0.001, 0.01, 0.05])
    def test_ideal_square_is_the_broadened_periodic_comb(self, gamma):
        # the resummed comb against its cosine series, harmonic k damped by
        # q^k: 20000 terms leave a tail below q^20000 = exp(-62.8)
        comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=gamma)
        nu = np.linspace(-3.0, 3.0, 97)
        resummed = comb_response(comb, nu, model=TransferModel.IDEAL, harmonics=None)
        k = np.arange(1, 20001)
        weights = square_harmonic_weights(0.2, k.size) * np.exp(-np.pi * gamma * k)
        series = 0.2 + np.exp(-1j * np.pi * np.outer(nu, k)) @ weights
        assert np.abs(resummed - series).max() < 1e-12

    @pytest.mark.parametrize("harmonics", [2000, None])
    def test_ideal_square_rejects_negative_gamma(self, harmonics):
        with pytest.raises(ValueError, match="gamma must be >= 0, got -0.01"):
            chi_square_series(np.zeros(3), 0.2, harmonics, gamma=-0.01)

    def test_broadened_without_gamma_is_finite_comb(self):
        comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2, pair_count=9)
        nu = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_array_equal(
            comb_response(comb, nu, model=TransferModel.BROADENED),
            chi_square_exact(nu, 0.2, pair_count=9),
        )

    def test_accepts_model_strings(self):
        comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2)
        nu = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_array_equal(
            comb_response(comb, nu, model="broadened"),
            comb_response(comb, nu, model=TransferModel.BROADENED),
        )


class TestPeakReadout:
    @staticmethod
    def _gaussian_train(amps, offsets, rate=6.0, dt=ECHO_DELAY / 800, n=2**15):
        # a whole number of steps per delay: zero offsets fall on samples
        times = (np.arange(n) - n // 2) * dt
        values = np.zeros(n, dtype=complex)
        for k, (a, off) in enumerate(zip(amps, offsets)):
            values += a * np.exp(-(rate**2) * (times - k * ECHO_DELAY - off) ** 2)
        return TimeSignal(times=times, values=values)

    def test_subsample_peak_recovery(self):
        amps = [1.0 + 0.0j, 0.45 * np.exp(0.8j), -0.2 + 0.1j]
        offsets = [0.0, 0.0013, -0.0022]
        signal = self._gaussian_train(amps, offsets)
        train = extract_train(signal, 2, reference_intensity=1.0)
        for entry in train.entries:
            assert abs(entry.amplitude - amps[entry.index]) < 1e-6
            expected_arrival = entry.index * ECHO_DELAY + offsets[entry.index]
            assert entry.arrival == pytest.approx(expected_arrival, abs=1e-5)

    def test_intensities_use_reference(self):
        signal = self._gaussian_train([2.0 + 0j], [0.0])
        train = extract_train(signal, 0, reference_intensity=8.0)
        assert train.intensity(0) == pytest.approx(0.5, abs=1e-9)
        assert train.reference_intensity == 8.0

    def test_train_accessors(self):
        signal = self._gaussian_train([1.0, 0.5j], [0.0, 0.0])
        train = extract_train(signal, 1)
        assert train.entry(1).index == 1
        assert train.amplitude(1) == pytest.approx(0.5j, abs=1e-8)
        np.testing.assert_allclose(train.intensities, [1.0, 0.25], atol=1e-8)
        with pytest.raises(KeyError):
            train.entry(7)

    def test_empty_window_raises(self):
        signal = self._gaussian_train([1.0], [0.0])
        with pytest.raises(ValueError):
            peak_in_window(signal, 1e6, 1e6 + 1.0)
