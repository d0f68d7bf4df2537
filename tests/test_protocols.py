"""Storage protocols: echo recall, two-pass interference, time-bin states."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.combs import CombSpec, CombShape, MediumSpec
from afcsim.propagation import (
    FrequencyGrid,
    PulseSpec,
    gaussian_spectrum,
    peak_in_window,
    spectrum_to_signal,
)
from afcsim.protocols import (
    TimeBinQubit,
    recall,
    timebin_spectrum,
    timebin_transform,
)
from afcsim.sweeps import golden_section_max
from afcsim.train import first_echo_intensity, prompt_attenuation

# forty tooth pairs cover the six-sigma grid of the default pulse
COMB = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=0.005, pair_count=40)
MEDIUM = MediumSpec(d_p=10.0)
PULSE = PulseSpec(sigma=5.0)
GRID = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**13)
INPUT_ENERGY = spectrum_to_signal(gaussian_spectrum(PULSE, GRID), GRID, 8).energy()


def _run_single(**kwargs):
    return recall(COMB, MEDIUM, pulse=PULSE, grid=GRID, oversample=8, **kwargs)


def _run_two_pass(**kwargs):
    return recall(
        COMB, MEDIUM, passes=2, pulse=PULSE, grid=GRID, oversample=8, **kwargs
    )


class TestSinglePass:
    def test_closed_form_only(self):
        result = recall(COMB, MEDIUM, simulate=False)
        assert result.closed_efficiency == pytest.approx(
            first_echo_intensity(COMB, MEDIUM), rel=1e-15
        )
        assert result.simulated_efficiency is None
        assert result.train is None
        assert result.signal is None

    def test_simulation_matches_closed_form(self):
        result = _run_single()
        assert result.simulated_efficiency == pytest.approx(
            result.closed_efficiency, rel=5e-4
        )

    def test_prompt_intensity(self):
        result = _run_single()
        c0 = prompt_attenuation(COMB, MEDIUM)
        assert result.train.intensity(0) == pytest.approx(c0**2, rel=1e-3)

    def test_train_and_energy_bookkeeping(self):
        result = _run_single(k_max=3)
        assert [e.index for e in result.train.entries] == [0, 1, 2, 3]
        assert result.signal.energy() < INPUT_ENERGY
        # echoes arrive at multiples of the rephasing delay
        for entry in result.train.entries[1:]:
            assert entry.arrival == pytest.approx(
                entry.index * COMB.delay_time, abs=1e-2
            )


class TestRecallChecks:
    @pytest.mark.parametrize("passes", [1, 2])
    def test_simulation_needs_first_echo(self, passes):
        with pytest.raises(ValueError, match="k_max must be >= 1 .* got 0"):
            _run_single(passes=passes, k_max=0)
        # the closed form reads no train
        closed = recall(COMB, MEDIUM, passes=passes, k_max=0, simulate=False)
        assert closed.closed_efficiency > 0.0

    @pytest.mark.parametrize("passes", [1, 2])
    def test_short_time_window(self, passes):
        # 64 samples end the window at 1.6 T: echo 3 would wrap to -0.2 T,
        # inside the prompt window the second pass recycles
        grid = FrequencyGrid.for_pulse(PULSE, span_factor=4.0, samples=64)
        with pytest.raises(ValueError, match="ends at 1.6 T, too short for echo"):
            recall(COMB, MEDIUM, passes=passes, pulse=PULSE, grid=grid, k_max=8)


@functools.lru_cache(maxsize=None)
def _unit_recall(passes):
    return _linear_recall(passes, PULSE)


def _linear_recall(passes, pulse):
    grid = FrequencyGrid.for_pulse(pulse, span_factor=6.0, samples=2**12)
    return recall(
        COMB, MEDIUM, passes=passes, pulse=pulse, grid=grid, k_max=3, oversample=4
    ).train


class TestLinearity:
    @settings(max_examples=20, deadline=None)
    @given(
        log_amplitude=st.floats(-3.0, 3.0),
        phase=st.floats(-math.pi, math.pi),
        passes=st.sampled_from([1, 2]),
    )
    def test_amplitude_and_phase_carry_through(self, log_amplitude, phase, passes):
        a = 10.0**log_amplitude
        base = _unit_recall(passes)
        train = _linear_recall(passes, PulseSpec(amplitude=a, sigma=5.0, phase=phase))
        factor = a * cmath.exp(1j * phase)
        scale = max(abs(e.amplitude) for e in base.entries)
        for entry, ref in zip(train.entries, base.entries):
            assert abs(entry.amplitude - factor * ref.amplitude) <= 1e-12 * a * scale
            assert entry.intensity == pytest.approx(ref.intensity, rel=0, abs=1e-12)
            assert (entry.arrival is None) == (ref.arrival is None)
            if ref.arrival is not None:
                assert entry.arrival == pytest.approx(ref.arrival, rel=0, abs=1e-12)


class TestTwoPass:
    def test_closed_form_identity(self):
        result = recall(COMB, MEDIUM, passes=2, simulate=False)
        i1 = first_echo_intensity(COMB, MEDIUM)
        c0 = prompt_attenuation(COMB, MEDIUM)
        assert result.closed_efficiency == pytest.approx(i1 * (1.0 + c0) ** 2, rel=1e-15)
        assert result.simulated_efficiency is None

    def test_simulation_matches_closed_form(self):
        result = _run_two_pass()
        assert result.simulated_efficiency == pytest.approx(
            result.closed_efficiency, rel=2e-3
        )

    def test_echo_window_energy_below_input(self):
        half = 0.5 * COMB.delay_time
        echo = _run_two_pass().signal.energy(half, 3.0 * half)
        assert 0.0 < echo < INPUT_ENERGY

    @pytest.mark.parametrize(("finesse", "d_p"), [(5.0, 10.0), (10.0, 20.0), (20.0, 36.0)])
    def test_echo_window_energy_follows_closed_form(self, finesse, d_p):
        # the unit-weight sum is not passive: at finesse 20 the echo
        # window holds 1.018 times the input energy
        comb = CombSpec.from_finesse(
            CombShape.SQUARE, finesse, pair_count=40, gamma=0.005
        )
        result = recall(comb, MediumSpec(d_p), passes=2, pulse=PULSE)
        grid = FrequencyGrid.for_pulse(PULSE)
        incoming = spectrum_to_signal(gaussian_spectrum(PULSE, grid), grid).energy()
        half = 0.5 * comb.delay_time
        ratio = result.signal.energy(half, 3.0 * half) / incoming
        assert ratio == pytest.approx(result.closed_efficiency, rel=1e-2)

    def test_phase_flip_turns_bright_port_dark(self):
        # a pi phase on the recycled path flips (1 + C0) to (1 - C0)
        result = _run_two_pass(mismatch_phase=math.pi)
        i1 = first_echo_intensity(COMB, MEDIUM)
        c0 = prompt_attenuation(COMB, MEDIUM)
        assert result.simulated_efficiency == pytest.approx(
            i1 * (1.0 - c0) ** 2, rel=1e-2
        )

    def test_path_delay_degrades_interference(self):
        matched = _run_two_pass()
        detuned = _run_two_pass(mismatch_time=0.03)
        assert detuned.simulated_efficiency < matched.simulated_efficiency

    def test_zero_depth_reports_no_echo(self):
        # Without a comb the recycled probe rings about 4e-6 into the
        # echo window; like extract_train, that window holds no echo.
        pulse = PulseSpec(sigma=5.0)
        result = recall(
            CombSpec(shape=CombShape.SQUARE, half_width=0.2),
            MediumSpec(d_p=0.0),
            passes=2,
            pulse=pulse,
            grid=FrequencyGrid.for_pulse(pulse, span_factor=4.0, samples=4096),
            oversample=8,
        )
        assert result.closed_efficiency == 0.0
        assert result.simulated_efficiency == 0.0


class TestTwoPassAboveUnity:
    """The unit-weight sum ``I1 (1 + C0)^2`` exceeds 1 for square teeth."""

    @staticmethod
    def _best(finesse):
        comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)

        def two_pass(d_p):
            return recall(
                comb, MediumSpec(d_p), passes=2, simulate=False
            ).closed_efficiency

        return golden_section_max(two_pass, 0.5 * finesse, 3.0 * finesse, tol=1e-10)

    def test_crosses_unity_at_finesse_6_2561(self):
        d_p, best = self._best(6.2561)
        assert d_p == pytest.approx(9.486, abs=1e-3)
        assert best == pytest.approx(1.0, abs=1e-5)
        assert self._best(6.25)[1] < 1.0 < self._best(6.27)[1]

    def test_supremum_at_large_finesse(self):
        # as F grows, x = d_p / F and the recall tends to
        # x^2 exp(-x) (1 + exp(-x / 2))^2, maximal at x = 1.5162
        finesse = 1e6
        d_p, best = self._best(finesse)
        assert d_p / finesse == pytest.approx(1.5162, abs=1e-4)
        assert best == pytest.approx(1.08847, abs=1e-5)
        assert 1.0 < self._best(100.0)[1] < best


class TestTimeBinQubit:
    def test_requires_normalisation(self):
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=1.0, tau=0.5)

    def test_requires_positive_tau_and_sigma(self):
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.0)
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.5, sigma=0.0)

    def test_normalized_scales_amplitudes(self):
        qubit = TimeBinQubit.normalized(3.0, 4.0, tau=0.5)
        assert abs(qubit.c1) == pytest.approx(0.6)
        assert abs(qubit.c2) == pytest.approx(0.8)

    def test_normalized_rejects_null_state(self):
        with pytest.raises(ValueError):
            TimeBinQubit.normalized(0.0, 0.0, tau=0.5)


class TestTimeBinTransform:
    QUBIT = TimeBinQubit(c1=0.8, c2=0.6, tau=0.4 * math.pi, phi=0.7)

    def test_single_pass_preserves_state(self):
        result = timebin_transform(self.QUBIT, COMB, MEDIUM, passes=1)
        assert result.ratio == pytest.approx(0.8 / 0.6, rel=1e-15)
        assert result.phase == pytest.approx(0.7, abs=1e-15)
        assert result.probabilities[0] == pytest.approx(0.64, rel=1e-15)
        assert result.probabilities[1] == pytest.approx(0.36, rel=1e-15)
        assert result.efficiency == pytest.approx(
            first_echo_intensity(COMB, MEDIUM), rel=1e-15
        )
        assert result.passes == 1

    def test_prompt_carries_leakage(self):
        c0 = prompt_attenuation(COMB, MEDIUM)
        one = timebin_transform(self.QUBIT, COMB, MEDIUM, passes=1)
        two = timebin_transform(self.QUBIT, COMB, MEDIUM, passes=2)
        assert one.prompt[0] == pytest.approx(0.8 * c0)
        assert two.prompt[0] == pytest.approx(0.8 * c0**2)
        assert one.prompt[1] == pytest.approx(0.6 * cmath.exp(0.7j) * c0)

    def test_second_pass_boosts_efficiency(self):
        c0 = prompt_attenuation(COMB, MEDIUM)
        one = timebin_transform(self.QUBIT, COMB, MEDIUM, passes=1)
        two = timebin_transform(self.QUBIT, COMB, MEDIUM, passes=2)
        assert two.efficiency == pytest.approx(
            one.efficiency * (1.0 + c0) ** 2, rel=1e-14
        )
        assert two.phase == pytest.approx(one.phase, abs=1e-15)
        assert two.ratio == pytest.approx(one.ratio, rel=1e-15)

    def test_degenerate_bins(self):
        early_only = timebin_transform(
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.5), COMB, MEDIUM
        )
        assert early_only.ratio == math.inf
        late_only = timebin_transform(
            TimeBinQubit(c1=0.0, c2=1.0, tau=0.5, phi=0.3), COMB, MEDIUM
        )
        assert late_only.ratio == 0.0
        assert late_only.phase == pytest.approx(0.3)

    def test_rejects_bad_pass_count(self):
        with pytest.raises(ValueError):
            timebin_transform(self.QUBIT, COMB, MEDIUM, passes=3)


class TestTimeBinSpectrum:
    def test_superposition_of_shifted_gaussians(self):
        qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=1.2, phi=0.7, sigma=7.0)
        grid = FrequencyGrid(half_span=42.0, samples=2**10)
        nu = grid.points()
        base = (math.sqrt(math.pi) / 7.0) * np.exp(-(nu**2) / (4.0 * 49.0))
        expected = 0.8 * base + 0.6 * base * np.exp(1j * (0.7 + nu * 1.2))
        np.testing.assert_allclose(timebin_spectrum(qubit, grid), expected, atol=1e-14)

    def test_bins_appear_at_their_delays(self):
        qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=1.2, phi=0.7, sigma=7.0)
        grid = FrequencyGrid(half_span=70.0, samples=2**12)
        signal = spectrum_to_signal(timebin_spectrum(qubit, grid), grid, oversample=4)
        early, t_early = peak_in_window(signal, -0.5, 0.5)
        late, t_late = peak_in_window(signal, 0.7, 1.7)
        assert abs(early) == pytest.approx(0.8, abs=1e-6)
        assert abs(late) == pytest.approx(0.6, abs=1e-6)
        assert t_early == pytest.approx(0.0, abs=1e-5)
        assert t_late == pytest.approx(1.2, abs=1e-5)

    def test_complex_amplitude_phases_add(self):
        # phases carried by c1, c2 combine with the explicit phi
        qubit = TimeBinQubit(
            c1=0.8 * cmath.exp(0.2j), c2=0.6 * cmath.exp(-0.1j), tau=1.0, phi=0.5
        )
        grid = FrequencyGrid(half_span=42.0, samples=2**10)
        nu = grid.points()
        base = (math.sqrt(math.pi) / 7.0) * np.exp(-(nu**2) / (4.0 * 49.0))
        expected = 0.8 * base * np.exp(0.2j) + 0.6 * base * np.exp(
            1j * (0.5 - 0.1 + nu * 1.0)
        )
        np.testing.assert_allclose(timebin_spectrum(qubit, grid), expected, atol=1e-14)
