"""Storage protocols: echo recall, two-pass interference, time-bin states."""

import cmath
import math

import numpy as np
import pytest

from afcsim.combs import CombSpec, CombShape, MediumSpec
from afcsim.propagation import (
    FrequencyGrid,
    PulseSpec,
    peak_in_window,
    spectrum_to_signal,
)
from afcsim.protocols import (
    TimeBinQubit,
    single_pass,
    timebin_spectrum,
    timebin_transform,
    two_pass_interfere,
)
from afcsim.sweeps import golden_section_max
from afcsim.train import first_echo_intensity, prompt_attenuation

# forty tooth pairs cover the six-sigma grid of the default pulse
COMB = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=0.005, pair_count=40)
MEDIUM = MediumSpec(d_p=10.0)
PULSE = PulseSpec(sigma=5.0)
GRID = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**13)


def _run_single(**kwargs):
    return single_pass(COMB, MEDIUM, pulse=PULSE, grid=GRID, oversample=8, **kwargs)


def _run_two_pass(**kwargs):
    return two_pass_interfere(COMB, MEDIUM, pulse=PULSE, grid=GRID, oversample=8, **kwargs)


class TestSinglePass:
    def test_closed_form_only(self):
        result = single_pass(COMB, MEDIUM, simulate=False)
        assert result.closed_efficiency == pytest.approx(
            first_echo_intensity(COMB, MEDIUM), rel=1e-15
        )
        assert result.simulated_efficiency is None
        assert result.train is None
        assert result.energies is None

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
        assert result.energies["transmitted"] < result.energies["input"]
        # echoes arrive at multiples of the rephasing delay
        for entry in result.train.entries[1:]:
            assert entry.arrival == pytest.approx(
                entry.index * COMB.delay_time, abs=1e-2
            )


class TestTwoPass:
    def test_closed_form_identity(self):
        result = two_pass_interfere(COMB, MEDIUM, simulate=False)
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
        energies = _run_two_pass().energies
        assert 0.0 < energies["echo_window"] < energies["input"]

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
        result = two_pass_interfere(
            CombSpec(shape=CombShape.SQUARE, half_width=0.2),
            MediumSpec(d_p=0.0),
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

        def recall(d_p):
            return two_pass_interfere(
                comb, MediumSpec(d_p), simulate=False
            ).closed_efficiency

        return golden_section_max(recall, 0.5 * finesse, 3.0 * finesse, tol=1e-10)

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
