"""Storage protocols: echo recall, two-pass interference, time-bin states."""

import cmath
import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim.combs import ECHO_DELAY, HARMONIC_FINESSE, CombShape, MediumSpec
from afcsim.propagation import (
    FrequencyGrid,
    Probe,
    PulseSpec,
    TransferModel,
    _OVERSAMPLE,
    build_transfer,
    gaussian_spectrum,
    peak_in_window,
    spectrum_to_signal,
)
from afcsim.protocols import RunSpec, TimeBinQubit, recall
from afcsim.sweeps import golden_section_max
from afcsim.train import first_echo_intensity, optimal_depth, prompt_attenuation
from oracles import full_transform

# forty tooth pairs cover the six-sigma grid of the default pulse
RUN = RunSpec(gamma=0.005, pair_count=40)
COMB = RUN.comb()
MEDIUM = MediumSpec(RUN.d_p)
PULSE = PulseSpec(sigma=5.0)
GRID = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**13)
PROBE = Probe((PULSE,), GRID, k_max=5)
INPUT_ENERGY = full_transform(
    gaussian_spectrum(PULSE, GRID), GRID, _OVERSAMPLE
).energy()


def _run_single(**kwargs):
    return recall(RUN, probe=PROBE, **kwargs)


def _run_two_pass(**kwargs):
    return recall(RUN, passes=2, probe=PROBE, **kwargs)


def _assert_inside(signal, lo, hi):
    """The computed samples cover ``[lo, hi)``, so an energy there is whole."""
    assert signal.times[0] < lo and hi < signal.times[-1]


class TestSinglePass:
    def test_closed_form_only(self):
        result = recall(RUN, simulate=False)
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
        result = recall(RUN, probe=Probe((PULSE,), GRID, k_max=3))
        assert [e.index for e in result.train.entries] == [0, 1, 2, 3]
        # The signal holds only the echo window.  The output energy of
        # the whole time window is Parseval's sum over the spectrum,
        # exact for the zero-padded transform.
        output = gaussian_spectrum(PULSE, GRID) * build_transfer(COMB, MEDIUM, GRID).values
        whole = float(np.sum(np.abs(output) ** 2) * GRID.spacing / (2.0 * math.pi))
        assert whole < INPUT_ENERGY
        assert result.signal.energy() <= whole * (1.0 + 1e-12)
        # echoes arrive at multiples of the rephasing delay
        for entry in result.train.entries[1:]:
            assert entry.arrival == pytest.approx(entry.index * ECHO_DELAY, abs=1e-2)


class TestEnergyBalance:
    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from(list(CombShape)),
        finesse=st.floats(1.5, 30.0),
        d_p=st.floats(0.0, 40.0),
        gamma=st.floats(1e-4, 0.1),
    )
    def test_single_pass_output_never_exceeds_input(self, shape, finesse, d_p, gamma):
        # A broadened comb absorbs everywhere, so |H| <= 1 and no window
        # of the output holds more than the whole input energy.
        grid = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**12)
        if shape is CombShape.HARMONIC:
            finesse = HARMONIC_FINESSE
        run = RunSpec(
            shape=shape.value, finesse=finesse, d_p=d_p, gamma=gamma, pair_count=40
        )
        probe = Probe((PULSE,), grid, k_max=5)
        result = recall(run, passes=1, probe=probe)
        spectrum = gaussian_spectrum(PULSE, grid)
        incoming = grid.spacing / (2.0 * math.pi) * float(np.sum(np.abs(spectrum) ** 2))
        assert result.signal.energy() <= incoming * (1.0 + 1e-9)


def _run_default_cases():
    """Every model, shape and gamma; the ideal square comb only at gamma = 0."""
    for model, shape, gamma in itertools.product(
        TransferModel, CombShape, (0.0, 0.02, 0.05)
    ):
        if model is TransferModel.IDEAL and shape is CombShape.SQUARE and gamma:
            continue
        yield pytest.param(model, shape, gamma, id=f"{model.value}-{shape.value}-{gamma:g}")


@pytest.mark.parametrize(("model", "shape", "gamma"), list(_run_default_cases()))
def test_first_echo_at_run_defaults_matches_closed_form(model, shape, gamma):
    # each model simulates the comb that the closed form describes
    finesse = HARMONIC_FINESSE if shape is CombShape.HARMONIC else 5.0
    run = RunSpec(shape=shape.value, finesse=finesse, gamma=gamma, model=model.value)
    result = recall(run)
    assert abs(result.simulated_efficiency / result.closed_efficiency - 1.0) <= 0.01


class TestRecallChecks:
    @pytest.mark.parametrize("passes", [1, 2])
    def test_simulation_needs_first_echo(self, passes):
        probe = Probe((PULSE,), GRID, k_max=0)
        with pytest.raises(ValueError, match="k_max must be >= 1 .* got 0"):
            recall(RUN, passes=passes, probe=probe)
        # the closed form reads no train
        closed = recall(RUN, passes=passes, probe=probe, simulate=False)
        assert closed.closed_efficiency > 0.0

    @pytest.mark.parametrize("passes", [1, 2])
    def test_short_time_window(self, passes):
        # 64 samples end the window at 1.6 T: echo 3 would wrap to -0.2 T,
        # inside the prompt window the second pass recycles
        grid = FrequencyGrid.for_pulse(PULSE, span_factor=4.0, samples=64)
        with pytest.raises(ValueError, match="ends at 1.6 T, too short for echo"):
            recall(RUN, passes=passes, probe=Probe((PULSE,), grid, k_max=8))


@functools.lru_cache(maxsize=None)
def _unit_recall(passes):
    return _linear_recall(passes, PULSE)


def _linear_recall(passes, pulse):
    grid = FrequencyGrid.for_pulse(pulse, span_factor=6.0, samples=2**12)
    return recall(
        RUN, passes=passes, probe=Probe((pulse,), grid, k_max=3)
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

    # (shape, model, broadened): gamma > 0 keeps the finite square's
    # sharp edges off the samples
    SUPERPOSED = {
        "finite square": (CombShape.SQUARE, TransferModel.BROADENED, True),
        "resummed square": (CombShape.SQUARE, TransferModel.IDEAL, False),
        "lorentzian": (CombShape.LORENTZIAN, TransferModel.BROADENED, True),
        "harmonic": (CombShape.HARMONIC, TransferModel.BROADENED, True),
    }

    @settings(max_examples=50, deadline=None)
    @given(
        name=st.sampled_from(sorted(SUPERPOSED)),
        finesse=st.floats(1.5, 20.0),
        gamma=st.floats(1e-3, 0.05),
        d_p=st.floats(0.5, 30.0),
        passes=st.sampled_from([1, 2]),
        a1=st.floats(0.1, 10.0),
        a2=st.floats(0.1, 10.0),
        center=st.floats(0.3, 2.0),
        phase=st.floats(-math.pi, math.pi),
    )
    def test_different_pulses_superpose(
        self, name, finesse, gamma, d_p, passes, a1, a2, center, phase
    ):
        # the mirror-symmetric pulse alone takes one chirp-z zoom, the
        # other pulse and the pair take two
        shape, model, broadened = self.SUPERPOSED[name]
        run = RunSpec(
            shape=shape.value,
            finesse=HARMONIC_FINESSE if shape is CombShape.HARMONIC else finesse,
            d_p=d_p,
            gamma=gamma if broadened else 0.0,
            pair_count=40,
            model=model.value,
            harmonics=None,
        )
        grid = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**12)
        symmetric = PulseSpec(amplitude=a1, sigma=5.0)
        shifted = PulseSpec(amplitude=a2, sigma=5.0, center=center, phase=phase)

        def output(*pulses):
            probe = Probe(pulses, grid, k_max=3)
            return recall(run, passes=passes, probe=probe).signal.values

        pair = output(symmetric, shifted)
        alone = output(symmetric) + output(shifted)
        assert np.abs(pair - alone).max() <= 1e-12 * np.abs(pair).max()


class TestTwoPass:
    def test_closed_form_identity(self):
        result = recall(RUN, passes=2, simulate=False)
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
        half = 0.5 * ECHO_DELAY
        signal = _run_two_pass().signal
        _assert_inside(signal, half, 3.0 * half)
        echo = signal.energy(half, 3.0 * half)
        assert 0.0 < echo < INPUT_ENERGY

    @pytest.mark.parametrize(("finesse", "d_p"), [(5.0, 10.0), (10.0, 20.0), (20.0, 36.0)])
    def test_echo_window_energy_follows_closed_form(self, finesse, d_p):
        # the unit-weight sum is not passive: at finesse 20 the echo
        # window holds 1.018 times the input energy
        run = replace(RUN, finesse=finesse, d_p=d_p)
        grid = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**15)
        result = recall(run, passes=2, probe=Probe((PULSE,), grid, k_max=5))
        spectrum = gaussian_spectrum(PULSE, grid)
        incoming = full_transform(spectrum, grid, _OVERSAMPLE).energy()
        half = 0.5 * ECHO_DELAY
        _assert_inside(result.signal, half, 3.0 * half)
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

    @pytest.mark.parametrize("name", ["mismatch_time", "mismatch_phase"])
    def test_single_pass_refuses_a_mismatch(self, name):
        # one pass has no recycled path to detune
        with pytest.raises(ValueError, match=f"^{name} = 0.3 needs passes = 2"):
            recall(RUN, probe=PROBE, **{name: 0.3})

    @pytest.mark.parametrize("name", ["mismatch_time", "mismatch_phase"])
    def test_closed_form_refuses_a_mismatch(self, name):
        # the closed form covers matched paths only
        with pytest.raises(ValueError, match=f"^{name} = 0.3 needs simulate = true"):
            recall(RUN, passes=2, simulate=False, **{name: 0.3})

    def test_zero_depth_reports_no_echo(self):
        # Without a comb the recycled probe rings about 4e-6 into the
        # echo window; like extract_train, that window holds no echo.
        run = RunSpec(d_p=0.0, samples=4096, k_max=5)
        result = recall(run, passes=2)
        assert result.closed_efficiency == 0.0
        assert result.simulated_efficiency == 0.0


class TestFiniteCombDelay:
    """The teeth a finite comb lacks delay every pulse by one common delta.

    Over a band well inside the comb, the dispersion of the missing
    teeth ``k > pair_count`` is a linear phase: with tooth half-width
    ``D``, a delay ``delta = -(d_p/2)(4 D/pi) sum_{k>pair_count}
    1/((2k+1)^2 - D^2)``, where the sum over all ``k >= 0`` is
    ``pi tan(pi D/2) / (4 D)``.
    """

    PIN = replace(RUN, span_factor=6.0, samples=2**15, k_max=3)

    def delta(self) -> float:
        d, pairs = self.PIN.comb().half_width, self.PIN.pair_count
        head = sum(1.0 / ((2 * k + 1) ** 2 - d**2) for k in range(pairs + 1))
        tail = math.pi * math.tan(0.5 * math.pi * d) / (4.0 * d) - head
        return -0.5 * self.PIN.d_p * (4.0 * d / math.pi) * tail

    def test_every_pulse_arrives_delta_early(self):
        delta = self.delta()
        assert delta == pytest.approx(-0.00776, abs=5e-6)
        train = recall(self.PIN).train
        # the prompt and echoes 1-3 arrive -0.00783 .. -0.00779 off k T
        assert [entry.index for entry in train.entries] == [0, 1, 2, 3]
        for entry in train.entries:
            offset = entry.arrival - entry.index * ECHO_DELAY
            assert offset == pytest.approx(delta, rel=2e-2), entry.index

    def test_delaying_the_recycled_path_by_minus_delta_undoes_it(self):
        # the recycled prompt carries delta once more, so its echo meets
        # the first-pass echo delta apart
        response = self.PIN.response(self.PIN.probe().grid)

        def gap(mismatch_time: float) -> float:
            result = recall(
                self.PIN, passes=2, response=response, mismatch_time=mismatch_time
            )
            return result.simulated_efficiency / result.closed_efficiency - 1.0

        delta = self.delta()
        matched, undone, doubled = gap(0.0), gap(-delta), gap(delta)
        # -5.06e-4, +9.6e-5 and -2.29e-3
        assert abs(undone) <= abs(matched) / 3.0
        assert abs(doubled) > abs(matched)


class TestBroadenedPeriodicComb:
    """The ideal model is the comb the closed forms describe, at any gamma."""

    PROBE = RunSpec().probe()

    @pytest.mark.parametrize("harmonics", [2000, None])
    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize(
        ("finesse", "d_p"), [(5.0, 10.0), (4.0, 10.0), (8.0, 14.0), (2.0, 6.0)]
    )
    @pytest.mark.parametrize("gamma", [0.0025, 0.01, 0.05])
    def test_simulation_matches_closed_form(
        self, gamma, finesse, d_p, passes, harmonics
    ):
        # worst gap on these draws: -6.1e-4, two-pass; the 9-pair finite
        # comb is off by up to 2.7e-2 on the same runs
        run = RunSpec(
            finesse=finesse, d_p=d_p, gamma=gamma, model="ideal", harmonics=harmonics
        )
        result = recall(run, passes=passes, probe=self.PROBE)
        assert result.simulated_efficiency == pytest.approx(
            result.closed_efficiency, rel=1e-3
        )


class TestTwoPassAboveUnity:
    """The unit-weight sum ``I1 (1 + C0)^2`` exceeds 1 for square teeth."""

    @staticmethod
    def _best(finesse):
        def two_pass(d_p):
            run = RunSpec(finesse=finesse, d_p=d_p)
            return recall(run, passes=2, simulate=False).closed_efficiency

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


class TestTwoPassRouting:
    """Physical routings of the two-pass fields stay below ``I1 (1 + C0)^2``."""

    def test_whole_output_through_again_is_the_comb_at_twice_the_depth(self):
        once = build_transfer(COMB, MEDIUM, GRID).values
        twice = build_transfer(COMB, MediumSpec(2.0 * MEDIUM.d_p), GRID).values
        np.testing.assert_allclose(once**2, twice, rtol=1e-12, atol=1e-300)
        best = first_echo_intensity(COMB, MediumSpec(optimal_depth(COMB)))
        for d_p in np.linspace(0.0, 40.0, 81):
            assert first_echo_intensity(COMB, MediumSpec(2.0 * d_p)) <= best

    @pytest.mark.parametrize("d_p", [3.0, 10.0, 25.0])
    def test_lossless_coupler_caps_the_sum_of_the_echoes(self, d_p):
        medium = MediumSpec(d_p)
        i1 = first_echo_intensity(COMB, medium)
        c0 = prompt_attenuation(COMB, medium)
        echoes = np.array([1.0, c0]) * math.sqrt(i1)
        bound = i1 * (1.0 + c0**2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            draw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            coupler, _ = np.linalg.qr(draw)
            ports = np.abs(coupler @ echoes) ** 2
            assert ports.max() <= bound * (1.0 + 1e-12)
            assert ports.sum() == pytest.approx(bound, rel=1e-12)
        # the coupler matched to the two echoes reaches the bound
        matched = echoes / np.linalg.norm(echoes)
        assert abs(matched @ echoes) ** 2 == pytest.approx(bound, rel=1e-12)
        two_pass = recall(replace(RUN, d_p=d_p), passes=2, simulate=False)
        assert bound < two_pass.closed_efficiency
        assert two_pass.closed_efficiency == pytest.approx(i1 * (1.0 + c0) ** 2)


class TestTimeBinQubit:
    def test_requires_normalisation(self):
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=1.0, tau=0.5)

    def test_requires_positive_tau_and_sigma(self):
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.0)
        with pytest.raises(ValueError):
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.5, sigma=0.0)

    @pytest.mark.parametrize("field", ["tau", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tau_and_sigma(self, field, value):
        kwargs = dict(c1=1.0, c2=0.0, tau=0.5, sigma=7.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TimeBinQubit(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phi(self, value):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {value}$"):
            TimeBinQubit(c1=1.0, c2=0.0, tau=0.5, phi=value)

    @pytest.mark.parametrize("phi", [-math.pi, 0.0, 7.0])
    def test_accepts_any_finite_phi(self, phi):
        assert TimeBinQubit(c1=1.0, c2=0.0, tau=0.5, phi=phi).phi == phi


class TestTimeBinSpectrum:
    def test_superposition_of_shifted_gaussians(self):
        qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=1.2, phi=0.7, sigma=7.0)
        grid = FrequencyGrid(half_span=42.0, samples=2**10)
        nu = grid.points()
        base = (math.sqrt(math.pi) / 7.0) * np.exp(-(nu**2) / (4.0 * 49.0))
        expected = 0.8 * base + 0.6 * base * np.exp(1j * (0.7 + nu * 1.2))
        spectrum = Probe(qubit.pulses(), grid, k_max=1).spectrum
        np.testing.assert_allclose(spectrum, expected, atol=1e-14)

    def test_bins_appear_at_their_delays(self):
        qubit = TimeBinQubit(c1=0.8, c2=0.6, tau=1.2, phi=0.7, sigma=7.0)
        grid = FrequencyGrid(half_span=70.0, samples=2**12)
        spectrum = Probe(qubit.pulses(), grid, k_max=1).spectrum
        signal = spectrum_to_signal(spectrum, grid, 4, (-0.5, 1.7))
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
        spectrum = Probe(qubit.pulses(), grid, k_max=1).spectrum
        np.testing.assert_allclose(spectrum, expected, atol=1e-14)
