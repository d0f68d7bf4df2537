import math

import numpy as np
import pytest

from afcsim import (
    ECHO_DELAY,
    HARMONIC_FINESSE,
    CombShape,
    CombSpec,
    MediumSpec,
    UnitScale,
    odd_peak_centers,
    population_difference,
)


class TestCombSpec:
    def test_layout_properties(self):
        comb = CombSpec(CombShape.SQUARE, half_width=0.2, pair_count=9)
        assert comb.finesse == pytest.approx(5.0)
        assert odd_peak_centers(comb.pair_count).size == 20
        assert ECHO_DELAY == math.pi

    def test_from_finesse_square(self):
        comb = CombSpec.from_finesse("square", 10.0)
        assert comb.shape is CombShape.SQUARE
        assert comb.half_width == pytest.approx(0.1)
        assert comb.finesse == pytest.approx(10.0)

    def test_harmonic_width_is_fixed(self):
        comb = CombSpec(CombShape.HARMONIC, half_width=0.3)
        assert comb.finesse == pytest.approx(HARMONIC_FINESSE)
        with pytest.raises(ValueError):
            CombSpec.from_finesse(CombShape.HARMONIC, 5.0)
        assert CombSpec.from_finesse("harmonic", 2.0).shape is CombShape.HARMONIC

    def test_shape_accepts_strings(self):
        assert CombSpec("lorentzian").shape is CombShape.LORENTZIAN

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(half_width=0.0),
            dict(half_width=1.5),
            dict(pair_count=-1),
            dict(gamma=-0.1),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            CombSpec(CombShape.SQUARE, **kwargs)

    def test_gamma_square_must_be_finite(self):
        assert CombSpec(CombShape.SQUARE, gamma=1e154).gamma == 1e154
        with pytest.raises(ValueError, match="gamma must be below about 1.3e154"):
            CombSpec(CombShape.SQUARE, gamma=1.4e154)


class TestMediumSpec:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            MediumSpec(-1.0)
        assert MediumSpec(0.0).d_p == 0.0

    @pytest.mark.parametrize("d_p", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_depth(self, d_p):
        with pytest.raises(ValueError, match="d_p must be finite"):
            MediumSpec(d_p)


class TestUnitScale:
    def test_frequency_and_time(self):
        # nu0 of 1 MHz puts the first tooth at 1 MHz and the echo at
        # half a microsecond.
        scale = UnitScale(1e6)
        assert scale.frequency_hz(1.0) == pytest.approx(1e6)
        assert scale.time_s(1.0) == pytest.approx(0.5e-6)

    def test_echo_spacing_is_inverse_period(self):
        # the comb period 2 nu0, in Hz, times the echo spacing T, in s
        scale = UnitScale(2.5e6)
        assert scale.frequency_hz(2.0) * scale.time_s(1.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UnitScale(0.0)

    @pytest.mark.parametrize("nu0_hz", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, nu0_hz):
        with pytest.raises(ValueError, match="nu0_hz must be finite"):
            UnitScale(nu0_hz)


class TestLayout:
    def test_odd_peak_centers(self):
        centers = odd_peak_centers(2)
        assert centers.tolist() == [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]


class TestPopulationDifference:
    def test_square_indicator(self):
        # Dyadic half-width keeps the edges exactly representable.
        comb = CombSpec(CombShape.SQUARE, half_width=0.25)
        delta = np.array([0.0, 0.7, 0.75, 1.0, 1.25, 1.3, 3.1])
        profile = population_difference(comb, delta)
        assert profile.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0]

    def test_square_duty_cycle(self):
        comb = CombSpec(CombShape.SQUARE, half_width=0.2, pair_count=9)
        delta = -3.0 + (np.arange(6000) + 0.5) * (6.0 / 6000)
        assert population_difference(comb, delta).mean() == pytest.approx(
            0.2, abs=1e-3
        )

    def test_harmonic_is_raised_cosine(self):
        comb = CombSpec(CombShape.HARMONIC)
        delta = np.linspace(-5.0, 5.0, 101)
        expected = 0.5 * (1.0 - np.cos(np.pi * delta))
        assert population_difference(comb, delta) == pytest.approx(expected)

    def test_lorentzian_peak_and_tails(self):
        comb = CombSpec(CombShape.LORENTZIAN, half_width=0.1, pair_count=9)
        at_peak = population_difference(comb, 1.0)
        # Unit tooth plus small positive tails from the neighbours.
        assert 1.0 < at_peak < 1.02
        assert population_difference(comb, 0.0) < 0.05

    def test_scalar_input(self):
        comb = CombSpec(CombShape.SQUARE, half_width=0.1)
        assert population_difference(comb, 1.0) == 1.0
