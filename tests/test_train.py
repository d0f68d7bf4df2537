"""Echo-train coefficients: closed forms, recursion, numeric projection."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim import train
from afcsim.combs import CombSpec, CombShape, MediumSpec
from afcsim.propagation import TransferModel
from afcsim.train import (
    BroadenedCoefficients,
    TrainCoefficients,
    broadened_A_coefficients,
    closed_train,
    first_echo_amplitude,
    first_echo_intensity,
    ideal_limit_intensity,
    optimal_depth,
    prompt_attenuation,
)
from afcsim.susceptibility import epsilon_broadened
from oracles import coefficients_numeric

SQUARE_F5 = CombSpec(shape=CombShape.SQUARE, half_width=0.2)
HARMONIC = CombSpec(shape=CombShape.HARMONIC)
LORENTZIAN_F5 = CombSpec(shape=CombShape.LORENTZIAN, half_width=0.2)
DEPTH_10 = MediumSpec(d_p=10.0)
DEPTH_4 = MediumSpec(d_p=4.0)


def quad_fields(points, packed):
    """``(a0, a1_absorption, a1_full)`` by ``quad`` with ``points`` as breaks.

    ``packed(nu)`` is the comb's complex response at one detuning.
    """
    from scipy.integrate import quad

    def integrate(f):
        return 2.0 * quad(
            f, 0.0, 1.0, points=points, limit=200, epsabs=5e-14, epsrel=1e-12
        )[0]

    a0 = integrate(lambda nu: packed(nu).real) / 2.0
    a1_absorption = -integrate(lambda nu: packed(nu).real * math.cos(math.pi * nu))
    a1_full = -integrate(
        lambda nu: (
            packed(nu).real * math.cos(math.pi * nu)
            - packed(nu).imag * math.sin(math.pi * nu)
        )
    ) / 2.0
    return a0, a1_absorption, a1_full


@pytest.fixture
def comb_nodes(monkeypatch):
    """Detunings at which ``broadened_A_coefficients`` evaluates the comb.

    A call on an array of detunings records each of them.
    """
    nodes = []

    def counted(nu, *args, **kwargs):
        nodes.extend(np.ravel(nu).tolist())
        return epsilon_broadened(nu, *args, **kwargs)

    monkeypatch.setattr(train, "epsilon_broadened", counted)
    return nodes


def comb_at(delta, gamma):
    """The nine-pair comb's packed response at one detuning, evaluated afresh."""
    return lambda nu: complex(epsilon_broadened(nu, delta, gamma=gamma, pair_count=9))


class TestClosedForms:
    def test_prompt_attenuation(self):
        assert prompt_attenuation(SQUARE_F5, DEPTH_10) == pytest.approx(math.exp(-1.0))
        assert prompt_attenuation(
            CombSpec(shape=CombShape.HARMONIC), MediumSpec(d_p=4.0)
        ) == pytest.approx(math.exp(-1.0))
        assert prompt_attenuation(
            CombSpec(shape=CombShape.LORENTZIAN, half_width=0.2), DEPTH_10
        ) == pytest.approx(math.exp(-0.25 * math.pi * 10.0 / 5.0))

    def test_first_echo_intensity_pins(self):
        # frozen values computed from (d/pi)^2 sin^2(pi/F) e^{-d/F}
        cases = [
            (2.0, 4.0, 0.21939729737767416),
            (5.0, 10.0, 0.4737493874),
            (10.0, 20.0, 0.5237644409900208),
            (10.0, 2.0, 0.03168590222384943),
        ]
        for finesse, d_p, expected in cases:
            comb = CombSpec(shape=CombShape.SQUARE, half_width=1.0 / finesse)
            assert first_echo_intensity(comb, MediumSpec(d_p=d_p)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_broadening_rescales_first_echo(self):
        # gamma enters the field through one factor of q = e^{-pi gamma/nu0}
        plain = first_echo_intensity(SQUARE_F5, DEPTH_10)
        damped = first_echo_intensity(replace(SQUARE_F5, gamma=0.005), DEPTH_10)
        assert damped / plain == pytest.approx(math.exp(-0.01 * math.pi), rel=1e-12)
        assert damped == pytest.approx(0.459097468308253, abs=1e-12)
        assert first_echo_intensity(
            replace(SQUARE_F5, gamma=0.005), MediumSpec(d_p=3.0)
        ) == pytest.approx(0.16755588344358907, abs=1e-12)

    def test_optimal_depth_by_shape(self):
        assert optimal_depth(SQUARE_F5) == pytest.approx(10.0)
        assert optimal_depth(CombSpec(shape=CombShape.HARMONIC)) == pytest.approx(4.0)
        assert optimal_depth(
            CombSpec(shape=CombShape.LORENTZIAN, half_width=0.2)
        ) == pytest.approx(20.0 / math.pi)

    def test_optimal_depth_is_a_maximum(self):
        for comb in (
            SQUARE_F5,
            CombSpec(shape=CombShape.HARMONIC),
            CombSpec(shape=CombShape.LORENTZIAN, half_width=0.2),
        ):
            best = optimal_depth(comb)
            peak = first_echo_intensity(comb, MediumSpec(d_p=best))
            for d_p in (0.9 * best, 1.1 * best):
                assert first_echo_intensity(comb, MediumSpec(d_p=d_p)) < peak

    def test_ideal_limit(self):
        assert ideal_limit_intensity(2.0) == pytest.approx(
            first_echo_intensity(
                CombSpec(shape=CombShape.SQUARE, half_width=0.5), MediumSpec(d_p=4.0)
            ),
            rel=1e-12,
        )
        assert ideal_limit_intensity(32.0) == pytest.approx(
            0.5396041663233373, abs=1e-12
        )
        values = [ideal_limit_intensity(f) for f in (2.0, 3.0, 5.0, 10.0, 32.0, 100.0)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        assert ideal_limit_intensity(1e9) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-9)
        with pytest.raises(ValueError):
            ideal_limit_intensity(1.0)


class TestSquareRecursion:
    def test_reference_values(self):
        train = closed_train(SQUARE_F5, DEPTH_10, 3)
        assert train.prompt_factor == pytest.approx(math.exp(-1.0), rel=1e-15)
        np.testing.assert_allclose(
            train.values,
            [1.0, 1.87097857, 0.23662694, -0.73133183],
            atol=1e-7,
        )

    def test_first_order_matches_closed_form(self):
        train = closed_train(replace(SQUARE_F5, gamma=0.005), DEPTH_10, 1)
        assert train.intensity(1) == pytest.approx(
            first_echo_intensity(replace(SQUARE_F5, gamma=0.005), DEPTH_10), rel=1e-12
        )

    def test_accessors(self):
        train = closed_train(SQUARE_F5, DEPTH_10, 3)
        assert train.k_max == 3
        assert train.amplitude(0) == pytest.approx(train.prompt_factor)
        assert train.intensity(1) == pytest.approx(abs(train.amplitude(1)) ** 2)
        np.testing.assert_allclose(
            [train.intensity(k) for k in range(4)],
            np.abs(train.prompt_factor * train.values) ** 2,
            rtol=1e-13,
        )

    def test_growth_bound(self):
        # |a_k| C0 <= d^k / k! for the orders the recursion is used at
        for finesse, d_p in [(2.0, 4.0), (5.0, 10.0), (10.0, 20.0)]:
            comb = CombSpec.from_finesse(CombShape.SQUARE, finesse)
            train = closed_train(comb, MediumSpec(d_p), 10)
            bound = np.array([d_p**k / math.factorial(k) for k in range(11)])
            scaled = np.abs(train.values) * math.exp(-0.5 * d_p / finesse)
            assert np.all(scaled <= bound * (1.0 + 1e-12))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            closed_train(SQUARE_F5, DEPTH_10, -1)


class TestHarmonicTrain:
    def test_poisson_amplitudes(self):
        train = closed_train(HARMONIC, DEPTH_4, 6)
        k = np.arange(7)
        np.testing.assert_allclose(
            train.values, 1.0 / np.array([math.factorial(int(m)) for m in k]),
            rtol=1e-14,
        )
        assert train.prompt_factor == pytest.approx(math.exp(-1.0))

    def test_first_echo_at_optimal_depth(self):
        train = closed_train(HARMONIC, DEPTH_4, 1)
        assert train.intensity(1) == pytest.approx(0.1353352832366127, rel=1e-12)

    def test_amplitude_sum_is_unity(self):
        # sum_k C0 (d/4)^k / k! telescopes to 1 for any depth
        for d_p in (1.0, 4.0, 10.0):
            train = closed_train(HARMONIC, MediumSpec(d_p), 40)
            total = train.prompt_factor * train.values.sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            closed_train(HARMONIC, DEPTH_4, -1)


class TestLorentzianTrain:
    def test_first_order_matches_closed_form(self):
        train = closed_train(LORENTZIAN_F5, DEPTH_10, 1)
        assert train.amplitude(1) == pytest.approx(
            first_echo_amplitude(LORENTZIAN_F5, DEPTH_10), rel=1e-12
        )
        assert train.prompt_factor == pytest.approx(
            prompt_attenuation(LORENTZIAN_F5, DEPTH_10), rel=1e-15
        )

    def test_alternating_signs_from_negative_q(self):
        train = closed_train(LORENTZIAN_F5, DEPTH_10, 4)
        b1 = math.pi * 10.0 / 10.0 * math.exp(-math.pi / 5.0)
        assert train.values[1] == pytest.approx(b1, rel=1e-12)
        # a2 = b1^2/2 + b2 with b2 = -(pi d/2F) q^2 < 0
        q = math.exp(-math.pi / 5.0)
        assert train.values[2] == pytest.approx(0.5 * b1**2 - math.pi * q**2, rel=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            closed_train(LORENTZIAN_F5, DEPTH_10, -1)


class TestNumericProjection:
    def test_square_series_projection_is_exact(self):
        closed = closed_train(SQUARE_F5, DEPTH_10, 6)
        numeric = coefficients_numeric(
            SQUARE_F5, DEPTH_10, 6, model=TransferModel.IDEAL, harmonics=2000
        )
        assert np.abs(numeric.values - closed.values).max() < 1e-12
        assert abs(numeric.prompt_factor - closed.prompt_factor) < 1e-14

    def test_resummed_square_agrees_with_long_series(self):
        closed = closed_train(SQUARE_F5, DEPTH_10, 6)
        numeric = coefficients_numeric(
            SQUARE_F5, DEPTH_10, 6, model=TransferModel.IDEAL, harmonics=None
        )
        assert np.abs(numeric.values - closed.values).max() < 1e-4

    def test_harmonic_projection_matches_poisson(self):
        closed = closed_train(HARMONIC, DEPTH_4, 6)
        numeric = coefficients_numeric(
            HARMONIC,
            DEPTH_4,
            6,
            model=TransferModel.BROADENED,
        )
        assert np.abs(numeric.values - closed.values).max() < 1e-13
        assert abs(numeric.prompt_factor - closed.prompt_factor) < 1e-14

    def test_lorentzian_projection_matches_recursion(self):
        closed = closed_train(LORENTZIAN_F5, DEPTH_10, 5)
        numeric = coefficients_numeric(
            LORENTZIAN_F5,
            DEPTH_10,
            5,
            model=TransferModel.BROADENED,
        )
        assert np.abs(numeric.values - closed.values).max() < 1e-13

    @pytest.mark.parametrize("harmonics", [2000, None])
    @pytest.mark.parametrize("finesse", [4.0, 5.0, 8.0])
    @pytest.mark.parametrize("gamma", [0.005, 0.05])
    def test_broadened_square_series_projection_is_exact(
        self, gamma, finesse, harmonics
    ):
        # broadening damps harmonic k of the periodic comb by q^k, in the
        # series as in the closed form
        comb = CombSpec.from_finesse(CombShape.SQUARE, finesse, gamma=gamma)
        closed = closed_train(comb, DEPTH_10, 6)
        numeric = coefficients_numeric(
            comb, DEPTH_10, 6, model="ideal", harmonics=harmonics
        )
        assert np.abs(numeric.values - closed.values).max() < 1e-13
        assert abs(numeric.prompt_factor - closed.prompt_factor) < 1e-13

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            coefficients_numeric(SQUARE_F5, DEPTH_10, 3, resolution=100)
        with pytest.raises(ValueError):
            coefficients_numeric(SQUARE_F5, DEPTH_10, 100, resolution=64)
        with pytest.raises(ValueError):
            coefficients_numeric(
                SQUARE_F5, DEPTH_10, 3, harmonics=2**18, resolution=2**18
            )

    def test_rejects_resolution_that_aliases_the_series(self):
        # 2000 harmonics on 2^15 samples put the train off by 1.3e-4 of
        # max |a_k| at F = 1.5, d_p = 40; 2^16 samples are accurate.
        comb = CombSpec.from_finesse(CombShape.SQUARE, 1.5)
        medium = MediumSpec(d_p=40.0)
        kwargs = dict(model=TransferModel.IDEAL, harmonics=2000)
        with pytest.raises(ValueError, match=r"resolution 32768 is below 32 \* harmonics"):
            coefficients_numeric(comb, medium, 6, resolution=2**15, **kwargs)
        numeric = coefficients_numeric(comb, medium, 6, resolution=2**16, **kwargs)
        closed = closed_train(comb, medium, 6)
        scale = np.abs(closed.values).max()
        assert np.abs(numeric.values - closed.values).max() <= 1e-9 * scale


class TestClosedTrainProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(list(CombShape)),
        finesse=st.floats(1.5, 50.0),
        d_p=st.floats(0.0, 40.0),
        gamma=st.one_of(st.just(0.0), st.floats(1e-150, 0.05)),
        k_max=st.integers(0, 6),
    )
    def test_matches_numeric_projection(self, shape, finesse, d_p, gamma, k_max):
        # Square teeth have a periodic form only as the unbroadened
        # series.  a_0 .. a_k depend on b_1 .. b_k alone, so any series
        # length from k_max up projects to the same train; 256 terms
        # keep the aliasing of exp(series) on 2^13 points below 1e-10,
        # where 2000 terms need 2^16 points.
        if shape is CombShape.SQUARE:
            comb = CombSpec.from_finesse(shape, finesse)
            model, harmonics = TransferModel.IDEAL, 256
        else:
            comb = CombSpec(shape=shape, half_width=1.0 / finesse, gamma=gamma)
            model, harmonics = TransferModel.BROADENED, None
        medium = MediumSpec(d_p=d_p)
        closed = closed_train(comb, medium, k_max)
        numeric = coefficients_numeric(
            comb, medium, k_max, model=model, harmonics=harmonics, resolution=2**13
        )
        scale = np.abs(closed.values).max()
        assert np.abs(numeric.values - closed.values).max() <= 1e-9 * scale
        assert numeric.prompt_factor == pytest.approx(closed.prompt_factor, rel=1e-9)


class TestBroadenedCoefficients:
    def test_mean_response_approaches_duty(self):
        # the gamma tails leak out of the window as O(gamma log)/nu0
        for gamma, tol in [(0.01, 1e-3), (0.1, 1e-3)]:
            coeffs = broadened_A_coefficients(0.2, gamma=gamma, pair_count=9)
            assert isinstance(coeffs, BroadenedCoefficients)
            assert abs(coeffs.a0 - 0.2) < tol

    def test_absorption_projection_matches_closed_form(self):
        coeffs = broadened_A_coefficients(0.2, gamma=0.01, pair_count=9)
        assert abs(coeffs.a1_absorption / coeffs.a1_closed - 1.0) < 1e-5

    def test_quadratures_agree_to_truncation(self):
        # with nine pairs the dispersion quadrature still carries a
        # finite-comb remainder of a couple parts in a thousand
        coeffs = broadened_A_coefficients(0.2, gamma=0.01, pair_count=9)
        assert abs(coeffs.a1_full - coeffs.a1_absorption) < 3e-3

    def test_comb_evaluated_once_per_node(self, comb_nodes):
        coeffs = broadened_A_coefficients(0.2, gamma=0.01, pair_count=9)
        assert len(comb_nodes) == len(set(comb_nodes))
        # the reference evaluates the comb afresh inside every integrand,
        # with the same breaks and half-range integrals in the same order,
        # so quad sees the same values at the same nodes
        edge = 1.0 - 0.2
        points = [edge + k * 0.01 for k in (-64, -16, -4, -1, 0, 1, 4, 16)]
        fields = quad_fields(points, comb_at(0.2, 0.01))
        assert (coeffs.a0, coeffs.a1_absorption, coeffs.a1_full) == fields
        assert coeffs.a1_closed == (2.0 / math.pi) * math.sin(math.pi * 0.2) * math.exp(
            -math.pi * 0.01
        )

    def test_edge_breaks_match_the_edge_alone_at_half_the_cost(self, comb_nodes):
        # the old rule, the tooth edge as the only break, at the
        # harmonic-weights deltas; that target runs gamma 0.01
        new_total = old_total = 0
        for gamma in (0.001, 0.01, 0.05):
            new_count = old_count = 0
            for delta in np.arange(0.05, 0.451, 0.05):
                delta = float(delta)
                start = len(comb_nodes)
                coeffs = broadened_A_coefficients(delta, gamma=gamma, pair_count=9)
                new_count += len(comb_nodes) - start
                packed = functools.lru_cache(maxsize=None)(comb_at(delta, gamma))
                fields = quad_fields([1.0 - delta], packed)
                old_count += packed.cache_info().misses
                new = (coeffs.a0, coeffs.a1_absorption, coeffs.a1_full)
                assert np.abs(np.subtract(new, fields)).max() <= 1e-14
            if gamma == 0.01:
                assert 2 * new_count <= old_count
            new_total += new_count
            old_total += old_count
        assert 2 * new_total <= old_total

    def test_prefetch_leaves_harmonic_weights_unchanged(self):
        # the reference evaluates the comb afresh at every node quad asks
        # for; quad sees the same values, so all three fields agree bit
        # for bit at the harmonic-weights deltas
        for delta in np.arange(0.05, 0.451, 0.05):
            delta = float(delta)
            coeffs = broadened_A_coefficients(delta, gamma=0.01, pair_count=9)
            edge = 1.0 - delta
            near = {edge + s * k * 0.01 for k in (1, 4, 16, 64, 256) for s in (-1, 1)}
            points = sorted({edge} | {p for p in near if 0.0 < p < 1.0})
            fields = quad_fields(points, comb_at(delta, 0.01))
            assert (coeffs.a0, coeffs.a1_absorption, coeffs.a1_full) == fields

    def test_first_pass_nodes_are_evaluated_in_one_call(self, monkeypatch):
        # quad's first pass applies the 21-point Kronrod rule to every
        # panel; those nodes come from one vector call, and only the
        # nodes its bisections add are evaluated one at a time
        sizes = []

        def counted(nu, *args, **kwargs):
            sizes.append(np.size(nu))
            return epsilon_broadened(nu, *args, **kwargs)

        monkeypatch.setattr(train, "epsilon_broadened", counted)
        vector = total = 0
        for delta in np.arange(0.05, 0.451, 0.05):
            sizes.clear()
            broadened_A_coefficients(float(delta), gamma=0.01, pair_count=9)
            assert sizes[0] > 1 and set(sizes[1:]) <= {1}
            vector += sizes[0]
            total += sum(sizes)
        # 1596 of 1764 with scipy 1.17
        assert vector >= 0.85 * total

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("pair_count", [9, 20000])
    def test_prefetched_values_match_scalar_calls(
        self, monkeypatch, pair_count, gamma
    ):
        # 20000 pairs take the closed form past the 32 nearest teeth; the
        # quadrature stops at the first scalar node, after the prefetch it
        # checks
        class Prefetched(Exception):
            pass

        calls = []

        def first_call(nu, *args, **kwargs):
            if calls:
                raise Prefetched
            values = epsilon_broadened(nu, *args, **kwargs)
            calls.append((np.array(nu), values))
            return values

        monkeypatch.setattr(train, "epsilon_broadened", first_call)
        try:
            broadened_A_coefficients(0.2, gamma=gamma, pair_count=pair_count)
        except Prefetched:
            pass
        ((nodes, values),) = calls
        scalar = np.array(
            [
                complex(epsilon_broadened(nu, 0.2, gamma=gamma, pair_count=pair_count))
                for nu in nodes.tolist()
            ]
        )
        assert nodes.size > 1
        assert np.array_equal(values.view(np.int64), scalar.view(np.int64))

    @pytest.mark.parametrize("delta", [0.2, 1.0])
    def test_sharp_comb_keeps_the_edge_as_its_one_break(self, delta):
        coeffs = broadened_A_coefficients(delta, gamma=0.0, pair_count=9)
        packed = functools.lru_cache(maxsize=None)(comb_at(delta, 0.0))
        fields = quad_fields([1.0 - delta], packed)
        assert (coeffs.a0, coeffs.a1_absorption, coeffs.a1_full) == fields

    def test_narrow_step_is_resolved(self):
        # With the edge as its only break, quad misses the step of width
        # 1e-6 by 9e-7 in a0 while its error estimate reads 4e-14.  The
        # reference integrates panels that double in width away from the
        # edge, to a tighter tolerance.
        from scipy.integrate import quad

        delta, gamma = 0.05, 1e-6
        edge = 1.0 - delta
        near = {edge + s * gamma * 2.0**j for j in range(40) for s in (-1.0, 1.0)}
        breaks = [0.0, *sorted({edge} | {p for p in near if 0.0 < p < 1.0}), 1.0]

        def absorption(nu):
            return float(epsilon_broadened(nu, delta, gamma=gamma, pair_count=9).real)

        reference = sum(
            quad(absorption, a, b, epsabs=1e-16, epsrel=1e-13)[0]
            for a, b in zip(breaks[:-1], breaks[1:])
        )
        coeffs = broadened_A_coefficients(delta, gamma=gamma, pair_count=9)
        assert abs(coeffs.a0 - reference) <= 1e-14

    def test_closed_harmonic_is_the_tables_first_coefficient(self):
        # b_1 = -(d_p / 2) c_1 q, so d_p = 2 gives the response harmonic
        coeffs = broadened_A_coefficients(0.3, gamma=0.02, pair_count=4)
        comb = CombSpec(CombShape.SQUARE, half_width=0.3, pair_count=4, gamma=0.02)
        assert coeffs.a1_closed == closed_train(comb, MediumSpec(2.0), 1).values[1]

    def test_rejects_teeth_wider_than_the_period(self):
        with pytest.raises(ValueError, match="half_width"):
            broadened_A_coefficients(1.5, gamma=0.01, pair_count=9)

    @pytest.mark.parametrize("delta", [float(d) for d in np.arange(0.05, 0.451, 0.05)])
    def test_half_range_matches_full_range(self, delta):
        # the integrands are even; the full-range reference integrates
        # over [-1, 1] with both tooth edges as breaks
        from scipy.integrate import quad

        def packed(nu):
            return complex(epsilon_broadened(nu, delta, gamma=0.01, pair_count=9))

        def integrate(f):
            return quad(
                f,
                -1.0,
                1.0,
                points=[-1.0 + delta, 1.0 - delta],
                limit=200,
                epsabs=1e-13,
                epsrel=1e-12,
            )[0]

        coeffs = broadened_A_coefficients(delta, gamma=0.01, pair_count=9)
        full = (
            integrate(lambda nu: packed(nu).real) / 2.0,
            -integrate(lambda nu: packed(nu).real * math.cos(math.pi * nu)),
            -integrate(
                lambda nu: packed(nu).real * math.cos(math.pi * nu)
                - packed(nu).imag * math.sin(math.pi * nu)
            )
            / 2.0,
        )
        half = (coeffs.a0, coeffs.a1_absorption, coeffs.a1_full)
        assert np.abs(np.subtract(half, full)).max() <= 1e-12
