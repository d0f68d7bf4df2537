import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcsim import (
    CombShape,
    CombSpec,
    chi_square_exact,
    chi_square_series,
    epsilon_broadened,
    epsilon_peak_center,
    epsilon_window_center,
    harmonic_comb_response,
    lorentzian_comb_response,
    odd_peak_centers,
    square_harmonic_weights,
)
from afcsim.propagation import (
    FrequencyGrid,
    TransferModel,
    _grid_response,
    comb_response,
)
from afcsim.protocols import RunSpec
from afcsim.susceptibility import (
    _COMB_BLOCK,
    _NEAR_TEETH,
    _PRODUCT_TEETH,
    _finite_comb,
    _many_teeth,
    _stirling_terms,
)
from oracles import (
    kramers_kronig,
    lorentzian_convolution,
    tooth_sum,
    tooth_sum_longdouble,
)


def midgrid(lo, hi, n):
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="np.longdouble is no wider than float64 here, so no oracle",
)


def assert_matches_sum(packed, summed, bound):
    """The same non-finite samples, and the rest within ``bound``.

    In absolute terms, relative where the sum exceeds 1 in magnitude.
    """
    for part in ("real", "imag"):
        ours, sums = getattr(packed, part), getattr(summed, part)
        finite = np.isfinite(sums)
        assert np.array_equal(np.isfinite(ours), finite), part
        ours, sums = ours[finite], sums[finite]
        error = np.abs(ours - sums) / np.maximum(1.0, np.abs(sums))
        assert (error <= bound).all(), (part, float(error.max()))


def loop_series(nu, inv_finesse, harmonics):
    """Term-by-term sum, as chi_square_series does it off uniform grids."""
    nu = np.asarray(nu, dtype=float)
    xbar = np.exp(-1j * (np.pi * nu))
    power = np.ones_like(xbar)
    acc = np.full(nu.shape, inv_finesse, dtype=complex)
    for c_k in square_harmonic_weights(inv_finesse, harmonics):
        power = power * xbar
        acc += c_k * power
    return acc


class TestSquareSeries:
    def test_weights(self):
        c = square_harmonic_weights(0.2, 3)
        assert c[0] == pytest.approx(-(2.0 / math.pi) * math.sin(0.2 * math.pi))
        assert c[1] == pytest.approx((1.0 / math.pi) * math.sin(0.4 * math.pi))
        assert c[2] == pytest.approx(-(2.0 / (3 * math.pi)) * math.sin(0.6 * math.pi))

    def test_mean_is_duty_cycle(self):
        nu = midgrid(-2.0, 2.0, 1600)
        packed = chi_square_series(nu, 0.1, harmonics=2000)
        assert packed.real.mean() == pytest.approx(0.1, abs=1e-6)

    def test_plateau_value(self):
        packed = chi_square_series(np.array([1.0]), 0.2, harmonics=2000)
        assert packed.real[0] == pytest.approx(1.0, abs=1e-2)

    def test_resummed_absorption_is_binary(self):
        nu = midgrid(-3.0, 3.0, 4001)
        packed = chi_square_series(nu, 0.2, harmonics=None)
        dev = np.minimum(np.abs(packed.real), np.abs(packed.real - 1.0))
        assert dev.max() < 1e-12

    @pytest.mark.parametrize(
        "grid", [{}, dict(span_factor=6.0, samples=2**15)], ids=["cli", "pin"]
    )
    def test_resummed_absorption_is_exact_on_run_grids(self, grid):
        # unrounded, about a third of these samples lie just below zero
        # between the teeth: a gain, which a deep comb amplifies
        run = RunSpec(model="ideal", harmonics=None, **grid)
        packed = comb_response(
            run.comb(), run.probe().grid.points(), run.model, run.harmonics
        )
        assert set(np.unique(packed.real)) <= {0.0, 0.5, 1.0}
        assert not np.signbit(packed.real).any()

    @pytest.mark.parametrize("finesse", [1.5, 2.0, 5.0, 9.89, 50.0])
    @pytest.mark.parametrize("gamma", [1e-16, 5e-16, 1e-15])
    def test_barely_broadened_resummed_absorption_is_not_negative(
        self, gamma, finesse
    ):
        # q rounds below 1 here but the teeth are still sharp to
        # rounding: unclipped, the absorption dips to about -7e-17
        nu = RunSpec().probe().grid.points()
        packed = chi_square_series(nu, 1.0 / finesse, harmonics=None, gamma=gamma)
        assert packed.real.min() >= 0.0

    def test_resummed_window_centre_is_transparent(self):
        packed = chi_square_series(np.array([0.0, 2.0]), 0.2, harmonics=None)
        assert np.abs(packed.real).max() < 1e-12
        assert np.abs(packed.imag).max() < 1e-12

    def test_series_converges_to_resummed(self):
        nu = midgrid(-1.0, 1.0, 200)
        coarse = chi_square_series(nu, 0.2, harmonics=500)
        exact = chi_square_series(nu, 0.2, harmonics=None)
        # Pointwise convergence holds away from the tooth edges.
        away = np.abs(np.abs(nu) - 0.8) > 0.05
        assert np.max(np.abs(coarse - exact)[away]) < 2e-2

    def test_periodicity(self):
        nu = midgrid(-0.7, 0.7, 64)
        a = chi_square_series(nu, 0.25, harmonics=None)
        b = chi_square_series(nu + 2.0, 0.25, harmonics=None)
        assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize(
        ("points", "harmonics"),
        [(2**10, 500), (2**10, 2000), (2**16, 500), (2**16, 2000), (2**10, 3000)],
    )
    def test_chirp_z_matches_direct_sum(self, points, harmonics):
        # the grid of FrequencyGrid(30.0, points); 3000 harmonics on 1024
        # points is the case of more harmonics than points
        nu = (np.arange(points) - points // 2) * (60.0 / points)
        packed = chi_square_series(nu, 0.2, harmonics)
        # a direct sum on at most 1024 of the points keeps the matrix small
        rng = np.random.default_rng(0)
        rows = rng.choice(points, min(points, 1024), replace=False)
        k = np.arange(1, harmonics + 1)
        direct = 0.2 + np.exp(-1j * np.pi * np.outer(nu[rows], k)) @ (
            square_harmonic_weights(0.2, harmonics)
        )
        assert np.max(np.abs(packed[rows] - direct)) < 1e-10

    @pytest.mark.parametrize(
        "nu",
        [
            0.37,
            np.array([1.0]),
            np.sort(np.random.default_rng(1).uniform(-3.0, 3.0, 300)),
            midgrid(-3.0, 3.0, 300)[::-1],
            midgrid(-3.0, 3.0, 300).reshape(20, 15),
        ],
        ids=["scalar", "one-point", "non-uniform", "descending", "2-d"],
    )
    def test_other_grids_keep_the_term_by_term_sum(self, nu):
        packed = chi_square_series(nu, 0.2, harmonics=500)
        assert np.array_equal(packed, loop_series(nu, 0.2, 500))

    def test_rejects_bad_duty_cycle(self):
        with pytest.raises(ValueError):
            chi_square_series(np.array([0.0]), 1.2)
        with pytest.raises(ValueError):
            chi_square_series(np.array([0.0]), 0.2, harmonics=0)
        # the series needs about 230 bytes per harmonic; 1e8 of them ran
        # the process out of memory
        message = "^harmonics must be in \\[1, 131072\\], got 131073$"
        with pytest.raises(ValueError, match=message):
            chi_square_series(midgrid(-2.0, 2.0, 16), 0.2, harmonics=2**17 + 1)


class TestSquareExact:
    def test_indicator_values(self):
        # Dyadic duty cycle keeps the edges exactly representable.
        nu = np.array([0.0, 0.8, 1.0, 1.2, 1.25, 2.0])
        packed = chi_square_exact(nu, 0.25, pair_count=9)
        assert packed.real == pytest.approx([0.0, 1.0, 1.0, 1.0, 0.5, 0.0])

    def test_dispersion_diverges_on_edges(self):
        packed = chi_square_exact(np.array([0.75]), 0.25, pair_count=9)
        assert np.isinf(packed.imag[0])

    def test_matches_resummed_away_from_edges_for_large_comb(self):
        nu = midgrid(-1.0, 1.0, 80)
        finite = chi_square_exact(nu, 0.2, pair_count=4000)
        periodic = chi_square_series(nu, 0.2, harmonics=None)
        assert np.max(np.abs(finite.real - periodic.real)) < 1e-12
        assert np.max(np.abs(finite.imag - periodic.imag)) < 1e-3


class TestBroadened:
    def test_window_and_peak_pins(self):
        assert epsilon_window_center(0.1, gamma=0.01, pair_count=9) == pytest.approx(
            1.5519e-3, abs=1e-6
        )
        assert epsilon_peak_center(0.1, gamma=0.01, pair_count=9) == pytest.approx(
            0.93704, abs=1e-4
        )

    def test_gamma_zero_reduces_to_exact(self):
        nu = midgrid(-2.0, 2.0, 512)
        a = epsilon_broadened(nu, 0.2, gamma=0.0, pair_count=9)
        b = chi_square_exact(nu, 0.2, pair_count=9)
        assert np.array_equal(a, b)

    def test_broadening_conserves_area(self):
        # Lorentzian convolution redistributes absorption without
        # creating or destroying it.
        nu = midgrid(-1.0, 1.0, 20000)
        sharp = epsilon_broadened(nu, 0.1, gamma=0.0, pair_count=2000)
        soft = epsilon_broadened(nu, 0.1, gamma=0.02, pair_count=2000)
        assert soft.real.mean() == pytest.approx(sharp.real.mean(), abs=1e-4)

    # quad saturates its subdivision cap on the tooth edges; the 1e-8
    # agreement below is the check that matters
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_matches_quadrature_convolution(self):
        comb = CombSpec(CombShape.SQUARE, half_width=0.1, pair_count=3, gamma=0.02)
        nu = np.array([-1.3, -0.4, 0.0, 0.7, 1.0, 2.2])
        closed = epsilon_broadened(nu, 0.1, gamma=0.02, pair_count=3)
        numeric = lorentzian_convolution(comb, nu)
        assert np.max(np.abs(closed - numeric)) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize("pair_count", [9, 40])
    def test_blocks_match_single_block_calls(self, gamma, pair_count):
        # spacing 1/256 puts samples on the tooth edges at odd +- 0.25
        nu = (np.arange(3 * _COMB_BLOCK + 100) - 1600) / 256.0
        whole = epsilon_broadened(nu, 0.25, gamma=gamma, pair_count=pair_count)
        blocks = np.concatenate(
            [
                epsilon_broadened(
                    nu[i : i + _COMB_BLOCK], 0.25, gamma=gamma, pair_count=pair_count
                )
                for i in range(0, nu.size, _COMB_BLOCK)
            ]
        )
        assert np.array_equal(whole, blocks)
        assert np.isinf(whole.imag).any() == (gamma == 0.0)

    @settings(max_examples=15, deadline=None)
    @given(
        samples=st.sampled_from([2**11, 2**12, 2**13]),
        half_span=st.floats(0.5, 40.0),
        delta=st.floats(0.01, 1.0),
        gamma=st.floats(1e-4, 0.2),
        pair_count=st.integers(0, 40),
    )
    def test_grid_mirror_is_conjugate(
        self, samples, half_span, delta, gamma, pair_count
    ):
        grid = FrequencyGrid(half_span, samples)
        comb = CombSpec(
            CombShape.SQUARE, half_width=delta, pair_count=pair_count, gamma=gamma
        )
        mirrored = _grid_response(comb, grid, TransferModel.BROADENED, None)
        nu = grid.points()
        # nu[1 + j] == -nu[samples - 1 - j]: below the middle sample, its
        # own partner, each is the conjugate of its partner bit for bit
        middle = samples // 2
        assert np.array_equal(mirrored[1:middle], np.conj(mirrored[:middle:-1]))
        direct = np.concatenate(
            [
                epsilon_broadened(
                    nu[i : i + _COMB_BLOCK], delta, gamma=gamma, pair_count=pair_count
                )
                for i in range(0, nu.size, _COMB_BLOCK)
            ]
        )
        # the upper half is evaluated directly, and the unpaired first
        # sample is the conjugate of the response at +half_span
        edge = epsilon_broadened(half_span, delta, gamma=gamma, pair_count=pair_count)
        assert mirrored[0] == np.conj(edge)
        assert np.array_equal(mirrored[middle:], direct[middle:])
        assert np.abs(mirrored - direct).max() <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.one_of(st.floats(1e-6, 1.0), st.sampled_from([0.125, 0.25, 0.5])),
        gamma=st.one_of(st.sampled_from([0.0, 1e-150]), st.floats(1e-150, 10.0)),
        pair_count=st.integers(0, 1000),
        data=st.data(),
    )
    def test_absorption_is_non_negative(self, delta, gamma, pair_count, data):
        # tooth edges (2k + 1) +- delta, exact for the dyadic deltas
        edges = st.builds(
            lambda k, side: 2.0 * k + 1.0 + side * delta,
            st.integers(-pair_count - 1, pair_count),
            st.sampled_from([-1.0, 1.0]),
        )
        nu = data.draw(
            st.lists(
                st.one_of(st.floats(-2100.0, 2100.0), edges), min_size=1, max_size=64
            )
        )
        packed = epsilon_broadened(
            np.array(nu), delta, gamma=gamma, pair_count=pair_count
        )
        assert (packed.real >= 0.0).all()

    # The product of tooth ratios against the sum over teeth, largest
    # difference in absolute terms, relative where the sum exceeds 1 in
    # magnitude (near a sharp edge the dispersion grows as the log of the
    # distance, and both forms round it relative to its size); 200 draws
    # of delta and gamma, each on 330 detunings over and beyond the comb:
    #
    #   pairs  teeth  absorption  dispersion
    #       9     20     4.4e-16     6.8e-16
    #      40     82     5.6e-16     1.4e-15
    #     127    256     7.8e-16     3.3e-15
    #     255    512     1.1e-15     6.3e-15
    #    1000   2002     1.8e-15     1.7e-14
    #
    # so the product runs up to 256 teeth, the largest power of two that
    # keeps the 5e-15 below.
    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.one_of(
            st.floats(1e-6, 1.0, exclude_max=True), st.sampled_from([0.125, 0.25, 0.5])
        ),
        # from gamma's floor 1e-150 up
        gamma=st.one_of(
            st.sampled_from([0.0, 1e-150, 1e-149, 1e-40, 1e-12, 1e-8]),
            st.floats(-150.0, -4.0).map(lambda exponent: 10.0**exponent),
            st.floats(1e-4, 10.0),
        ),
        pair_count=st.integers(0, (_PRODUCT_TEETH - 2) // 2),
        data=st.data(),
    )
    def test_product_matches_tooth_sum(self, delta, gamma, pair_count, data):
        # tooth edges (2k + 1) +- delta, exact for the dyadic deltas
        edges = st.builds(
            lambda k, side: 2.0 * k + 1.0 + side * delta,
            st.integers(-pair_count - 1, pair_count),
            st.sampled_from([-1.0, 1.0]),
        )
        beyond = 2.0 * pair_count + 6.0
        nu = np.array(
            data.draw(
                st.lists(
                    st.one_of(st.floats(-beyond, beyond), edges), min_size=1, max_size=64
                )
            )
        )
        packed = epsilon_broadened(nu, delta, gamma=gamma, pair_count=pair_count)
        summed = tooth_sum(nu, delta, gamma, odd_peak_centers(pair_count))
        assert_matches_sum(packed, summed, 5e-15)
        if gamma == 0.0:
            assert np.isin(packed.real, [0.0, 0.5, 1.0]).all()
            assert np.array_equal(packed.real, summed.real)

    # Both kernels against the tooth sum in long double, with the same
    # measure: the product up to 256 teeth, the closed form past the 32
    # nearest teeth above.  The worst seen over 258 to 200 002 teeth,
    # 1.4e-14 in the dispersion and 7e-15 in the absorption, was at the
    # tooth edge 1 - delta for delta 0.999 and gamma 0.001, and the
    # product reads the same there at 20 teeth: it is the rounding of
    # nu - c, which both kernels share.
    @needs_longdouble
    @pytest.mark.parametrize("gamma", [0.0, 1e-150, 0.01, 10.0])
    @pytest.mark.parametrize("delta", [0.25, 0.999])
    @pytest.mark.parametrize("pair_count", [9, 127, 128, 999, 100000])
    def test_kernels_match_longdouble_sum(self, pair_count, delta, gamma):
        outer = 2.0 * pair_count + 2.0
        # tooth edges near the carrier and at both ends of the comb, exact
        # for the dyadic delta; detunings inside the comb and beyond it
        centers = np.array([1.0, outer - 1.0, -1.0, 3.0, 1.0 - outer])
        edges = np.concatenate([centers - delta, centers + delta])
        # +-outer put a Stirling argument of an empty side at w = 0
        nu = np.concatenate(
            [edges, midgrid(-outer - 6.0, outer + 6.0, 64), [0.0, outer, -outer]]
        )
        if pair_count >= 10**4:
            # the long-double sum takes about 40 ms a detuning here
            nu = np.array([edges[0], edges[6], 0.0, 0.3 * outer, -outer])
        packed = epsilon_broadened(nu, delta, gamma=gamma, pair_count=pair_count)
        exact = tooth_sum_longdouble(nu, delta, gamma, pair_count)
        assert_matches_sum(packed, exact, 2e-14)
        if gamma == 0.0:
            assert np.isin(packed.real, [0.0, 0.5, 1.0]).all()
            # some of the edges are samples, so the pattern above is tested
            assert np.isinf(packed.imag).any()

    @pytest.mark.parametrize("gamma", [0.0, 1e-150, 0.01])
    @pytest.mark.parametrize("pair_count", [0, 9])
    def test_touching_teeth_are_finite_on_shared_edges(self, gamma, pair_count):
        # delta = 1 tiles [-outer, outer] edge to edge; at a shared edge a
        # sharp tooth by tooth sum adds +inf - inf
        outer = 2.0 * pair_count + 2.0
        shared = np.arange(2.0 - outer, outer - 1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packed = epsilon_broadened(shared, 1.0, gamma=gamma, pair_count=pair_count)
        assert np.isfinite(packed).all()
        nu = midgrid(-outer - 3.0, outer + 3.0, 2000)
        with np.errstate(divide="ignore"):
            per_tooth = tooth_sum(nu, 1.0, gamma, odd_peak_centers(pair_count))
        tiled = epsilon_broadened(nu, 1.0, gamma=gamma, pair_count=pair_count)
        assert np.abs(tiled - per_tooth).max() <= 1e-13

    def test_long_grid_memory_is_linear(self):
        points = 2**18
        nu = (np.arange(points) - points // 2) * (60.0 / points)
        tracemalloc.start()
        try:
            epsilon_broadened(nu, 0.1, gamma=0.01, pair_count=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (points, 82 teeth) broadcast would need about 2 kB per point
        assert peak < 64 * points

    def test_memory_is_bounded_in_the_tooth_count(self):
        nu = FrequencyGrid(20.0, 4096).points()
        tracemalloc.start()
        try:
            epsilon_broadened(nu, 0.2, gamma=0.005, pair_count=3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # blocks of 1024 detunings by 6002 teeth would take about 140 MiB
        assert peak < 16 * 2**20

    @needs_longdouble
    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    @pytest.mark.parametrize(
        ("pair_count", "nu"), [(10**5, 0.0), (10**5, 1.0), (10**6, 1.0)]
    )
    def test_many_teeth_memory_does_not_grow(self, pair_count, nu, gamma):
        # 32 teeth multiplied out and the rest in closed form: a few kB at
        # one detuning, where the 2 pair_count + 2 tooth centres alone
        # would take 1.5 MiB at 1e5 pairs and 15 MiB at 1e6; the
        # long-double sum takes 0.2 to 0.4 s a detuning at 1e6 pairs
        tracemalloc.start()
        try:
            packed = epsilon_broadened(nu, 0.2, gamma=gamma, pair_count=pair_count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        exact = tooth_sum_longdouble(nu, 0.2, gamma, pair_count)
        # to rounding: the absorption relative to itself, the dispersion,
        # of order one, in absolute terms (worst seen 2.0e-16 and 1.5e-16)
        assert abs(packed.real - exact.real) <= 1e-15 * exact.real
        assert abs(packed.imag - exact.imag) <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.01])
    def test_many_teeth_blocks_match_one_broadcast(self, gamma):
        # 256 teeth, the most the product takes, give it 20 blocks of 125
        # detunings; 402 teeth give the closed form 3 blocks of 834, the
        # last overlapping the one before; the edges sit on samples
        nu = (np.arange(2500) - 1250) / 256.0
        shape = (256, nu.size)
        work = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex))
        centers = odd_peak_centers(127)[:, np.newaxis]
        whole = _finite_comb(nu, 0.25, gamma, centers, work)
        blocked = epsilon_broadened(nu, 0.25, gamma=gamma, pair_count=127)
        assert np.array_equal(blocked, whole)
        work = tuple(block[:_NEAR_TEETH] for block in work)
        whole = _many_teeth(nu, 0.25, gamma, 201, work, _stirling_terms(0.25))
        blocked = epsilon_broadened(nu, 0.25, gamma=gamma, pair_count=200)
        assert np.array_equal(blocked, whole)

    def test_refuses_overlapping_teeth(self):
        # overlapping teeth would absorb up to 2, past what one angle holds
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\], got 1.5"):
            epsilon_broadened([0.0, 1.0, 2.0], 1.5, gamma=0.01, pair_count=9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            epsilon_broadened(np.array([0.0]), -0.1, gamma=0.01, pair_count=9)
        with pytest.raises(ValueError):
            epsilon_broadened(np.array([0.0]), 0.1, gamma=-1.0, pair_count=9)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-300, 9.99e-151])
    def test_refuses_gamma_below_its_floor(self, gamma):
        # gamma**2 would near underflow, or reach it
        with pytest.raises(
            ValueError, match=f"^gamma must be 0 or at least 1e-150, got {gamma}$"
        ):
            epsilon_broadened(np.array([0.0]), 0.1, gamma=gamma, pair_count=9)


class TestPeriodicShapes:
    def test_harmonic_profile(self):
        nu = midgrid(-2.0, 2.0, 256)
        packed = harmonic_comb_response(nu)
        expected = 0.5 * (1.0 - np.cos(np.pi * nu))
        assert packed.real == pytest.approx(expected)
        assert packed.imag == pytest.approx(0.5 * np.sin(np.pi * nu))

    def test_harmonic_broadening_damps_contrast(self):
        packed = harmonic_comb_response(np.array([0.0, 1.0]), gamma=0.1)
        q = math.exp(-0.1 * math.pi)
        assert packed.real == pytest.approx([0.5 * (1 - q), 0.5 * (1 + q)])

    def test_lorentzian_mean_and_peak(self):
        finesse = 10.0
        nu = midgrid(-1.0, 1.0, 4096)
        packed = lorentzian_comb_response(nu, 1.0 / finesse)
        assert packed.real.mean() == pytest.approx(math.pi / (2 * finesse), rel=1e-6)
        q = math.exp(-math.pi / finesse)
        peak = (math.pi / (2 * finesse)) * (1 + q) / (1 - q)
        assert packed.real.max() == pytest.approx(peak, rel=1e-4)
        assert packed.real.min() > 0.0

    def test_lorentzian_periodised_height_close_to_unity(self):
        value = lorentzian_comb_response(np.array([1.0]), 0.1)
        assert value.real[0] == pytest.approx(1.0, abs=0.01)


class TestConvolutionFallback:
    def test_callable_profile_needs_support(self):
        with pytest.raises(ValueError):
            lorentzian_convolution(lambda x: np.exp(-(x**2)), 0.0)

    def test_callable_profile_single_tooth(self):
        # One unit tooth of half-width 0.1 at the origin.
        def tooth(x):
            return (np.abs(np.asarray(x, dtype=float)) <= 0.1).astype(float)

        value = complex(lorentzian_convolution(tooth, np.array([0.0]), gamma=0.02, support=0.1)[0])
        expected = 2.0 * math.atan(0.1 / 0.02) / math.pi
        assert value.real == pytest.approx(expected, abs=1e-9)
        assert value.imag == pytest.approx(0.0, abs=1e-9)


class TestKramersKronig:
    def test_periodic_matches_series_dispersion(self):
        nu = midgrid(-1.0, 1.0, 4096)
        packed = chi_square_series(nu, 0.2, harmonics=500)
        dispersion = kramers_kronig(packed.real, nu, periodic=True)
        assert np.max(np.abs(dispersion - packed.imag)) < 1e-12

    def test_periodic_matches_harmonic_dispersion(self):
        nu = midgrid(-1.0, 1.0, 1024)
        packed = harmonic_comb_response(nu, gamma=0.05)
        dispersion = kramers_kronig(packed.real, nu, periodic=True)
        assert np.max(np.abs(dispersion - packed.imag)) < 1e-12

    def test_padded_matches_broadened_dispersion_in_interior(self):
        nu = midgrid(-25.0, 25.0, 8192)
        packed = epsilon_broadened(nu, 0.1, gamma=0.01, pair_count=9)
        dispersion = kramers_kronig(packed.real, nu, pad_factor=8)
        interior = np.abs(nu) < 15.0
        rms = math.sqrt(np.mean((dispersion - packed.imag)[interior] ** 2))
        assert rms < 1e-3

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            kramers_kronig(np.zeros(4), np.zeros(5))
