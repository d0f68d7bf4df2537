"""Acceptance gate: nine pinned criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test prints exactly one ``ACCEPTANCE n (...): PASS/FAIL``
line before asserting, so a red run still reports every criterion.
"""

import math
from dataclasses import replace

import numpy as np

from afcsim.combs import CombShape, CombSpec, MediumSpec, UnitScale
from afcsim.propagation import (
    FrequencyGrid,
    Probe,
    PulseSpec,
    TransferModel,
    build_transfer,
    comb_response,
    echo_window,
    gaussian_spectrum,
    propagate,
    spectrum_to_signal,
    transfer_exponent,
)
from afcsim.protocols import RunSpec, recall
from afcsim.reproduce import TARGETS
from afcsim.susceptibility import (
    chi_square_series,
    epsilon_broadened,
    epsilon_peak_center,
    epsilon_window_center,
)
from afcsim.sweeps import SweepAxis, SweepRequest, optimal_curve, sweep
from afcsim.train import (
    broadened_A_coefficients,
    closed_train,
    first_echo_intensity,
)
from oracles import coefficients_numeric, kramers_kronig

PULSE = PulseSpec(sigma=5.0)
GRID = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**15)


def _midgrid(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


def _verdict(number: int, title: str, checks: list[tuple[str, bool]]) -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = "" if not failed else " - failing: " + "; ".join(failed)
    print(f"ACCEPTANCE {number} ({title}): {status}{suffix}")
    assert not failed, f"criterion {number}: {suffix}"


def test_criterion_1_optimal_depth_sweeps():
    """Depth sweeps of unbroadened square combs find d* = 2F and the pinned recall."""
    fine = sweep(SweepRequest(axis=SweepAxis("d_p", 1.0, 10.0, 10), finesse=2.0))
    coarse = sweep(SweepRequest(axis=SweepAxis("d_p", 10.0, 30.0, 21), finesse=10.0))
    _verdict(
        1,
        "optimal depth sweeps",
        [
            ("F=2 optimum near 4", abs(fine.best_value - 4.0) <= 0.1),
            ("F=2 recall 0.219 +- 0.002", abs(fine.best_efficiency - 0.219) <= 0.002),
            ("F=10 optimum near 20", abs(coarse.best_value - 20.0) <= 0.1),
            ("F=10 recall 0.524 +- 0.002", abs(coarse.best_efficiency - 0.524) <= 0.002),
        ],
    )


def test_criterion_2_harmonic_poisson_train():
    """The raised-cosine comb emits the factorial train with e^-2 first recall."""
    harmonic = CombSpec(shape=CombShape.HARMONIC)
    train = closed_train(harmonic, MediumSpec(d_p=4.0), 8)
    k = np.arange(9)
    factorials = np.array([math.factorial(int(m)) for m in k], dtype=float)
    poisson_dev = float(np.abs(train.values - 1.0 / factorials).max())
    long_train = closed_train(harmonic, MediumSpec(d_p=4.0), 40)
    total = long_train.prompt_factor * long_train.values.sum()
    numeric = coefficients_numeric(harmonic, MediumSpec(d_p=4.0), 8)
    _verdict(
        2,
        "harmonic comb train",
        [
            (
                "first recall e^-2 +- 1e-4",
                abs(train.intensity(1) - math.exp(-2.0)) <= 1e-4,
            ),
            ("factorial amplitudes to 1e-12", poisson_dev <= 1e-12),
            ("amplitudes resum to unity", abs(total - 1.0) <= 1e-12),
            (
                "numeric projection agrees to 1e-12",
                float(np.abs(numeric.values - train.values).max()) <= 1e-12,
            ),
        ],
    )


def test_criterion_3_optimal_recall_curve():
    """Best single-pass recall approaches 0.54 by finesse 32."""
    curve = optimal_curve(np.arange(2.0, 33.0))
    last = curve[-1]
    _verdict(
        3,
        "optimal recall curve",
        [
            ("depth column is 2F", bool(np.all(curve[:, 1] == 2.0 * curve[:, 0]))),
            ("recall at F=32 is 0.54 +- 0.005", abs(last[2] - 0.54) <= 0.005),
            ("recall increases with finesse", bool(np.all(np.diff(curve[:, 2]) > 0.0))),
        ],
    )


def test_criterion_4_broadened_response_levels():
    """Lorentzian-broadened teeth keep pinned absorption levels and duty mean."""
    peak = epsilon_peak_center(0.1, gamma=0.01, pair_count=9)
    floor = epsilon_window_center(0.1, gamma=0.01, pair_count=9)
    duty_checks = []
    for gamma in (0.01, 0.1):
        coeffs = broadened_A_coefficients(0.2, gamma=gamma, pair_count=9)
        duty_checks.append(
            (f"mean response is duty to 1e-3 at gamma={gamma}", abs(coeffs.a0 - 0.2) <= 1e-3)
        )
    _verdict(
        4,
        "broadened response levels",
        [
            ("tooth-centre absorption 0.937 +- 0.001", abs(peak - 0.937) <= 1e-3),
            (
                "window transmission exp(-20 eps) = 0.97 +- 0.005",
                abs(math.exp(-20.0 * floor) - 0.97) <= 0.005,
            ),
            *duty_checks,
        ],
    )


def test_criterion_5_physical_units_storage():
    """A 2 MHz comb with 5 kHz linewidth stores at the pinned efficiencies."""
    scale = UnitScale(1e6)
    run = RunSpec(gamma=0.005, pair_count=40)
    checks = [
        ("tooth period is 2 MHz", scale.frequency_hz(2.0) == 2e6),
        ("linewidth is 5 kHz", scale.frequency_hz(run.gamma) == 5e3),
        ("echo delay is 0.5 us", scale.time_s(1.0) == 5e-7),
    ]
    for d_p, pin in ((3.0, 0.17), (10.0, 0.46)):
        probe = Probe((PULSE,), GRID, k_max=5)
        result = recall(replace(run, d_p=d_p), probe=probe)
        checks.append(
            (
                f"closed recall {pin} +- 0.005 at d_p={d_p:g}",
                abs(result.closed_efficiency - pin) <= 0.005,
            )
        )
        checks.append(
            (
                f"simulation within 1% at d_p={d_p:g}",
                abs(result.simulated_efficiency / result.closed_efficiency - 1.0) <= 0.01,
            )
        )
    _verdict(5, "physical units storage", checks)


def test_criterion_6_two_pass_recovery():
    """Recycling the prompt boosts recall to I1 (1 + C0)^2 at the pinned levels."""
    checks = []
    for finesse, d_p, pin in ((5.0, 10.0, 0.86), (10.0, 20.0, 0.95)):
        run = RunSpec(finesse=finesse, d_p=d_p, gamma=0.005, pair_count=40)
        probe = Probe((PULSE,), GRID, k_max=5)
        result = recall(run, passes=2, probe=probe)
        label = f"F={finesse:g} d_p={d_p:g}"
        checks.append(
            (
                f"closed efficiency {pin} +- 0.01 at {label}",
                abs(result.closed_efficiency - pin) <= 0.01,
            )
        )
        checks.append(
            (
                f"simulation within 1% at {label}",
                abs(result.simulated_efficiency / result.closed_efficiency - 1.0) <= 0.01,
            )
        )
    _verdict(6, "two-pass recovery", checks)


def test_criterion_7_multi_echo_trains():
    """Deep combs hand the train over to later echoes in the predicted order."""
    checks = []
    dominant = []
    for finesse, d_p, expected_dominant in (
        (2.0, 4.0, 1),
        (5.0, 10.0, 1),
        (5.0, 25.0, 2),
        (5.0, 42.0, 3),
    ):
        run = RunSpec(finesse=finesse, d_p=d_p, model="ideal", harmonics=None)
        result = recall(run, probe=Probe((PULSE,), GRID, k_max=3))
        closed = closed_train(run.comb(), MediumSpec(d_p), 3)
        worst = max(
            abs(result.train.intensity(k) / closed.intensity(k) - 1.0)
            for k in range(4)
        )
        checks.append(
            (f"train within 1% of closed form at ({finesse:g},{d_p:g})", worst <= 0.01)
        )
        dominant.append(
            1 + int(np.argmax([result.train.intensity(k) for k in (1, 2, 3)]))
        )
        checks.append(
            (
                f"dominant echo {expected_dominant} at ({finesse:g},{d_p:g})",
                dominant[-1] == expected_dominant,
            )
        )
    _verdict(7, "multi-echo trains", checks)


def test_criterion_8_physicality():
    """Passivity, causality, linearity and state preservation all hold."""
    checks = []
    # passivity of every exactly-evaluated transfer model
    nu = _midgrid(-3.0, 3.0, 4096)
    passive_cases = {
        "resummed square": (
            comb_response(
                CombSpec(shape=CombShape.SQUARE, half_width=0.2),
                nu,
                TransferModel.IDEAL,
                None,
            ),
            10.0,
        ),
        "broadened square": (
            comb_response(
                CombSpec(
                    shape=CombShape.SQUARE, half_width=0.2, gamma=0.005, pair_count=40
                ),
                nu,
            ),
            10.0,
        ),
        "harmonic": (comb_response(CombSpec(shape=CombShape.HARMONIC), nu), 4.0),
        "lorentzian": (
            comb_response(CombSpec(shape=CombShape.LORENTZIAN, half_width=0.2), nu),
            10.0,
        ),
    }
    for name, (packed, d_p) in passive_cases.items():
        gain = float(np.abs(transfer_exponent(packed, d_p)).max()) - 1.0
        checks.append((f"no gain in {name} transfer", gain <= 1e-9))
    # dispersion follows from absorption by causality: once on the
    # periodic series form, once on the aperiodic broadened form
    # one period at 4096 samples resolves all 500 series harmonics
    nu_series = _midgrid(-1.0, 1.0, 4096)
    series = chi_square_series(nu_series, 0.2, 500)
    circular = kramers_kronig(series.real, nu_series, periodic=True)
    rms_series = math.sqrt(float(np.mean((circular - series.imag) ** 2)))
    checks.append(("series dispersion from absorption to 1e-3 rms", rms_series <= 1e-3))
    nu_kk = _midgrid(-25.0, 25.0, 8192)
    packed = epsilon_broadened(nu_kk, 0.2, gamma=0.02, pair_count=9)
    dispersion = kramers_kronig(packed.real, nu_kk, pad_factor=8)
    inner = np.abs(nu_kk) < 15.0
    rms = math.sqrt(float(np.mean((dispersion[inner] - packed.imag[inner]) ** 2)))
    checks.append(("broadened dispersion from absorption to 1e-3 rms", rms <= 1e-3))
    # the two first-harmonic quadratures merge for a near-infinite comb
    coeffs = broadened_A_coefficients(0.2, gamma=0.01, pair_count=100000)
    checks.append(
        (
            "quadratures agree to 1e-6 for 1e5 tooth pairs",
            abs(coeffs.a1_full - coeffs.a1_absorption) <= 1e-6,
        )
    )
    # passivity, linearity and global-phase covariance of propagation,
    # on the echo window of eight echoes, which holds the input pulse
    grid = FrequencyGrid.for_pulse(PULSE, span_factor=6.0, samples=2**12)
    comb = CombSpec(shape=CombShape.SQUARE, half_width=0.2, gamma=0.005, pair_count=40)
    transfer = build_transfer(comb, MediumSpec(10.0), grid)
    spectrum = gaussian_spectrum(PULSE, grid)
    window = echo_window(8)
    base_signal = propagate(spectrum, transfer, 4, window)
    base = base_signal.values
    input_energy = spectrum_to_signal(spectrum, grid, 4, window).energy()
    checks.append(
        (
            "output energy bounded by input energy",
            base_signal.energy() <= input_energy * (1.0 + 1e-9),
        )
    )
    alpha = 0.3 - 0.4j
    scaled = propagate(alpha * spectrum, transfer, 4, window).values
    rotated = propagate(np.exp(0.7j) * spectrum, transfer, 4, window).values
    checks.append(
        ("propagation is linear", float(np.abs(scaled - alpha * base).max()) <= 1e-13)
    )
    checks.append(
        (
            "global phase passes through",
            float(np.abs(rotated - np.exp(0.7j) * base).max()) <= 1e-13,
        )
    )
    # a two-bin state simulated at one and two passes keeps its input
    # ratio and phase, as the closed form's one scalar factor does: the
    # timebin-pair target's checks
    timebin, _ = TARGETS["timebin-pair"][1]()
    for name, label in (("ratio", "amplitude ratio"), ("phase", "relative phase")):
        found = [c for c in timebin if c.label.endswith(f"delayed {label}")]
        ok = len(found) == 2 and all(c.ok for c in found)
        checks.append((f"time-bin {name} preserved", ok))
    _verdict(8, "physicality", checks)


def test_criterion_9_edge_regimes():
    """Weak combs and huge combs stay on their pinned asymptotes."""
    weak = first_echo_intensity(
        CombSpec(shape=CombShape.SQUARE, half_width=0.1), MediumSpec(2.0)
    )
    floor = epsilon_window_center(0.1, gamma=0.01, pair_count=100000)
    _verdict(
        9,
        "edge regimes",
        [
            ("weak-depth recall 0.0317 +- 0.0005", abs(weak - 0.0317) <= 5e-4),
            ("window floor 1.57e-3 +- 2e-5", abs(floor - 1.57e-3) <= 2e-5),
        ],
    )
