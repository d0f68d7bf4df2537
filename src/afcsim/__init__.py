"""Pulse storage and recall in periodic absorption combs.

A comb of narrow absorption teeth written into a broad line stores a
weak pulse and re-emits it as a train of echoes spaced by the inverse
tooth spacing.  The package provides the complex linear response of
square, Lorentzian and raised-cosine combs (ideal and broadened),
closed-form echo-train coefficients, a spectral propagation engine to
cross-check them, and models of the interference and time-bin storage
protocols built on top.
"""

from .combs import (
    ECHO_DELAY,
    HARMONIC_FINESSE,
    CombShape,
    CombSpec,
    MediumSpec,
    UnitScale,
    odd_peak_centers,
    population_difference,
)
from .propagation import (
    FrequencyGrid,
    Probe,
    PulseSpec,
    PulseTrain,
    TimeSignal,
    TransferFunction,
    TransferModel,
    build_transfer,
    comb_response,
    echo_window,
    extract_train,
    gaussian_spectrum,
    peak_in_window,
    propagate,
    signal_to_spectrum,
    spectrum_to_signal,
)
from .protocols import (
    ProtocolResult,
    RunSpec,
    TimeBinQubit,
    recall,
)
from .susceptibility import (
    chi_square_exact,
    chi_square_series,
    epsilon_broadened,
    epsilon_peak_center,
    epsilon_window_center,
    harmonic_comb_response,
    lorentzian_comb_response,
    square_harmonic_weights,
)
from .sweeps import (
    SweepAxis,
    SweepKind,
    SweepRequest,
    SweepResult,
    SweepRow,
    golden_section_max,
    optimal_curve,
    sweep,
)
from .train import (
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

__version__ = "0.1.0"

__all__ = [
    "ECHO_DELAY",
    "HARMONIC_FINESSE",
    "BroadenedCoefficients",
    "CombShape",
    "CombSpec",
    "FrequencyGrid",
    "MediumSpec",
    "Probe",
    "ProtocolResult",
    "PulseSpec",
    "PulseTrain",
    "RunSpec",
    "SweepAxis",
    "SweepKind",
    "SweepRequest",
    "SweepResult",
    "SweepRow",
    "TimeBinQubit",
    "TimeSignal",
    "TrainCoefficients",
    "TransferFunction",
    "TransferModel",
    "UnitScale",
    "broadened_A_coefficients",
    "build_transfer",
    "chi_square_exact",
    "chi_square_series",
    "closed_train",
    "comb_response",
    "epsilon_broadened",
    "epsilon_peak_center",
    "epsilon_window_center",
    "echo_window",
    "extract_train",
    "first_echo_amplitude",
    "first_echo_intensity",
    "gaussian_spectrum",
    "golden_section_max",
    "harmonic_comb_response",
    "ideal_limit_intensity",
    "lorentzian_comb_response",
    "odd_peak_centers",
    "optimal_curve",
    "optimal_depth",
    "peak_in_window",
    "population_difference",
    "prompt_attenuation",
    "propagate",
    "recall",
    "signal_to_spectrum",
    "spectrum_to_signal",
    "sweep",
    "square_harmonic_weights",
]
