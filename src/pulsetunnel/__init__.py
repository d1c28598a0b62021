"""Semiclassical toolkit for 1D tunneling driven by slow electromagnetic pulses.

Three semiclassical routes to the tunneling exponent (direct Hamilton-Jacobi,
imaginary-time trajectories, quanta separation) plus a split-operator
Schrodinger oracle, for triangular and sech^2 barriers under soft pulses.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    PulseTunnelError,
    RegimeError,
    SingularityError,
)
from .model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)
from .euclidean import (
    EuclideanResult,
    adapt_pulse_width,
    euclidean_action,
    euclidean_actions,
    solve_tau0,
    threshold_energy,
    threshold_form,
)
from .hj import (
    RateSeries,
    SaddleState,
    action,
    amp_lower_bound,
    decay_rate_series,
    exit_exponent,
    exit_exponents,
    rate_peak_time,
    sigma1,
    sigma2,
    solve_t0,
)
from .quanta import QuantaPlan, effective_action, optimize_quanta
from .trajectory import (
    TrajectoryHandle,
    delta_action,
    minimize_delta_action,
    pole_form,
    singularity_time,
    unperturbed_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DomainError", "PulseTunnelError", "RegimeError",
    "SingularityError",
    "GaussianPulse", "LorentzPulse", "SechBarrier", "TriangularBarrier",
    "ZeroPulse", "static_wkb_exponent",
    "EuclideanResult", "adapt_pulse_width", "euclidean_action",
    "euclidean_actions", "solve_tau0", "threshold_energy", "threshold_form",
    "RateSeries", "SaddleState", "action", "amp_lower_bound",
    "decay_rate_series", "exit_exponent", "exit_exponents", "rate_peak_time",
    "sigma1", "sigma2", "solve_t0",
    "QuantaPlan", "effective_action", "optimize_quanta",
    "TrajectoryHandle", "delta_action", "minimize_delta_action", "pole_form",
    "singularity_time", "unperturbed_trajectory",
]
