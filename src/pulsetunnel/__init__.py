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
    pulse_fourier_envelope,
    static_wkb_exponent,
)
from .euclidean import (
    EuclideanResult,
    adapt_pulse_width,
    euclidean_action,
    solve_tau0,
    threshold_energy,
    threshold_form,
)
from .hj import (
    BranchReport,
    RateSeries,
    SaddleState,
    action,
    branch_report,
    decay_rate,
    decay_rate_series,
    rate_peak_time,
    sigma1,
    sigma2,
    solve_t0,
    validity_report,
)
from .quanta import QuantaPlan, effective_action, optimize_quanta
from .trajectory import (
    TrajectoryHandle,
    delta_action,
    max_flux_exponent,
    minimize_delta_action,
    pole_form,
    singularity_time,
    unperturbed_trajectory,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
