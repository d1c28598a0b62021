"""The package's public names, pinned so that a new one is a visible diff."""

import pulsetunnel


def test_public_names():
    assert sorted(pulsetunnel.__all__) == [
        "ConvergenceError", "DomainError", "EuclideanResult", "GaussianPulse",
        "LorentzPulse", "PulseTunnelError", "QuantaPlan", "RateSeries",
        "RegimeError", "SaddleState", "SechBarrier", "SingularityError",
        "TrajectoryHandle", "TriangularBarrier", "ZeroPulse", "action",
        "adapt_pulse_width", "amp_lower_bound", "decay_rate_series",
        "delta_action", "effective_action", "euclidean_action",
        "euclidean_actions", "exit_exponent", "exit_exponents",
        "minimize_delta_action",
        "optimize_quanta", "pole_form", "rate_peak_time", "sigma1", "sigma2",
        "singularity_time", "solve_t0", "solve_tau0", "static_wkb_exponent",
        "threshold_energy", "threshold_form", "unperturbed_trajectory",
    ]
    # every listed name is importable from the package
    assert all(hasattr(pulsetunnel, name) for name in pulsetunnel.__all__)
