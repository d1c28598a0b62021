"""Reference optimum for the quanta tests: the brute-force scan that
`pulsetunnel.quanta.optimize_quanta` replaced by its closed form.

Gaussian stable well: bounded Brent over omega on [0.05, 20]*w_guess.
Lorentzian: a log-spaced scan of `omega_points` frequencies on
[1e-2/theta, 50(V-E)], a bounded Brent search over N at each, then Brent
nested inside Brent around the best scan point, confined to the scan range.
"""

import math

import numpy as np
from scipy import optimize

from pulsetunnel.errors import DomainError
from pulsetunnel.model import GaussianPulse, LorentzPulse, TriangularBarrier
from pulsetunnel.quanta import QuantaPlan, effective_action


def _gaussian_curve(omega: float, E: float, barrier: TriangularBarrier,
                    pulse: GaussianPulse) -> float:
    VmE = barrier.V - E
    return effective_action(omega, VmE / omega, E, barrier, pulse)


def optimize_quanta(
    E: float,
    barrier: TriangularBarrier,
    pulse,
    *,
    omega_points: int = 400,
) -> QuantaPlan:
    """Minimize the effective exponent over (omega, N).

    Gaussian stable well: N is pinned to (V-E)/omega, a 1D minimization.
    Lorentzian over a barrier: log-spaced omega scan with an inner bounded
    N-minimization; the formal minimum runs off to large omega, so the scan
    documents the plateau rather than chasing it.
    """
    V, m = barrier.V, barrier.m
    if not (0 < E < V):
        raise DomainError(f"need 0 < E < V={V}")
    if isinstance(pulse, GaussianPulse):
        L = math.log(pulse.rate * math.sqrt(m * (V - E)) / pulse.amplitude)
        if L <= 0:
            raise DomainError("Gaussian optimum needs amp << rate*sqrt(m(V-E))")
        w_guess = 2.0 * pulse.rate * math.sqrt(L)
        res = optimize.minimize_scalar(
            lambda w: _gaussian_curve(w, E, barrier, pulse),
            bounds=(0.05 * w_guess, 20.0 * w_guess),
            method="bounded",
            options={"xatol": 1e-12 * w_guess},
        )
        w_opt = float(res.x)
        N_opt = (V - E) / w_opt
        return QuantaPlan(omega=w_opt, N=N_opt, A_eff=float(res.fun))

    if not isinstance(pulse, LorentzPulse):
        raise DomainError("optimize_quanta needs a Lorentzian or Gaussian pulse")
    theta = pulse.width
    omegas = np.geomspace(1e-2 / theta, 50.0 * (V - E), omega_points)
    best = None
    for w in omegas:
        N_max = (V - E) / w * (1.0 - 1e-9)
        res = optimize.minimize_scalar(
            lambda N: effective_action(w, N, E, barrier, pulse),
            bounds=(0.0, N_max),
            method="bounded",
            options={"xatol": 1e-10 * max(N_max, 1.0)},
        )
        if best is None or res.fun < best[2]:
            best = (w, float(res.x), float(res.fun))
    w_opt, N_opt, A_opt = best
    # local refinement in omega around the best scan point
    res = optimize.minimize_scalar(
        lambda w: optimize.minimize_scalar(
            lambda N: effective_action(w, N, E, barrier, pulse),
            bounds=(0.0, (V - E) / w * (1.0 - 1e-9)),
            method="bounded",
        ).fun,
        bounds=(max(w_opt / 2.0, omegas[0]), min(w_opt * 2.0, omegas[-1])),
        method="bounded",
    )
    if res.fun < A_opt:
        w_opt = float(res.x)
        inner = optimize.minimize_scalar(
            lambda N: effective_action(w_opt, N, E, barrier, pulse),
            bounds=(0.0, (V - E) / w_opt * (1.0 - 1e-9)),
            method="bounded",
        )
        N_opt, A_opt = float(inner.x), float(inner.fun)
    return QuantaPlan(omega=w_opt, N=N_opt, A_eff=A_opt)
