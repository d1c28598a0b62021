"""Separation picture: N-quanta absorption followed by tunneling at a lifted energy.

Effective exponents are meaningful to logarithmic accuracy only; the
logarithms' arguments are fixed but their order-one prefactors are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import lambertw

from .errors import DomainError, RegimeError
from .model import (
    GaussianPulse,
    LorentzPulse,
    TriangularBarrier,
    static_wkb_exponent,
)

__all__ = ["QuantaPlan", "effective_action", "optimize_quanta"]


@dataclass(frozen=True)
class QuantaPlan:
    omega: float
    N: float                # real-valued relaxation of the quanta count
    N_rounded: int
    A_eff: float
    deltaE: float           # omega * N


def _absorption_log(pulse: LorentzPulse, omega: float) -> float:
    """ln(field_static_scale / spectral amplitude) argument for one quantum.

    For the Lorentzian family: ln(E0/(E*(w*theta)^(n-2)*exp(-w*theta))),
    the E0 scale being divided out by the caller.
    """
    wt = omega * pulse.width
    return -math.log(pulse.amplitude) - (pulse.exponent - 2) * math.log(wt) + wt


def effective_action(
    omega: float, N: float, E: float, barrier: TriangularBarrier, pulse
) -> float:
    """Exponent of (absorption of N quanta of frequency omega) x (tunneling).

    Lorentzian pulse over a decaying triangular barrier:
        A = A0(E + omega*N) + 2N*ln(E0 / (amp*(w*theta)^(n-2)*exp(-w*theta)))
    Gaussian pulse on a stable well (field_static = 0): climb to the top,
    N = (V-E)/omega quanta, spectral amplitude amp*exp(-omega^2/(4 rate^2)).
    """
    if omega <= 0 or N < 0:
        raise DomainError("need omega > 0 and N >= 0")
    V, m = barrier.V, barrier.m
    if isinstance(pulse, GaussianPulse):
        # stable-well variant: absorption only, no under-barrier leg
        if barrier.field_static != 0:
            raise RegimeError("a Gaussian pulse needs a stable well")
        return 2.0 * N * (
            math.log(omega * math.sqrt(m * (V - E)) / pulse.amplitude)
            + omega**2 / (4.0 * pulse.rate**2)
        )
    if not isinstance(pulse, LorentzPulse):
        raise DomainError("effective_action needs a Lorentzian or Gaussian pulse")
    lifted = E + omega * N
    if lifted >= V:
        raise DomainError(
            f"lifted energy {lifted} reaches the barrier top V={V}"
        )
    e0 = barrier.field_static
    if e0 <= 0:
        raise DomainError("the tunneling leg needs field_static > 0")
    log_arg = math.log(e0) + _absorption_log(pulse, omega)
    return static_wkb_exponent(barrier, lifted) + 2.0 * N * log_arg


def _quanta_at(omega: float, E: float, barrier: TriangularBarrier, pulse) -> float:
    """Quanta count minimizing the exponent at fixed omega.

    Gaussian: pinned to (V-E)/omega.  Lorentzian: with u = V - E - omega*N and
    ell = ln E0 + _absorption_log, A(N) = (4/3)sqrt(2m)/E0 * u^(3/2) + 2N*ell
    is convex in N and stationary at sqrt(u) = ell*E0/(omega*sqrt(2m)); for
    ell <= 0 it falls all the way to N_max, just short of the barrier top.
    """
    VmE, e0 = barrier.V - E, barrier.field_static
    if isinstance(pulse, GaussianPulse):
        return VmE / omega
    N_max = VmE / omega * (1.0 - 1e-9)
    ell = math.log(e0) + _absorption_log(pulse, omega)
    if ell <= 0:
        return N_max
    u = (ell * e0 / (omega * math.sqrt(2.0 * barrier.m))) ** 2
    return min(max((VmE - u) / omega, 0.0), N_max)


def optimize_quanta(E: float, barrier: TriangularBarrier, pulse) -> QuantaPlan:
    """Minimize the effective exponent over (omega, N) in closed form.

    Gaussian stable well: N is pinned to (V-E)/omega and the exponent is
    stationary where omega^2 = 4 rate^2 (ln(omega*k) - 1),
    k = sqrt(m(V-E))/amp, solved on the W_{-1} branch of Lambert's W.
    Lorentzian over a barrier: N*(omega) is elementary (`_quanta_at`) and the
    envelope condition ell = omega*ell' puts the optimum at
    omega*theta = e*(E0/amp)^(1/(n-2)) for n >= 3.
    Either way omega stays in a fixed range, and the smallest exponent among
    the clipped stationary frequency and the two range ends is returned
    (docs/decisions.md, "Quanta optimum in closed form").
    """
    V, m = barrier.V, barrier.m
    if not (0 < E < V):
        raise DomainError(f"need 0 < E < V={V}")
    VmE = V - E
    w_stat = None
    if isinstance(pulse, GaussianPulse):
        if barrier.field_static != 0:
            raise RegimeError("a Gaussian pulse needs a stable well")
        L = math.log(pulse.rate * math.sqrt(m * VmE) / pulse.amplitude)
        if L <= 0:
            raise DomainError("Gaussian optimum needs amp << rate*sqrt(m(V-E))")
        w_guess = 2.0 * pulse.rate * math.sqrt(L)
        lo, hi = 0.05 * w_guess, 20.0 * w_guess
        # omega^2 = -2 rate^2 W(z), z = -e^2/(2 (rate*k)^2) = -exp(2 - 2L)/2
        z = -0.5 * math.exp(2.0 - 2.0 * L)
        if z >= -1.0 / math.e:
            w_stat = pulse.rate * math.sqrt(-2.0 * lambertw(z, -1).real)
    elif isinstance(pulse, LorentzPulse):
        e0, theta, n = barrier.field_static, pulse.width, pulse.exponent
        if e0 <= 0:
            raise DomainError("the tunneling leg needs field_static > 0")
        lo, hi = 1e-2 / theta, 50.0 * VmE
        if n > 2:
            w_stat = math.e * (e0 / pulse.amplitude) ** (1.0 / (n - 2)) / theta
    else:
        raise DomainError("optimize_quanta needs a Lorentzian or Gaussian pulse")
    omegas = [lo, hi] if w_stat is None else [lo, hi, min(max(w_stat, lo), hi)]
    plans = [(w, _quanta_at(w, E, barrier, pulse)) for w in omegas]
    A, w, N = min(
        (effective_action(w, N, E, barrier, pulse), w, N) for w, N in plans
    )
    return QuantaPlan(omega=w, N=N, N_rounded=round(N), A_eff=A, deltaE=w * N)
