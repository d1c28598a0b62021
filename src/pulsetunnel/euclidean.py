"""Euclidean (imaginary-time) trajectory computation for the triangular barrier.

Yields the maximum tunneling exponent A, the under-barrier traversal time tau0,
the outgoing energy shift deltaE and the threshold energy E_T at which the
pulse singularity matches the static traversal time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .contour import integrate_paths
from .errors import ConvergenceError, DomainError, PulseTunnelError
from .model import (
    GaussianPulse,
    LorentzPulse,
    TriangularBarrier,
    SechBarrier,
    ZeroPulse,
    _lorentz_J,
    static_wkb_exponent,
)
from .roots import _find_root

__all__ = [
    "EuclideanResult",
    "solve_tau0",
    "euclidean_action",
    "euclidean_actions",
    "threshold_energy",
    "threshold_form",
    "adapt_pulse_width",
]


@dataclass(frozen=True)
class EuclideanResult:
    A: float
    A0: float
    tau0: float
    deltaE: float
    regime: str
    E_T: float | None
    exit_point: float


def solve_tau0(E: float, barrier: TriangularBarrier, pulse) -> float:
    """Traversal time: root of field_static*tau + int_0^tau pulse(i u) du = p0(E).

    For a Lorentzian pulse the imaginary-axis integral diverges at the pulse
    width, pinning the root below it whenever the static traversal time
    exceeds the width (the below-threshold regime).  The same root is where
    the HJ exit branch's momentum vanishes at t = 0, Im p = 0, so
    hj.exit_exponent takes its exit point from it.
    """
    if not (0 < E < barrier.V):
        raise DomainError(f"need 0 < E < V={barrier.V}, got E={E}")
    p0 = barrier.p0(E)
    e0 = barrier.field_static
    if e0 <= 0:
        raise DomainError("solve_tau0 needs a decaying barrier (field_static > 0)")
    tau00 = p0 / e0
    if not math.isfinite(tau00):
        raise DomainError(f"the static traversal time {tau00} leaves "
                          "double-precision range")
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        return tau00

    # G(tau) >= amp*tau, so g >= 0 at p0/(e0 + amp): start there, or nearer
    # the root (docs/decisions.md, "One root finder")
    amp, lorentz = pulse.amplitude, isinstance(pulse, LorentzPulse)
    hi, x = tau00, p0 / (e0 + amp)
    if lorentz:
        # next to the width G -> amp*theta/(2(n-1)) * q^(1-n), q = 1 -
        # tau^2/theta^2: q where that meets p0 - e0*theta, floored at p0/n
        theta, n = pulse.width, pulse.exponent
        hi = min(tau00, theta)
        q = (amp * theta / (2.0 * (n - 1) * max(p0 - e0 * theta, p0 / n))
             ) ** (1.0 / (n - 1))
        if q < 1.0:
            x = min(x, theta * math.sqrt(1.0 - q), math.nextafter(theta, 0.0))
    else:   # G >= amp*(exp(r^2 tau^2) - 1)/(2 r^2 tau), so g >= 0 here too
        r = pulse.rate
        x = min(x, math.sqrt(math.log1p(2.0 * r * r * tau00 * p0 / amp)) / r)

    def g(tau):         # and g' = e0 + pulse(i*tau)
        rise = ((1.0 - (tau / theta) ** 2) ** -n if lorentz
                else math.exp((r * tau) ** 2))
        return e0 * tau + pulse.integral_imag_axis(tau) - p0, e0 + amp * rise

    return _find_root(g, 0.0, hi, x, 1e-15, "tau0")


def _regime_tag(E: float, barrier: TriangularBarrier, pulse) -> tuple[str, float | None]:
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        return "static", None
    if not isinstance(pulse, LorentzPulse):
        return "no-threshold", None
    E_T = threshold_energy(barrier, pulse)
    tau00 = barrier.tau00_at(E)
    theta = pulse.width
    if abs(tau00 - theta) < 0.05 * theta:
        return "near-threshold", E_T
    return ("above-threshold" if tau00 < theta else "below-threshold"), E_T


def _imag_axis_moments(pulse, tau: float) -> tuple[float, float]:
    """(int_0^tau u*g du, int_0^tau u^2*g du) for g(u) = pulse(i*u), exact."""
    m1 = -complex(pulse.first_moment_antiderivative(1j * tau)).real
    if isinstance(pulse, LorentzPulse):
        # x^2 (1 - x^2)^-n = (1 - x^2)^-n - (1 - x^2)^(1-n)
        x, n = tau / pulse.width, pulse.exponent
        m2 = (pulse.amplitude * pulse.width**3
              * float(_lorentz_J(x, n) - _lorentz_J(x, n - 1)))
    elif isinstance(pulse, GaussianPulse):
        # u^2 exp(r^2 u^2) = (d/du[u exp(r^2 u^2)] - exp(r^2 u^2)) / (2 r^2)
        r2 = pulse.rate**2
        m2 = ((pulse.amplitude * tau * math.exp(r2 * tau * tau)
               - pulse.integral_imag_axis(tau)) / (2.0 * r2))
    else:
        m2 = 0.0
    return m1, m2


def euclidean_action(E: float, barrier: TriangularBarrier, pulse) -> EuclideanResult:
    """Exponent A and outgoing energy shift deltaE from the forced trajectory.

    With the pulse off this reduces to the static WKB exponent and deltaE = 0.
    In the below-threshold regime the small-amplitude limit is non-uniform:
    the result is reported at the given finite amplitude, never at zero.
    """
    res = euclidean_actions([E], barrier, pulse)[0]
    if isinstance(res, PulseTunnelError):
        raise res
    return res


def euclidean_actions(energies, barrier: TriangularBarrier,
                      pulse) -> list[EuclideanResult | PulseTunnelError]:
    """euclidean_action at each energy, with every int G^2 in one engine call.

    Slot i holds the EuclideanResult of energies[i], or the PulseTunnelError
    that energy raised.  The engine gives each path the panels a call of its
    own would give, so every result is the one-energy value to the bit.  A
    path whose integrand is not finite gets the engine's ConvergenceError in
    its slot, and the call reruns without it.
    """
    slots = []
    for E in energies:
        try:
            slots.append(solve_tau0(E, barrier, pulse))
        except PulseTunnelError as exc:
            slots.append(exc)
    solved = [i for i, s in enumerate(slots) if not isinstance(s, PulseTunnelError)]
    G = pulse.integral_imag_axis

    def G2(z, path_id):
        return G(z.real) ** 2

    I2 = ()
    while solved:
        try:
            I2 = integrate_paths(G2, [[0.0, slots[i]] for i in solved],
                                 epsabs=1e-13, epsrel=1e-11)[0].real
            break
        except ConvergenceError as exc:     # the engine names the path
            slots[solved.pop(exc.diagnostics["path"])] = exc
    for i, I2_i in zip(solved, I2):
        slots[i] = _closed_forms(energies[i], slots[i], float(I2_i), barrier, pulse)
    return slots


def _closed_forms(E, tau0, I2, barrier, pulse) -> EuclideanResult:
    """EuclideanResult at the root tau0, given I2 = int_0^tau0 G^2 du."""
    e0, m = barrier.field_static, barrier.m
    VmE = barrier.V - E

    # int G and int u*G by parts, with G' = g, g(u) = pulse(i*u)
    G0 = pulse.integral_imag_axis(tau0)
    m1, m2 = _imag_axis_moments(pulse, tau0)
    IG = tau0 * G0 - m1
    I1 = 0.5 * (tau0 * tau0 * G0 - m2)

    A = (
        2.0 * VmE * tau0
        - e0**2 * tau0**3 / (3.0 * m)
        - 2.0 * e0 * I1 / m
        - I2 / m
    )
    x_exit = e0 * tau0**2 / (2.0 * m) + IG / m
    field_at_exit = e0 + complex(pulse(0.0)).real
    deltaE = VmE - field_at_exit * x_exit
    regime, E_T = _regime_tag(E, barrier, pulse)
    A0 = static_wkb_exponent(barrier, E)
    return EuclideanResult(
        A=A, A0=A0, tau0=tau0, deltaE=deltaE, regime=regime, E_T=E_T,
        exit_point=x_exit,
    )


def threshold_energy(barrier: TriangularBarrier, pulse) -> float:
    """E_T = V - width^2*field_static^2/(2m): the energy with tau00(E) = width,
    clamped to [1e-12, 1 - 1e-12]*V."""
    if not isinstance(pulse, LorentzPulse):
        raise DomainError("threshold energy is defined for Lorentzian pulses")
    raw = barrier.V - pulse.width**2 * barrier.field_static**2 / (2.0 * barrier.m)
    lo = 1e-12 * barrier.V
    hi = barrier.V * (1.0 - 1e-12)
    return min(max(raw, lo), hi)


def threshold_form(E: float, E_T: float, V: float, theta: float) -> float:
    """A51 = A0(E_T) + 2(E_T - E)*theta, with A0(E_T) = (4/3)(V - E_T)*theta
    because tau00(E_T) = theta: the exponent of a pulse matched at E_T."""
    return (4.0 / 3.0) * (V - E_T) * theta + 2.0 * (E_T - E) * theta


def adapt_pulse_width(barrier, E_target: float) -> float:
    """Pulse width matching the trajectory singularity of the target energy."""
    if isinstance(barrier, TriangularBarrier):
        if not (0 < E_target < barrier.V):
            raise DomainError(f"need 0 < E_target < V={barrier.V}")
        return barrier.tau00_at(E_target)
    if isinstance(barrier, SechBarrier):
        return barrier.tau_s(E_target)
    raise TypeError(f"unsupported barrier type {type(barrier).__name__}")

