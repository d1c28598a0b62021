"""Euclidean (imaginary-time) trajectory computation for the triangular barrier.

Yields the maximum tunneling exponent A, the under-barrier traversal time tau0,
the outgoing energy shift deltaE and the threshold energy E_T at which the
pulse singularity matches the static traversal time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import integrate_paths
from .errors import ConvergenceError, DomainError, PulseTunnelError, _one
from .model import (
    GaussianPulse,
    LorentzPulse,
    TriangularBarrier,
    SechBarrier,
    ZeroPulse,
    _lorentz_J,
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
    hj.exit_exponent takes its exit point from it.  The grid of one of
    _solve_tau0s.
    """
    return _one(_solve_tau0s([E], barrier, pulse))


def _solve_tau0s(energies, barrier: TriangularBarrier, pulse) -> list:
    """solve_tau0 at each energy, all roots in lockstep (roots._find_root):
    slot i holds the root at energies[i] or the PulseTunnelError it raised."""
    e0, amp = barrier.field_static, pulse.amplitude
    lorentz = isinstance(pulse, LorentzPulse)
    slots, live, brackets = [], [], []
    for E in energies:
        try:
            if not (0 < E < barrier.V):
                raise DomainError(f"need 0 < E < V={barrier.V}, got E={E}")
            p0 = barrier.p0(E)
            if e0 <= 0:
                raise DomainError("solve_tau0 needs a decaying barrier "
                                  "(field_static > 0)")
            tau00 = p0 / e0
            if not math.isfinite(tau00):
                raise DomainError(f"the static traversal time {tau00} leaves "
                                  "double-precision range")
        except DomainError as exc:
            slots.append(exc)
            continue
        slots.append(tau00)
        if isinstance(pulse, ZeroPulse) or amp == 0.0:
            continue
        # G(tau) >= amp*tau, so g >= 0 at p0/(e0 + amp): start there, or
        # nearer the root (docs/decisions.md, "One root finder")
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
        live.append(len(slots) - 1)
        brackets.append((p0, hi, x, 1e-15 * hi))
    if not live:
        return slots
    p0, hi, x, xtol = zip(*brackets)
    p0 = np.array(p0)

    def g(tau, k):      # and g' = e0 + pulse(i*tau), at the slots live[k]
        # a rise that overflows is beyond the root, as its OverflowError was
        # in Python floats, where an inf elsewhere is silent too
        tau = np.array(tau)
        with np.errstate(over="ignore", divide="ignore"):
            rise = ((1.0 - (tau / theta) ** 2) ** -n if lorentz
                    else np.exp((r * tau) ** 2))
            beyond = rise == math.inf
            f = e0 * tau + pulse.integral_imag_axis(np.where(beyond, 0.0, tau)) - p0[k]
            df = e0 + amp * rise
        f[beyond], df[beyond] = math.inf, math.nan
        return f.tolist(), df.tolist()

    for i, root in zip(live, _find_root(g, [0.0] * len(live), hi, x, xtol, "tau0")):
        slots[i] = root
    return slots


def _imag_axis_moments(pulse, tau):
    """(int_0^tau u*g du, int_0^tau u^2*g du) for g(u) = pulse(i*u), exact,
    at each tau of an array; an inf or a nan is silent, as in Python floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = -pulse.first_moment_antiderivative(1j * tau).real
        if isinstance(pulse, LorentzPulse):
            # x^2 (1 - x^2)^-n = (1 - x^2)^-n - (1 - x^2)^(1-n)
            x, n = tau / pulse.width, pulse.exponent
            m2 = (pulse.amplitude * pulse.width**3
                  * (_lorentz_J(x, n) - _lorentz_J(x, n - 1)))
        elif isinstance(pulse, GaussianPulse):
            # u^2 exp(r^2 u^2) = (d/du[u exp(r^2 u^2)] - exp(r^2 u^2)) / (2 r^2)
            r2 = pulse.rate**2
            m2 = ((pulse.amplitude * tau * np.exp(r2 * tau * tau)
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
    return _one(euclidean_actions([E], barrier, pulse))


def euclidean_actions(energies, barrier: TriangularBarrier,
                      pulse) -> list[EuclideanResult | PulseTunnelError]:
    """euclidean_action at each energy: the tau0 in lockstep, every int G^2
    in one engine call, and the closed forms on arrays.  The int G^2 panels
    are presplit toward a Lorentzian's poles u = +/- width (integrate_paths,
    near).

    Slot i holds the EuclideanResult of energies[i], or the PulseTunnelError
    that energy raised.  The engine gives each path the panels a call of its
    own would give, so every result is the one-energy value to the bit, and
    a path whose integral gives up leaves its ConvergenceError in its own
    slot.
    """
    slots = _solve_tau0s(energies, barrier, pulse)
    solved = [i for i, s in enumerate(slots) if not isinstance(s, PulseTunnelError)]
    G = pulse.integral_imag_axis

    def G2(z, path_id):
        with np.errstate(over="ignore"):    # an inf gives the path up
            return G(z.real) ** 2

    # G(u) = int_0^u pulse(i*v) dv is singular where pulse(i*u) is
    near = [(pulse.width, -pulse.width)
            if isinstance(pulse, LorentzPulse) else ()] * len(solved)
    for i, I2 in zip(solved, integrate_paths(G2, [[0.0, slots[i]] for i in solved],
                                             epsabs=1e-13, epsrel=1e-11,
                                             near=near)[0]):
        slots[i] = I2 if isinstance(I2, ConvergenceError) else (slots[i], I2.real)
    solved = [i for i, s in enumerate(slots) if isinstance(s, tuple)]
    if solved:
        tau0, I2 = (np.array(v) for v in zip(*(slots[i] for i in solved)))
        E = np.array([energies[i] for i in solved], dtype=float)
        for i, res in zip(solved, _closed_forms(E, tau0, I2, barrier, pulse)):
            slots[i] = res
    return slots


def _closed_forms(E, tau0, I2, barrier, pulse) -> list[EuclideanResult]:
    """EuclideanResults at the roots tau0 of the energies E, given
    I2 = int_0^tau0 G^2 du, all three arrays."""
    e0, m = barrier.field_static, barrier.m
    VmE = barrier.V - E

    # int G and int u*G by parts, with G' = g, g(u) = pulse(i*u)
    G0 = pulse.integral_imag_axis(tau0)
    m1, m2 = _imag_axis_moments(pulse, tau0)
    with np.errstate(over="raise"):     # as a power of Python floats did
        tau0_3 = tau0**3
    with np.errstate(over="ignore", invalid="ignore"):     # as in Python floats
        IG = tau0 * G0 - m1
        I1 = 0.5 * (tau0 * tau0 * G0 - m2)
        A = (
            2.0 * VmE * tau0
            - e0**2 * tau0_3 / (3.0 * m)
            - 2.0 * e0 * I1 / m
            - I2 / m
        )
        x_exit = e0 * tau0**2 / (2.0 * m) + IG / m
        field_at_exit = e0 + complex(pulse(0.0)).real
        deltaE = VmE - field_at_exit * x_exit
        tau00 = np.sqrt(2.0 * m * VmE) / e0     # A0 is static_wkb_exponent
        A0 = (4.0 / 3.0) * VmE * tau00
    E_T = None
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        regimes = ["static"] * len(E)
    elif not isinstance(pulse, LorentzPulse):
        regimes = ["no-threshold"] * len(E)
    else:
        E_T, theta = threshold_energy(barrier, pulse), pulse.width
        regimes = ["near-threshold" if abs(t - theta) < 0.05 * theta
                   else "above-threshold" if t < theta else "below-threshold"
                   for t in tau00.tolist()]
    return [EuclideanResult(A=a, A0=a0, tau0=t, deltaE=d, regime=reg, E_T=E_T,
                            exit_point=x)
            for a, a0, t, d, reg, x in zip(A.tolist(), A0.tolist(), tau0.tolist(),
                                           deltaE.tolist(), regimes, x_exit.tolist())]


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

