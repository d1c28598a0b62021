"""Direct Hamilton-Jacobi treatment of the pulsed triangular barrier.

Solves for the complex saddle time t0(x,t), the classical action S(x,t), the
first two semiclassical corrections sigma1 and sigma2 (both closed forms), the
exit exponent, the semiclassical lower bound on the pulse amplitude, and the
time-resolved decay rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .contour import integrate_paths
from .errors import (ConvergenceError, DomainError, PulseTunnelError, RegimeError,
                     SingularityError, _one)
from .euclidean import _solve_tau0s, _unit_mass
from .model import LorentzPulse, TriangularBarrier, ZeroPulse, _int_square
from .roots import _find_root

__all__ = [
    "SaddleState",
    "RateSeries",
    "solve_t0",
    "action",
    "sigma1",
    "sigma2",
    "exit_exponent",
    "exit_exponents",
    "amp_lower_bound",
    "decay_rate_series",
    "rate_peak_time",
]


# --- Data types -----------------------------------------------------------------

@dataclass(frozen=True)
class SaddleState:
    """Saddle time t0 for a given (x, t) plus derived quantities."""

    t0: complex
    t: float
    x: float
    F: complex          # 1 + i(t0-t)/tau00 * (1 + h(t0))
    h: complex          # pulse(t0)/field_static
    residual: float     # |saddle equation residual| / scale


@dataclass(frozen=True)
class RateSeries:
    times: np.ndarray
    rate: np.ndarray        # escape flux |dw/dt| >= 0
    exponent: np.ndarray    # 2*Im(S+sigma) at x1, time-resolved
    prefactor: np.ndarray


# --- Pulse integrals ------------------------------------------------------------

def _int_pulse(a: complex, b: complex, pulse) -> complex:
    """int_a^b pulse(t') dt', from the closed-form antiderivative.

    Single-valued away from the cuts running outward from the pulse poles
    along the imaginary axis; every segment integrated here stays in that
    domain, so this equals the quadrature along the segment (which the
    tests verify).
    """
    return pulse.antiderivative(b) - pulse.antiderivative(a)


def _int_weighted_pulse(t0: complex, t: complex, pulse) -> complex:
    """int_{t0}^{t} (t - t1) pulse(t1) dt1, from closed-form antiderivatives."""
    return t * _int_pulse(t0, t, pulse) - (
        pulse.first_moment_antiderivative(t)
        - pulse.first_moment_antiderivative(t0)
    )


# --- Saddle solve ---------------------------------------------------------------

def _static_t0(x: float, t: float, barrier: TriangularBarrier) -> complex:
    """Physical root of the saddle equation with the pulse off."""
    p0 = barrier.p0()
    e0 = barrier.field_static
    disc = cmath.sqrt(p0 * p0 - 2.0 * e0 * barrier.m * x + 0.0j)
    u = 1j * (disc - p0) / e0       # u = t - t0, -> 0 as x -> 0
    return t - u


_NEWTON_TOL = 1e-12       # saddle residual, relative to its scale
_NEWTON_MAX_ITER = 60
_HOMOTOPY_STEPS = 10      # amplitude ramp of the static branch


def _newton_t0(
    t0: complex, x: float, t: float, barrier: TriangularBarrier, pulse
) -> tuple[complex, float]:
    p0 = barrier.p0()
    e0 = barrier.field_static
    m = barrier.m
    scale = max(m * abs(x), p0 * max(abs(t), 1.0), 1.0)
    pole = 1j * pulse.width if isinstance(pulse, LorentzPulse) else None
    last_t0, last_residual = t0, math.inf
    for _ in range(_NEWTON_MAX_ITER):
        # an iterate far up the imaginary axis overflows a Gaussian pulse;
        # the first non-finite residual or iterate stops the solve, which
        # raises below with the last finite pair
        with np.errstate(over="ignore", invalid="ignore"):
            g = (
                1j * (t - t0) * p0
                + 0.5 * e0 * (t - t0) ** 2
                + _int_weighted_pulse(t0, t, pulse)
                - m * x
            )
            residual = abs(g) / scale
            if not math.isfinite(residual):
                break
            last_t0, last_residual = t0, residual
            if residual < _NEWTON_TOL:
                return t0, residual
            dg = -1j * p0 - (t - t0) * e0 - (t - t0) * pulse(t0)
            step = -g / dg
        # damp steps that would jump past the pulse pole
        if pole is not None:
            gap = abs(t0 - pole)
            if abs(step) > 0.5 * gap:
                step *= 0.5 * gap / abs(step)
        t0 = t0 + step
        if not cmath.isfinite(t0):
            break
        if pole is not None and abs(t0 - pole) < abs(pole.imag) * 1e-3:
            raise SingularityError(
                "saddle time pinches the pulse pole; use the euclidean "
                "low-energy branch instead",
                location=pole,
            )
    raise ConvergenceError(
        "saddle Newton stalled",
        residual=last_residual,
        diagnostics={"t0": last_t0, "x": x, "t": t},
    )


def _axis_saddle(barrier: TriangularBarrier, pulse):
    """Saddle function f at t = 0 on the imaginary axis, and its maximizer.

    For t0 = i*tau the saddle equation is real, f(tau) = m*x, with the closed
    form int_0^{tau} u*pulse(i u) du =
        amp*width^2/(2(n-1)) * ((1 - tau^2/width^2)^(1-n) - 1).
    f is concave on (0, width): the static root lies left of its maximum,
    the exit root right of it, and for m*x above the maximum the axis holds
    neither.  The third item, slope, gives (f', f'') at tau.
    """
    p0 = barrier.p0()
    e0 = barrier.field_static
    theta = pulse.width
    n = pulse.exponent
    amp = pulse.amplitude

    def f(tau):
        wtilde = amp * theta**2 / (2.0 * (n - 1)) * (
            (1.0 - tau**2 / theta**2) ** (1 - n) - 1.0
        )
        return tau * p0 - 0.5 * e0 * tau**2 - wtilde

    def slope(tau):
        rise = (1.0 - tau**2 / theta**2) ** -n
        return (p0 - e0 * tau - amp * tau * rise,
                -e0 - amp * rise * (1.0 + 2.0 * n * tau**2 / (theta**2 - tau**2)))

    tau_max = _find_root(lambda tau: tuple(-v for v in slope(tau)), 0.0, theta,
                         0.0, 1e-14 * theta, "axis-maximizer")
    return f, tau_max, slope


def _exit_root_t0(x: float, barrier: TriangularBarrier, pulse) -> float:
    """tau0 of the pulse-created exit branch at t = 0 (purely imaginary t0),
    the root of the axis saddle function right of its maximum."""
    mx = barrier.m * x
    f, tau_max, slope = _axis_saddle(barrier, pulse)
    if f(tau_max) < mx:
        raise RegimeError(
            "no exit-branch saddle: x lies beyond the branch point x2"
        )
    return _find_root(lambda tau: (mx - f(tau), -slope(tau)[0]), tau_max,
                      pulse.width, tau_max, 1e-16 * (pulse.width - tau_max),
                      "exit-branch")


def solve_t0(
    x: float,
    t: float,
    barrier: TriangularBarrier,
    pulse,
    *,
    branch: str = "auto",
) -> SaddleState:
    """Complex saddle time t0(x, t) of the action.

    branch="static": root continuously connected to the pulse-free saddle
    (homotopy in the pulse amplitude).  branch="exit": the pulse-created
    branch with tau0 just below the pulse width, through which the particle
    escapes; located by a bracketed solve at t = 0 and continued to t > 0.
    branch="auto" picks "exit" when a Lorentzian pulse with width < tau00 is
    active and x > 0, else "static".
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if t < 0:
        raise RegimeError("t < 0 is outside the supported regime (causality)")
    active = not (isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0)
    if branch == "auto":
        branch = (
            "exit"
            if active
            and isinstance(pulse, LorentzPulse)
            and pulse.width < barrier.tau00
            and x > 0
            else "static"
        )
    if not active or branch == "static":
        t0 = _static_t0(x, t, barrier)
        if not active:
            return _make_state(t0, x, t, barrier, pulse, 0.0)
        try:
            for lam in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS + 1)[1:]:
                scaled = replace(pulse, amplitude=pulse.amplitude * lam)
                t0, res = _newton_t0(t0, x, t, barrier, scaled)
        except ConvergenceError:
            # next to t = 0 the iterates cannot leave the imaginary axis,
            # which holds no saddle once m*x passes the maximum of the axis
            # saddle function: the static and exit branches have merged into
            # a pair mirrored in the axis, and the limit t -> 0+ takes the
            # one right of it
            if not isinstance(pulse, LorentzPulse):
                raise
            f, tau_max, _ = _axis_saddle(barrier, pulse)
            if f(tau_max) >= barrier.m * x:
                raise
            t0, res = _newton_t0(t + 1j * tau_max + 0.1 * pulse.width,
                                 x, t, barrier, pulse)
        return _make_state(t0, x, t, barrier, pulse, res)
    if branch != "exit":
        raise DomainError(f"unknown branch {branch!r}")
    if not isinstance(pulse, LorentzPulse):
        raise RegimeError("the exit branch exists only for Lorentzian pulses")
    t0 = 1j * _exit_root_t0(x, barrier, pulse)
    res = 0.0
    if t > 0:
        for t_k in np.linspace(0.0, t, max(int(10 * t / pulse.width), 4) + 1)[1:]:
            t0, res = _newton_t0(t0, x, t_k, barrier, pulse)
    else:
        t0, res = _newton_t0(t0, x, 0.0, barrier, pulse)
    return _make_state(t0, x, t, barrier, pulse, res)


def _make_state(t0, x, t, barrier, pulse, residual) -> SaddleState:
    e0 = barrier.field_static
    h = complex(pulse(t0)) / e0 if e0 > 0 else 0.0j
    F = 1.0 + 1j * (t0 - t) / barrier.tau00 * (1.0 + h)
    return SaddleState(t0=complex(t0), t=t, x=x, F=F, h=h, residual=residual)


# --- Classical action -----------------------------------------------------------

def action(
    x: float,
    t: float,
    barrier: TriangularBarrier,
    pulse,
    state: SaddleState | None = None,
) -> complex:
    """Classical action S(x,t); Im S > 0 under the barrier (decaying branch).

    The kinetic term integrates p^2 along the straight segment t0 -> t, which
    keeps t0's side of the pulse poles (docs/decisions.md, "Lines-only
    contour engine"), on panels presplit toward a Lorentzian's poles
    +/- i*width (integrate_paths, near).  S(0, t) = -E*t and, with the pulse
    off, 2*Im S at the static exit reproduces the WKB exponent.  The grid of
    one of _actions.
    """
    if state is None:
        state = solve_t0(x, t, barrier, pulse)
    return _one(_actions([(state.t0, x, t)], [barrier.E_bound], barrier, pulse))


def _actions(saddles, energies, barrier: TriangularBarrier, pulse) -> list:
    """S(x, t) at each saddle (t0, x, t), the barrier's E_bound set to
    energies[k], every integral of p^2 in one engine call: slot k holds the
    action of saddles[k] or the ConvergenceError of its integral.  The
    engine gives each path the panels a call of its own would give."""
    t0, _, t = (np.array(v) for v in zip(*saddles))
    p0 = np.array([barrier.p0(E) for E in energies])
    e0, m, V = barrier.field_static, barrier.m, barrier.V

    def momentum(t1, k):    # dS/dx along the characteristic from t0[k]
        return (1j * p0[k] + (t1 - t0[k]) * e0
                + (pulse.antiderivative(t1) - at_t0[k]))

    def p_squared(t1, k):
        p = momentum(t1, k)
        return p * p

    # p^2 is singular where the pulse is: a Lorentzian's poles +/- i*width
    near = [(1j * pulse.width, -1j * pulse.width)
            if isinstance(pulse, LorentzPulse) else ()] * len(saddles)
    # an inf or a nan in the closed forms gives its path up
    with np.errstate(over="ignore", invalid="ignore"):
        # one saddle at a time: the array form of a complex t0 may differ by
        # an ulp
        at_t0 = np.array([pulse.antiderivative(s[0]) for s in saddles])
        kin = integrate_paths(p_squared, [[s[0], s[2]] for s in saddles],
                              epsrel=1e-11, near=near)[0]
        p_end = momentum(t, np.arange(t.size)).tolist()
    return [k if isinstance(k, ConvergenceError) else
            -k / (2.0 * m) + x_k * p + (V - E) * s - V * t_k
            for k, p, (s, x_k, t_k), E in zip(kin, p_end, saddles, energies)]


# --- Semiclassical corrections --------------------------------------------------

def _log_physical(F: complex) -> complex:
    """log F on the physical branch: negative real F approached from above.

    The cut is rotated to the negative imaginary axis (arg in (-pi/2, 3pi/2])
    so the branch is continuous across negative real F, where the saddle's F
    lives.  Only sigma1 reads the branch: sigma2 holds no ln F.
    """
    arg = math.atan2(F.imag, F.real)
    if arg <= -0.5 * math.pi:
        arg += 2.0 * math.pi
    return complex(math.log(abs(F)), arg)


def _require_regular(state: SaddleState) -> None:
    """SingularityError at F = 0, where sigma1 and sigma2 diverge."""
    if abs(state.F) < 1e-12:
        raise SingularityError(
            "F = 0: branch point of the action (the x2 singularity)",
            location=state.t0,
        )


def sigma1(state: SaddleState, barrier: TriangularBarrier, pulse) -> complex:
    """First correction; i*sigma1 = -ln(F)/2 + (i/2 tau00) int_0^{t0} (1+h)."""
    _require_regular(state)
    well = state.t0 + _int_pulse(0.0, state.t0, pulse) / barrier.field_static
    return -1j * (-0.5 * _log_physical(state.F) + 1j * well / (2.0 * barrier.tau00))


def sigma2(state: SaddleState, barrier: TriangularBarrier, pulse) -> complex:
    """Second correction: its source integrated in closed form along two legs
    (docs/decisions.md, "sigma2 source term").  Leg 1 runs eta = t - t0 from
    0 at fixed t0, where the source is Q(eta)/(16(V-E)F^4) with Q quadratic
    and F linear in eta, and no residue at F = 0; leg 2 runs both times
    together from 0 to t0, where it is ((1+h)^2/tau00^2 + i h'/tau00)/(8(V-E)).
    SingularityError at F = 0, as for sigma1; ConvergenceError where the value
    is not finite.
    """
    _require_regular(state)
    e0, tau, VmE = barrier.field_static, barrier.tau00, barrier.V - barrier.E_bound
    t0, E, F = state.t0, state.t - state.t0, state.F
    with np.errstate(over="ignore", invalid="ignore"):  # a nan is caught below
        h, h1, h2 = (complex(f) / e0 for f in pulse.derivatives(t0))
        a, b1, b2 = (1.0 + h) / tau, h1 / tau, h2 / tau
        c = b1 - 1j * a * a
        # Q's coefficients; no term of leg 1 divides by a, which loses digits
        # as a -> 0
        q0, q1 = 2j * c, 2j * a * a * a - 6.0 * a * b1 - 2j * b2
        q2 = c * c + 4.0 * b1 * b1 - 2.0 * a * b2
        leg1 = (q0 * E * (1.0 + F + F * F) / 3.0
                + q1 * E * E * (3.0 - 1j * a * E) / 6.0
                + q2 * E * E * E / 3.0) / (16.0 * F * F * F) / VmE
        # leg 2 integrates h and h^2 from their antiderivatives
        amp = pulse.amplitude / e0
        H, H2 = _int_pulse(0.0, t0, pulse) / e0, amp * amp * _int_square(pulse, t0)
        rise = h - complex(pulse(0.0)) / e0
        leg2 = ((t0 + 2.0 * H + H2) / tau + 1j * rise) / (8.0 * VmE * tau)
    if not cmath.isfinite(leg1 + leg2):
        raise ConvergenceError("sigma2 is not finite",
                               diagnostics={"leg1": leg1, "leg2": leg2})
    return leg1 + leg2


# --- Exit branch and amplitude bound -------------------------------------------

def _exit_action_x1(barrier: TriangularBarrier, pulse) -> float:
    """Im S at the small-amplitude exit point x1 = field_static*width^2/(2m):
    (V-E)*width*(1 - width^2/(3 tau00^2)).  RegimeError unless the pulse is
    Lorentzian with exponent >= 3 and narrower than tau00, which the exit
    branch needs."""
    if not isinstance(pulse, LorentzPulse):
        raise RegimeError("branch analysis requires a Lorentzian-power pulse")
    if pulse.exponent < 3:
        raise RegimeError("branch analysis requires integer pulse exponent >= 3")
    theta = pulse.width
    tau00 = barrier.tau00
    if theta >= tau00:
        raise RegimeError(
            "pulse width >= static traversal time: use the euclidean "
            "high-energy branch"
        )
    VmE = barrier.V - barrier.E_bound
    return VmE * theta * (1.0 - theta**2 / (3.0 * tau00**2))


def exit_exponent(barrier: TriangularBarrier, pulse) -> float:
    """2 Im S at t = 0 at the exit point, where the exit branch's momentum
    vanishes: there t0 = i*tau0 and p(0) = i(p0 - field_static*tau0 -
    int_0^tau0 pulse(i u) du), so tau0 is euclidean.solve_tau0's root.  The
    saddle equation at (t0, 0) gives x in closed form (residual 0), and S
    is action(x, 0) there.  The grid of one of exit_exponents."""
    return _one(exit_exponents([barrier.E_bound], barrier, pulse))


def exit_exponents(energies, barrier: TriangularBarrier,
                   pulse) -> list[float | PulseTunnelError]:
    """exit_exponent at each energy (the barrier's E_bound set to it), the
    tau0 in lockstep and every integral of p^2 in one engine call.

    Slot i holds the exponent of energies[i], or the PulseTunnelError that
    energy raised.  The engine gives each path the panels a call of its own
    would give, so every slot is the one-energy value to the bit.
    """
    slots = []
    for E in energies:
        try:
            slots.append(_exit_action_x1(replace(barrier, E_bound=E), pulse))
        except PulseTunnelError as exc:
            slots.append(exc)
    live = [i for i, s in enumerate(slots) if not isinstance(s, PulseTunnelError)]
    try:
        # at a mass near 1, S stays: the integral of p^2 does not underflow
        barrier, pulse, _ = _unit_mass(barrier, pulse)
        tau0 = _solve_tau0s([energies[i] for i in live], barrier, pulse)
    except PulseTunnelError as exc:     # the scaled field or amplitude overflows
        tau0 = [exc] * len(live)
    exits = {}      # slot: tau0, and m*x at the exit but for its pulse term
    for i, tau in zip(live, tau0):
        slots[i] = tau
        if isinstance(tau, PulseTunnelError):
            continue
        try:    # the saddle state's pole check; its value may overflow, unread
            with np.errstate(over="ignore", invalid="ignore"):
                pulse(1j * tau)
            exits[i] = tau, (tau * barrier.p0(energies[i])
                             - 0.5 * barrier.field_static * tau**2)
        except SingularityError as exc:
            slots[i] = exc
    if not exits:
        return slots
    tau0, mx = (np.array(v) for v in zip(*exits.values()))
    t0 = 1j * tau0
    # the exit point, from the saddle equation at (t0, 0); an inf or a nan
    # in the closed forms gives the action's path up
    with np.errstate(over="ignore", invalid="ignore"):
        x = (mx + _int_weighted_pulse(t0, 0.0, pulse).real) / barrier.m
    S = _actions([(s, x_i, 0.0) for s, x_i in zip(t0.tolist(), x.tolist())],
                 [energies[i] for i in exits], barrier, pulse)
    for i, S_i in zip(exits, S):
        slots[i] = S_i if isinstance(S_i, ConvergenceError) else 2.0 * S_i.imag
    return slots


def amp_lower_bound(barrier: TriangularBarrier, pulse) -> float:
    """Semiclassical lower bound on amplitude/field_static (numerical
    coefficient 1): (width/(tau00 - width))^(n/2 - 1) / ((V-E)*width)^(n/2).
    inf for a pulse that is not Lorentzian or not narrower than tau00."""
    if not isinstance(pulse, LorentzPulse) or pulse.width >= barrier.tau00:
        return math.inf
    theta, n, tau00 = pulse.width, pulse.exponent, barrier.tau00
    action_scale = (barrier.V - barrier.E_bound) * theta
    return (theta / (tau00 - theta)) ** (n / 2.0 - 1.0) / action_scale ** (n / 2.0)


# --- Decay rate -----------------------------------------------------------------

def _rate_pieces(barrier: TriangularBarrier, pulse):
    # the exit action at x1, which also checks the pulse and its width
    exp0 = 2.0 * _exit_action_x1(barrier, pulse)
    theta, n = pulse.width, pulse.exponent
    tau00 = barrier.tau00
    VmE = barrier.V - barrier.E_bound
    amp_ratio = pulse.amplitude / barrier.field_static
    pref = (
        2.0 * VmE
        / (math.e * (n - 1) ** (n / (n - 1)) * (tau00 - theta))
        * (amp_ratio * theta / (2.0 * (tau00 - theta))) ** (1.0 / (n - 1))
    )
    quart = 2.0 * (n - 1) * VmE / (theta * tau00**2)
    return pref, exp0, quart


def rate_peak_time(barrier: TriangularBarrier, pulse) -> float:
    """Analytic maximizer of the time factor t*exp(-quart*t^4)."""
    _, _, quart = _rate_pieces(barrier, pulse)
    return (1.0 / (4.0 * quart)) ** 0.25


def decay_rate_series(times, barrier: TriangularBarrier, pulse) -> RateSeries:
    """Sampled escape flux over a positive-time grid with exponent split."""
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0):
        raise RegimeError("all grid times must be > 0")
    pref, exp0, quart = _rate_pieces(barrier, pulse)
    exponent = exp0 + quart * times**4
    # an inf prefactor times an underflowed exponential is a silent nan, as
    # in Python floats, which the CLI reports as leaving double precision
    with np.errstate(over="ignore", invalid="ignore"):
        rate = pref * times * np.exp(-exponent)
    return RateSeries(
        times=times,
        rate=rate,
        exponent=exponent,
        prefactor=pref * times,
    )
