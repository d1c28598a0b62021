"""Direct Hamilton-Jacobi treatment of the pulsed triangular barrier.

Solves for the complex saddle time t0(x,t), the classical action S(x,t), the
first two semiclassical corrections sigma1 and sigma2, the small-parameter
branch structure, validity diagnostics, and the time-resolved decay rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .contour import integrate_paths, line_with_detour
from .errors import ConvergenceError, DomainError, RegimeError, SingularityError
from .model import LorentzPulse, TriangularBarrier, ZeroPulse

__all__ = [
    "SaddleState",
    "BranchReport",
    "RateSeries",
    "ValidityReport",
    "solve_t0",
    "action",
    "sigma1",
    "sigma2",
    "branch_report",
    "exit_exponent",
    "validity_report",
    "decay_rate",
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

    @property
    def causal(self) -> bool:
        return self.t0.real <= self.t + 1e-10


@dataclass(frozen=True)
class BranchReport:
    z1: float
    z2: float
    x1: float
    x2: float
    iS_x1: float


@dataclass(frozen=True)
class RateSeries:
    times: np.ndarray
    rate: np.ndarray        # escape flux |dw/dt| >= 0
    exponent: np.ndarray    # 2*Im(S+sigma) at x1, time-resolved
    prefactor: np.ndarray
    regime: list


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    amp_lower_bound: float      # semiclassical lower bound on amplitude/field
    hierarchy: dict = field(default_factory=dict)


# --- Contour helpers ------------------------------------------------------------

def _pulse_contour(a: complex, b: complex, pulse):
    """Integration path a->b avoiding pulse poles (semicircle of radius w/20)."""
    poles = [loc for loc, _ in pulse.poles()]
    if not poles:
        return [("line", a, b)]
    w = pulse.poles()[0][0].imag
    return line_with_detour(a, b, poles, radius=abs(w) / 20.0)


def _int_pulse(a: complex, b: complex, pulse) -> complex:
    """int_a^b pulse(t') dt', from the closed-form antiderivative.

    Single-valued away from the cuts running outward from the pulse poles
    along the imaginary axis; every contour used here stays in that domain,
    so this equals the deformed-path quadrature (which the tests verify).
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
    pole = pulse.poles()[0][0] if pulse.poles() else None
    last_residual = math.inf
    for _ in range(_NEWTON_MAX_ITER):
        g = (
            1j * (t - t0) * p0
            + 0.5 * e0 * (t - t0) ** 2
            + _int_weighted_pulse(t0, t, pulse)
            - m * x
        )
        last_residual = abs(g) / scale
        if last_residual < _NEWTON_TOL:
            return t0, last_residual
        dg = -1j * p0 - (t - t0) * e0 - (t - t0) * pulse(t0)
        step = -g / dg
        # damp steps that would jump past the pulse pole
        if pole is not None:
            gap = abs(t0 - pole)
            if abs(step) > 0.5 * gap:
                step *= 0.5 * gap / abs(step)
        t0 = t0 + step
        if pole is not None and abs(t0 - pole) < abs(pole.imag) * 1e-3:
            raise SingularityError(
                "saddle time pinches the pulse pole; use the euclidean "
                "low-energy branch instead",
                location=pole,
            )
    raise ConvergenceError(
        "saddle Newton stalled",
        residual=last_residual,
        diagnostics={"t0": t0, "x": x, "t": t},
    )


def _exit_root_t0(x: float, barrier: TriangularBarrier, pulse) -> float:
    """tau0 of the pulse-created exit branch at t = 0 (purely imaginary t0).

    On the imaginary axis the saddle equation is real with the closed form
    int_0^{tau0} tau*pulse(i tau) d tau =
        amp*width^2/(2(n-1)) * ((1 - tau0^2/width^2)^(1-n) - 1),
    so the root below the pulse width is bracketed and solved directly.
    """
    p0 = barrier.p0()
    e0 = barrier.field_static
    m = barrier.m
    theta = pulse.width
    n = pulse.exponent
    amp = pulse.amplitude

    def f(tau):
        wtilde = amp * theta**2 / (2.0 * (n - 1)) * (
            (1.0 - tau**2 / theta**2) ** (1 - n) - 1.0
        )
        return tau * p0 - 0.5 * e0 * tau**2 - wtilde - m * x

    def slope(tau):
        return p0 - e0 * tau - amp * tau * (1.0 - tau**2 / theta**2) ** (-n)

    # f is concave on (0, width): seat the bracket at its maximum, f' = 0
    try:
        tau_max = brentq(slope, 1e-6 * theta, theta * (1.0 - 1e-12),
                         xtol=1e-14 * theta)
        if f(tau_max) < 0:
            raise RegimeError(
                "no exit-branch saddle: x lies beyond the branch point x2"
            )
        hi = theta * (1.0 - 1e-14)
        return float(brentq(f, tau_max, hi, xtol=1e-16, rtol=8.9e-16))
    except OverflowError:
        raise ConvergenceError(
            f"the exit-branch bracket overflows next to the pulse width at "
            f"exponent {n}", diagnostics={"x": x},
        ) from None


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
        for lam in np.linspace(0.0, 1.0, _HOMOTOPY_STEPS + 1)[1:]:
            scaled = replace(pulse, amplitude=pulse.amplitude * lam)
            t0, res = _newton_t0(t0, x, t, barrier, scaled)
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

def _momentum(t1: complex, state: SaddleState, barrier, pulse) -> complex:
    """dS/dx along the characteristic: i*p0 + (t1-t0)*E0 + int_{t0}^{t1} pulse."""
    return (
        1j * barrier.p0()
        + (t1 - state.t0) * barrier.field_static
        + _int_pulse(state.t0, t1, pulse)
    )


def action(
    x: float,
    t: float,
    barrier: TriangularBarrier,
    pulse,
    state: SaddleState | None = None,
) -> complex:
    """Classical action S(x,t); Im S > 0 under the barrier (decaying branch).

    All time integrals run along contours kept left of Re t, deformed around
    pulse poles.  S(0, t) = -E*t and, with the pulse off, 2*Im S at the static
    exit reproduces the WKB exponent.
    """
    if state is None:
        state = solve_t0(x, t, barrier, pulse)
    t0 = state.t0
    m = barrier.m
    V = barrier.V
    E = barrier.E_bound

    def integrand(t1, path_id):
        p = _momentum(t1, state, barrier, pulse)
        return p * p

    kin = complex(integrate_paths(integrand, [_pulse_contour(t0, t, pulse)],
                                  epsrel=1e-11)[0][0])
    return (
        -kin / (2.0 * m)
        + x * _momentum(t, state, barrier, pulse)
        + (V - E) * t0
        - V * t
    )


# --- Semiclassical corrections --------------------------------------------------

def _log_physical(F: complex) -> complex:
    """log F on the physical branch: negative real F approached from above.

    The cut is rotated to the negative imaginary axis (arg in (-pi/2, 3pi/2])
    so the branch is continuous across negative real F, where the saddle's F
    lives.  Only sigma1 itself reads the branch: sigma2's source holds
    derivatives of ln F, which do not depend on it.
    """
    arg = math.atan2(F.imag, F.real)
    if arg <= -0.5 * math.pi:
        arg += 2.0 * math.pi
    return complex(math.log(abs(F)), arg)


def sigma1(state: SaddleState, barrier: TriangularBarrier, pulse) -> complex:
    """First correction; i*sigma1 = -ln(F)/2 + (i/2 tau00) int_0^{t0} (1+h)."""
    if abs(state.F) < 1e-12:
        raise SingularityError(
            "F = 0: branch point of the action (the x2 singularity)",
            location=state.t0,
        )
    well = state.t0 + _int_pulse(0.0, state.t0, pulse) / barrier.field_static
    return -1j * (-0.5 * _log_physical(state.F) + 1j * well / (2.0 * barrier.tau00))


def sigma2(state: SaddleState, barrier: TriangularBarrier, pulse) -> complex:
    """Second correction by quadrature of its source term.

    The source phi2(t0, t) is D^2/(4(V-E)F^2) - i dG/dt0/(4(V-E)F), with
    D = d(sigma1)/dt0 at fixed t and G = D/F.  Both derivatives are closed
    forms in pulse, pulse' and pulse'' (docs/decisions.md, "sigma2 source
    term"), so the source takes arrays, and both legs go to the engine as
    one two-path call.
    """
    b = barrier
    VmE = b.V - b.E_bound
    tau = b.tau00

    def phi2(t0, t):
        h, h1, h2 = (f / b.field_static for f in pulse.derivatives(t0))
        d = t0 - t
        F = 1.0 + 1j * d * (1.0 + h) / tau
        F1 = 1j * ((1.0 + h) + d * h1) / tau
        F2 = 1j * (2.0 * h1 + d * h2) / tau
        D = -1j * (-0.5 * F1 / F + 0.5j * (1.0 + h) / tau)
        D1 = -1j * (-0.5 * (F2 / F - (F1 / F) ** 2) + 0.5j * h1 / tau)
        dG = D1 / F - D * F1 / (F * F)
        return D * D / (4.0 * VmE * F * F) - 1j * dG / (4.0 * VmE * F)

    t0, t = state.t0, state.t
    # leg 1 (path 0): eta from 0 to t - t0 at fixed t0 (t runs from t0 to t);
    # the integrand has a pole where F(t0, t0 + eta) = 0 -- detour on the
    # Re < 0 side, consistent with the ln F branch (negative F approached
    # from above)
    eta_pole = -1j * tau / (1.0 + state.h)
    span = abs(t - t0)
    r = 0.25 * min(abs(eta_pole), abs((t - t0) - eta_pole), span)
    path = line_with_detour(0.0, t - t0, [eta_pole], radius=max(r, 1e-12),
                            side=-1.0 + 0.0j)

    def source(z, path_id):
        fixed = path_id == 0
        out = np.empty_like(z)
        out[fixed] = phi2(t0, t0 + z[fixed])
        out[~fixed] = phi2(z[~fixed], z[~fixed])
        return out

    # leg 2 (path 1): coincident-argument source integrated from 0 to t0
    legs = integrate_paths(source, [path, [("line", 0.0, t0)]],
                           epsabs=1e-10, epsrel=1e-7)[0]
    return complex(legs[0] + legs[1])


# --- Branch structure and validity ---------------------------------------------

def _require_lorentz_hj(pulse):
    if not isinstance(pulse, LorentzPulse):
        raise RegimeError("branch analysis requires a Lorentzian-power pulse")
    if pulse.exponent < 3:
        raise RegimeError("branch analysis requires integer pulse exponent >= 3")


def branch_report(barrier: TriangularBarrier, pulse) -> BranchReport:
    """Small parameters z1, z2 and the exit/branch coordinates x1, x2 at t=0."""
    _require_lorentz_hj(pulse)
    theta = pulse.width
    tau00 = barrier.tau00
    if theta >= tau00:
        raise RegimeError(
            "pulse width >= static traversal time: use the euclidean "
            "high-energy branch"
        )
    n = pulse.exponent
    amp_ratio = pulse.amplitude / barrier.field_static
    base = amp_ratio * theta / (2**n * (tau00 - theta))
    z1 = (base / (n - 1)) ** (1.0 / (n - 1))
    z2 = base ** (1.0 / n)
    e0, m = barrier.field_static, barrier.m
    VmE = barrier.V - barrier.E_bound
    x1 = e0 * theta**2 / (2.0 * m)
    x2 = e0 * theta * (2.0 * tau00 - theta) / (2.0 * m)
    iS_x1 = VmE * theta * (1.0 - theta**2 / (3.0 * tau00**2))
    return BranchReport(z1, z2, x1, x2, iS_x1)


def exit_exponent(barrier: TriangularBarrier, pulse) -> float:
    """2 Im S at t = 0 where the exit branch's momentum turns real, Im p = 0.

    Brent's method finds that point next to its estimate x1 (branch_report).
    """
    x1 = branch_report(barrier, pulse).x1
    states = {}

    def im_p(x):
        states[x] = solve_t0(x, 0.0, barrier, pulse)
        return _momentum(0.0, states[x], barrier, pulse).imag

    lo, hi = (0.5 * x1, x1) if im_p(x1) > 0 else (x1, 1.2 * x1)
    try:
        x = brentq(im_p, lo, hi)
    except ValueError:      # no sign change of Im p over the bracket
        raise ConvergenceError(
            "Im p keeps its sign over the bracket of the exit point",
            diagnostics={"bracket": (lo, hi), "x1": x1},
        ) from None
    return 2.0 * action(x, 0.0, barrier, pulse, states[x]).imag


def validity_report(barrier: TriangularBarrier, pulse) -> ValidityReport:
    """Semiclassical validity margins (numerical coefficient set to 1).

    Checks the amplitude window and the correction hierarchy
    |S| >> |sigma1| >> |sigma2| using the known asymptotics at the exit
    point and on a circle around the branch point.
    """
    if not isinstance(pulse, LorentzPulse):
        return ValidityReport(False, math.inf)
    theta = pulse.width
    n = pulse.exponent
    tau00 = barrier.tau00
    VmE = barrier.V - barrier.E_bound
    action_scale = VmE * theta
    amp_ratio = pulse.amplitude / barrier.field_static
    if theta >= tau00:
        return ValidityReport(False, math.inf)
    lower = (theta / (tau00 - theta)) ** (n / 2.0 - 1.0) / action_scale ** (n / 2.0)

    hierarchy = {}
    ok_chain = True
    if amp_ratio > 0 and n >= 3:
        rep = branch_report(barrier, pulse)
        z1, z2 = rep.z1, rep.z2
        # exit point x1 (z = z1): Eq.-level asymptotics
        s_x1 = rep.iS_x1
        s1_x1 = abs(
            -0.5 * cmath.log((n - 1) * (1 - theta / tau00) / z1) - 0.5 - 0.5j * math.pi
        )
        s2_x1 = abs(
            (8 * (n - 1) * (1 - theta / tau00) ** 2 + n * (2 * n - 3) / (n - 1))
            / (48.0 * VmE * theta * z1 * (1 - theta / tau00))
        )
        hierarchy["x1"] = (s_x1, s1_x1, s2_x1)
        ok_chain &= s_x1 > 5 * s1_x1 > 25 * s2_x1
        # circle |z - z2| = z2 around the branch point: sigma1 passes through
        # zero on the circle, so the chain is compared between the circle
        # maxima (the characteristic scales), not pointwise
        s1_circle, s2_circle = [], []
        for phi in np.linspace(0.2, 2 * math.pi - 0.2, 8):
            z = z2 * (1.0 + cmath.exp(1j * phi))
            ratio_n = (z2 / z) ** n
            s1_circle.append(abs(
                -0.5 * cmath.log((1 - theta / tau00) * (1 - ratio_n))
                - theta / (2 * tau00)
            ))
            s2_circle.append(abs(
                (3 * n * (n + 1) + n * (2 * n - 3) * ratio_n)
                / (48.0 * VmE * theta * z2**2 * (1 - theta / tau00)
                   * (1 - ratio_n) ** 3)
                * (z2 / z) ** (n + 2)
            ))
        s1_max, s2_max = max(s1_circle), max(s2_circle)
        hierarchy["z2_circle"] = (s_x1, s1_max, s2_max)
        ok_chain &= s_x1 > 5 * s1_max > 25 * s2_max
        # well region: parametric scales only (S and sigma both vanish at x=0)
        hierarchy["well_scales"] = (
            (2.0 / 3.0) * VmE * tau00,
            0.5 * abs(math.log(max(1.0 - theta / tau00, 1e-300))) + 0.5,
            1.0 / (VmE * tau00),
        )
    ok = action_scale > 5.0 and amp_ratio > lower and ok_chain
    return ValidityReport(ok=ok, amp_lower_bound=lower, hierarchy=hierarchy)


# --- Decay rate -----------------------------------------------------------------

def _rate_pieces(barrier: TriangularBarrier, pulse):
    # the exit action at x1, which also checks the pulse and its width
    exp0 = 2.0 * branch_report(barrier, pulse).iS_x1
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


def decay_rate(t: float, barrier: TriangularBarrier, pulse) -> float:
    """Escape flux -dw/dt at real time t > 0 (exact near-peak closed form)."""
    if t <= 0:
        raise RegimeError(
            "the time-resolved rate is defined only at t > 0; the t < 0 side "
            "is not extrapolated"
        )
    pref, exp0, quart = _rate_pieces(barrier, pulse)
    return pref * t * math.exp(-exp0 - quart * t**4)


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
    rate = pref * times * np.exp(-exponent)
    regime = ["pulse" if t < 2.0 * pulse.width else "static-tail" for t in times]
    return RateSeries(
        times=times,
        rate=rate,
        exponent=exponent,
        prefactor=pref * times,
        regime=regime,
    )
