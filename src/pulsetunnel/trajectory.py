"""Contour-integral trajectory method for the analytic sech^2 barrier.

The unperturbed complex-time trajectory is known in closed form; a weak pulse
contributes a correction dA = -i * int_C pulse(t) x0(t + dt_shift) dt along a
contour passing between the trajectory branch point and the pulse pole.  The
exit-time shift is fixed by minimizing dA.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .contour import integrate_paths, quad_path
from .errors import ConvergenceError, DomainError, RegimeError, SingularityError
from .model import SechBarrier, ZeroPulse, static_wkb_exponent

__all__ = [
    "TrajectoryHandle",
    "ContourSpec",
    "unperturbed_trajectory",
    "singularity_time",
    "build_contour",
    "delta_action",
    "minimize_delta_action",
    "max_flux_exponent",
    "static_action_from_contour",
    "branch_expansion",
]


# --- Unperturbed trajectory -----------------------------------------------------

@dataclass(frozen=True)
class TrajectoryHandle:
    """Closed-form trajectory x0(t + dt_shift) for energy E under the barrier."""

    E: float
    dt_shift: float
    barrier: SechBarrier
    omega: float
    u0: float            # sqrt((V-E)/E): turning-point value of sinh(x/a)
    t_s: complex         # branch point in the upper half plane
    tau_s: float         # Im t_s = pi/(2*omega)

    def _clipped(self, t, dt_shift=None):
        """z = omega*(t + dt_shift) with Re z clipped to +/-200, and the excess.

        cosh(z) overflows beyond |Re z| ~ 710, which the contour tails reach.
        Beyond |Re z| = 200, u0*cosh(z) -> u0*exp(s*z)/2 (s = sign(Re z)) with
        error O(exp(-2|Re z|)), so clipping scales w = u0*cosh(z) by the real
        factor exp(-excess): the velocity is unchanged, and the principal
        arcsinh(w) shifts by sign(Re arcsinh(w))*excess.  The excess is None
        when no point needs clipping.
        """
        shift = self.dt_shift if dt_shift is None else dt_shift
        z = self.omega * (np.asarray(t, dtype=complex) + shift)
        if np.abs(z.real).max() <= 200.0:
            return z, None
        x = np.clip(z.real, -200.0, 200.0)
        return x + 1j * z.imag, np.abs(z.real - x)

    def position(self, t, dt_shift=None):
        """x0(t + dt_shift); principal branch, cut left of the branch points.

        dt_shift, an array shaped like t, replaces the handle's own shift
        point by point.
        """
        self._check_cut(t, dt_shift)
        z, excess = self._clipped(t, dt_shift)
        x = np.arcsinh(self.u0 * np.cosh(z))
        if excess is not None:
            x = x + np.copysign(excess, x.real)
        out = self.barrier.a * x
        return out if out.ndim else complex(out)

    def velocity(self, t):
        """dx0/dt consistent with the position branch."""
        self._check_cut(t)
        z, _ = self._clipped(t)
        w = self.u0 * np.cosh(z)
        out = self.barrier.a * self.u0 * self.omega * np.sinh(z) / np.sqrt(1.0 + w * w)
        return out if out.ndim else complex(out)

    def _check_cut(self, t, dt_shift=None):
        t = np.asarray(t, dtype=complex)
        re_ts = self.t_s.real
        if dt_shift is not None:
            re_ts = re_ts + (self.dt_shift - dt_shift)
        on_cut = (
            (np.abs(np.abs(t.imag) - self.t_s.imag) < 1e-12 / self.omega)
            & (t.real <= re_ts + 1e-12)
        )
        if np.any(on_cut):
            raise SingularityError(
                "trajectory evaluated on its branch cut", location=self.t_s
            )


def singularity_time(E: float, barrier: SechBarrier, dt_shift: float = 0.0) -> complex:
    """Branch point i*pi/(2w) - ln((sqrt(V)+sqrt(E))/sqrt(V-E))/w - dt_shift."""
    w = barrier.omega(E)
    offset = math.log(
        (math.sqrt(barrier.V) + math.sqrt(E)) / math.sqrt(barrier.V - E)
    ) / w
    return complex(-offset - dt_shift, math.pi / (2.0 * w))


def unperturbed_trajectory(
    E: float, barrier: SechBarrier, dt_shift: float = 0.0
) -> TrajectoryHandle:
    if not (0 < E < barrier.V):
        raise DomainError(f"need 0 < E < V={barrier.V}, got E={E}")
    w = barrier.omega(E)
    return TrajectoryHandle(
        E=E,
        dt_shift=dt_shift,
        barrier=barrier,
        omega=w,
        u0=math.sqrt((barrier.V - E) / E),
        t_s=singularity_time(E, barrier, dt_shift),
        tau_s=math.pi / (2.0 * w),
    )


def branch_expansion(traj: TrajectoryHandle, t) -> complex:
    """Leading behaviour of x0 near the branch point t_s."""
    a = traj.barrier.a
    root = cmath.sqrt(
        2.0 * traj.omega * (traj.t_s - t) * math.sqrt(traj.barrier.V / traj.E)
    )
    return -1j * math.pi * a / 2.0 + a * root


# --- Contour --------------------------------------------------------------------

@dataclass(frozen=True)
class ContourSpec:
    """Conjugation-symmetric polyline between iw-pole and trajectory branch point.

    Legs run at +/- i*leg_height from Re t = -tail to the left connector; the
    connector crosses the imaginary axis at +/- i*cross_height, strictly
    between Im t_s and the pulse width, and returns to the real axis at a
    positive abscissa short of the mirrored branch point.
    """

    waypoints: tuple
    cross_height: float
    leg_height: float
    tail: float
    tail_bound: float

    def conjugate_symmetric(self) -> bool:
        pts = np.array(self.waypoints)
        return bool(np.allclose(pts, np.conj(pts[::-1])))


def build_contour(
    traj: TrajectoryHandle,
    pulse_width: float,
    *,
    cross_height: float | None = None,
    connector_x: float | None = None,
    tail: float | None = None,
) -> ContourSpec:
    """Contour C of the perturbation integral for the Im t_s < width case."""
    w = traj.omega
    tau_s = traj.tau_s
    H = 2.0 * tau_s                       # leg height pi/omega
    if tau_s >= pulse_width:
        raise RegimeError(
            "pulse singularity at or below the trajectory branch point "
            "(Im t_s >= width): unsupported ordering"
        )
    top = min(pulse_width, H)
    y = cross_height if cross_height is not None else tau_s + 0.5 * (top - tau_s)
    if not (tau_s < y < pulse_width):
        raise RegimeError(
            f"cross height {y} must lie strictly between Im t_s={tau_s} "
            f"and the pulse width {pulse_width}"
        )
    re_ts = traj.t_s.real
    c1 = re_ts - 1.0 / w
    # stay short of the mirrored branch point so the principal arcsinh branch
    # is the physical one along the whole descent
    # mirrored branch point sits at Re t = -re_ts - 2*dt_shift; stop short of it
    mirror = -re_ts - 2.0 * traj.dt_shift
    c2 = connector_x if connector_x is not None else 0.5 * mirror
    if not (0 < c2 < mirror):
        raise RegimeError(
            f"connector abscissa {c2} must lie in (0, {mirror}) to keep the "
            "principal trajectory branch"
        )
    if tail is None:
        tail = max(200.0 * pulse_width, abs(c1) + 200.0 / w)
    pts = (
        complex(-tail, H),
        complex(c1, H),
        complex(c1, y),
        complex(c2, y),
        complex(c2, -y),
        complex(c1, -y),
        complex(c1, -H),
        complex(-tail, -H),
    )
    # integrand tail ~ amp*(width/t)^(2n) * a*omega*t; bound for the worst n=2
    tail_bound = traj.barrier.a * w * pulse_width ** 4 / tail ** 2
    return ContourSpec(
        waypoints=pts, cross_height=y, leg_height=H, tail=tail,
        tail_bound=tail_bound,
    )


# --- Perturbation integral ------------------------------------------------------

def _check_pulse(pulse):
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        return False
    if not pulse.poles():
        raise RegimeError(
            "the trajectory perturbation needs a pulse with a finite-time "
            "singularity (Lorentzian family)"
        )
    return True


def _aligned_shift(E: float, barrier: SechBarrier, dt_shift: float) -> float:
    """Absolute trajectory shift for a pulse-frame shift dt_shift.

    dt_shift is measured in the frame where the unperturbed (dt_shift = 0)
    branch point lies on the imaginary axis, directly below the pulse pole;
    the trajectory's own time origin (its turning point) sits a fixed
    logarithmic offset away.  The pole asymptotics and the stationary-shift
    closed form hold in this frame.
    """
    return dt_shift - (-singularity_time(E, barrier, 0.0).real)


def delta_action(
    E: float,
    barrier: SechBarrier,
    pulse,
    dt_shift: float,
    *,
    contour: ContourSpec | None = None,
    imag_tol: float = 1e-8,
    epsrel: float = 1e-10,
) -> float:
    """Perturbative exponent correction dA = -i int_C pulse * x0 dt (real).

    dt_shift is the pulse-frame exit-time shift (branch point at
    i*tau_s - dt_shift).  The residual imaginary part is a quadrature health
    check; exceeding `imag_tol` (relative) raises a contour diagnostic.
    """
    return float(_delta_actions(E, barrier, pulse, [dt_shift], contour=contour,
                                imag_tol=imag_tol, epsrel=epsrel)[0])


def _delta_actions(E, barrier, pulse, shifts, *, contour=None, imag_tol=1e-8,
                   epsrel=1e-10) -> np.ndarray:
    """delta_action at each of `shifts`, all contours in one engine call.

    `contour`, when given, serves every shift.
    """
    if not _check_pulse(pulse):
        return np.zeros(len(shifts))
    trajs = [unperturbed_trajectory(E, barrier, _aligned_shift(E, barrier, s))
             for s in shifts]
    traj = trajs[0]
    width = pulse.poles()[0][0].imag
    if width - traj.tau_s < 1e-9 * width:
        raise RegimeError(
            "contour pinch: pulse width -> Im t_s; the perturbative branch "
            "breaks down (near-resonance), a nonperturbative treatment is needed"
        )
    contours = [build_contour(tr, width) if contour is None else contour
                for tr in trajs]
    # the handles differ only in their shift, which f supplies point by point
    path_shift = np.array([tr.dt_shift for tr in trajs])

    def f(t, path_id):
        return pulse(t) * traj.position(t, path_shift[path_id])

    vals = -1j * integrate_paths(f, [list(c.waypoints) for c in contours],
                                 epsabs=1e-13, epsrel=epsrel)[0]
    scale = np.maximum(np.abs(vals), 1e-12)
    lost = np.flatnonzero(np.abs(vals.imag) > imag_tol * scale)
    if lost.size:
        i = lost[0]
        raise ConvergenceError(
            "contour quadrature lost conjugation symmetry",
            residual=abs(vals[i].imag) / scale[i],
            diagnostics={"contour": contours[i], "value": vals[i],
                         "dt_shift": shifts[i]},
        )
    return vals.real


def energy_shift_residual(
    E: float, barrier: SechBarrier, pulse, dt_shift: float,
    contour: ContourSpec | None = None,
) -> float:
    """int_C pulse * dx0/dt dt: vanishes at the true exit-time shift (real E).

    The integral is meant to cancel, so its tolerance is relative to
    int_C |pulse * dx0/dt| |dt|, far enough above the engine's roundoff floor.
    """
    if not _check_pulse(pulse):
        return 0.0
    traj = unperturbed_trajectory(E, barrier, _aligned_shift(E, barrier, dt_shift))
    width = pulse.poles()[0][0].imag
    if contour is None:
        contour = build_contour(traj, width)

    def f(t):
        return pulse(t) * traj.velocity(t)

    val = quad_path(f, list(contour.waypoints), epsabs=1e-13, epsrel=1e-10,
                    epsl1=1e-12)
    return abs(val)


@dataclass(frozen=True)
class MinimizedAction:
    dt_shift: float
    dA: float
    A: float
    A0: float
    energy_residual: float
    stationary_points: tuple


def minimize_delta_action(E: float, barrier: SechBarrier, pulse) -> MinimizedAction:
    """Exit-time shift from min of dA over the bracket [-3(width - tau_s), 0].

    Scans for all interior stationary points, refines the minimum by bounded
    scalar minimization, and reports the independent energy-condition residual.
    """
    if not _check_pulse(pulse):
        A0 = static_wkb_exponent(barrier, E)
        return MinimizedAction(0.0, 0.0, A0, A0, 0.0, ())
    traj0 = unperturbed_trajectory(E, barrier, 0.0)
    width = pulse.poles()[0][0].imag
    gap = width - traj0.tau_s
    if gap <= 0:
        raise RegimeError("Im t_s >= pulse width: unsupported ordering")
    lo, hi = -3.0 * gap, 0.0

    grid = np.linspace(lo, hi, 17)
    vals = _delta_actions(E, barrier, pulse, grid, epsrel=1e-6, imag_tol=1e-4)
    # stationary points: sign changes of the finite-difference slope
    slopes = np.diff(vals)
    stationary = []
    for i in range(len(slopes) - 1):
        if slopes[i] * slopes[i + 1] < 0:
            stationary.append(0.5 * (grid[i] + grid[i + 2]))
    i_min = int(np.argmin(vals))
    if i_min in (0, len(grid) - 1):
        raise ConvergenceError(
            "no interior minimum of dA in the scan bracket",
            diagnostics={"grid": grid, "dA": vals},
        )
    bracket = (grid[max(i_min - 1, 0)], grid[min(i_min + 1, len(grid) - 1)])
    res = optimize.minimize_scalar(
        lambda s: delta_action(E, barrier, pulse, s, epsrel=1e-8),
        bounds=bracket,
        method="bounded",
        options={"xatol": 1e-8 * max(gap, 1.0)},
    )
    dt_opt = float(res.x)
    dA_opt = float(res.fun)
    A0 = static_wkb_exponent(barrier, E)
    resid = energy_shift_residual(E, barrier, pulse, dt_opt)
    return MinimizedAction(
        dt_shift=dt_opt,
        dA=dA_opt,
        A=A0 + dA_opt,
        A0=A0,
        energy_residual=resid,
        stationary_points=tuple(stationary) or (dt_opt,),
    )


@dataclass(frozen=True)
class FluxExponent:
    A: float
    W_max: float
    enhancement: float      # exp(-dA) relative to the static rate
    exponent_only: bool = True


def max_flux_exponent(E: float, barrier: SechBarrier, pulse) -> FluxExponent:
    """Peak outgoing-flux exponent W_max ~ exp(-A); prefactor unspecified."""
    m = minimize_delta_action(E, barrier, pulse)
    return FluxExponent(A=m.A, W_max=math.exp(-m.A), enhancement=math.exp(-m.dA))


# --- Static contour reduction ---------------------------------------------------

def static_action_from_contour(
    E: float, barrier: SechBarrier, *, cross_height: float | None = None,
    connector_x: float | None = None,
) -> float:
    """A0 = -i int_C L0 dt over the pulse-free contour (legs cancel exactly).

    Independent route to the WKB exponent: quadrature of the unperturbed
    Lagrangian along the complex-time contour rather than the spatial
    integral of sqrt(V - E).
    """
    traj = unperturbed_trajectory(E, barrier, 0.0)
    H = 2.0 * traj.tau_s
    y = cross_height if cross_height is not None else 0.5 * (traj.tau_s + H)
    c1 = traj.t_s.real - 1.0 / traj.omega
    c2 = connector_x if connector_x is not None else -0.5 * traj.t_s.real
    pts = [
        complex(c1, H),
        complex(c1, y),
        complex(c2, y),
        complex(c2, -y),
        complex(c1, -y),
        complex(c1, -H),
    ]
    m = barrier.m

    def L0(t):
        v = traj.velocity(t)
        x = traj.position(t)
        return 0.5 * m * v * v - barrier.V / np.cosh(x / barrier.a) ** 2 + E

    val = -1j * quad_path(L0, pts, epsabs=1e-13, epsrel=1e-11)
    return float(val.real)
