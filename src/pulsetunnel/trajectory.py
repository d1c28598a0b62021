"""Contour-integral trajectory method for the analytic sech^2 barrier.

The unperturbed complex-time trajectory is known in closed form; a weak pulse
contributes a correction dA = -i * int_C pulse(t) x0(t + dt_shift) dt along a
contour passing between the trajectory branch point and the pulse pole, on
one sheet of x0 for every shift.  Its slope and curvature in the shift are
the same integral with the velocity and the acceleration of x0, and the
exit-time shift is the root of dA' next to the minimum of dA on a coarse
scan, found by safeguarded Newton steps.  A whole energy grid is solved in
lockstep, one engine call per stage for every energy still in play
(minimize_delta_actions).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .contour import integrate_paths
from .errors import (
    ConvergenceError,
    DomainError,
    PulseTunnelError,
    RegimeError,
    SingularityError,
)
from .model import SechBarrier, ZeroPulse, static_wkb_exponent

__all__ = [
    "TrajectoryHandle",
    "ContourSpec",
    "unperturbed_trajectory",
    "singularity_time",
    "build_contour",
    "delta_action",
    "minimize_delta_action",
    "minimize_delta_actions",
    "pole_form",
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

    def position(self, t):
        """x0(t + dt_shift); principal branch, cut left of the branch points."""
        return self._evaluate(0, t)

    def velocity(self, t):
        """dx0/dt consistent with the position branch."""
        return self._evaluate(1, t)

    def _evaluate(self, order, t):
        t = np.asarray(t, dtype=complex)
        if np.any(_on_cut(t, self.t_s.real, self.tau_s, self.omega)):
            raise SingularityError(
                "trajectory evaluated on its branch cut", location=self.t_s
            )
        out = _motion(order, t, self.barrier.a, self.omega, self.u0,
                      self.dt_shift)
        return out if out.ndim else complex(out)


def _motion(order, t, a, omega, u0, shift):
    """x0, dx0/dt or d2x0/dt2 (order 0, 1 or 2) at the complex times t.

    omega, u0 and shift are scalars or arrays shaped like t, so one call can
    serve trajectories of several energies and shifts.  With
    z = omega*(t + shift) and w = u0*cosh(z): x0 = a*arcsinh(w),
    dx0/dt = a*u0*omega*sinh(z)/sqrt(1 + w^2) and
    d2x0/dt2 = a*omega^2*(1 + u0^2)*w/(1 + w^2)^(3/2), all on the principal
    branch.  cosh(z) overflows beyond |Re z| ~ 710, which the contour tails
    reach.  Beyond |Re z| = 200, u0*cosh(z) -> u0*exp(s*z)/2
    (s = sign(Re z)) with error O(exp(-2|Re z|)), so Re z is clipped to
    +/-200: that scales w by the real factor exp(-excess), which leaves the
    velocity unchanged, keeps the acceleration at its exp(-400) scale, and
    shifts the principal arcsinh(w) by sign(Re arcsinh(w))*excess, which the
    position adds back.
    """
    z = omega * (t + shift)
    excess = None
    if np.abs(z.real).max() > 200.0:
        x = np.clip(z.real, -200.0, 200.0)
        excess = np.abs(z.real - x)
        z = x + 1j * z.imag
    w = u0 * np.cosh(z)
    if order == 0:
        x = np.arcsinh(w)
        if excess is not None:
            x = x + np.copysign(excess, x.real)
        return a * x
    root = np.sqrt(1.0 + w * w)
    if order == 1:
        return a * u0 * omega * np.sinh(z) / root
    return a * omega * omega * (1.0 + u0 * u0) * w / ((1.0 + w * w) * root)


def _on_cut(t, re_ts, tau_s, omega):
    """Mask of the times t on the cut Im t = +/-tau_s, Re t <= re_ts, of x0."""
    return (np.abs(np.abs(t.imag) - tau_s) < 1e-12 / omega) & (t.real <= re_ts + 1e-12)


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

    Legs run at +/- i*pi/omega from Re t = -tail to the left connector, left
    of both the pulse pole (Re t = 0) and the branch point; the connector
    runs at +/- i*cross_height, strictly between Im t_s and the pulse width,
    and returns to the real axis right of both, short of the mirrored branch
    point.  So the contour never crosses the pole or the cut of x0, whatever
    the shift.
    """

    waypoints: tuple
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
    left, right, mirror = _vertical_bounds(traj)
    c1 = left - 1.0 / w
    c2 = connector_x if connector_x is not None else 0.5 * (right + mirror)
    _check_verticals(traj, c1, c2)
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
    return ContourSpec(waypoints=pts, tail_bound=tail_bound)


def _vertical_bounds(traj: TrajectoryHandle) -> tuple[float, float, float]:
    """(left, right, mirror) for the contour's verticals at this shift.

    The pulse pole sits at Re t = 0 and the branch point at Re t_s: the left
    vertical must pass left of both, min(Re t_s, 0), and the connector right
    of both, max(Re t_s, 0), and short of the mirrored branch point at
    -Re t_s - 2*dt_shift, so the principal arcsinh branch is the physical
    one along the whole descent.
    """
    re_ts = traj.t_s.real
    return min(re_ts, 0.0), max(re_ts, 0.0), -re_ts - 2.0 * traj.dt_shift


def _check_verticals(traj: TrajectoryHandle, c1: float, c2: float) -> None:
    """RegimeError unless verticals at c1 and c2 keep C on one sheet of x0."""
    left, right, mirror = _vertical_bounds(traj)
    if not c1 < left:
        raise RegimeError(
            f"left vertical abscissa {c1} must lie left of {left}, the pulse "
            "pole and the trajectory branch point"
        )
    if not (right < c2 < mirror):
        raise RegimeError(
            f"connector abscissa {c2} must lie in ({right}, {mirror}) to keep "
            "the principal trajectory branch"
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
    check; exceeding `imag_tol` (relative) plus the engine's error estimate
    raises a contour diagnostic.  The default contour keeps one sheet of x0
    for every shift, so dA is one analytic function of dt_shift, with slope
    -i int_C pulse * dx0/dt dt; a given `contour` must do the same
    (RegimeError otherwise).
    """
    return float(_delta_actions(E, barrier, pulse, [dt_shift], contour=contour,
                                imag_tol=imag_tol, epsrel=epsrel)[0])


def _delta_actions(E, barrier, pulse, shifts, *, order=0, contour=None,
                   imag_tol=1e-8, epsrel=1e-10) -> np.ndarray:
    """-i int_C pulse * d^k x0/dt^k dt for paths (E, shift, k), in one engine call.

    E, `shifts` and `order` broadcast to one path each.  Order 0 integrates
    the position and gives delta_action, order 1 the velocity and gives
    dA'(dt_shift), order 2 the acceleration and gives dA''.  `contour`, when
    given, serves every path; its verticals must keep it on one sheet of x0
    at each of them, as build_contour's do (RegimeError otherwise).  dA' is
    meant to cancel at the exit shift, so the tolerance of the derivative
    paths also admits 1e-12 * int |f|.  An error raised for one path names it
    in diagnostics["path"].
    """
    E, shifts, order = (np.ravel(v) for v in np.broadcast_arrays(E, shifts, order))
    if not _check_pulse(pulse):
        return np.zeros(E.size)
    width = pulse.poles()[0][0].imag
    trajs, contours = [], []
    for p in range(E.size):
        try:
            E_p = float(E[p])
            tr = unperturbed_trajectory(E_p, barrier,
                                        _aligned_shift(E_p, barrier, shifts[p]))
            if width - tr.tau_s < 1e-9 * width:
                raise RegimeError(
                    "contour pinch: pulse width -> Im t_s; the perturbative "
                    "branch breaks down (near-resonance), a nonperturbative "
                    "treatment is needed"
                )
            if contour is None:
                contours.append(build_contour(tr, width))
            else:
                _check_verticals(tr, contour.waypoints[1].real,
                                 contour.waypoints[3].real)
                contours.append(contour)
        except PulseTunnelError as exc:
            exc.diagnostics["path"] = p
            raise
        trajs.append(tr)
    # per-path constants, gathered point by point in the integrand
    omega, u0, shift, tau_s, re_ts = (
        np.array([getattr(tr, k) for tr in trajs])
        for k in ("omega", "u0", "dt_shift", "tau_s", "t_s"))
    re_ts = re_ts.real
    kinds = np.unique(order)

    def f(t, path_id):
        cut = _on_cut(t, re_ts[path_id], tau_s[path_id], omega[path_id])
        if np.count_nonzero(cut):
            p = int(path_id[cut][0])
            raise SingularityError(
                f"trajectory evaluated on its branch cut on integration path {p}",
                location=trajs[p].t_s, diagnostics={"path": p},
            )
        x = np.empty_like(t)
        for k in kinds:
            sel = order[path_id] == k
            if np.count_nonzero(sel):
                pid = path_id[sel]
                x[sel] = _motion(k, t[sel], barrier.a, omega[pid], u0[pid],
                                 shift[pid])
        return pulse(t) * x

    vals, errs, _ = integrate_paths(f, [list(c.waypoints) for c in contours],
                                    epsabs=1e-13, epsrel=epsrel,
                                    epsl1=np.where(order > 0, 1e-12, 0.0))
    vals = -1j * vals
    scale = np.maximum(np.abs(vals), 1e-12)
    lost = np.flatnonzero(np.abs(vals.imag) > imag_tol * scale + errs)
    if lost.size:
        p = int(lost[0])
        raise ConvergenceError(
            "contour quadrature lost conjugation symmetry",
            residual=abs(vals[p].imag) / scale[p],
            diagnostics={"contour": contours[p], "value": vals[p],
                         "dt_shift": shifts[p], "path": p},
        )
    return vals.real


@dataclass(frozen=True)
class MinimizedAction:
    dt_shift: float
    dA: float
    A: float
    A0: float
    energy_residual: float      # |dA'| at dt_shift


def minimize_delta_action(E: float, barrier: SechBarrier, pulse) -> MinimizedAction:
    """Exit-time shift at the minimum of dA over [-3(width - tau_s), 0].

    The root of dA' next to the minimum of a 17-shift scan, with dA there and
    |dA'| as the energy residual: minimize_delta_actions at one energy, whose
    error is raised.
    """
    res = minimize_delta_actions([E], barrier, pulse)[0]
    if isinstance(res, PulseTunnelError):
        raise res
    return res


_SCAN = 17              # shifts of the scan for the minimum of dA
# brentq's defaults: step tolerance 2e-12 + 4*eps*|x|, at most 100 steps
_XTOL, _RTOL, _MAX_STEPS = 2e-12, 4.0 * np.finfo(float).eps, 100


def minimize_delta_actions(energies, barrier: SechBarrier,
                           pulse) -> list[MinimizedAction | PulseTunnelError]:
    """minimize_delta_action at each energy, the whole grid in lockstep.

    Slot i holds the MinimizedAction of energies[i], or the PulseTunnelError
    that energy raised.  Each stage is one engine call for every energy
    still in play:

    - scan: dA at 17 shifts over [-3(width - tau_s), 0] (epsrel 1e-6); a
      minimum at either end is "no interior minimum" (ConvergenceError);
    - root of dA' in the bracket of the scan neighbours of the minimum,
      starting at the vertex of the parabola through the three values: each
      step evaluates dA' and dA'' at the iterate and takes the Newton step
      when dA'' > 0 and the step stays in the bracket, else bisects.  The
      first call also takes dA' at both bracket ends, which must differ in
      sign (ConvergenceError otherwise).  The solve stops when the next step
      is at most 2e-12 + 4*eps*|dt_shift| (brentq's default tolerances) and
      returns the last shift at which dA' was evaluated, with |dA'| there
      as the energy residual;
    - dA at each root, at epsrel 1e-8.

    The engine gives each path the panels a call of its own would give, so
    every slot is the one-energy result to the bit.  An error that names a
    path goes into the slot of that path's energy, and the call reruns
    without that energy.
    """
    E = [float(e) for e in energies]
    try:
        has_pole = _check_pulse(pulse)
    except RegimeError as exc:
        return [exc] * len(E)
    slots: list = [None] * len(E)
    scans = {}
    for i, e in enumerate(E):
        try:
            if not has_pole:
                A0 = static_wkb_exponent(barrier, e)
                slots[i] = MinimizedAction(0.0, 0.0, A0, A0, 0.0)
                continue
            gap = pulse.poles()[0][0].imag - unperturbed_trajectory(e, barrier).tau_s
            if gap <= 0:
                raise RegimeError("Im t_s >= pulse width: unsupported ordering")
            scans[i] = np.linspace(-3.0 * gap, 0.0, _SCAN)
        except PulseTunnelError as exc:
            slots[i] = exc

    def call(paths, **tol):
        """Values per slot of paths (slot, shift, order), in path order."""
        while True:
            live = [p for p in paths if not isinstance(slots[p[0]], PulseTunnelError)]
            if not live:
                return {}
            owner, shifts, order = zip(*live)
            try:
                vals = _delta_actions([E[i] for i in owner], barrier, pulse,
                                      shifts, order=order, **tol)
                break
            except PulseTunnelError as exc:
                if "path" not in exc.diagnostics:
                    raise
                slots[owner[exc.diagnostics["path"]]] = exc
        out = {}
        for i, v in zip(owner, vals):
            out.setdefault(i, []).append(float(v))
        return out

    # scan
    dA = call([(i, s, 0) for i, g in scans.items() for s in g],
              epsrel=1e-6, imag_tol=1e-4)
    x, lo, hi = {}, {}, {}
    for i, v in dA.items():
        grid, k = scans[i], int(np.argmin(v))
        if k in (0, _SCAN - 1):
            slots[i] = ConvergenceError(
                "no interior minimum of dA in the scan bracket",
                diagnostics={"grid": grid, "dA": np.array(v)},
            )
            continue
        lo[i], hi[i] = grid[k - 1], grid[k + 1]
        curv = v[k - 1] - 2.0 * v[k] + v[k + 1]
        step = 0.5 * (v[k - 1] - v[k + 1]) / curv if curv > 0 else 0.0
        x[i] = grid[k] + step * (grid[1] - grid[0])

    # root of dA', all energies in lockstep
    sign_lo, roots = {}, {}
    for n in range(_MAX_STEPS):
        paths = []
        for i in x:
            paths += [(i, x[i], 1), (i, x[i], 2)]
            if n == 0:
                paths += [(i, lo[i], 1), (i, hi[i], 1)]
        vals = call(paths)
        x = {i: x[i] for i in vals}
        for i, v in vals.items():
            d1, d2 = v[0], v[1]
            if n == 0:
                if v[2] * v[3] > 0:
                    slots[i] = ConvergenceError(
                        "dA' keeps its sign over the scan bracket of the minimum",
                        diagnostics={"bracket": (lo[i], hi[i]),
                                     "slopes": (v[2], v[3])},
                    )
                    del x[i]
                    continue
                sign_lo[i] = v[2]
            if d1 * sign_lo[i] > 0:
                lo[i] = x[i]
            else:
                hi[i] = x[i]
            new = x[i] - d1 / d2 if d2 > 0 else math.nan
            if not lo[i] <= new <= hi[i]:
                new = 0.5 * (lo[i] + hi[i])
            if abs(new - x[i]) <= _XTOL + _RTOL * abs(x[i]):
                roots[i] = (float(x.pop(i)), abs(d1))
            else:
                x[i] = new
        if not x:
            break
    for i in x:
        slots[i] = ConvergenceError(
            f"no root of dA' within {_MAX_STEPS} steps",
            diagnostics={"bracket": (lo[i], hi[i]), "dt_shift": x[i]},
        )

    # dA at the roots
    final = call([(i, r[0], 0) for i, r in roots.items()], epsrel=1e-8)
    for i, (dA_i,) in final.items():
        dt, residual = roots[i]
        A0 = static_wkb_exponent(barrier, E[i])
        slots[i] = MinimizedAction(dt_shift=dt, dA=dA_i, A=A0 + dA_i, A0=A0,
                                   energy_residual=residual)
    return slots


def pole_form(E: float, barrier: SechBarrier, pulse) -> tuple[float, float]:
    """Near-resonance asymptotes (dA, dt_shift) of the minimized correction.

    dA -> -(pi/4)*amp*a*tau_s^2*(3V/E)^(1/4)*sqrt(3*omega/gap) and
    dt_shift -> -gap/sqrt(3) as gap = width - tau_s -> 0: the residue of a
    second-order pulse pole at i*width next to the branch point at i*tau_s.
    Raises RegimeError for a pulse without a pole, with a pole of another
    order (exponent != 2) or with width <= tau_s.
    """
    if not _check_pulse(pulse):
        raise RegimeError("the pole form needs a pulse with a pole")
    if pulse.exponent != 2:
        raise RegimeError("the pole form is the residue of a second-order "
                          "pole: it needs pulse exponent 2")
    traj = unperturbed_trajectory(E, barrier)
    gap = pulse.poles()[0][0].imag - traj.tau_s
    if gap <= 0:
        raise RegimeError("Im t_s >= pulse width: unsupported ordering")
    dA = -(math.pi / 4.0) * pulse.amplitude * barrier.a * traj.tau_s**2 \
        * (3.0 * barrier.V / E) ** 0.25 * math.sqrt(3.0 * traj.omega / gap)
    return dA, -gap / math.sqrt(3.0)


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

def static_action_from_contour(E: float, barrier: SechBarrier) -> float:
    """A0 = -i int_C L0 dt over the pulse-free contour (legs cancel exactly).

    Independent route to the WKB exponent: quadrature of the unperturbed
    Lagrangian between the leg corners of build_contour's path (for a width
    of pi/omega) rather than the spatial integral of sqrt(V - E).
    """
    traj = unperturbed_trajectory(E, barrier, 0.0)
    pts = list(build_contour(traj, 2.0 * traj.tau_s).waypoints[1:-1])
    m = barrier.m

    def L0(t, path_id):
        v = traj.velocity(t)
        x = traj.position(t)
        return 0.5 * m * v * v - barrier.V / np.cosh(x / barrier.a) ** 2 + E

    val = -1j * integrate_paths(L0, [pts], epsabs=1e-13, epsrel=1e-11)[0][0]
    return float(val.real)
