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
    _one,
)
from .model import LorentzPulse, SechBarrier, ZeroPulse, static_wkb_exponent
from .roots import _find_root

__all__ = [
    "TrajectoryHandle",
    "unperturbed_trajectory",
    "singularity_time",
    "build_contour",
    "delta_action",
    "minimize_delta_action",
    "minimize_delta_actions",
    "pole_form",
]


# --- Unperturbed trajectory -----------------------------------------------------

@dataclass(frozen=True)
class TrajectoryHandle:
    """Constants of the closed-form trajectory x0(t + dt_shift) at one energy
    (_motion evaluates it on the principal branch)."""

    dt_shift: float
    omega: float
    u0: float            # sqrt((V-E)/E): turning-point value of sinh(x/a)
    t_s: complex         # branch point in the upper half plane
    tau_s: float         # Im t_s = pi/(2*omega)


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
        dt_shift=dt_shift,
        omega=w,
        u0=math.sqrt((barrier.V - E) / E),
        t_s=singularity_time(E, barrier, dt_shift),
        tau_s=math.pi / (2.0 * w),
    )


# --- Contour --------------------------------------------------------------------

def build_contour(traj: TrajectoryHandle, pulse_width: float) -> tuple:
    """Waypoints of the contour C of the perturbation integral (Im t_s < width).

    A conjugation-symmetric polyline: its legs run at +/- i*pi/omega from
    Re t = -tail to the left vertical, left of both the pulse pole (Re t = 0)
    and the branch point t_s; the connector runs at +/- i*y, halfway between
    Im t_s and min(width, pi/omega), and returns to the real axis right of
    both, short of the mirrored branch point at -Re t_s - 2*dt_shift.  So C
    never crosses the pole or the cut of x0, and the principal arcsinh
    branch is the physical one along the whole descent; a shift that leaves
    the connector no room is a RegimeError.
    """
    w = traj.omega
    tau_s = traj.tau_s
    H = 2.0 * tau_s                       # leg height pi/omega
    if tau_s >= pulse_width:
        raise RegimeError(
            "pulse singularity at or below the trajectory branch point "
            "(Im t_s >= width): unsupported ordering"
        )
    top = min(pulse_width, H)
    y = tau_s + 0.5 * (top - tau_s)
    re_ts = traj.t_s.real
    right, mirror = max(re_ts, 0.0), -re_ts - 2.0 * traj.dt_shift
    c1 = min(re_ts, 0.0) - 1.0 / w
    c2 = 0.5 * (right + mirror)
    if not (right < c2 < mirror):
        raise RegimeError(
            f"connector abscissa {c2} must lie in ({right}, {mirror}) to keep "
            "the principal trajectory branch"
        )
    tail = max(200.0 * pulse_width, abs(c1) + 200.0 / w)
    return (
        complex(-tail, H),
        complex(c1, H),
        complex(c1, y),
        complex(c2, y),
        complex(c2, -y),
        complex(c1, -y),
        complex(c1, -H),
        complex(-tail, -H),
    )


# --- Perturbation integral ------------------------------------------------------

def _check_pulse(pulse):
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        return False
    if not isinstance(pulse, LorentzPulse):
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
) -> float:
    """Perturbative exponent correction dA = -i int_C pulse * x0 dt (real).

    dt_shift is the pulse-frame exit-time shift (branch point at
    i*tau_s - dt_shift).  The residual imaginary part is a quadrature health
    check; exceeding 1e-8 (relative) plus the engine's error estimate
    raises a contour diagnostic.  The contour keeps one sheet of x0 for
    every shift, so dA is one analytic function of dt_shift, with slope
    -i int_C pulse * dx0/dt dt.
    """
    return _one(_delta_actions(E, barrier, pulse, [dt_shift]))


def _delta_actions(E, barrier, pulse, shifts, *, order=0, epsrel=1e-10,
                   upper=False) -> list:
    """-i int_C pulse * d^k x0/dt^k dt for rows (E, shifts, k), in one engine call.

    `shifts` is one shift per row, or rows of K shifts; E, `order` and
    `epsrel` broadcast to one value per row.  The list returned holds one
    slot per shift, row by row, with its value or its PulseTunnelError.
    Order 0 integrates the position and gives delta_action, order 1 the
    velocity and gives dA'(dt_shift), order 2 the acceleration and gives
    dA''.  dA' is meant to cancel at the exit shift, so the tolerance of the
    derivative paths also admits 1e-12 * int |f|.

    A row is one path: its integrals run in the frame of its first shift s,
    where the trajectory x0(t + s) is fixed and the pulse of shift s_k sits
    at t - (s_k - s), so x0 is evaluated once per node for all K.  Each
    shift's contour (build_contour, which rejects the shifts it cannot
    serve) moves into that frame, and the row's contour has their common
    leg and connector heights, the leftmost tail end and left vertical, and
    the rightmost right vertical: every pulse pole stays above it and the
    trajectory's branch points below.  The K integrals share its panels;
    a row the engine gives up on fails all its shifts.

    C is conjugation-symmetric and the integrand takes conjugate values at
    mirrored points, so the value is 2 Im I+, with I+ the integral over the
    upper half C+ from -tail + i*pi/omega to the real axis.  `upper` takes
    it from C+ alone, at half the points and with epsabs halved: errors per
    unit of dA stay where they were, but no conjugation check is left.
    Otherwise the engine integrates all of C, and an imaginary part beyond
    1e-8 (relative) plus the error estimate, plus the 1e-12 * int |f| of a
    derivative path's tolerance, is a ConvergenceError.  Each row's first
    panels are bisected toward its pulse poles and the branch points t_s,
    conj(t_s) (integrate_paths, near).
    """
    shifts = np.asarray(shifts, dtype=float)
    shifts = shifts.reshape(-1, shifts.shape[-1] if shifts.ndim == 2 else 1)
    E, order, epsrel, _ = np.broadcast_arrays(E, order, epsrel, shifts[:, 0])
    shifts = np.broadcast_to(shifts, (E.size, shifts.shape[1]))
    K = shifts.shape[1]
    if not _check_pulse(pulse):
        return [0.0] * shifts.size
    width = pulse.width
    out, live, trajs, paths, near, delta = [None] * shifts.size, [], [], [], [], []
    for r in range(E.size):
        E_r, fits = float(E[r]), {}
        for k in range(K):
            try:
                tr = unperturbed_trajectory(
                    E_r, barrier, _aligned_shift(E_r, barrier, shifts[r, k]))
                if width - tr.tau_s < 1e-9 * width:
                    raise RegimeError(
                        "contour pinch: pulse width -> Im t_s; the perturbative "
                        "branch breaks down (near-resonance), a nonperturbative "
                        "treatment is needed"
                    )
                fits[k] = (tr, build_contour(tr, width))
            except PulseTunnelError as exc:
                out[r * K + k] = exc
        if not fits:
            continue
        tr = next(iter(fits.values()))[0]
        # each shift's offset in the row's frame; a rejected shift is a zero
        # integrand there (nan offset)
        d = np.full(K, np.nan)
        for k, (t_k, _) in fits.items():
            d[k] = t_k.dt_shift - tr.dt_shift
        live.append(r)
        trajs.append(tr)
        paths.append(_row_contour([(c, d[k]) for k, (_, c) in fits.items()]))
        near.append([p + d[k] for k in fits for p in (1j * width, -1j * width)]
                    + [tr.t_s, tr.t_s.conjugate()])
        delta.append(d)
    # per-path constants, gathered point by point in the integrand
    omega, u0, shift, tau_s, re_ts = (
        np.array([getattr(tr, k) for tr in trajs])
        for k in ("omega", "u0", "dt_shift", "tau_s", "t_s"))
    re_ts = re_ts.real
    delta = np.array(delta).reshape(-1, K)
    rejected = np.isnan(delta)
    delta[rejected] = 0.0
    order, epsrel = order[live], epsrel[live]
    kinds = np.unique(order)
    on_cut = {}     # path: its SingularityError, in place of the engine's

    def f(t, path_id):
        cut = _on_cut(t, re_ts[path_id], tau_s[path_id], omega[path_id])
        hit = np.count_nonzero(cut)
        if hit:     # nan there: the engine gives these paths up
            for p in np.unique(path_id[cut]).tolist():
                on_cut[p] = SingularityError(
                    f"trajectory evaluated on its branch cut on integration path {p}",
                    location=trajs[p].t_s)
        x = np.empty_like(t)
        for k in kinds:
            sel = order[path_id] == k
            if np.count_nonzero(sel):
                pid = path_id[sel]
                x[sel] = _motion(k, t[sel], barrier.a, omega[pid], u0[pid],
                                 shift[pid])
        if K == 1:      # one integrand per node, in the shift's own frame
            fz = pulse(t) * x
        else:
            fz = pulse(t - delta[path_id].T) * x
            if rejected.any():
                fz[rejected[path_id].T] = 0.0
        return np.where(cut, np.nan, fz) if hit else fz

    if upper:
        paths = [p[:4] + [complex(p[3].real, 0.0)] for p in paths]
    epsl1 = np.where(order > 0, 1e-12, 0.0)
    with np.errstate(all="ignore"):     # an inf or a nan gives its path up
        vals, errs, _, l1 = integrate_paths(
            f, paths, epsabs=5e-14 if upper else 1e-13, epsrel=epsrel,
            epsl1=epsl1, near=near)
    errs, l1 = (v.reshape(len(paths), K) for v in (errs, l1))
    for q, (r, row) in enumerate(zip(live, vals)):
        if isinstance(row, ConvergenceError):
            row = [on_cut.get(q, row)] * K
        elif K == 1:
            row = [row]
        for k, v in enumerate(row):
            if rejected[q, k]:
                continue        # its slot holds build_contour's error
            if upper and not isinstance(v, PulseTunnelError):
                v = 2.0 * v.imag
            elif not isinstance(v, PulseTunnelError):
                v = -1j * v
                scale = max(abs(v), 1e-12)
                if abs(v.imag) > 1e-8 * scale + errs[q, k] + epsl1[q] * l1[q, k]:
                    v = ConvergenceError(
                        "contour quadrature lost conjugation symmetry",
                        residual=abs(v.imag) / scale,
                        diagnostics={"contour": paths[q], "value": v,
                                     "dt_shift": shifts[r, k]})
                else:
                    v = v.real
            out[r * K + k] = v
    return out


def _row_contour(contours):
    """One contour for the (contour, offset) pairs of a row: each contour
    moved by its offset, then the common heights, the leftmost tail end and
    left vertical and the rightmost right vertical; a lone contour, in its
    own frame (offset 0), is rebuilt as it was."""
    tail, c1, c2 = (fold(c[i].real + d for c, d in contours)
                    for fold, i in ((min, 0), (min, 1), (max, 3)))
    H, y = contours[0][0][0].imag, contours[0][0][2].imag
    return [complex(tail, H), complex(c1, H), complex(c1, y), complex(c2, y),
            complex(c2, -y), complex(c1, -y), complex(c1, -H), complex(tail, -H)]


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
    return _one(minimize_delta_actions([E], barrier, pulse))


_SCAN = 17              # shifts of the scan for the minimum of dA
_XTOL = 2e-12           # absolute part of the step tolerance of the root of dA'


def minimize_delta_actions(energies, barrier: SechBarrier,
                           pulse) -> list[MinimizedAction | PulseTunnelError]:
    """minimize_delta_action at each energy, the whole grid in lockstep.

    Slot i holds the MinimizedAction of energies[i], or the PulseTunnelError
    that energy raised.  Each stage is one engine call for every energy
    still in play; the scan and the Newton steps integrate the upper half
    of each contour only (_delta_actions, upper=True):

    - scan: dA at 17 shifts over [-3(width - tau_s), 0] (epsrel 1e-6); a
      minimum at either end is "no interior minimum" (ConvergenceError);
    - the root of dA' between the scan neighbours lo, hi of the minimum by
      roots._find_root, from the vertex of the parabola through the three
      values.  Each step evaluates dA' and dA'' at the iterate and takes the
      Newton step when dA'' > 0 and the step stays in the bracket, else
      bisects; the first step also evaluates dA' at lo and hi, where it
      must rise, dA'(lo) <= 0 <= dA'(hi) (ConvergenceError otherwise, ahead
      of any error of the iterate's paths).  The solve stops when the next
      step is at most 2e-12 + 4*eps*|dt_shift|, within 100 steps, and
      returns the last shift at which dA' was evaluated (epsrel 1e-10);
    - dA (epsrel 1e-8) and dA' (epsrel 1e-10) at each root, on the whole
      contour with its conjugation check; |dA'| is the energy residual.

    The engine gives each path the panels a call of its own would give, so
    every slot is the one-energy result to the bit.  A path that fails
    leaves its error in its slot of _delta_actions, and an energy takes the
    error of its first failing path in a stage; nothing reruns.
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
            gap = pulse.width - unperturbed_trajectory(e, barrier).tau_s
            if gap <= 0:
                raise RegimeError("Im t_s >= pulse width: unsupported ordering")
            scans[i] = np.linspace(-3.0 * gap, 0.0, _SCAN).tolist()
        except PulseTunnelError as exc:
            slots[i] = exc

    def call(paths, upper=True):
        """Values per slot of paths (slot, shift, order, epsrel), in path
        order, a failing path's error in its place; a path may hold a row
        of shifts, one value each."""
        live = [p for p in paths if not isinstance(slots[p[0]], PulseTunnelError)]
        out = {}
        if live:
            owner, shifts, order, epsrel = zip(*live)
            vals = _delta_actions([E[i] for i in owner], barrier, pulse, shifts,
                                  order=order, epsrel=epsrel, upper=upper)
            K = len(vals) // len(owner)
            for j, v in enumerate(vals):
                out.setdefault(owner[j // K], []).append(v)
        return out

    def settle(vals, first=()):
        """vals less its slots with an error; each takes its first one, or
        its first of a class in `first` if it has one."""
        for i, v in list(vals.items()):
            if err := [e for e in v if isinstance(e, PulseTunnelError)]:
                slots[i] = next((e for e in err if isinstance(e, first)), err[0])
                del vals[i]
        return vals

    # scan.  A row the engine gives up on fails all its shifts, so a shift
    # that build_contour rejected (DomainError, RegimeError) reports ahead
    # of it, as with a contour per shift where no earlier shift fails
    dA = settle(call([(i, g, 0, 1e-6) for i, g in scans.items()]),
                first=(DomainError, RegimeError))
    x, lo, hi = {}, {}, {}
    for i, v in dA.items():
        grid, k = scans[i], int(np.argmin(v))
        if k in (0, _SCAN - 1):
            slots[i] = ConvergenceError(
                "no interior minimum of dA in the scan bracket",
                diagnostics={"grid": grid, "dA": v},
            )
            continue
        lo[i], hi[i] = grid[k - 1], grid[k + 1]
        curv = v[k - 1] - 2.0 * v[k] + v[k + 1]
        step = 0.5 * (v[k - 1] - v[k + 1]) / curv if curv > 0 else 0.0
        x[i] = grid[k] + step * (grid[1] - grid[0])

    # root of dA', all energies in lockstep; the first step also takes dA'
    # at lo and hi, ahead of the iterate's paths
    bracketed, f_hi, ends = list(x), [math.inf] * len(x), True

    def fdf(shifts, live):      # (dA', dA'') per slot, or the slot's error
        nonlocal ends
        paths = []
        for k, s in zip(live, shifts):
            i = bracketed[k]
            paths += [(i, lo[i], 1, 1e-10), (i, hi[i], 1, 1e-10)] if ends else []
            paths += [(i, s, 1, 1e-10), (i, s, 2, 1e-10)]
        vals = call(paths)
        for k in live if ends else ():
            i, v = bracketed[k], vals[bracketed[k]]
            if not any(isinstance(e, PulseTunnelError) for e in v[:2]):
                f_hi[k] = v[1]
                if v[0] > 0 or v[1] < 0:    # ahead of the iterate's errors
                    v.insert(2, ConvergenceError(
                        "dA' does not rise across the scan bracket of the minimum",
                        diagnostics={"bracket": (lo[i], hi[i]),
                                     "slopes": tuple(v[:2])}))
        ends = False
        vals = settle(vals)
        return zip(*(vals[bracketed[k]][-2:] if bracketed[k] in vals
                     else (slots[bracketed[k]], None) for k in live))

    # a slot holds its root, or its error, until the last stage
    for i, r in zip(bracketed, _find_root(
            fdf, [lo[i] for i in bracketed], [hi[i] for i in bracketed],
            [x[i] for i in bracketed], [_XTOL] * len(bracketed), "dA'", f_hi=f_hi)):
        slots[i] = r

    # dA and dA' at the roots, on the whole contour
    final = settle(call([(i, slots[i], k, tol) for i in bracketed
                         for k, tol in ((0, 1e-8), (1, 1e-10))], upper=False))
    for i, (dA_i, slope) in final.items():
        A0 = static_wkb_exponent(barrier, E[i])
        slots[i] = MinimizedAction(dt_shift=slots[i], dA=dA_i, A=A0 + dA_i,
                                   A0=A0, energy_residual=abs(slope))
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
    gap = pulse.width - traj.tau_s
    if gap <= 0:
        raise RegimeError("Im t_s >= pulse width: unsupported ordering")
    dA = -(math.pi / 4.0) * pulse.amplitude * barrier.a * traj.tau_s**2 \
        * (3.0 * barrier.V / E) ** 0.25 * math.sqrt(3.0 * traj.omega / gap)
    return dA, -gap / math.sqrt(3.0)
