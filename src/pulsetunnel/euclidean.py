"""Euclidean (imaginary-time) trajectory computation for the triangular barrier.

Yields the maximum tunneling exponent A, the under-barrier traversal time tau0,
the outgoing energy shift deltaE and the threshold energy E_T at which the
pulse singularity matches the static traversal time.

Each energy is solved in units of its own, momentum p0 and a time T
(_units; docs/decisions.md, "Scale-free Euclidean route"): there the root
s = tau0/T and every number but the action unit 2(V-E)*T lies in a window
about 1, so no product of the inputs leaves double range unless the value
it stands for does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .contour import integrate_paths
from .errors import ConvergenceError, DomainError, PulseTunnelError, _one
from .model import LorentzPulse, TriangularBarrier, SechBarrier, ZeroPulse, _lorentz_J
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

# int g^2's absolute tolerance, in units of the action unit 2(V-E)*T
_EPSABS = 5e-15


@dataclass(frozen=True)
class EuclideanResult:
    A: float
    A0: float
    tau0: float
    deltaE: float
    regime: str
    E_T: float | None
    exit_point: float


# V - E, p0, tau00, time unit T, action unit U = 2(V - E)T, T/tau00,
# amplitude*T/p0 and width/T (inf with the pulse off)
_Units = namedtuple("_Units", "VmE p0 tau00 T U a b w")


def _mul_div(x, y, z):
    """x*y/z of positive floats from their mantissas: inf or 0 only where
    the value leaves double range, and the plain product to the bit within."""
    (mx, ex), (my, ey), (mz, ez) = map(math.frexp, (x, y, z))
    try:
        return math.ldexp(mx * my / mz, ex + ey - ez)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _units(E, barrier: TriangularBarrier, pulse) -> _Units:
    """The units of energy E: momentum p0 = sqrt(2m(V-E)) and time T, the
    static traversal time tau00 = p0/field_static, or p0/amplitude where the
    pulse's peak field is the larger, or the pulse width (1/rate for a
    Gaussian) where it is below half of that: a, b <= 1 and w >= 1/2, and
    G(u) = int_0^u pulse(i v) dv = p0*g(u/T), g(s) = b*s*R0(s/w).  Raises
    the DomainErrors of solve_tau0's inputs."""
    if not (0 < E < barrier.V):
        raise DomainError(f"need 0 < E < V={barrier.V}, got E={E}")
    e0, amp, VmE = barrier.field_static, pulse.amplitude, barrier.V - E
    if e0 <= 0:
        raise DomainError("solve_tau0 needs a decaying barrier "
                          "(field_static > 0)")
    # p0 = sqrt(2m(V-E)) from the mantissas, as sqrt(2.0*m*(V-E)) rounds in
    # double range, but finite where only 2m(V-E) leaves it
    (mm, em), (mv, ev) = math.frexp(barrier.m), math.frexp(VmE)
    e = em + ev + 1
    p0 = math.ldexp(math.sqrt(mm * mv * 2 ** (e & 1)), e >> 1)
    tau00 = p0 / e0
    if not math.isfinite(tau00):
        raise DomainError(f"the static traversal time {tau00} leaves "
                          "double-precision range")
    if isinstance(pulse, ZeroPulse) or amp == 0.0:
        return _Units(VmE, p0, tau00, tau00, 2.0 * VmE * tau00, 1.0, 0.0, math.inf)
    width = pulse.width if isinstance(pulse, LorentzPulse) else 1.0 / pulse.rate
    # ratios of the inputs; within a factor 2 of the width either unit keeps
    # s of order 1, and the other one keeps ordinary bits
    w = width / tau00 if tau00 else math.inf
    a = min(1.0, e0 / amp)
    if a == 1.0 and width >= 0.5 * tau00:
        return _Units(VmE, p0, tau00, tau00, 2.0 * VmE * tau00, 1.0, amp / e0, w)
    c = _mul_div(amp, width, p0)
    if width < 0.5 * (tau00 if a == 1.0 else p0 / amp):
        return _Units(VmE, p0, tau00, width, 2.0 * VmE * width, w, c, 1.0)
    return _Units(VmE, p0, tau00, p0 / amp, 2.0 * _mul_div(VmE, p0, amp), a, 1.0, c)


def _ratios(x, n: int, moments: bool = False) -> list:
    """[R0] or [R0, R1, R2] at each x of an array: R_j = int_0^x y^j r(y) dy
    / x^(j+1) for the rise r(y) = (1 - y^2)^-n, or exp(y^2) for n = 0 (a
    Gaussian, or a pulse that is off, read at x = 0).  Below x = 1e-150, R0
    and R1 are 1 and 1/2 to rounding; R2 is its Taylor series where its
    closed form keeps only eps/x^2 of its size.  The callers hold errstate."""
    tiny = x < 1e-150
    n_tiny = np.count_nonzero(tiny)
    x2 = x * x if moments else None
    if n_tiny == x.size:    # no pulse, or a width beyond double range
        R = [np.full_like(x, 1.0 / (j + 1)) for j in range(3 if moments else 1)]
    elif n:     # int_0^x r = J_n(x) by the reduction formula
        R = [_lorentz_J(x, n) / x]
        if moments:
            R += [np.expm1((1 - n) * np.log1p(-x2)) / (2 * (n - 1) * x2),
                  (R[0] - _lorentz_J(x, n - 1) / x) / x2]
    else:       # int_0^x exp(y^2) dy = sqrt(pi)/2 * erfi(x)
        from scipy.special import erfi  # only Gaussians load scipy
        R = [0.5 * math.sqrt(math.pi) * erfi(x) / x]
        if moments:
            R += [np.expm1(x2) / (2.0 * x2), (np.exp(x2) - R[0]) / (2.0 * x2)]
    if n_tiny:
        for j, Rj in enumerate(R[:2]):
            Rj[tiny] = 1.0 / (j + 1)
    if moments and np.count_nonzero(small := (n or 1) * x2 < 1e-4):
        x2, term, series = x2[small], 1.0, 0.0
        for k in range(4):      # sum_k r_k x^(2k)/(2k + 3)
            series = series + term / (2 * k + 3)
            term = term * x2 * ((n + k) if n else 1) / (k + 1)
        R[2][small] = series
    return R


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
    """solve_tau0 at each energy: slot i holds the root at energies[i] or
    the PulseTunnelError it raised."""
    return [r if isinstance(r, PulseTunnelError) else r[0].T * r[1]
            for r in _roots(energies, barrier, pulse)]


def _roots(energies, barrier: TriangularBarrier, pulse) -> list:
    """(units, s) at each energy, the roots s = tau0/T of a*s + g(s) = 1 in
    lockstep (roots._find_root), or the PulseTunnelError it raised."""
    n = getattr(pulse, "exponent", 0)
    slots, live, brackets = [], [], []
    for E in energies:
        try:
            u = _units(E, barrier, pulse)
        except DomainError as exc:
            slots.append(exc)
            continue
        slots.append((u, 1.0))
        a, b, w = u.a, u.b, u.w
        if b == 0.0 and a == 1.0:   # f(s) = s - 1
            continue
        # a*s and g(s) >= b*s reach 1 at 1/max(a, b), f >= 0 at 1/(a + b):
        # start there or nearer the root (docs/decisions.md, "One root finder")
        hi, x = ((1.0 / max(a, b), 1.0 / (a + b)) if a + b > 0.0
                 else (math.inf, math.inf))
        if n:
            # next to the pole g -> b*w/(2(n-1)) * q^(1-n), q = 1 - s^2/w^2:
            # q where that meets 1 - a*w, floored at 1/n
            hi = min(hi, w)
            q = (b * w / (2.0 * (n - 1) * max(1.0 - a * w, 1.0 / n))
                 ) ** (1.0 / (n - 1))
            if q < 1.0:
                x = min(x, w * math.sqrt(1.0 - q), math.nextafter(w, 0.0))
        else:   # below hi, g(s) >= b*w^2 (exp(s^2/w^2) - 1)/(2 hi): f >= 0
            for _ in range(2 if b > 0.0 else 0):    # where that reaches 1
                L = math.log(2.0 * hi) - math.log(b) - 2.0 * math.log(w)
                hi = min(hi, w * math.sqrt(np.logaddexp(0.0, L)) or hi)
            x = hi = min(x, hi)
        live.append(len(slots) - 1)
        brackets.append((a, b, w, hi, x, 0.0))
    if not live:
        return slots
    a, b, w, hi, x, xtol = zip(*brackets)
    abw = np.array([a, b, w])

    def f(s, k):        # and f' = a + b*r(s/w), at the slots live[k]
        # a rise that overflows is beyond the root; any other inf is silent
        (a, b, w), s = abw.take(k, axis=1), np.array(s)
        y = s / w
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rise = (1.0 - y * y) ** -n if n else np.exp(y * y)
            beyond = rise == math.inf
            fs = a * s + b * s * _ratios(np.where(beyond, 0.0, y), n)[0] - 1.0
            df = a + b * rise
        fs[beyond], df[beyond] = math.inf, math.nan
        return fs.tolist(), df.tolist()

    for i, root in zip(live, _find_root(f, [0.0] * len(live), hi, x, xtol, "tau0")):
        slots[i] = root if isinstance(root, PulseTunnelError) else (slots[i][0], root)
    return slots


def euclidean_action(E: float, barrier: TriangularBarrier, pulse) -> EuclideanResult:
    """Exponent A and outgoing energy shift deltaE from the forced trajectory.

    With the pulse off this reduces to the static WKB exponent and deltaE = 0.
    In the below-threshold regime the small-amplitude limit is non-uniform:
    the result is reported at the given finite amplitude, never at zero.
    """
    return _one(euclidean_actions([E], barrier, pulse))


def euclidean_actions(energies, barrier: TriangularBarrier,
                      pulse) -> list[EuclideanResult | PulseTunnelError]:
    """euclidean_action at each energy, each in its own units (_units): the
    roots s in lockstep, every int_0^s g^2 in one engine call, on panels
    presplit toward a Lorentzian's poles s = +/- w, and the closed forms on
    arrays.  Slot i holds the EuclideanResult of energies[i], the one-energy
    value to the bit, or the PulseTunnelError that energy raised; a path
    whose integral gives up, or a closed form that overflows to an inf or a
    nan, touches only its own slot."""
    slots = _roots(energies, barrier, pulse)
    solved = [i for i, r in enumerate(slots) if not isinstance(r, PulseTunnelError)]
    n = getattr(pulse, "exponent", 0)
    bw = np.array([[slots[i][0].b for i in solved], [slots[i][0].w for i in solved]])

    def g2(z, k):
        (b, w), s = bw.take(k, axis=1), z.real
        with np.errstate(all="ignore"):     # an inf gives the path up
            g = b * s * _ratios(s / w, n)[0]
            return g * g

    # g(s) is singular where the pulse is: a Lorentzian's poles s = +/- w
    near = [(x, -x) if n else () for x in bw[1].tolist()]
    I2 = integrate_paths(g2, [[0.0, slots[i][1]] for i in solved],
                         epsabs=_EPSABS, epsrel=1e-11, near=near)[0]
    done = [(i, slots[i], v.real) for i, v in zip(solved, I2)
            if not isinstance(v, ConvergenceError)]
    for i, v in zip(solved, I2):    # an error stands, a value is replaced
        slots[i] = v
    if done:
        done, roots, I2 = zip(*done)
        for i, res in zip(done, _closed_forms(roots, np.array(I2), barrier, pulse)):
            slots[i] = res
    return slots


def _closed_forms(roots, I2, barrier, pulse) -> list[EuclideanResult]:
    """EuclideanResults at the roots (units, s), given the array I2 of
    int_0^s g^2.  With g(s) = b*s*R0 and m_j = int_0^s u^j g' = b*s^(j+1)*R_j,
        A/(2(V-E)T) = s - a^2 s^3/3 - a(s^2 g - m2) - I2,
        x_exit = (2(V-E)T/p0) * X, X = a s^2/2 + s g - m1,
        deltaE = (V-E)(1 - 2(a + b) X),
    so with the pulse off (s = a = 1, b = 0) A = A0 to rounding and
    deltaE = 0 exactly.  An overflow is an inf or a nan in its result."""
    units, s = zip(*roots)
    VmE, p0, tau00, T, U, a, b, w, s = (np.array(v) for v in (*zip(*units), s))
    with np.errstate(all="ignore"):
        R0, R1, R2 = _ratios(s / w, getattr(pulse, "exponent", 0), moments=True)
        s3 = s**3
        A = U * (s - a * a * s3 / 3.0 - a * b * s3 * (R0 - R2) - I2)
        X = s * s * (0.5 * a + b * (R0 - R1))
        x_exit = U / p0 * X
        deltaE = VmE * (1.0 - 2.0 * (a + b) * X)
        A0 = (4.0 / 3.0) * VmE * tau00      # static_wkb_exponent
    E_T = None
    if isinstance(pulse, ZeroPulse) or pulse.amplitude == 0.0:
        regimes = ["static"] * len(s)
    elif not isinstance(pulse, LorentzPulse):
        regimes = ["no-threshold"] * len(s)
    else:
        E_T, theta = threshold_energy(barrier, pulse), pulse.width
        regimes = ["near-threshold" if abs(t - theta) < 0.05 * theta
                   else "above-threshold" if t < theta else "below-threshold"
                   for t in tau00.tolist()]
    cols = zip(A.tolist(), A0.tolist(), (s * T).tolist(), deltaE.tolist(), regimes)
    return [EuclideanResult(*c, E_T, x) for c, x in zip(cols, x_exit.tolist())]


def threshold_energy(barrier: TriangularBarrier, pulse) -> float:
    """E_T = V - width^2*field_static^2/(2m): the energy with tau00(E) = width,
    clamped to [1e-12, 1 - 1e-12]*V; nan where one square overflows and the
    other underflows."""
    if not isinstance(pulse, LorentzPulse):
        raise DomainError("threshold energy is defined for Lorentzian pulses")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        raw = barrier.V - (np.float64(pulse.width)**2
                           * np.float64(barrier.field_static)**2 / (2.0 * barrier.m))
    lo = 1e-12 * barrier.V
    hi = barrier.V * (1.0 - 1e-12)
    return float(min(max(raw, lo), hi))


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

