#!/usr/bin/env python3
"""mpmath reference for the minimized trajectory correction dA.

Everything here is computed in mpmath at 30 working digits and stored with 25
significant digits, without scipy and without importing pulsetunnel.

On the sech^2 barrier the correction at exit-time shift dt is
dA(dt) = Re(-i int_C pulse(t) x0(t + s) dt), with x0(t) = a*asinh(u0*cosh(w*t))
on its principal branch, w = sqrt(2E/(m a^2)), u0 = sqrt((V - E)/E) and
s = dt - offset the trajectory's own shift (offset = ln((sqrt V + sqrt E) /
sqrt(V - E))/w puts the unshifted branch point below the pulse pole).  Its
slope in dt is the same integral with the velocity
a*u0*w*sinh(z)/sqrt(1 + (u0 cosh z)^2), z = w*(t + s).

- C is the whole closed polyline: legs at Im t = +/- pi/w from Re t = -tail
  (tail = 200*theta, where the package truncates them) to a left vertical at
  c1 = min(Re t_s, 0) - 2/w, and a connector at Im t = +/- y,
  y = tau_s + (theta - tau_s)/3, which turns at c2, a third of the way from
  max(Re t_s, 0) to the mirrored branch point.  The package's own contour
  turns at c1 + 1/w, halfway up to theta and halfway across, so only the
  truncated legs are shared; the imaginary part of -i int_C is stored as a
  check.
- Each segment is an mp.quad (tanh-sinh) split geometrically toward the
  abscissae of the pulse pole and the branch point on the connector and
  toward the corners on the legs.
- The root of dA' is found by mp.findroot (secant) from the closed-form
  stationary shift -gap/sqrt(3), and dA is evaluated there.

Points: V = a = m = 1, E = 0.5 (w = 1, tau_s = pi/2) under a Lorentzian pulse
of amplitude 0.005 and exponent 2 whose width puts the branch point
gap/theta in {0.15, 0.05, 0.02} below the pole; the widths are stored as the
float64 values passed to the package.

Regenerate with (about four minutes on one core):

    python3 tests/reference/trajectory_mpmath.py > tests/reference/trajectory.json
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = ("python3 tests/reference/trajectory_mpmath.py > "
           "tests/reference/trajectory.json")

BARRIER = {"V": 1.0, "a": 1.0, "m": 1.0}
E_REF, AMP, N = 0.5, 0.005, 2
GAP_FRACS = (0.15, 0.05, 0.02)


def width_at(gap_frac: float) -> float:
    """Pulse width (float64) whose pole sits gap_frac*width above Im t_s."""
    tau_s = math.pi / (2.0 * math.sqrt(2.0 * E_REF / (BARRIER["m"]
                                                      * BARRIER["a"] ** 2)))
    return tau_s / (1.0 - gap_frac)


def reference(gap_frac: float) -> dict:
    V, a, m = (mp.mpf(BARRIER[k]) for k in ("V", "a", "m"))
    E, amp = mp.mpf(E_REF), mp.mpf(AMP)
    theta_f = width_at(gap_frac)
    theta = mp.mpf(theta_f)
    w = mp.sqrt(2 * E / (m * a**2))
    u0 = mp.sqrt((V - E) / E)
    tau_s = mp.pi / (2 * w)
    H = 2 * tau_s
    offset = mp.log((mp.sqrt(V) + mp.sqrt(E)) / mp.sqrt(V - E)) / w
    gap = theta - tau_s
    tail = 200 * theta

    def pulse(t):
        return amp / (1 + (t / theta) ** 2) ** N

    def motion(order, t, s):
        z = w * (t + s)
        u = u0 * mp.cosh(z)
        if order == 0:
            return a * mp.asinh(u)
        return a * u0 * w * mp.sinh(z) / mp.sqrt(1 + u * u)

    def params(za, zb, near, scale):
        """Parameters in [0, 1] that split the segment za->zb: geometrically
        around the abscissae `near` on the connector (`scale` is its distance
        to the singularities), toward the inner corner on a leg, and toward
        both ends on a vertical."""
        ts = {mp.mpf(0), mp.mpf(1)}
        dz = zb - za
        if abs(za.imag) == H and abs(zb.imag) == H:
            inner = za.real if za.real > zb.real else zb.real
            ts.update((inner - 2**k - za.real) / dz.real for k in range(10))
        elif dz.imag == 0:
            for x in near:
                ts.add((x - za.real) / dz.real)
                for k in range(-8, 6):
                    for sgn in (-1, 1):
                        ts.add((x + sgn * scale * mp.mpf(2) ** -k - za.real)
                               / dz.real)
        else:
            for k in range(1, 10):
                ts.update((mp.mpf(2) ** -k, 1 - mp.mpf(2) ** -k))
        return sorted(t for t in ts if 0 <= t <= 1)

    def integral(order, dt):
        """-i int_C pulse * d^k x0/dt^k dt (complex) and the quad error."""
        s = dt - offset
        re_ts = -dt
        mirror = dt + 2 * offset
        right = max(re_ts, 0)
        c1 = min(re_ts, 0) - 2 / w
        c2 = right + (mirror - right) / 3
        y = tau_s + gap / 3
        upper = [mp.mpc(-tail, H), mp.mpc(c1, H), mp.mpc(c1, y), mp.mpc(c2, y),
                 mp.mpc(c2, 0)]
        pts = upper + [p.conjugate() for p in reversed(upper[:-1])]
        total, err = mp.mpc(0), mp.mpf(0)
        for za, zb in zip(pts[:-1], pts[1:]):
            dz = zb - za
            ts = params(za, zb, (mp.mpf(0), re_ts), min(theta - y, y - tau_s))
            v, e = mp.quad(lambda u: pulse(za + u * dz)
                           * motion(order, za + u * dz, s) * dz, ts, error=True)
            total += v
            err += e
        return -1j * total, err

    def slope(dt):
        return integral(1, dt)[0].real

    dt = mp.findroot(slope, (-gap / mp.sqrt(3), -gap / 2), solver="secant",
                     tol=mp.mpf(10) ** -50)
    dA, dA_err = integral(0, dt)
    d1, d1_err = integral(1, dt)
    return {
        "gap_frac": gap_frac,
        "E": E_REF,
        **BARRIER,
        "amp": AMP,
        "n": N,
        "theta": repr(theta_f),
        "dt_shift": mp.nstr(dt, DIGITS),
        "dA": mp.nstr(dA.real, DIGITS),
        "dA_imag_residual": mp.nstr(dA.imag, 3),
        "dA_quad_error": mp.nstr(dA_err, 3),
        "slope_residual": mp.nstr(abs(d1.real), 3),
        "slope_quad_error": mp.nstr(d1_err, 3),
    }


def main() -> int:
    mp.mp.dps = WORK_DPS
    doc = {
        "command": COMMAND,
        "mpmath": mp.__version__,
        "working_digits": WORK_DPS,
        "digits": DIGITS,
        "points": [reference(g) for g in GAP_FRACS],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
