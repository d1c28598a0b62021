#!/usr/bin/env python3
"""mpmath reference for the Hamilton-Jacobi exit exponent.

Everything here is computed in mpmath at 30 working digits and stored with 25
significant digits, without scipy and without importing pulsetunnel.  It
follows the HJ route in complex time, not the Euclidean reduction to the
traversal time:

- the saddle t0 solves the saddle equation
  i(t - t0) p0 + E0 (t - t0)^2 / 2 + int_{t0}^{t} (t - s) pulse(s) ds = m x
  at t = 0 by mp.findroot in complex t0, started from the exit-branch root of
  its restriction to the imaginary axis (bisection between the maximum of
  that real function and the pulse width), with the pulse integrals by
  mp.quad along the segment;
- the exit point x solves Im p(0) = 0 for the momentum
  p(s) = i p0 + (s - t0) E0 + int_{t0}^{s} pulse, by bisection in x and
  mp.findroot polishing;
- the action S = -(1/2m) int_{t0}^{0} p(s)^2 ds + x p(0) + (V - E) t0 is an
  mp.quad along the segment t0 -> 0, split geometrically toward t0, where
  the pulse is steep next to its pole; inside it p(s) takes the pulse
  integral from the elementary antiderivative (the reduction formula for
  int (1 + u^2)^-n du), checked against mp.quad at the exit point.  The
  exponent is 2 Im S.

Point: the canonical barrier (V = 10, field_static = 1, m = 1) at E = 5 with
the canonical Lorentzian pulse (amplitude 0.05, width 2, exponent 3).
Inputs are stored as the float64 values passed to the package.

Regenerate with (about three minutes on one core):

    python3 tests/reference/hj_exit_mpmath.py > tests/reference/hj_exit.json
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = "python3 tests/reference/hj_exit_mpmath.py > tests/reference/hj_exit.json"

POINT = {
    "name": "canon_E5",
    "barrier": {"V": 10.0, "E_bound": 5.0, "field_static": 1.0, "m": 1.0},
    "pulse": {"kind": "lorentz", "amplitude": 0.05, "width": 2.0, "exponent": 3},
}


def reference(point: dict) -> dict:
    b, pl = point["barrier"], point["pulse"]
    V, E, e0, m = (mp.mpf(b[k]) for k in ("V", "E_bound", "field_static", "m"))
    amp, width, n = mp.mpf(pl["amplitude"]), mp.mpf(pl["width"]), pl["exponent"]
    p0 = mp.sqrt(2 * m * (V - E))

    def pulse(s):
        return amp / (1 + (s / width) ** 2) ** n

    def segment(a, z):
        """[a, z] split in halves toward a, down to 2^-12 of its length."""
        return [a] + [a + (z - a) * mp.mpf(2) ** -k for k in range(12, 0, -1)] + [z]

    def int_pulse(a, z, weight=lambda s: 1):
        return mp.quad(lambda s: weight(s) * pulse(s), segment(a, z))

    def saddle(t0, x):
        return (-1j * t0 * p0 + e0 * t0**2 / 2
                + int_pulse(t0, 0, lambda s: -s) - m * x)

    def exit_t0(x):
        # on t0 = i u the saddle equation is real,
        # f(u) = u p0 - E0 u^2/2 - int_0^u v pulse(i v) dv - m x, concave on
        # (0, width); the exit branch is its root between the maximum and
        # the pulse width
        def f(u):
            return saddle(1j * u, x).real

        def df(u):
            return p0 - e0 * u - u * pulse(1j * u).real

        lo, hi = mp.mpf(0), width * (1 - mp.mpf(10) ** -20)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if df(mid) > 0 else (lo, mid)
        lo, hi = lo, width * (1 - mp.mpf(10) ** -20)
        for _ in range(16):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return mp.findroot(lambda t0: saddle(t0, x), mp.mpc(0, (lo + hi) / 2))

    def antiderivative(s):
        # int_0^s pulse = amp*width*K_n(s/width), with
        # K_k(u) = u/(2(k-1)(1 + u^2)^(k-1)) + (2k-3)/(2(k-1)) K_{k-1}(u)
        u = s / width
        K = mp.atan(u)
        for k in range(2, n + 1):
            K = (u / (2 * (k - 1) * (1 + u * u) ** (k - 1))
                 + mp.mpf(2 * k - 3) / (2 * (k - 1)) * K)
        return amp * width * K

    def momentum(s, t0, closed_form=False):
        integral = (antiderivative(s) - antiderivative(t0) if closed_form
                    else int_pulse(t0, s))
        return 1j * p0 + (s - t0) * e0 + integral

    def im_p(x):
        return momentum(0, exit_t0(x)).imag

    x1 = e0 * width**2 / (2 * m)
    lo, hi = (x1 / 2, x1) if im_p(x1) > 0 else (x1, 6 * x1 / 5)
    lo_positive = im_p(lo) > 0
    for _ in range(8):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (im_p(mid) > 0) == lo_positive else (lo, mid)
    x = mp.findroot(im_p, (lo, hi), solver="secant")
    t0 = exit_t0(x)
    p_exit = momentum(0, t0)
    kin = mp.quad(lambda s: momentum(s, t0, closed_form=True) ** 2,
                  segment(t0, 0))
    S = -kin / (2 * m) + x * p_exit + (V - E) * t0
    return {
        "name": point["name"],
        "barrier": b,
        "pulse": pl,
        "exit_point": mp.nstr(x, DIGITS),
        "t0_imag": mp.nstr(t0.imag, DIGITS),
        "A": mp.nstr(2 * S.imag, DIGITS),
        "saddle_residual": mp.nstr(abs(saddle(t0, x)), 3),
        "im_p_residual": mp.nstr(abs(p_exit.imag), 3),
        "antiderivative_vs_quad": mp.nstr(
            abs(momentum(0, t0, closed_form=True) - p_exit), 3),
    }


def main() -> int:
    mp.mp.dps = WORK_DPS
    doc = {
        "command": COMMAND,
        "mpmath": mp.__version__,
        "working_digits": WORK_DPS,
        "digits": DIGITS,
        "points": [reference(POINT)],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
