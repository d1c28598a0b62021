#!/usr/bin/env python3
"""mpmath references for the two contour integrals that pass the pulse poles
to the engine as `near` points.

Everything here is computed in mpmath at 30 working digits and stored with 25
significant digits, without scipy and without importing pulsetunnel:

- the HJ kinetic integral int_{t0}^{0} p(s)^2 ds, with
  p(s) = i p0 + (s - t0) E0 + W(s) - W(t0) and W the elementary antiderivative
  of the Lorentzian pulse (the reduction formula for int (1 + u^2)^-n du), at
  the three exit-branch points (x, t = 0) of the benchmark's hj_corrections
  workload;
- the Euclidean integral int_0^{tau0} G(u)^2 du, with G(u) = int_0^u pulse(i v)
  dv the elementary closed form (the reduction formula for
  int (1 - x^2)^-n dx), at the first, the middle and the last energy of the
  benchmark's seed-1 curve60 grid, 60 energies from 2.539012287126507 to
  6.770699432337352 on V = 10.37061538262509, width 1.953069938432006.

Both are direct mp.quad integrals on a partition that refines geometrically
toward the end nearest the pulse pole.  The end points t0 and tau0 are the
float64 values the package integrates to; each is also solved here (the
saddle equation in closed form by mp.findroot, and the tau0 equation by
bisection polished by mp.findroot), and the relative distance of the float64
input from that root is stored as `root_offset`.

Regenerate with (a few seconds on one core):

    python3 tests/reference/near_mpmath.py > tests/reference/near.json
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = "python3 tests/reference/near_mpmath.py > tests/reference/near.json"

CANON = {"V": 10.0, "E_bound": 5.0, "field_static": 1.0, "m": 1.0}
DEEP = {"V": 30.0, "E_bound": 10.0, "field_static": 1.0, "m": 1.0}

# the exit-branch saddles t0 = i*t0_imag at (x, t = 0)
SADDLES = [
    {"name": "canon_x1", "barrier": CANON, "x": 2.0, "t0_imag": 1.8422958525745092,
     "pulse": {"amplitude": 0.05, "width": 2.0, "exponent": 3}},
    {"name": "small_amp_interior", "barrier": CANON, "x": 4.249076315345308,
     "t0_imag": 1.9870914724471314,
     "pulse": {"amplitude": 1e-5, "width": 2.0, "exponent": 3}},
    {"name": "deep_x1", "barrier": DEEP, "x": 4.5, "t0_imag": 2.832196858022004,
     "pulse": {"amplitude": 0.05, "width": 3.0, "exponent": 3}},
]

CURVE60_BARRIER = {"V": 10.37061538262509, "field_static": 1.0, "m": 1.0}
CURVE60_PULSE = {"amplitude": 0.002, "width": 1.953069938432006, "exponent": 3}
# grid index, energy and the package's tau0
TRAVERSALS = [
    (0, 2.539012287126507, 1.9312585144542327),
    (29, 4.618994104264042, 1.9273294738013713),
    (59, 6.770699432337352, 1.9171859327228407),
]


def reduction(u, n, sign):
    """int_0^u (1 + sign*v^2)^-n dv, by
    K_k = u/(2(k-1)(1 + sign u^2)^(k-1)) + (2k-3)/(2(k-1)) K_{k-1}."""
    K = mp.atan(u) if sign > 0 else mp.atanh(u)
    for k in range(2, n + 1):
        K = (u / (2 * (k - 1) * (1 + sign * u * u) ** (k - 1))
             + mp.mpf(2 * k - 3) / (2 * (k - 1)) * K)
    return K


def toward(a, z):
    """[a, z] split in halves toward a, down to 2^-20 of its length."""
    return [a] + [a + (z - a) * mp.mpf(2) ** -k for k in range(20, 0, -1)] + [z]


def kinetic(point: dict) -> dict:
    b, pl = point["barrier"], point["pulse"]
    V, E, e0, m = (mp.mpf(b[k]) for k in ("V", "E_bound", "field_static", "m"))
    amp, width, n = mp.mpf(pl["amplitude"]), mp.mpf(pl["width"]), pl["exponent"]
    x = mp.mpf(point["x"])
    p0 = mp.sqrt(2 * m * (V - E))

    def W(s):       # int_0^s pulse
        return amp * width * reduction(s / width, n, 1)

    def M(s):       # int_0^s s' pulse(s') ds'
        return (amp * width**2 / (2 * (1 - n))
                * ((1 + (s / width) ** 2) ** (1 - n) - 1))

    def saddle(t0):     # the saddle equation at t = 0
        return -1j * t0 * p0 + e0 * t0**2 / 2 + M(t0) - m * x

    t0 = mp.mpc(0, point["t0_imag"])
    root = mp.findroot(saddle, t0)
    at_t0 = W(t0)
    kin = mp.quad(lambda s: (1j * p0 + (s - t0) * e0 + W(s) - at_t0) ** 2,
                  toward(t0, mp.mpc(0)))
    return {
        "name": point["name"],
        "barrier": b,
        "pulse": pl,
        "x": point["x"],
        "t0_imag": point["t0_imag"],
        "root_offset": mp.nstr(abs(t0 - root) / abs(root), 3),
        "int_p2_real": mp.nstr(kin.real, DIGITS),
        "int_p2_imag": mp.nstr(kin.imag, DIGITS),
    }


def euclidean(index: int, E: float, tau0: float) -> dict:
    b, pl = CURVE60_BARRIER, CURVE60_PULSE
    V, e0, m = (mp.mpf(b[k]) for k in ("V", "field_static", "m"))
    amp, width, n = mp.mpf(pl["amplitude"]), mp.mpf(pl["width"]), pl["exponent"]
    p0 = mp.sqrt(2 * m * (V - mp.mpf(E)))

    def G(u):
        return amp * width * reduction(u / width, n, -1)

    def g(tau):
        return e0 * tau + G(tau) - p0

    lo, hi = mp.mpf(0), min(p0 / e0, width * (1 - mp.mpf(10) ** -25))
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    root = mp.re(mp.findroot(g, (lo + hi) / 2))
    t = mp.mpf(tau0)
    I2 = mp.quad(lambda u: G(u) ** 2, toward(t, mp.mpf(0))[::-1])
    return {
        "name": f"curve60_E{index}",
        "barrier": b,
        "pulse": pl,
        "E": E,
        "tau0": tau0,
        "root_offset": mp.nstr(abs(t - root) / root, 3),
        "int_G2": mp.nstr(I2, DIGITS),
    }


def main() -> int:
    mp.mp.dps = WORK_DPS
    doc = {
        "command": COMMAND,
        "mpmath": mp.__version__,
        "working_digits": WORK_DPS,
        "digits": DIGITS,
        "kinetic": [kinetic(p) for p in SADDLES],
        "euclidean": [euclidean(*t) for t in TRAVERSALS],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
