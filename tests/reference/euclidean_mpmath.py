#!/usr/bin/env python3
"""mpmath references for the Euclidean exponent A and the exit point.

Everything here is computed in mpmath at 30 working digits and stored with 25
significant digits, without scipy and without importing pulsetunnel, so the
package's integration by parts cannot simply agree with itself:

- G(u) = int_0^u pulse(i s) ds is the elementary closed form (the
  Lorentzian's by the reduction formula for int (1 - x^2)^-n dx, the
  Gaussian's an imaginary error function), checked against mp.quad at tau0;
- tau0 is the root of field_static*tau + G(tau) = sqrt(2m(V - E)) in
  (0, min(tau00, width)), by bisection on that bracket polished by
  mp.findroot;
- int G, int u*G and int G^2 over [0, tau0] are direct mp.quad integrals,
  on a partition that refines geometrically toward tau0, where G is steep
  when the root is pinned below the pulse width;
- A = 2(V - E) tau0 - field_static^2 tau0^3/(3m) - 2 field_static int u*G/m
  - int G^2/m and the exit point field_static tau0^2/(2m) + int G/m.

Points: the canonical barrier (V = 10, field_static = 1, m = 1) with the
canonical Lorentzian pulse (amplitude 0.05, width 2, exponent 3) at E = 5, 6
and 7; a root pinned 4.3e-6 of the width below it (amplitude 1e-5,
exponent 2); a Gaussian pulse; and exponents 24 and 30, whose G overflows
float64 next to the width.  Inputs are stored as the float64 values passed
to the package.

Regenerate with:

    python3 tests/reference/euclidean_mpmath.py > tests/reference/euclidean.json
"""

from __future__ import annotations

import json
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = "python3 tests/reference/euclidean_mpmath.py > tests/reference/euclidean.json"

CANON = {"V": 10.0, "E_bound": 5.0, "field_static": 1.0, "m": 1.0}
CANON_PULSE = {"kind": "lorentz", "amplitude": 0.05, "width": 2.0, "exponent": 3}

POINTS = [
    {"name": "canon_E5", "barrier": CANON, "pulse": CANON_PULSE, "E": 5.0},
    {"name": "canon_E6", "barrier": CANON, "pulse": CANON_PULSE, "E": 6.0},
    {"name": "canon_E7", "barrier": CANON, "pulse": CANON_PULSE, "E": 7.0},
    {"name": "pinned_n2", "barrier": CANON,
     "pulse": {"kind": "lorentz", "amplitude": 1e-5, "width": 2.0, "exponent": 2},
     "E": 5.0},
    {"name": "gaussian", "barrier": CANON,
     "pulse": {"kind": "gaussian", "amplitude": 0.05, "rate": 0.5}, "E": 5.0},
    {"name": "high_n24", "barrier": CANON,
     "pulse": {"kind": "lorentz", "amplitude": 0.05, "width": 2.0, "exponent": 24},
     "E": 1.0},
    {"name": "high_n30", "barrier": CANON,
     "pulse": {"kind": "lorentz", "amplitude": 0.05, "width": 2.0, "exponent": 30},
     "E": 5.0},
]


class Pulse:
    """The pulse on the imaginary axis, g(u) = pulse(i u), and G = int_0^u g."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.amp = mp.mpf(spec["amplitude"])
        if self.kind == "lorentz":
            self.width = mp.mpf(spec["width"])
            self.n = spec["exponent"]
        else:
            self.rate = mp.mpf(spec["rate"])

    def g(self, u):
        if self.kind == "lorentz":
            return self.amp / (1 - (u / self.width) ** 2) ** self.n
        return self.amp * mp.exp((self.rate * u) ** 2)

    def G(self, u):
        if self.kind == "lorentz":
            # int_0^x (1 - s^2)^-k ds = x (1 - x^2)^(1-k) / (2(k-1))
            #                           + (2k-3)/(2(k-1)) * (the same for k-1)
            x = u / self.width
            J = mp.atanh(x)
            for k in range(2, self.n + 1):
                J = (x * (1 - x * x) ** (1 - k) / (2 * (k - 1))
                     + mp.mpf(2 * k - 3) / (2 * (k - 1)) * J)
            return self.amp * self.width * J
        return self.amp * mp.sqrt(mp.pi) / (2 * self.rate) * mp.erfi(self.rate * u)

    def upper(self, tau00):
        """Upper end of the root bracket: tau00, or just below the pole."""
        if self.kind == "lorentz":
            return min(tau00, self.width * (1 - mp.mpf(10) ** -25))
        return tau00


def _partition(tau):
    """[0, tau] split in halves toward tau, down to 2^-60 of its length."""
    return [mp.mpf(0)] + [tau * (1 - mp.mpf(2) ** -k) for k in range(1, 61)] + [tau]


def reference(point: dict) -> dict:
    b = point["barrier"]
    V, e0, m = (mp.mpf(b[k]) for k in ("V", "field_static", "m"))
    E = mp.mpf(point["E"])
    pulse = Pulse(point["pulse"])
    p0 = mp.sqrt(2 * m * (V - E))

    def root_eq(t):
        return e0 * t + pulse.G(t) - p0

    lo, hi = mp.mpf(0), pulse.upper(p0 / e0)
    for _ in range(80):                  # bisect, then polish by secant steps
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if root_eq(mid) < 0 else (lo, mid)
    tau0 = mp.findroot(root_eq, (lo, hi), solver="secant")
    residual = abs(root_eq(tau0))
    pts = _partition(tau0)
    G_check = mp.quad(pulse.g, pts)
    IG = mp.quad(pulse.G, pts)
    I1 = mp.quad(lambda u: u * pulse.G(u), pts)
    I2 = mp.quad(lambda u: pulse.G(u) ** 2, pts)
    A = 2 * (V - E) * tau0 - e0**2 * tau0**3 / (3 * m) - 2 * e0 * I1 / m - I2 / m
    return {
        "name": point["name"],
        "barrier": b,
        "pulse": point["pulse"],
        "E": point["E"],
        "tau0": mp.nstr(tau0, DIGITS),
        "A": mp.nstr(A, DIGITS),
        "exit_point": mp.nstr(e0 * tau0**2 / (2 * m) + IG / m, DIGITS),
        "root_residual": mp.nstr(residual, 3),
        "G_vs_quad": mp.nstr(abs(G_check - pulse.G(tau0)), 3),
    }


def main() -> int:
    mp.mp.dps = WORK_DPS
    doc = {
        "command": COMMAND,
        "mpmath": mp.__version__,
        "working_digits": WORK_DPS,
        "digits": DIGITS,
        "points": [reference(p) for p in POINTS],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
