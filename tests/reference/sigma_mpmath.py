#!/usr/bin/env python3
"""mpmath references for the semiclassical corrections sigma1 and sigma2.

Everything here is computed in mpmath at 30 working digits and stored with 25
significant digits, without scipy and without importing pulsetunnel, so the
package's closed-form sigma2 cannot simply agree with itself:

- the saddle t0 solves the saddle equation
  i(t - t0) p0 + E0 (t - t0)^2 / 2 + int_{t0}^{t} (t - s) pulse(s) ds = m x
  by mp.findroot, with the pulse integral by mp.quad along the segment;
- sigma1 is the closed form -i * (-ln(F)/2 + i (t0 + P(t0)/E0) / (2 tau00)),
  with F = 1 + i (t0 - t)(1 + pulse(t0)/E0) / tau00; the pulse antiderivative
  P is elementary (the Lorentzian's by the reduction formula for
  int (1 - u^2)^-n du, the Gaussian's an error function) and is checked
  against mp.quad at t0; ln F takes its cut along the negative imaginary
  axis, so negative real F is approached from above;
- the sigma2 source D^2/(4(V-E)F^2) - i dG/dt0/(4(V-E)F) takes
  D = d(sigma1)/dt0 and dG/dt0, G = D/F, from mp.diff of that sigma1;
- sigma2 is the source integrated by mp.quad along the package's two legs:
  eta from 0 to t - t0 at fixed t0, passing the source's pole where
  F(t0, t0 + eta) = 0 on its Re < 0 side, and the coincident-argument
  source from 0 to t0.  Here leg 1 goes round the pole on a semicircle of
  radius r; the source has no residue there, so the side does not matter,
  and the package takes both legs in closed form.

Points: the three exit-branch points of the benchmark's hj_corrections
workload (x1 of the canonical case, the small-amplitude point between x1 and
x2, x1 of the deep case) and one static-branch point each for a Gaussian and
for no pulse.  Inputs are stored as the float64 values passed to the package.

Regenerate with:

    python3 tests/reference/sigma_mpmath.py > tests/reference/sigma.json
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = "python3 tests/reference/sigma_mpmath.py > tests/reference/sigma.json"

CANON = {"V": 10.0, "E_bound": 5.0, "field_static": 1.0, "m": 1.0}
DEEP = {"V": 30.0, "E_bound": 10.0, "field_static": 1.0, "m": 1.0}


def _lorentz(amplitude, width, exponent=3):
    return {"kind": "lorentz", "amplitude": amplitude, "width": width,
            "exponent": exponent}


def _interior_x(barrier: dict, pulse: dict, z_frac: float) -> float:
    """Exit-branch coordinate whose saddle sits at z = z_frac * z2 (float64)."""
    V, E, e0, m = (barrier[k] for k in ("V", "E_bound", "field_static", "m"))
    th, n, amp = pulse["width"], pulse["exponent"], pulse["amplitude"]
    p0 = math.sqrt(2.0 * m * (V - E))
    tau00 = p0 / e0
    z2 = (amp / e0 * th / (2**n * (tau00 - th))) ** (1.0 / n)
    tau0 = th * (1.0 - z_frac * z2)
    wtilde = amp * th**2 / (2.0 * (n - 1)) * ((1.0 - tau0**2 / th**2) ** (1 - n) - 1.0)
    return (tau0 * p0 - 0.5 * e0 * tau0**2 - wtilde) / m


# t0_guess only seeds the root finder; it must lie closest to the wanted root
POINTS = [
    {"name": "canon_x1", "barrier": CANON, "pulse": _lorentz(0.05, 2.0),
     "x": 2.0, "t": 0.0, "branch": "exit", "t0_guess": (0.0, 1.8423)},
    {"name": "small_amp_interior", "barrier": CANON, "pulse": _lorentz(1e-5, 2.0),
     "x": _interior_x(CANON, _lorentz(1e-5, 2.0), 0.5), "t": 0.0,
     "branch": "exit", "t0_guess": (0.0, 1.98709)},
    {"name": "deep_x1", "barrier": DEEP, "pulse": _lorentz(0.05, 3.0),
     "x": 4.5, "t": 0.0, "branch": "exit", "t0_guess": (0.0, 2.8322)},
    {"name": "gaussian_static", "barrier": CANON,
     "pulse": {"kind": "gaussian", "amplitude": 0.05, "rate": 0.5},
     "x": 2.0, "t": 0.3, "branch": "static", "t0_guess": (0.3004, 0.7183)},
    {"name": "zero_static", "barrier": CANON, "pulse": {"kind": "zero"},
     "x": 2.0, "t": 0.3, "branch": "static", "t0_guess": (0.3, 0.7128)},
]


class Pulse:
    """Pulse field and its antiderivative from 0, in mpmath."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.amp = mp.mpf(spec.get("amplitude", 0.0))
        if self.kind == "lorentz":
            self.width = mp.mpf(spec["width"])
            self.n = spec["exponent"]
        elif self.kind == "gaussian":
            self.rate = mp.mpf(spec["rate"])

    def __call__(self, t):
        if self.kind == "lorentz":
            return self.amp / (1 + (t / self.width) ** 2) ** self.n
        if self.kind == "gaussian":
            return self.amp * mp.exp(-(self.rate * t) ** 2)
        return mp.mpc(0)

    def antiderivative(self, t):
        if self.kind == "lorentz":
            # int_0^x (1 - u^2)^-k du = x (1 - x^2)^(1-k) / (2(k-1))
            #                           + (2k-3)/(2(k-1)) * (the same for k-1)
            x = -1j * t / self.width
            J = mp.atanh(x)
            for k in range(2, self.n + 1):
                J = (x * (1 - x * x) ** (1 - k) / (2 * (k - 1))
                     + mp.mpf(2 * k - 3) / (2 * (k - 1)) * J)
            return 1j * self.amp * self.width * J
        if self.kind == "gaussian":
            return self.amp * mp.sqrt(mp.pi) / (2 * self.rate) * mp.erf(self.rate * t)
        return mp.mpc(0)


def _splits(n_ends: int = 12):
    """Parameters in [0, 1] that refine geometrically toward both ends."""
    ts = {mp.mpf(0), mp.mpf(1), mp.mpf(0.5)}
    for k in range(1, n_ends):
        ts.add(mp.mpf(2) ** -k)
        ts.add(1 - mp.mpf(2) ** -k)
    return sorted(ts)


def _mp_line(f, a, b):
    dz = b - a
    return mp.quad(lambda s: f(a + s * dz) * dz, _splits(), error=True, maxdegree=10)


def _mp_arc(f, center, radius, phi0, phi1):
    def g(phi):
        z = center + radius * mp.expj(phi)
        return f(z) * 1j * radius * mp.expj(phi)

    return mp.quad(g, [phi0, (phi0 + phi1) / 2, phi1], error=True, maxdegree=10)


def _detour(a, b, pole, radius):
    """(kind, ...) pieces of a->b with a Re < 0 semicircle around `pole`.

    The piece of the segment inside the circle |z - pole| = radius is
    replaced by the arc that sweeps through the direction -1 from the pole.
    """
    dz = b - a
    u = dz / abs(dz)
    s = mp.re((pole - a) / u)
    s = min(max(s, 0), abs(dz))
    d = abs(a + s * u - pole)
    if d >= radius:
        return [("line", a, b)]
    half = mp.sqrt(radius**2 - d**2)
    s0, s1 = max(s - half, 0), min(s + half, abs(dz))
    za, zb = a + s0 * u, a + s1 * u
    za = pole + radius * (za - pole) / abs(za - pole)
    zb = pole + radius * (zb - pole) / abs(zb - pole)
    phi0, phi1 = mp.arg(za - pole), mp.arg(zb - pole)
    sweep = (phi1 - phi0) % (2 * mp.pi)
    if (mp.pi - phi0) % (2 * mp.pi) > sweep:     # go the other way round
        sweep -= 2 * mp.pi
    return [("line", a, za), ("arc", pole, radius, phi0, phi0 + sweep),
            ("line", zb, b)]


def reference(point: dict) -> dict:
    b = point["barrier"]
    V, E, e0, m = (mp.mpf(b[k]) for k in ("V", "E_bound", "field_static", "m"))
    VmE = V - E
    p0 = mp.sqrt(2 * m * VmE)
    tau = p0 / e0
    x, t = mp.mpf(point["x"]), mp.mpf(point["t"])
    pulse = Pulse(point["pulse"])

    def saddle(t0):
        weighted, _ = _mp_line(lambda s: (t - s) * pulse(s), t0, t)
        return 1j * (t - t0) * p0 + e0 * (t - t0) ** 2 / 2 + weighted - m * x

    t0 = mp.findroot(saddle, mp.mpc(*point["t0_guess"]))
    residual = abs(saddle(t0))

    def F(w, tt):
        return 1 + 1j * (w - tt) * (1 + pulse(w) / e0) / tau

    def sigma1(w, tt):
        i_s1 = (-(mp.log(-1j * F(w, tt)) + 1j * mp.pi / 2) / 2
                + 1j * (w + pulse.antiderivative(w) / e0) / (2 * tau))
        return -1j * i_s1

    def phi2(w, tt):
        def D(z):
            return mp.diff(lambda u: sigma1(u, tt), z)

        Fw = F(w, tt)
        dG = mp.diff(lambda z: D(z) / F(z, tt), w)
        return D(w) ** 2 / (4 * VmE * Fw**2) - 1j * dG / (4 * VmE * Fw)

    antider_check, _ = _mp_line(pulse, mp.mpc(0), t0)
    antider_gap = abs(antider_check - pulse.antiderivative(t0))

    eta_pole = -1j * tau / (1 + pulse(t0) / e0)
    span = t - t0
    r = min(abs(eta_pole), abs(span - eta_pole), abs(span)) / 4
    leg1, err = mp.mpc(0), mp.mpf(0)
    for piece in _detour(mp.mpc(0), span, eta_pole, r):
        if piece[0] == "line":
            val, e = _mp_line(lambda eta: phi2(t0, t0 + eta), *piece[1:])
        else:
            val, e = _mp_arc(lambda eta: phi2(t0, t0 + eta), *piece[1:])
        leg1 += val
        err += e
    leg2, e = _mp_line(lambda s: phi2(s, s), mp.mpc(0), t0)
    err += e

    def c(z):
        return [mp.nstr(mp.re(z), DIGITS), mp.nstr(mp.im(z), DIGITS)]

    return {
        "name": point["name"],
        "barrier": b,
        "pulse": point["pulse"],
        "x": repr(point["x"]),
        "t": point["t"],
        "branch": point["branch"],
        "t0": c(t0),
        "sigma1": c(sigma1(t0, t)),
        "sigma2": c(leg1 + leg2),
        "saddle_residual": mp.nstr(residual, 3),
        "antiderivative_vs_quad": mp.nstr(antider_gap, 3),
        "quad_error": mp.nstr(err, 3),
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
