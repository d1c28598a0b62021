#!/usr/bin/env python3
"""Independent high-precision reference values for the pulsetunnel benchmark.

Everything here is computed in mpmath (tanh-sinh quadrature) at 30 working
digits and stored with 25 significant digits, without scipy and without
importing pulsetunnel, so a rewrite of the package's quadrature cannot simply
agree with itself.

- delta_action: the perturbative exponent correction
  dA = Re(-i * int_C pulse(t) x0(t) dt) on the sech^2 barrier, along the same
  conjugation-symmetric polyline the package builds, at the closed-form
  stationary shift dt = -gap/sqrt(3), for gap/theta in {0.15, 0.05, 0.02}.
- static_wkb: the static WKB exponent 2*sqrt(2m) * int sqrt(V(x) - E) dx of
  both barriers, by quadrature of the spatial integral.

The inputs are stored as the float64 values the benchmark passes to the
package, so both sides evaluate the same problem.

Regenerate with:

    python3 bench/references.py > bench/references.json
"""

from __future__ import annotations

import json
import math
import sys

import mpmath as mp

WORK_DPS = 30
DIGITS = 25
COMMAND = "python3 bench/references.py > bench/references.json"

# pole-scan reference configuration: sech^2 barrier V=a=m=1 at E=0.5
# (omega = 1, tau_s = pi/2) under an n=2 Lorentzian pulse of amplitude 0.005
SECH = {"V": 1.0, "a": 1.0, "m": 1.0}
E_REF = 0.5
AMP_REF = 0.005
N_REF = 2
GAP_FRACS = (0.15, 0.05, 0.02)

TRIANGULAR = {"V": 10.0, "E": 5.0, "field_static": 1.0, "m": 1.0}


def _float_inputs(gap_frac: float) -> dict:
    """Pulse width and stationary shift in float64, as the benchmark forms them."""
    omega = math.sqrt(2.0 * E_REF / (SECH["m"] * SECH["a"] ** 2))
    tau_s = math.pi / (2.0 * omega)
    theta = tau_s / (1.0 - gap_frac)
    gap = theta - tau_s
    return {"theta": theta, "dt_shift": -gap / math.sqrt(3.0)}


def _polyline(theta, dt_shift, omega, offset):
    """Waypoints of the contour between the branch point and the pulse pole.

    Legs at +/- i*pi/omega from -tail to Re t_s - 1/omega, a connector that
    crosses the imaginary axis halfway between Im t_s and the pulse width and
    turns back at half the abscissa of the mirrored branch point.
    """
    tau_s = mp.pi / (2 * omega)
    H = 2 * tau_s
    y = tau_s + (min(theta, H) - tau_s) / 2
    abs_shift = dt_shift - offset
    re_ts = -offset - abs_shift
    c1 = re_ts - 1 / omega
    c2 = (-re_ts - 2 * abs_shift) / 2
    tail = max(200 * theta, abs(c1) + 200 / omega)
    pts = [
        mp.mpc(-tail, H), mp.mpc(c1, H), mp.mpc(c1, y), mp.mpc(c2, y),
        mp.mpc(c2, -y), mp.mpc(c1, -y), mp.mpc(c1, -H), mp.mpc(-tail, -H),
    ]
    # abscissae where the connector passes close to a singularity: the pulse
    # pole (Re t = 0) and the trajectory branch point (Re t = re_ts)
    return pts, (mp.mpf(0), re_ts), min(theta - y, y - tau_s)


def _breakpoints(a, b, near, scale):
    """Parameters in [0, 1] splitting the segment a->b geometrically around
    the abscissae in `near`, so tanh-sinh sees no interior near-singularity."""
    ts = {mp.mpf(0), mp.mpf(1)}
    dz = b - a
    if dz.imag == 0:                       # leg or connector
        for x in near:
            for k in range(-2, 40):
                for sgn in (-1, 1):
                    t = (x + sgn * scale * mp.mpf(2) ** k - a.real) / dz.real
                    if 0 < t < 1:
                        ts.add(t)
            t = (x - a.real) / dz.real
            if 0 < t < 1:
                ts.add(t)
    else:                                  # vertical: split toward both ends
        for k in range(1, 12):
            ts.add(mp.mpf(2) ** -k)
            ts.add(1 - mp.mpf(2) ** -k)
    return sorted(ts)


def delta_action_reference(gap_frac: float) -> dict:
    inputs = _float_inputs(gap_frac)
    V, a, m = (mp.mpf(SECH[k]) for k in ("V", "a", "m"))
    E = mp.mpf(E_REF)
    amp = mp.mpf(AMP_REF)
    theta = mp.mpf(inputs["theta"])
    dt_shift = mp.mpf(inputs["dt_shift"])
    omega = mp.sqrt(2 * E / (m * a**2))
    u0 = mp.sqrt((V - E) / E)
    # time offset between the turning point and the aligned branch point
    offset = mp.log((mp.sqrt(V) + mp.sqrt(E)) / mp.sqrt(V - E)) / omega
    abs_shift = dt_shift - offset

    def integrand(t):
        pulse = amp / (1 + (t / theta) ** 2) ** N_REF
        x0 = a * mp.asinh(u0 * mp.cosh(omega * (t + abs_shift)))
        return pulse * x0

    pts, near, scale = _polyline(theta, dt_shift, omega, offset)
    total = mp.mpc(0)
    err_total = mp.mpf(0)
    for za, zb in zip(pts[:-1], pts[1:]):
        dz = zb - za
        ts = _breakpoints(za, zb, near, scale)
        val, err = mp.quad(lambda s: integrand(za + s * dz) * dz, ts,
                           error=True, maxdegree=10)
        total += val
        err_total += err
    dA = -1j * total
    return {
        "gap_frac": gap_frac,
        "E": E_REF,
        "V": SECH["V"],
        "a": SECH["a"],
        "m": SECH["m"],
        "amp": AMP_REF,
        "n": N_REF,
        "theta": repr(inputs["theta"]),
        "dt_shift": repr(inputs["dt_shift"]),
        "value": mp.nstr(dA.real, DIGITS),
        "imag_residual": mp.nstr(dA.imag, 3),
        "quad_error": mp.nstr(err_total, 3),
    }


def static_wkb_references() -> list[dict]:
    out = []
    V, E = mp.mpf(TRIANGULAR["V"]), mp.mpf(TRIANGULAR["E"])
    e0, m = mp.mpf(TRIANGULAR["field_static"]), mp.mpf(TRIANGULAR["m"])
    x_exit = (V - E) / e0
    val = 2 * mp.sqrt(2 * m) * mp.quad(lambda x: mp.sqrt(V - E - e0 * x),
                                       [0, x_exit])
    out.append({"barrier": "triangular", **TRIANGULAR,
                "value": mp.nstr(val, DIGITS)})
    V, a, m = (mp.mpf(SECH[k]) for k in ("V", "a", "m"))
    E = mp.mpf(E_REF)
    xt = a * mp.acosh(mp.sqrt(V / E))
    # the radicand rounds to a tiny negative number at the turning points
    val = 2 * mp.sqrt(2 * m) * mp.re(mp.quad(
        lambda x: mp.sqrt(V / mp.cosh(x / a) ** 2 - E), [-xt, 0, xt]))
    out.append({"barrier": "sech", **SECH, "E": E_REF,
                "value": mp.nstr(val, DIGITS)})
    return out


def main() -> int:
    mp.mp.dps = WORK_DPS
    doc = {
        "command": COMMAND,
        "mpmath": mp.__version__,
        "working_digits": WORK_DPS,
        "digits": DIGITS,
        "delta_action": [delta_action_reference(g) for g in GAP_FRACS],
        "static_wkb": static_wkb_references(),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
