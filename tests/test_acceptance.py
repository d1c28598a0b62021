"""Acceptance gate: cross-method agreement at stated tolerances.

Each criterion is encoded at its stated tolerance.  Three clauses fail by
honest, reproducible margins rooted in dropped sub-leading terms of the
closed forms they compare against; those tests are left red on purpose and
the measured deviations are recorded in the project decision log
(notes/decisions.md, kept outside the package tree).
"""

import math
import random
import time

import numpy as np
import pytest
from scipy import integrate

from pulsetunnel.euclidean import euclidean_action, threshold_energy
from pulsetunnel.hj import action as hj_action
from pulsetunnel.hj import decay_rate_series, rate_peak_time, solve_t0
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)
from pulsetunnel.quanta import optimize_quanta
from pulsetunnel.tdse import GridSpec, enhancement_exponent
from pulsetunnel.trajectory import minimize_delta_action

CANON = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0)

A_THRESHOLD_FORM = (4.0 / 3.0) * 2.0 * 2.0 + 2.0 * 3.0 * 2.0   # 17.333...


# --- Criterion 1: static reduction ------------------------------------------------

def test_static_reduction_20_random_configs():
    rng = random.Random(20240817)
    start = time.monotonic()
    for _ in range(20):
        V = rng.uniform(2.0, 30.0)
        E = rng.uniform(0.15, 0.85) * V
        e0 = rng.uniform(0.3, 3.0)
        m = rng.uniform(0.4, 3.0)
        b = TriangularBarrier(V=V, E_bound=E, field_static=e0, m=m)
        S = hj_action(b.exit_point, 0.0, b, ZeroPulse())
        assert 2.0 * S.imag == pytest.approx(
            (4.0 / 3.0) * (V - E) * b.tau00, rel=1e-8
        )
        a = rng.uniform(0.3, 3.0)
        s = SechBarrier(V=V, a=a, m=m)
        assert static_wkb_exponent(s, E) == pytest.approx(
            _sech_exponent_quadrature(V, a, m, E), rel=1e-8
        )
    assert time.monotonic() - start < 1.0


def _sech_exponent_quadrature(V, a, m, E):
    """2*sqrt(2m) * int sqrt(V/cosh^2(x/a) - E) dx between the turning points."""
    xt = a * math.acosh(math.sqrt(V / E))

    def p_abs(x):
        return math.sqrt(max(V / math.cosh(x / a) ** 2 - E, 0.0))

    num, _ = integrate.quad(p_abs, -xt, xt, epsabs=1e-13, epsrel=1e-12)
    return 2.0 * math.sqrt(2.0 * m) * num


# --- Criterion 2: cross-method keystone -------------------------------------------

def test_keystone_cross_method():
    start = time.monotonic()
    amps = [0.01, 0.03, 0.05]
    As = [
        euclidean_action(
            5.0, CANON, LorentzPulse(amplitude=a, width=2.0, exponent=3)
        ).A
        for a in amps
    ]
    # the finite-amplitude plateau approaches the threshold form with a
    # leading correction ~ amp^(1/3) (set by the pinning of the traversal
    # time); extrapolate the three sampled amplitudes quadratically in
    # z = amp^(1/3) to the zero-amplitude limit before comparing
    z = [a ** (1.0 / 3.0) for a in amps]
    coeffs = np.polyfit(z, As, 2)
    A_extrap = float(np.polyval(coeffs, 0.0))
    assert A_extrap == pytest.approx(A_THRESHOLD_FORM, rel=0.02)

    # Hamilton-Jacobi doubled exit action vs the imaginary-time action
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    res = euclidean_action(5.0, CANON, pulse)
    state = solve_t0(2.0, 0.0, CANON, pulse, branch="exit")
    S = hj_action(2.0, 0.0, CANON, pulse, state)
    assert 2.0 * S.imag == pytest.approx(res.A, rel=1e-4)
    assert time.monotonic() - start < 10.0


# --- Criterion 3: threshold behavior ----------------------------------------------

PULSE_W = LorentzPulse(amplitude=0.002, width=2.0, exponent=3)   # weak probe


def _curve(energies):
    rows = []
    for E in energies:
        b = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0, m=1.0)
        rows.append(euclidean_action(E, b, PULSE_W))
    return rows


def test_below_threshold_slope():
    start = time.monotonic()
    E_T = threshold_energy(CANON, PULSE_W)
    energies = np.linspace(0.3 * E_T, 0.8 * E_T, 50)
    As = [r.A for r in _curve(energies)]
    slope = np.polyfit(energies, As, 1)[0]
    # plateau slope dA/dE = -2*theta
    assert slope == pytest.approx(-2.0 * 2.0, rel=0.02)
    d = np.gradient(As, energies)
    assert np.max(np.abs(d / (-4.0) - 1.0)) < 0.02
    assert time.monotonic() - start < 30.0


def test_above_threshold_merge_window():
    # HONEST RED.  The closed first-order correction
    # 3*amp/((n-1)*2^n*(1-tau00/theta)^(n-2)*field) keeps only the part that
    # diverges as tau00/theta -> 1 and drops an order-amp background of the
    # same sign.  The measured relative deviation 1 - A/A0 exceeds twice the
    # closed correction everywhere above 1.1*E_T (ratio 2.14 at E=8.81
    # rising to 4.55 at E=9.95); the window is met only asymptotically as
    # E -> E_T from above.  See notes/decisions.md.
    E_T = threshold_energy(CANON, PULSE_W)
    energies = np.linspace(1.101 * E_T, 0.995 * 10.0, 8)
    for E, res in zip(energies, _curve(energies)):
        rel = 1.0 - res.A / res.A0
        tau00 = math.sqrt(2.0 * (10.0 - E))
        corr = 3.0 * 0.002 / (2.0 * 2.0**3 * (1.0 - tau00 / 2.0))
        assert rel < 2.0 * corr, (
            f"E={E:.3f}: deviation {rel:.3e} vs allowance {2.0 * corr:.3e}"
        )


# --- Criterion 4: energy collection -----------------------------------------------

def test_energy_collection_below_threshold():
    # the collected energy carries a finite-amplitude bias that diverges in
    # relative terms as E -> E_T (the denominator vanishes); the 2% window
    # holds on the plateau well below threshold at amplitude ratio 0.01
    pulse = LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    E_T = threshold_energy(CANON, pulse)
    for E in np.linspace(2.0, 5.5, 10):
        b = TriangularBarrier(V=10.0, E_bound=float(E), field_static=1.0, m=1.0)
        res = euclidean_action(float(E), b, pulse)
        assert res.deltaE == pytest.approx(E_T - E, rel=0.02)


# --- Criterion 5: perturbative pole asymptotics -----------------------------------

SECH = SechBarrier(V=1.0, a=1.0, m=1.0)
GAP_FRACS = (0.15, 0.10, 0.05, 0.03, 0.02)


@pytest.fixture(scope="module")
def pole_scan():
    tau_s = math.pi / 2.0
    out = []
    start = time.monotonic()
    for gf in GAP_FRACS:
        theta = tau_s / (1.0 - gf)
        gap = theta - tau_s
        pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
        res = minimize_delta_action(0.5, SECH, pulse)
        pole_form = (
            -(math.pi / 4.0) * 0.005 * tau_s**2
            * (3.0 * 1.0 / 0.5) ** 0.25 * math.sqrt(3.0 * 1.0 / gap)
        )
        out.append(
            dict(
                gf=gf,
                gap=gap,
                dev=abs(res.dA - pole_form) / abs(pole_form),
                dt_dev=abs(res.dt_shift - (-gap / math.sqrt(3.0)))
                / (gap / math.sqrt(3.0)),
            )
        )
    elapsed = time.monotonic() - start
    return out, elapsed


def test_pole_deviation_monotone_and_timing(pole_scan):
    rows, elapsed = pole_scan
    devs = [r["dev"] for r in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    # stationary time shift approaches -(theta - tau_s)/sqrt(3)
    assert rows[-1]["dt_dev"] < 0.05
    assert elapsed < 30.0


def test_pole_deviation_absolute(pole_scan):
    # HONEST RED.  The pole form keeps only the residue of the pulse
    # singularity; the dropped branch-cut background of the perturbation
    # integral is O(1) in the gap (~ -0.10 against a residue ~ +/-0.10 at
    # these gaps), so the relative deviation at gap/theta = 0.05 is 0.55,
    # not < 0.15.  It does decrease monotonically (previous test) and the
    # time-shift clause holds.  See notes/decisions.md.
    rows, _ = pole_scan
    at_5pct = next(r for r in rows if r["gf"] == 0.05)
    assert at_5pct["dev"] < 0.15, f"measured deviation {at_5pct['dev']:.3f}"


# --- Criterion 6: quanta optimum --------------------------------------------------

WELL = TriangularBarrier(V=6.0, E_bound=1.0, field_static=0.0, m=1.0)
QUANTA_AMPS = (1e-2, 1e-3, 1e-4, 1e-5)


@pytest.fixture(scope="module")
def quanta_scan():
    out = []
    for amp in QUANTA_AMPS:
        plan = optimize_quanta(1.0, WELL, GaussianPulse(amplitude=amp, rate=1.0))
        L = math.log(math.sqrt(5.0) / amp)
        out.append(
            dict(
                amp=amp,
                tol=1.0 / (2.0 * L),
                w_dev=abs(plan.omega - 2.0 * math.sqrt(L))
                / (2.0 * math.sqrt(L)),
                A_dev=abs(plan.A_eff - 10.0 * math.sqrt(L))
                / (10.0 * math.sqrt(L)),
            )
        )
    return out


def test_quanta_frequency_within_log_tolerance(quanta_scan):
    for r in quanta_scan:
        assert r["w_dev"] <= r["tol"], (
            f"amp={r['amp']:g}: {r['w_dev']:.4f} vs {r['tol']:.4f}"
        )


def test_quanta_action_within_log_tolerance(quanta_scan):
    # HONEST RED.  The closed optimum 10*sqrt(L) drops the positive
    # log-log term, so the true minimum sits above it by
    # ~ln(2*sqrt(L))/(2L), which exceeds the 1/(2L) window by the factor
    # ln(2*sqrt(L)) ~ 1.5-1.9 at every amplitude decade (e.g. 0.142 vs
    # 0.092 at amp=1e-2, 0.079 vs 0.041 at amp=1e-5).  The frequency
    # clause (previous test) does hold.  See notes/decisions.md.
    for r in quanta_scan:
        assert r["A_dev"] <= r["tol"], (
            f"amp={r['amp']:g}: {r['A_dev']:.4f} vs {r['tol']:.4f}"
        )


# --- Criterion 7: quantum-oracle agreement ----------------------------------------

def test_tdse_oracle_agreement():
    start = time.monotonic()
    A0 = 16.0
    e0 = 4.0 * math.sqrt(2.0 * 1.0 * (2.0 - 1.0)) / (3.0 * A0)
    b = TriangularBarrier(V=2.0, E_bound=1.0, field_static=e0, m=1.0)
    grid = GridSpec(-30.0, 50.0, 4096, 0.005, 400.0)
    pulse = LorentzPulse(amplitude=0.5 * e0, width=10.0, exponent=3)
    res = enhancement_exponent(b, pulse, grid)
    # static decay exponent vs the WKB value
    assert res["static_exponent"] == pytest.approx(A0, rel=0.15)
    # pulsed-vs-static exponent reduction vs the semiclassical prediction
    semi = euclidean_action(1.0, b, pulse)
    predicted = semi.A0 - semi.A
    assert predicted > 1.0
    assert res["delta_A"] == pytest.approx(predicted, rel=0.20)
    assert time.monotonic() - start < 300.0


# --- Criterion 8: rate-profile shape ----------------------------------------------

def test_rate_profile_peak_and_quartic_slope():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    tau00 = CANON.tau00
    t_max_ref = (2.0 * tau00**2 / (8.0 * 2.0 * 5.0)) ** 0.25
    assert rate_peak_time(CANON, pulse) == pytest.approx(t_max_ref, rel=1e-12)
    times = np.linspace(0.05, 2.0, 400)
    series = decay_rate_series(times, CANON, pulse)
    i = int(np.argmax(series.rate))
    assert 0 < i < len(times) - 1                      # interior maximum
    assert times[i] == pytest.approx(t_max_ref, rel=0.02)
    y = np.log(series.rate / times)
    slope = np.polyfit(times**4, y, 1)[0]
    slope_ref = -2.0 * 2.0 * 5.0 / (2.0 * tau00**2)
    assert slope == pytest.approx(slope_ref, rel=0.03)


# --- Criterion 9: invariant suites ------------------------------------------------

def test_invariant_suites_present():
    # the per-module invariant properties run as part of this same session
    # (tests/test_model.py, test_hj.py, test_euclidean.py, test_trajectory.py,
    # test_quanta.py, test_tdse.py), each with 100 randomized examples via
    # the registered "suite" profile
    import pathlib

    here = pathlib.Path(__file__).parent
    for mod in ("model", "hj", "euclidean", "trajectory", "quanta", "tdse"):
        assert (here / f"test_{mod}.py").exists()
    conftest = (here / "conftest.py").read_text()
    assert "max_examples=100" in conftest
