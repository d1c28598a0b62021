"""Property tests and worked examples for the Hamilton-Jacobi module."""

import cmath
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pulsetunnel.errors import RegimeError
from pulsetunnel.euclidean import euclidean_action
from pulsetunnel.hj import (
    action,
    branch_report,
    decay_rate,
    decay_rate_series,
    exit_exponent,
    rate_peak_time,
    sigma1,
    sigma2,
    solve_t0,
    validity_report,
)
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)

finite = dict(allow_nan=False, allow_infinity=False)

CANON = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0)
PULSE5 = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)


def _configs():
    return st.builds(
        lambda V, frac, e0, m: TriangularBarrier(
            V=V, E_bound=frac * V, field_static=e0, m=m
        ),
        V=st.floats(2.0, 30.0, **finite),
        frac=st.floats(0.2, 0.8, **finite),
        e0=st.floats(0.2, 3.0, **finite),
        m=st.floats(0.5, 3.0, **finite),
    )


# --- Static reduction ------------------------------------------------------------

@given(b=_configs())
def test_static_reduction(b):
    S = action(b.exit_point, 0.0, b, ZeroPulse())
    assert 2.0 * S.imag == pytest.approx(
        static_wkb_exponent(b, b.E_bound), rel=1e-8
    )


# --- Saddle consistency and the Hamilton-Jacobi residual -------------------------

@given(b=_configs(), ampf=st.floats(0.0, 0.1, **finite))
def test_momentum_boundary_condition(b, ampf):
    pulse = (
        LorentzPulse(amplitude=ampf * b.field_static, width=0.4 * b.tau00,
                     exponent=3)
        if ampf > 1e-4 else ZeroPulse()
    )
    h = 1e-5 * b.exit_point
    Sp = action(h, 0.0, b, pulse, solve_t0(h, 0.0, b, pulse, branch="static"))
    Sm = action(0.0, 0.0, b, pulse, solve_t0(0.0, 0.0, b, pulse, branch="static"))
    dSdx = (Sp - Sm) / h
    assert dSdx == pytest.approx(1j * b.p0(), rel=1e-4)


@given(
    b=_configs(),
    xf=st.floats(0.05, 0.5, **finite),
    t=st.floats(0.05, 0.3, **finite),
    ampf=st.floats(0.01, 0.08, **finite),
)
def test_hamilton_jacobi_residual(b, xf, t, ampf):
    pulse = LorentzPulse(amplitude=ampf * b.field_static,
                         width=0.4 * b.tau00, exponent=3)
    x = xf * b.exit_point
    hx = 1e-5 * max(b.exit_point, 1.0)
    ht = 1e-5 * max(b.tau00, 1.0)

    def S(xx, tt):
        return action(xx, tt, b, pulse,
                      solve_t0(xx, tt, b, pulse, branch="static"))

    ht = min(ht, 0.5 * t)
    dSdt = (S(x, t + ht) - S(x, t - ht)) / (2.0 * ht)
    dSdx = (S(x + hx, t) - S(x - hx, t)) / (2.0 * hx)
    field = b.field_static + complex(pulse(t)).real
    residual = dSdt + dSdx**2 / (2.0 * b.m) + b.V - field * x
    scale = max(abs(b.V), abs(dSdx) ** 2 / (2.0 * b.m))
    assert abs(residual) / scale < 1e-6


# --- Causality -------------------------------------------------------------------

@given(
    b=_configs(),
    xf=st.floats(0.0, 0.55, **finite),
    t=st.floats(0.0, 1.0, **finite),
    ampf=st.floats(0.0, 0.1, **finite),
)
def test_causality(b, xf, t, ampf):
    pulse = (
        LorentzPulse(amplitude=ampf * b.field_static, width=0.4 * b.tau00,
                     exponent=3)
        if ampf > 1e-4 else ZeroPulse()
    )
    x = xf * b.exit_point
    state = solve_t0(x, t, b, pulse, branch="static")
    if isinstance(pulse, ZeroPulse):
        assert state.causal
    else:
        # with the pulse on, the saddle's real part can run ahead of the
        # observation time, but only by the O(field) displacement it induces
        t0_static = solve_t0(x, t, b, ZeroPulse()).t0
        shift = abs(state.t0 - t0_static)
        assert state.t0.real <= t + max(shift, 1e-10)


# --- Branch structure examples ---------------------------------------------------

def test_branch_report_canonical():
    rep = branch_report(CANON, PULSE5)
    assert rep.x1 == pytest.approx(2.0)
    tau00 = math.sqrt(10.0)
    assert rep.x2 == pytest.approx(2.0 * (2.0 * tau00 - 2.0) / 2.0 * 1.0)
    assert rep.iS_x1 == pytest.approx(5.0 * 2.0 * (1.0 - 4.0 / 30.0))
    base = 0.05 * 2.0 / (2**3 * (tau00 - 2.0))
    assert rep.z1 == pytest.approx(math.sqrt(base / 2.0))
    assert rep.z2 == pytest.approx(base ** (1.0 / 3.0))


def test_exit_branch_saddle_canonical():
    state = solve_t0(2.0, 0.0, CANON, PULSE5, branch="exit")
    assert state.t0.real == pytest.approx(0.0, abs=1e-10)
    assert state.t0.imag == pytest.approx(1.8423, rel=1e-3)
    # the saddle sits just below the pulse singularity
    assert 0.0 < state.t0.imag < PULSE5.width


def test_exit_branch_beyond_x2_raises():
    rep = branch_report(CANON, PULSE5)
    with pytest.raises(RegimeError):
        solve_t0(rep.x2 * 1.05, 0.0, CANON, PULSE5, branch="exit")


def test_keystone_action_value():
    # exit-branch exponent at the static exit point of the pulse branch
    state = solve_t0(2.0, 0.0, CANON, PULSE5, branch="exit")
    S = action(2.0, 0.0, CANON, PULSE5, state)
    assert 2.0 * S.imag == pytest.approx(15.4752, rel=1e-4)


@pytest.mark.parametrize("E", [5.0, 6.0, 7.0])
@pytest.mark.parametrize("amp", [0.05, 0.025, 0.0125])
def test_exit_exponent_matches_euclidean_action(E, amp):
    # at the true exit point, where Im p = 0, 2 Im S is the Euclidean
    # exponent; at the estimate x1 it was off by up to 5.8e-3 (E = 7)
    b = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=amp, width=2.0, exponent=3)
    ref = euclidean_action(E, b, pulse).A
    assert exit_exponent(b, pulse) == pytest.approx(ref, rel=1e-12)


# --- Semiclassical corrections ---------------------------------------------------

def test_sigma1_exit_asymptote():
    rep = branch_report(CANON, PULSE5)
    state = solve_t0(rep.x1, 0.0, CANON, PULSE5, branch="exit")
    s1 = sigma1(state, CANON, PULSE5)
    tau00 = CANON.tau00
    n = PULSE5.exponent
    i_s1_ref = (
        -0.5 * cmath.log((n - 1) * (1.0 - 2.0 / tau00) / rep.z1)
        - 0.5
        - 0.5j * math.pi
    )
    i_s1 = 1j * s1
    # the imaginary part of i*sigma1 is exact at leading order; the real part
    # carries an O(z1) defect
    assert i_s1.imag == pytest.approx(i_s1_ref.imag, abs=1e-6)
    assert i_s1.real == pytest.approx(i_s1_ref.real, abs=5.0 * rep.z1)


def test_sigma2_interior_asymptote_small_amplitude():
    # compare against the interior closed form at a point between x1 and x2,
    # in the small-amplitude limit where the form becomes exact
    amp = 1e-5
    pulse = LorentzPulse(amplitude=amp, width=2.0, exponent=3)
    rep = branch_report(CANON, pulse)
    tau00 = CANON.tau00
    n = pulse.exponent
    z = 0.5 * rep.z2          # x between x1 and x2 (exit branch: z1 < z < z2)
    tau0 = 2.0 * (1.0 - z)
    x = (
        tau0 * CANON.p0() - 0.5 * CANON.field_static * tau0**2
        - pulse.amplitude * pulse.width**2 / (2.0 * (n - 1))
        * ((1.0 - tau0**2 / pulse.width**2) ** (1 - n) - 1.0)
    ) / CANON.m
    state = solve_t0(x, 0.0, CANON, pulse, branch="exit")
    s2 = sigma2(state, CANON, pulse)
    VmE = 5.0
    ratio_n = (rep.z2 / z) ** n
    i_s2_ref = (
        (3 * n * (n + 1) + n * (2 * n - 3) * ratio_n)
        / (48.0 * VmE * pulse.width * rep.z2**2 * (1.0 - 2.0 / tau00)
           * (1.0 - ratio_n) ** 3)
        * (rep.z2 / z) ** (n + 2)
    )
    i_s2 = complex(1j * s2)
    assert i_s2.real == pytest.approx(i_s2_ref, rel=0.15)


def test_hierarchy_when_valid():
    # a deep, wide configuration where the validity margins are comfortable;
    # the canonical V=10 case sits marginally below the coefficient-1 bound
    b = TriangularBarrier(V=30.0, E_bound=10.0, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=0.05, width=3.0, exponent=3)
    rep_v = validity_report(b, pulse)
    assert rep_v.ok
    rep = branch_report(b, pulse)
    state = solve_t0(rep.x1, 0.0, b, pulse, branch="exit")
    S = action(rep.x1, 0.0, b, pulse, state)
    s1 = sigma1(state, b, pulse)
    s2 = sigma2(state, b, pulse)
    assert abs(S) > 5.0 * abs(s1)
    assert abs(s1) > 5.0 * abs(s2)
    # the well boundary x=0 carries S(0,t)=-E*t and sigma ~ O(1) corrections;
    # the closed-form hierarchy scales recorded by the validity report
    s_well, s1_well, s2_well = rep_v.hierarchy["well_scales"]
    assert s_well > 5.0 * s1_well > 25.0 * s2_well


# mpmath values at 30 working digits, generated by tests/reference/sigma_mpmath.py
_SIGMA_REFS = json.loads(
    (Path(__file__).parent / "reference" / "sigma.json").read_text()
)["points"]
_PULSE_KINDS = {"lorentz": LorentzPulse, "gaussian": GaussianPulse, "zero": ZeroPulse}


@pytest.mark.parametrize("ref", _SIGMA_REFS, ids=lambda ref: ref["name"])
def test_sigma_matches_mpmath(ref):
    b = TriangularBarrier(**ref["barrier"])
    fields = {k: v for k, v in ref["pulse"].items() if k != "kind"}
    pulse = _PULSE_KINDS[ref["pulse"]["kind"]](**fields)
    state = solve_t0(float(ref["x"]), ref["t"], b, pulse, branch=ref["branch"])
    t0, s1, s2 = (complex(float(re), float(im))
                  for re, im in (ref["t0"], ref["sigma1"], ref["sigma2"]))
    assert abs(state.t0 - t0) <= 1e-10 * abs(t0)
    assert abs(sigma1(state, b, pulse) - s1) <= 1e-10 * abs(s1)
    assert abs(sigma2(state, b, pulse) - s2) <= 1e-6 * abs(s2)


def test_validity_rejects_oversized_width():
    wide = LorentzPulse(amplitude=0.05, width=5.0, exponent=3)
    rep = validity_report(CANON, wide)
    assert not rep.ok


# --- Decay rate ------------------------------------------------------------------

def test_rate_positive_time_only():
    with pytest.raises(RegimeError):
        decay_rate(0.0, CANON, PULSE5)
    with pytest.raises(RegimeError):
        decay_rate_series([-1.0, 1.0], CANON, PULSE5)


def test_rate_profile_shape():
    t_peak = rate_peak_time(CANON, PULSE5)
    assert t_peak == pytest.approx((20.0 / 80.0) ** 0.25, rel=1e-12)
    times = [t_peak * (0.05 + 0.05 * i) for i in range(1, 80)]
    series = decay_rate_series(times, CANON, PULSE5)
    rates = list(series.rate)
    i_max = rates.index(max(rates))
    assert 0 < i_max < len(rates) - 1
    assert times[i_max] == pytest.approx(t_peak, rel=0.06)
    # monotone decay beyond the peak
    tail = rates[i_max:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    # exponent at t -> 0 equals the finite-time pulse exponent
    assert series.exponent[0] == pytest.approx(
        2.0 * 5.0 * 2.0 * (1.0 - 4.0 / 30.0), rel=1e-3
    )


def test_flux_width_energy_check():
    # output flux width (theta*tau00^2/(V-E))^(1/4): its inverse must be
    # well below the energy scale for the validated canonical parameters
    dt = (2.0 * 10.0 / 5.0) ** 0.25
    assert 1.0 / dt < 0.2 * CANON.E_bound
