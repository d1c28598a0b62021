"""Property tests and worked examples for the Hamilton-Jacobi module."""

import cmath
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from pulsetunnel.contour import integrate_paths
from pulsetunnel.errors import PulseTunnelError, RegimeError
from pulsetunnel.euclidean import euclidean_action, euclidean_actions
from pulsetunnel.hj import (
    _axis_saddle,
    _exit_action_x1,
    _int_pulse,
    action,
    amp_lower_bound,
    decay_rate_series,
    exit_exponent,
    exit_exponents,
    rate_peak_time,
    sigma1,
    sigma2,
    solve_t0,
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


def _branch_scales(b, pulse):
    """Small-amplitude exit-branch scales at t = 0: the exit point x1, the
    branch end x2 and the small parameters z1, z2 of the saddle's distance
    1 - tau0/width below the pulse width there."""
    theta, n, tau00 = pulse.width, pulse.exponent, b.tau00
    base = pulse.amplitude / b.field_static * theta / (2**n * (tau00 - theta))
    x1 = b.field_static * theta**2 / (2.0 * b.m)
    x2 = b.field_static * theta * (2.0 * tau00 - theta) / (2.0 * b.m)
    return x1, x2, (base / (n - 1)) ** (1.0 / (n - 1)), base ** (1.0 / n)


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
        assert state.t0.real <= t + 1e-10
    else:
        # with the pulse on, the saddle's real part can run ahead of the
        # observation time, but only by the O(field) displacement it induces
        t0_static = solve_t0(x, t, b, ZeroPulse()).t0
        shift = abs(state.t0 - t0_static)
        assert state.t0.real <= t + max(shift, 1e-10)


# --- Branch structure examples ---------------------------------------------------

def test_branch_report_canonical():
    # the small-amplitude exit action at x1, which the decay rate starts from
    assert _exit_action_x1(CANON, PULSE5) == pytest.approx(
        5.0 * 2.0 * (1.0 - 4.0 / 30.0))
    for pulse in (GaussianPulse(amplitude=0.05, rate=1.0),
                  LorentzPulse(amplitude=0.05, width=2.0, exponent=2),
                  LorentzPulse(amplitude=0.05, width=5.0, exponent=3)):
        with pytest.raises(RegimeError):
            _exit_action_x1(CANON, pulse)


def test_exit_branch_saddle_canonical():
    state = solve_t0(2.0, 0.0, CANON, PULSE5, branch="exit")
    assert state.t0.real == pytest.approx(0.0, abs=1e-10)
    assert state.t0.imag == pytest.approx(1.8423, rel=1e-3)
    # the saddle sits just below the pulse singularity
    assert 0.0 < state.t0.imag < PULSE5.width


def test_exit_branch_beyond_x2_raises():
    _, x2, _, _ = _branch_scales(CANON, PULSE5)
    with pytest.raises(RegimeError):
        solve_t0(x2 * 1.05, 0.0, CANON, PULSE5, branch="exit")


def _past_axis_maximum(x, b, pulse):
    """True where no saddle lies on the imaginary axis at t = 0: there
    t0 = i*tau and the saddle equation is real,
    f(tau) = tau*p0 - field_static*tau^2/2 - W(tau) = m*x with
    W = amp*width^2/(2(n-1))*((1 - tau^2/width^2)^(1-n) - 1), and f is
    concave on (0, width), so m*x above its maximum has no root there."""
    w, n, amp = pulse.width, pulse.exponent, pulse.amplitude
    p0, e0 = b.p0(), b.field_static
    tau = brentq(lambda u: p0 - e0 * u - amp * u * (1.0 - u**2 / w**2) ** (-n),
                 0.0, w * (1.0 - 1e-12))
    f = (tau * p0 - 0.5 * e0 * tau**2
         - amp * w**2 / (2.0 * (n - 1)) * ((1.0 - tau**2 / w**2) ** (1 - n) - 1.0))
    return b.m * x > f


def test_static_branch_beyond_x2_leaves_the_axis():
    # past the maximum of the axis saddle function the static and exit
    # branches merge into a pair mirrored in the imaginary axis; at t = 0
    # the solve once stalled on the axis (exit 3), and now takes the t -> 0+
    # limit, right of the axis
    b = TriangularBarrier(V=2.0, E_bound=1.0, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=0.0625, width=0.4 * b.tau00, exponent=3)
    assert _past_axis_maximum(0.53125, b, pulse)
    limit = solve_t0(0.53125, 1e-12, b, pulse, branch="static").t0
    for t in (0.0, 1e-300):
        state = solve_t0(0.53125, t, b, pulse, branch="static")
        assert state.t0.real > 0.0 and state.residual < 1e-12
        assert state.t0 == pytest.approx(limit, rel=1e-10)


@pytest.mark.parametrize("amp,tau_frac", [(0.05, None), (1e-5, 0.99),
                                           (1e-5, 0.997)])
@pytest.mark.parametrize("t", [0.0, 0.05, 0.2, 1.0])
def test_pulse_integral_along_the_segment_is_the_closed_form(amp, tau_frac, t):
    # action integrates along the straight segment t0 -> t, which passes the
    # pole at i*width on t0's side; at t = 0 the saddle sits on the axis
    # below the pole, at tau0/width = 0.92 (x = x1) and 0.99 or 0.997
    pulse = LorentzPulse(amplitude=amp, width=2.0, exponent=3)
    x = 2.0 if tau_frac is None else _axis_saddle(CANON, pulse)[0](2.0 * tau_frac)
    t0 = solve_t0(x, t, CANON, pulse, branch="exit").t0
    if t == 0.0 and tau_frac is not None:
        assert t0.imag == pytest.approx(2.0 * tau_frac, rel=1e-12)
    val = integrate_paths(lambda z, path: pulse(z), [[t0, t]], epsabs=0.0,
                          epsrel=1e-13)[0][0]
    assert abs(val - _int_pulse(t0, t, pulse)) <= 1e-12 * abs(val)


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


@pytest.mark.parametrize("E,amp,width,n", [
    (1.0, 0.05, 2.0, 17), (1.0, 0.05, 2.0, 18), (1.0, 0.05, 2.0, 20),
    (1.0, 0.2, 1.0, 3), (5.0, 0.2, 1.0, 4),
    (5.0, 1.0, 3.0, 10),
    (1.0, 0.05, 2.0, 24), (1.0, 0.05, 2.0, 30),
    (5.0, 0.05, 2.0, 24), (5.0, 0.05, 2.0, 30),
])
def test_exit_exponent_outside_the_first_bracket(E, amp, width, n):
    # the exit point lies far from its estimate x1: below x1/2 at n = 17-20
    # (0.96, 0.93, 0.87 against x1 = 2), at 1.43 and 1.21 x1 for the width-1
    # pulses, and at 0.33 x1 at amp 1, n = 10, where the exit branch ends
    # long before x2.  A Brent search over saddle solves next to x1 reached
    # the first five only by stepping its bracket outward; on the last five
    # its saddle solves raised (beyond the branch end, or an overflow at
    # n = 24, 30).  The exit point from tau0 lands on the Euclidean A
    b = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=amp, width=width, exponent=n)
    ref = euclidean_action(E, b, pulse).A
    assert exit_exponent(b, pulse) == pytest.approx(ref, rel=1e-12)


# --- Semiclassical corrections ---------------------------------------------------

def test_sigma1_exit_asymptote():
    x1, _, z1, _ = _branch_scales(CANON, PULSE5)
    state = solve_t0(x1, 0.0, CANON, PULSE5, branch="exit")
    s1 = sigma1(state, CANON, PULSE5)
    tau00 = CANON.tau00
    n = PULSE5.exponent
    i_s1_ref = (
        -0.5 * cmath.log((n - 1) * (1.0 - 2.0 / tau00) / z1)
        - 0.5
        - 0.5j * math.pi
    )
    i_s1 = 1j * s1
    # the imaginary part of i*sigma1 is exact at leading order; the real part
    # carries an O(z1) defect
    assert i_s1.imag == pytest.approx(i_s1_ref.imag, abs=1e-6)
    assert i_s1.real == pytest.approx(i_s1_ref.real, abs=5.0 * z1)


def test_sigma2_interior_asymptote_small_amplitude():
    # compare against the interior closed form at a point between x1 and x2,
    # in the small-amplitude limit where the form becomes exact
    amp = 1e-5
    pulse = LorentzPulse(amplitude=amp, width=2.0, exponent=3)
    _, _, _, z2 = _branch_scales(CANON, pulse)
    tau00 = CANON.tau00
    n = pulse.exponent
    z = 0.5 * z2              # x between x1 and x2 (exit branch: z1 < z < z2)
    tau0 = 2.0 * (1.0 - z)
    x = (
        tau0 * CANON.p0() - 0.5 * CANON.field_static * tau0**2
        - pulse.amplitude * pulse.width**2 / (2.0 * (n - 1))
        * ((1.0 - tau0**2 / pulse.width**2) ** (1 - n) - 1.0)
    ) / CANON.m
    state = solve_t0(x, 0.0, CANON, pulse, branch="exit")
    s2 = sigma2(state, CANON, pulse)
    VmE = 5.0
    ratio_n = (z2 / z) ** n
    i_s2_ref = (
        (3 * n * (n + 1) + n * (2 * n - 3) * ratio_n)
        / (48.0 * VmE * pulse.width * z2**2 * (1.0 - 2.0 / tau00)
           * (1.0 - ratio_n) ** 3)
        * (z2 / z) ** (n + 2)
    )
    i_s2 = complex(1j * s2)
    assert i_s2.real == pytest.approx(i_s2_ref, rel=0.15)


def test_hierarchy_when_valid():
    # a deep, wide configuration where the validity margins are comfortable;
    # the canonical V=10 case sits marginally below the coefficient-1 bound
    b = TriangularBarrier(V=30.0, E_bound=10.0, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=0.05, width=3.0, exponent=3)
    assert pulse.amplitude / b.field_static > amp_lower_bound(b, pulse)
    x1, _, _, _ = _branch_scales(b, pulse)
    state = solve_t0(x1, 0.0, b, pulse, branch="exit")
    S = action(x1, 0.0, b, pulse, state)
    s1 = sigma1(state, b, pulse)
    s2 = sigma2(state, b, pulse)
    assert abs(S) > 5.0 * abs(s1)
    assert abs(s1) > 5.0 * abs(s2)


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


# mpmath HJ exit action at CANON, generated by tests/reference/hj_exit_mpmath.py
_HJ_EXIT_REFS = json.loads(
    (Path(__file__).parent / "reference" / "hj_exit.json").read_text()
)["points"]


@pytest.mark.parametrize("ref", _HJ_EXIT_REFS, ids=lambda ref: ref["name"])
def test_exit_exponent_matches_mpmath(ref):
    b = TriangularBarrier(**ref["barrier"])
    fields = {k: v for k, v in ref["pulse"].items() if k != "kind"}
    want = float(ref["A"])
    assert abs(exit_exponent(b, LorentzPulse(**fields)) - want) <= 1e-12 * want


def test_exit_exponents_match_mpmath():
    # one grid, the reference energy among others
    for ref in _HJ_EXIT_REFS:
        b = TriangularBarrier(**ref["barrier"])
        fields = {k: v for k, v in ref["pulse"].items() if k != "kind"}
        energies = [0.5 * b.E_bound, b.E_bound, 1.4 * b.E_bound]
        A = exit_exponents(energies, b, LorentzPulse(**fields))[1]
        want = float(ref["A"])
        assert abs(A - want) <= 1e-12 * want


# --- Energy grids -----------------------------------------------------------------

def _outcome(slot):
    """A grid slot as a comparable value: the result, or the class and the
    message of the error it holds."""
    if isinstance(slot, PulseTunnelError):
        return type(slot), str(slot)
    return slot


@pytest.mark.parametrize("pulse", [
    ZeroPulse(),
    LorentzPulse(amplitude=0.05, width=2.0, exponent=2),
    PULSE5,
    LorentzPulse(amplitude=0.05, width=2.0, exponent=4),
    LorentzPulse(amplitude=0.05, width=2.0, exponent=26),
    GaussianPulse(amplitude=0.05, rate=0.5),
], ids=["zero", "lorentz2", "lorentz3", "lorentz4", "lorentz26", "gaussian"])
@settings(max_examples=20)
@given(energies=st.lists(st.floats(-1.0, 12.0, **finite), min_size=1,
                         max_size=6))
def test_grid_slot_is_its_grid_of_one(pulse, energies):
    # on CANON the width 2 reaches tau00 above E = 8 (RegimeError on the HJ
    # route), and energies outside (0, 10) are DomainErrors
    for grid in (euclidean_actions, exit_exponents):
        slots = grid(energies, CANON, pulse)
        assert [_outcome(s) for s in slots] == [
            _outcome(grid([E], CANON, pulse)[0]) for E in energies]


def test_grid_slots_keep_their_own_step_counts():
    # amp*width underflows to 0, so G = 0 and g < 0 across each Euclidean
    # bracket: every tau0 solve ends in "no tau0 root", each after its own
    # number of steps.  The HJ route rescales the mass to 1, which keeps
    # amp*width, and solves
    b = TriangularBarrier(V=0.5130646078276279, E_bound=0.25,
                          field_static=0.20517156515853233,
                          m=1.6381026198579793e-125)
    pulse = LorentzPulse(amplitude=7.341420578647063e-179,
                         width=5.336853902104038e-180, exponent=30)
    energies = [b.V * f for f in (0.01, 0.3, 0.7, 0.9, 0.99)]
    slots = euclidean_actions(energies, b, pulse)
    assert [str(s).split(" after ")[1] for s in slots] == [
        "54 steps", "56 steps", "66 steps", "84 steps", "100 steps"]
    for grid in (euclidean_actions, exit_exponents):
        slots = grid(energies, b, pulse)
        assert [_outcome(s) for s in slots] == [
            _outcome(grid([E], b, pulse)[0]) for E in energies]
    assert all(isinstance(A, float) for A in exit_exponents(energies, b, pulse))


def test_validity_rejects_oversized_width():
    # no amplitude makes a pulse as wide as tau00 semiclassical, nor a pulse
    # without a pole; below tau00 the bound is the closed form
    wide = LorentzPulse(amplitude=0.05, width=5.0, exponent=3)
    assert amp_lower_bound(CANON, wide) == math.inf
    assert amp_lower_bound(CANON, GaussianPulse(amplitude=0.05, rate=1.0)) == math.inf
    tau00 = math.sqrt(10.0)
    assert amp_lower_bound(CANON, PULSE5) == pytest.approx(
        (2.0 / (tau00 - 2.0)) ** 0.5 / 10.0 ** 1.5, rel=1e-14)


# --- Decay rate ------------------------------------------------------------------

def test_rate_positive_time_only():
    with pytest.raises(RegimeError):
        decay_rate_series([0.0, 1.0], CANON, PULSE5)
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
