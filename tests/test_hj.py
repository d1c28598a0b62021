"""Property tests and worked examples for the Hamilton-Jacobi module."""

import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from pulsetunnel import hj
from pulsetunnel.contour import integrate_paths
from pulsetunnel.errors import (ConvergenceError, PulseTunnelError, RegimeError,
                                SingularityError, _one)
from pulsetunnel.euclidean import _solve_tau0s, euclidean_action, euclidean_actions
from pulsetunnel.hj import (
    _axis_saddle,
    _exit_action_x1,
    _int_pulse,
    _make_state,
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

from engine_spy import spy_engine

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


@pytest.mark.filterwarnings("error")
def test_gaussian_saddle_stall_warns_of_nothing():
    # the Newton iterates climb the imaginary axis, where the Gaussian pulse
    # and its antiderivatives overflow: six RuntimeWarnings once came before
    # the error, and under warnings-as-errors the first escaped in its place.
    # The solve stops at the first non-finite residual, not at the iteration
    # cap, and reports the last finite iterate and residual
    b = TriangularBarrier(V=6.534048363404706, E_bound=1.562004970806186,
                          field_static=1.303645776966932, m=1.0)
    pulse = GaussianPulse(amplitude=0.09517340506886171, rate=2.792945187597757)
    with pytest.raises(ConvergenceError, match="saddle Newton stalled") as info:
        solve_t0(1.9570525793507085, 0.0, b, pulse)
    assert math.isfinite(info.value.residual) and info.value.residual > 0
    assert cmath.isfinite(info.value.diagnostics["t0"])


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


@pytest.mark.parametrize("ref", _SIGMA_REFS, ids=lambda ref: ref["name"])
def test_sigma2_closed_form_matches_mpmath_closely(ref):
    # the quadrature it replaced was 3.0e-14, 2.6e-14 and 1.4e-13 off at
    # the three exit-branch points
    b = TriangularBarrier(**ref["barrier"])
    fields = {k: v for k, v in ref["pulse"].items() if k != "kind"}
    pulse = _PULSE_KINDS[ref["pulse"]["kind"]](**fields)
    state = solve_t0(float(ref["x"]), ref["t"], b, pulse, branch=ref["branch"])
    s2 = complex(float(ref["sigma2"][0]), float(ref["sigma2"][1]))
    assert abs(sigma2(state, b, pulse) - s2) <= 1e-13 * abs(s2)


# --- sigma2: the closed form against the quadrature it replaced ------------------

def _phi2(t0, t, b, pulse):
    """sigma2's source phi2(t0, t) on arrays, from sigma1's closed-form
    derivatives."""
    VmE = b.V - b.E_bound
    tau = b.tau00
    h, h1, h2 = (f / b.field_static for f in pulse.derivatives(t0))
    d = t0 - t
    F = 1.0 + 1j * d * (1.0 + h) / tau
    F1 = 1j * ((1.0 + h) + d * h1) / tau
    F2 = 1j * (2.0 * h1 + d * h2) / tau
    D = -1j * (-0.5 * F1 / F + 0.5j * (1.0 + h) / tau)
    D1 = -1j * (-0.5 * (F2 / F - (F1 / F) ** 2) + 0.5j * h1 / tau)
    dG = D1 / F - D * F1 / (F * F)
    return D * D / (4.0 * VmE * F * F) - 1j * dG / (4.0 * VmE * F)


def _leg1_path(state, b, side=1.0):
    """Leg 1's polyline, eta from 0 to t - t0: where the segment passes
    within r of eta_p (F = 0) it goes through the apex of a right triangle
    on the Re < 0 side of eta_p (side = 1) or on the other (side = -1)."""
    eta_pole = -1j * b.tau00 / (1.0 + state.h)
    end = state.t - state.t0
    u = end / abs(end) if end else 1.0
    r = max(0.25 * min(abs(eta_pole), abs(end - eta_pole), abs(end)), 1e-12)
    c = min(max((eta_pole / u).real, 0.0), abs(end)) * u    # nearest point
    path = [0.0, end]
    if abs(c - eta_pole) < r:
        n = side * (1j * u if (1j * u).real < 0 else -1j * u)
        path[1:1] = [c - 3.0 * r * u, c + 3.0 * r * n, c + 3.0 * r * u]
    return path


def _quadrature_sigma2(state, b, pulse):
    """sigma2 as the package took it before its closed form: both legs of
    the source through the contour engine as one two-path call, at epsabs
    1e-10 and epsrel 1e-7."""
    t0 = state.t0

    def source(z, path_id):
        fixed = path_id == 0
        out = np.empty_like(z)
        out[fixed] = _phi2(t0, t0 + z[fixed], b, pulse)
        out[~fixed] = _phi2(z[~fixed], z[~fixed], b, pulse)
        return out

    # leg 2 (path 1): coincident-argument source integrated from 0 to t0
    legs = integrate_paths(source, [_leg1_path(state, b), [0.0, t0]],
                           epsabs=1e-10, epsrel=1e-7)[0]
    first, second = (_one([leg]) for leg in legs)   # a leg's error is raised
    return first + second


def _sigma2_grid():
    """(barrier, pulse, x, t, branch): Lorentzian pulses with n = 3 and 5 on
    both branches, x up to 1.2 x1 and t from 0 to 1, then Gaussian pulses
    and no pulse on the static branch."""
    grid = []
    for b in (CANON, TriangularBarrier(V=30.0, E_bound=10.0, field_static=1.0)):
        for n, amp in itertools.product((3, 5), (1e-3, 0.05)):
            pulse = LorentzPulse(amplitude=amp, width=0.6 * b.tau00, exponent=n)
            x1 = b.field_static * pulse.width**2 / (2.0 * b.m)
            grid += [(b, pulse, xf * x1, t, branch) for branch, xf, t in
                     itertools.product(("exit", "static"), (0.3, 0.7, 1.0, 1.2),
                                       (0.0, 0.3, 1.0))]
        for pulse in (GaussianPulse(amplitude=0.05, rate=0.5),
                      GaussianPulse(amplitude=0.2, rate=1.5), ZeroPulse()):
            grid += [(b, pulse, x, t, "static")
                     for x, t in itertools.product((0.0, 0.5, 2.0), (0.0, 0.3, 1.0))]
    return grid


def test_sigma2_closed_form_matches_quadrature():
    # 1e-9 against a quadrature at epsrel 1e-7; measured at most 3.8e-12.
    # Every state of the grid solves, and neither form raises on it
    for b, pulse, x, t, branch in _sigma2_grid():
        state = solve_t0(x, t, b, pulse, branch=branch)
        want = _quadrature_sigma2(state, b, pulse)
        assert abs(sigma2(state, b, pulse) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("b,pulse,x", [
    (CANON, PULSE5, 2.0),
    (CANON, LorentzPulse(amplitude=0.05, width=2.0, exponent=5), 1.5),
    (TriangularBarrier(V=30.0, E_bound=10.0, field_static=1.0),
     LorentzPulse(amplitude=0.05, width=3.0, exponent=3), 4.5),
], ids=["canon_x1", "canon_n5", "deep_x1"])
def test_sigma2_leg1_has_no_residue_at_F_zero(b, pulse, x):
    # leg 1 passes eta_p, where F = 0, on either side to the same value: the
    # source has only F^-4, F^-3 and F^-2 terms there.  A simple-pole part
    # would move it by 2 pi i times its residue
    state = solve_t0(x, 0.0, b, pulse, branch="exit")
    paths = [_leg1_path(state, b, side) for side in (1.0, -1.0)]
    assert len(paths[0]) == 5     # the segment passes within r of eta_p
    legs = integrate_paths(lambda z, path: _phi2(state.t0, state.t0 + z, b, pulse),
                           paths, epsabs=0.0, epsrel=1e-11)[0]
    assert abs(legs[0] - legs[1]) <= 1e-11 * abs(legs[0])


def test_sigma2_at_F_zero_raises_the_sigma1_error():
    # with the pulse off F = 1 + i(t0 - t)/tau00 vanishes at t0 = t + i*tau00,
    # where the closed form divides by F^3; the quadrature's leg 1 ends on
    # that point and its source is not finite there
    state = _make_state(0.3 + 1j * CANON.tau00, 0.3, CANON, ZeroPulse(), 0.0)
    assert state.F == 0.0
    for correction in (sigma1, sigma2):
        with pytest.raises(SingularityError, match="F = 0"):
            correction(state, CANON, ZeroPulse())
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError):
            _quadrature_sigma2(state, CANON, ZeroPulse())


@pytest.mark.filterwarnings("error")
def test_sigma2_not_finite_raises_convergence_error():
    # up the imaginary axis a Gaussian pulse grows to 1e200 times the static
    # field, and the cube of (1 + h)/tau00 overflows; the quadrature met the
    # same non-finite source
    pulse = GaussianPulse(amplitude=0.05, rate=3.0)
    state = _make_state(7.2j, 0.0, CANON, pulse, 0.0)
    with pytest.raises(ConvergenceError, match="not finite"):
        sigma2(state, CANON, pulse)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError):
            _quadrature_sigma2(state, CANON, pulse)


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


# --- Panels presplit toward the pulse poles ---------------------------------------

# mpmath int p^2 from the saddle to t = 0 at the three exit-branch points
# (x, t = 0) of the benchmark's hj_corrections workload, generated by
# tests/reference/near_mpmath.py, and the integrand points of each action's
# one engine pass
_KINETIC_REFS = json.loads(
    (Path(__file__).parent / "reference" / "near.json").read_text()
)["kinetic"]
_KINETIC_POINTS = {"canon_x1": 75, "small_amp_interior": 135, "deep_x1": 90}


@pytest.mark.parametrize("ref", _KINETIC_REFS, ids=lambda ref: ref["name"])
def test_hj_corrections_action_engine_calls(ref, monkeypatch):
    # panels presplit toward the poles +/- i*width make each action one pass
    # of 5, 9 and 6 panels, within the engine's epsrel of mpmath; from one
    # panel a segment it took 5, 8 and 6 passes and 135, 225 and 165 points
    b = TriangularBarrier(**ref["barrier"])
    pulse = LorentzPulse(**ref["pulse"])
    state = solve_t0(ref["x"], 0.0, b, pulse, branch="exit")
    assert state.t0 == 1j * ref["t0_imag"]
    calls = spy_engine(monkeypatch, hj)
    action(ref["x"], 0.0, b, pulse, state)
    points = _KINETIC_POINTS[ref["name"]]
    assert [(c["passes"], c["points"]) for c in calls] == [(1, points)]
    assert calls[0]["near"] == [(1j * pulse.width, -1j * pulse.width)]
    want = complex(float(ref["int_p2_real"]), float(ref["int_p2_imag"]))
    assert abs(calls[0]["values"][0] - want) <= 1e-11 * abs(want)


def test_non_lorentz_pulse_names_no_poles(monkeypatch):
    calls = spy_engine(monkeypatch, hj)
    hj._actions([(1.5j, 1.0, 0.0), (1.2j, 0.5, 0.0)], [5.0, 5.0], CANON,
                GaussianPulse(amplitude=0.05, rate=0.5))
    assert calls[0]["near"] == [(), ()]


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
    # at this mass amp*width underflows to 0: solved in time units, every
    # lockstep tau0 solve ended in "no tau0 root", each after its own number
    # of steps (54 to 100), and the Euclidean route once wrote these errors.
    # In each energy's own units nothing underflows: the roots as given are
    # those of the problem rescaled to unit mass, to the bit, 2.9e-11 to
    # 3.2e-11 of the width below its pole
    b = TriangularBarrier(V=0.5130646078276279, E_bound=0.25,
                          field_static=0.20517156515853233,
                          m=1.6381026198579793e-125)
    pulse = LorentzPulse(amplitude=7.341420578647063e-179,
                         width=5.336853902104038e-180, exponent=30)
    energies = [b.V * f for f in (0.01, 0.3, 0.7, 0.9, 0.99)]
    roots = _solve_tau0s(energies, b, pulse)
    assert roots == _solve_tau0s(energies, *hj._unit_mass(b, pulse))
    assert all(2.9e-11 < 1.0 - t / pulse.width < 3.2e-11 for t in roots)
    for grid in (euclidean_actions, exit_exponents):
        slots = grid(energies, b, pulse)
        assert [_outcome(s) for s in slots] == [
            _outcome(grid([E], b, pulse)[0]) for E in energies]
    assert all(isinstance(A, float) for A in exit_exponents(energies, b, pulse))
    assert all(math.isfinite(res.A) for res in euclidean_actions(energies, b, pulse))


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
