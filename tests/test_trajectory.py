"""Property tests and examples for the sech^2 contour-trajectory module."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.optimize import brentq

from pulsetunnel import trajectory
from pulsetunnel.contour import integrate_paths
from pulsetunnel.errors import ConvergenceError, RegimeError, SingularityError
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    ZeroPulse,
    static_wkb_exponent,
)
from pulsetunnel.trajectory import (
    _SCAN,
    _aligned_shift,
    _delta_actions,
    _motion,
    _on_cut,
    build_contour,
    delta_action,
    minimize_delta_action,
    minimize_delta_actions,
    pole_form,
    singularity_time,
    unperturbed_trajectory,
)
from trajectory_reference import branch_expansion, static_action_from_contour

finite = dict(allow_nan=False, allow_infinity=False)

SECH = SechBarrier(V=1.0, a=1.0, m=1.0)
PULSE = LorentzPulse(amplitude=0.01, width=2.0, exponent=2)


def _setups():
    return st.builds(
        lambda V, a, m, frac: (SechBarrier(V=V, a=a, m=m), frac * V),
        V=st.floats(0.5, 5.0, **finite),
        a=st.floats(0.3, 3.0, **finite),
        m=st.floats(0.3, 3.0, **finite),
        frac=st.floats(0.1, 0.9, **finite),
    )


def _x0(order, traj, a, t):
    """x0 (order 0) or dx0/dt (order 1) of the trajectory at t."""
    out = _motion(order, np.asarray(t, dtype=complex), a, traj.omega, traj.u0,
                  traj.dt_shift)
    return out if out.ndim else complex(out)


# --- Unperturbed trajectory ------------------------------------------------------

@given(
    setup=_setups(),
    re=st.floats(-3.0, 3.0, **finite),
    imf=st.floats(-0.85, 0.85, **finite),
)
def test_velocity_and_energy_conservation(setup, re, imf):
    barrier, E = setup
    traj = unperturbed_trajectory(E, barrier)
    t = complex(re, imf * traj.tau_s)
    v = _x0(1, traj, barrier.a, t)
    # velocity consistent with the position evaluator; the comparison is
    # limited by the O(h^2) truncation of the central difference, which for
    # slow trajectories (small E, large m*a^2) reaches ~1e-8 relative
    h = 1e-6
    dnum = (_x0(0, traj, barrier.a, t + h) - _x0(0, traj, barrier.a, t - h)) / (2.0 * h)
    assert v == pytest.approx(dnum, rel=1e-6, abs=1e-9)
    # energy conservation m*v^2/2 + V/cosh^2(x/a) = E along the trajectory
    x = _x0(0, traj, barrier.a, t)
    energy = 0.5 * barrier.m * v * v + barrier.V / np.cosh(x / barrier.a) ** 2
    assert energy == pytest.approx(E, rel=1e-10)


def test_velocity_on_arrays_matches_scalar_calls():
    # contour integrands evaluate far-tail and near points in one array; the
    # overflow guard must act point by point
    traj = unperturbed_trajectory(0.5, SECH)
    H = 2.0 * traj.tau_s
    ts = np.array([-400.0 + 1j * H, -1.0 + 1j * H, 0.3 - 0.5j, 450.0 - 1j * H])
    v = _x0(1, traj, SECH.a, ts)
    assert np.all(np.isfinite(v))
    # numpy's array and scalar complex sinh/cosh may differ in the last bits
    np.testing.assert_allclose(v, [_x0(1, traj, SECH.a, t) for t in ts],
                               rtol=50 * np.finfo(float).eps, atol=0.0)


def test_far_field_forms_match_closed_forms():
    # beyond |Re z| = 200 position and velocity switch to their far-field
    # forms; up to |Re z| ~ 700 cosh(z) is finite, so the closed forms still
    # evaluate there and both must agree, on the legs (Im z = +/- pi) too
    traj = unperturbed_trajectory(0.5, SECH, dt_shift=0.2)
    a, u0, omega = SECH.a, traj.u0, traj.omega
    re = np.concatenate([np.linspace(150.0, 250.0, 41), np.linspace(-250.0, -150.0, 41)])
    for im in (0.0, 0.7, -1.3, 2.0, -2.5, math.pi, -math.pi):
        z = re + 1j * im
        t = z / omega - traj.dt_shift
        w = u0 * np.cosh(z)
        x_ref = a * np.arcsinh(w)
        v_ref = a * u0 * omega * np.sinh(z) / np.sqrt(1.0 + w * w)
        np.testing.assert_allclose(_x0(0, traj, a, t), x_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(_x0(1, traj, a, t), v_ref, rtol=1e-12, atol=0.0)


def test_delta_action_finite_on_long_tails():
    # omega * tail > 710 overflowed cosh in position; widths 1 and 2 raised
    # ConvergenceError on the non-finite integrand
    barrier = SechBarrier(V=5.0, a=0.3, m=1.0)
    tau_s = unperturbed_trajectory(2.5, barrier).tau_s
    for width in (0.3, 1.0, 2.0):
        pulse = LorentzPulse(amplitude=0.01, width=width, exponent=2)
        dA = delta_action(2.5, barrier, pulse, -0.3 * (width - tau_s))
        assert isinstance(dA, float) and math.isfinite(dA)


@given(setup=_setups())
def test_free_motion_asymptote_and_turning_point(setup):
    barrier, E = setup
    traj = unperturbed_trajectory(E, barrier)
    t_far = 400.0 / traj.omega
    v = _x0(1, traj, barrier.a, t_far)
    assert v == pytest.approx(math.sqrt(2.0 * E / barrier.m), rel=1e-9)
    assert abs(_x0(0, traj, barrier.a, t_far).imag) < 1e-9
    assert _x0(1, traj, barrier.a, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_branch_expansion_near_singularity():
    traj = unperturbed_trajectory(0.5, SECH)
    for dt in (1e-3, -1e-3j):
        t = traj.t_s + dt
        ref = branch_expansion(traj, SECH.a, t)
        val = _x0(0, traj, SECH.a, t)
        # both square-root branches continue the principal position branch
        err = min(abs(val - ref), abs(val - (2.0 * (-1j * math.pi / 2.0) - ref)))
        assert err < 1e-4


def test_cut_evaluation_raises():
    # a path with a node this mask flags gets a SingularityError in its slot:
    # the cut runs left from each branch point, and the branch point itself
    # is on it
    traj = unperturbed_trajectory(0.5, SECH)
    t_s = traj.t_s
    t = np.array([t_s - 1.0, t_s, np.conj(t_s) - 1.0, t_s + 1e-3, t_s - 1e-3j])
    np.testing.assert_array_equal(_on_cut(t, t_s.real, traj.tau_s, traj.omega),
                                  [True, True, True, False, False])


def test_cut_hit_fills_only_its_own_slot(monkeypatch):
    # flag the nodes of the middle path as on the cut: its slot holds the
    # SingularityError at its branch point, and the others keep their values
    shifts = [-0.3, -0.2, -0.1]
    good = _delta_actions(0.5, SECH, PULSE, shifts)
    t_s = unperturbed_trajectory(0.5, SECH, _aligned_shift(0.5, SECH, -0.2)).t_s
    monkeypatch.setattr(trajectory, "_on_cut",
                        lambda t, re_ts, tau_s, omega: re_ts == t_s.real)
    slots = _delta_actions(0.5, SECH, PULSE, shifts)
    assert isinstance(slots[1], SingularityError)
    assert slots[1].location == t_s and "branch cut" in str(slots[1])
    assert [slots[0], slots[2]] == [good[0], good[2]]


# --- Branch point ----------------------------------------------------------------

def test_singularity_time_example():
    ts = singularity_time(0.5, SECH)
    assert ts.real == pytest.approx(-math.log(math.sqrt(2.0) + 1.0), rel=1e-12)
    assert ts.imag == pytest.approx(math.pi / 2.0, rel=1e-12)


@given(setup=_setups(), dt=st.floats(-2.0, 2.0, **finite))
def test_singularity_time_shift_and_monotonicity(setup, dt):
    barrier, E = setup
    assert singularity_time(E, barrier, dt) == (
        singularity_time(E, barrier, 0.0) - dt
    )
    E2 = min(E * 1.2, 0.95 * barrier.V)
    if E2 > E:
        assert (
            singularity_time(E2, barrier).imag < singularity_time(E, barrier).imag
        )


@given(setup=_setups())
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_imaginary_traversal_time_integral(setup):
    # sqrt(m/2) * int dx / sqrt(V(x) - E) between the turning points equals
    # the leg height pi/omega of the contour (twice Im t_s); x = xt*sin(phi)
    # cancels the inverse-square-root ends with the factor cos(phi)
    barrier, E = setup
    xt = barrier.a * math.acosh(math.sqrt(barrier.V / E))

    def f(phi):
        x = xt * math.sin(phi)
        return xt * math.cos(phi) / math.sqrt(
            barrier.V / math.cosh(x / barrier.a) ** 2 - E
        )

    val, _ = integrate.quad(f, -0.5 * math.pi, 0.5 * math.pi, epsabs=1e-14,
                            epsrel=1e-12, points=[0.0], limit=200)
    val *= math.sqrt(barrier.m / 2.0)
    assert val == pytest.approx(math.pi / barrier.omega(E), rel=1e-8)


# --- Perturbation integral -------------------------------------------------------

def test_delta_action_zero_pulse_and_pole_requirement():
    assert delta_action(0.5, SECH, ZeroPulse(), 0.0) == 0.0
    with pytest.raises(RegimeError):
        delta_action(0.5, SECH, GaussianPulse(amplitude=0.01, rate=1.0), 0.0)


def test_regime_ordering_enforced():
    narrow = LorentzPulse(amplitude=0.01, width=1.0, exponent=2)  # < tau_s
    with pytest.raises(RegimeError):
        minimize_delta_action(0.5, SECH, narrow)


def _contour_value(traj, pts, epsrel=1e-11):
    """-i int pulse * x0 dt over the polyline pts, for PULSE on SECH."""
    def f(t, path_id):
        return PULSE(t) * _motion(0, t, SECH.a, traj.omega, traj.u0, traj.dt_shift)

    val = -1j * integrate_paths(f, [list(pts)], epsabs=1e-13, epsrel=epsrel)[0][0]
    assert abs(val.imag) <= 1e-8 * abs(val)
    return val.real


def _variant(pts, y=None, c2=None, tail=None):
    """build_contour's waypoints with another connector height y, connector
    abscissa c2 or tail, kept conjugation-symmetric."""
    pts = list(pts)
    y = pts[2].imag if y is None else y
    c2 = pts[3].real if c2 is None else c2
    tail = -pts[0].real if tail is None else tail
    upper = [complex(-tail, pts[0].imag), pts[1], complex(pts[2].real, y),
             complex(c2, y)]
    return upper + [p.conjugate() for p in upper[::-1]]


def test_contour_invariance():
    # Cauchy: other conjugation-symmetric contours between the pole and the
    # branch point give the same dA as the package's
    dt = -0.24
    traj = unperturbed_trajectory(0.5, SECH, _aligned_shift(0.5, SECH, dt))
    pts = build_contour(traj, 2.0)
    assert np.allclose(pts, np.conj(pts[::-1]))
    val = _delta_actions(0.5, SECH, PULSE, [dt], epsrel=1e-11)[0]
    assert _contour_value(traj, pts) == pytest.approx(val, rel=1e-13)
    mirror = -traj.t_s.real - 2.0 * traj.dt_shift
    for alt in (_variant(pts, y=1.62, c2=0.3), _variant(pts, y=1.95, c2=0.8 * mirror)):
        assert _contour_value(traj, alt) == pytest.approx(val, rel=1e-8)
    # moving the truncation point changes the value only at the scale of the
    # integrand's tail, amp*(width/t)^(2n)*a*omega*t, bounded for the worst n = 2
    tail = -pts[0].real
    tail_bound = SECH.a * traj.omega * 2.0**4 / tail**2
    assert tail_bound * PULSE.amplitude < 1e-5
    val_long = _contour_value(traj, _variant(pts, tail=650.0))
    assert abs(val_long - val) < tail_bound * PULSE.amplitude


def test_connector_left_of_branch_point_raises():
    # the connector runs halfway between max(Re t_s, 0) and the mirrored
    # branch point -Re t_s - 2*dt_shift; at a pulse-frame shift of 2 the
    # mirror lies left of the pulse pole, so no connector keeps the
    # principal branch of x0
    traj = unperturbed_trajectory(0.5, SECH, _aligned_shift(0.5, SECH, 2.0))
    assert -traj.t_s.real - 2.0 * traj.dt_shift < 0.0
    with pytest.raises(RegimeError, match="connector abscissa"):
        build_contour(traj, 2.0)
    with pytest.raises(RegimeError, match="connector abscissa"):
        delta_action(0.5, SECH, PULSE, 2.0)


_DERIVATIVE_CASES = pytest.mark.parametrize("barrier,E,pulse,dt", [
    (SechBarrier(V=5.0, a=0.3, m=1.0), 2.5,
     LorentzPulse(amplitude=0.01, width=1.0, exponent=2), -2.0107),
    (SECH, 0.5, PULSE, -1.0),
    (SechBarrier(V=2.0, a=0.7, m=1.5), 0.8,
     LorentzPulse(amplitude=0.005, width=1.5, exponent=2), -0.2),
], ids=["V5", "V1", "V2"])


@_DERIVATIVE_CASES
def test_slope_is_the_derivative_of_delta_action(barrier, E, pulse, dt):
    # dA' = -i int pulse * dx0/dt against the five-point difference of dA;
    # both need the contour on one sheet of x0 (at V = 5 the old connector
    # crossed the cut and the two differed by the jump of x0 there)
    h = 1e-3
    v = _delta_actions(E, barrier, pulse, dt + h * np.array([-2, -1, 1, 2]),
                       epsrel=1e-12)
    fd = (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)
    slope = _delta_actions(E, barrier, pulse, [dt], order=1)[0]
    assert slope == pytest.approx(fd, rel=1e-8)


@_DERIVATIVE_CASES
def test_curvature_is_the_derivative_of_the_slope(barrier, E, pulse, dt):
    # dA'' = -i int pulse * d2x0/dt2, the Newton derivative of the exit-shift
    # solve, against the five-point difference of dA'
    h = 1e-3
    v = _delta_actions(E, barrier, pulse, dt + h * np.array([-2, -1, 1, 2]),
                       order=1, epsrel=1e-12)
    fd = (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)
    curvature = _delta_actions(E, barrier, pulse, [dt], order=2)[0]
    assert curvature == pytest.approx(fd, rel=1e-7)


def test_delta_action_continuous_through_the_old_pole_crossing():
    # the old left vertical crossed the pulse pole once Re t_s > 1/omega, and
    # dA jumped from -0.209 to -0.0036 between dt = -0.86 and -1.07; now the
    # trapezoid rule on dA' reproduces every increment of dA
    shifts = np.linspace(-1.2, -0.7, 26)
    dA = np.array(_delta_actions(0.5, SECH, PULSE, shifts, epsrel=1e-12))
    slope = np.array(_delta_actions(0.5, SECH, PULSE, shifts, order=1))
    h = shifts[1] - shifts[0]
    steps = np.diff(dA) - 0.5 * h * (slope[1:] + slope[:-1])
    assert np.abs(steps).max() < 1e-6


@pytest.mark.parametrize("gap_frac", [0.3, 0.02])
def test_batched_scan_matches_serial(gap_frac):
    # the minimizer's 17-shift scan runs as one engine call; each shift has
    # its own contour, far-field clip and conjugation check
    theta = (math.pi / 2.0) / (1.0 - gap_frac)
    pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
    shifts = np.linspace(-3.0 * (theta - math.pi / 2.0), 0.0, 17)
    batch = _delta_actions(0.5, SECH, pulse, shifts, epsrel=1e-6)
    for s, value in zip(shifts, batch):
        serial = _delta_actions(0.5, SECH, pulse, [s], epsrel=1e-6)[0]
        assert abs(value - serial) <= 1e-10 * abs(serial)


@pytest.mark.parametrize("gap_frac", [0.3, 0.1, 0.02])
def test_upper_half_matches_whole_contour(gap_frac):
    # C is conjugation-symmetric and f(conj t) = conj f(t), so
    # -i int_C f = 2 Im int_{C+} f: the minimizer's scan (order 0, epsrel
    # 1e-6) and Newton steps (orders 1 and 2, epsrel 1e-10) run on C+ alone
    theta = (math.pi / 2.0) / (1.0 - gap_frac)
    pulse = LorentzPulse(amplitude=0.01, width=theta, exponent=2)
    shifts = -(theta - math.pi / 2.0) * np.array([0.3, 1.0 / math.sqrt(3.0), 1.5])
    for order, epsrel, rel, abs_ in ((0, 1e-6, 1e-13, 0.0), (1, 1e-10, 0.0, 2e-13),
                                     (2, 1e-10, 0.0, 2e-13)):
        whole = _delta_actions(0.5, SECH, pulse, shifts, order=order, epsrel=epsrel)
        upper = _delta_actions(0.5, SECH, pulse, shifts, order=order, epsrel=epsrel,
                               upper=True)
        np.testing.assert_allclose(upper, whole, rtol=rel, atol=abs_)


@pytest.mark.parametrize("gap_frac", [0.3, 0.1, 0.02])
def test_scan_row_matches_per_shift_contours(gap_frac):
    # the minimizer's scan: 17 shifts on one row, each a pulse slid along one
    # shared contour, against a contour per shift
    theta = (math.pi / 2.0) / (1.0 - gap_frac)
    pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
    shifts = np.linspace(-3.0 * (theta - math.pi / 2.0), 0.0, _SCAN)
    row = _delta_actions(0.5, SECH, pulse, [shifts], epsrel=1e-6, upper=True)
    each = _delta_actions(0.5, SECH, pulse, shifts, epsrel=1e-6, upper=True)
    assert len(row) == _SCAN
    np.testing.assert_allclose(row, each, rtol=1e-8, atol=0.0)


def test_scan_row_keeps_each_shifts_contour_error(monkeypatch):
    # a row whose shifts build_contour rejects holds the error of its first
    # rejected shift in every slot and sends the engine no path; a row of
    # other shifts in the same call is what it is in a call of its own, and
    # the minimizer's scan reports that first rejection
    theta = (math.pi / 2.0) / 0.9
    pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
    shifts = np.linspace(-3.0 * (theta - math.pi / 2.0), 0.0, 5)
    clean = 0.9 * shifts
    alone = _delta_actions(0.5, SECH, pulse, [clean], epsrel=1e-6, upper=True)
    build, engine = trajectory.build_contour, trajectory.integrate_paths
    rejected, paths_sent = [shifts[3], shifts[2]], []

    def rejecting(traj, width):
        for j, s in enumerate(rejected):
            if traj.dt_shift == _aligned_shift(0.5, SECH, s):
                raise RegimeError(f"connector {j}")
        return build(traj, width)

    def counted(f, paths, **kw):
        paths_sent.append(len(paths))
        return engine(f, paths, **kw)

    monkeypatch.setattr(trajectory, "build_contour", rejecting)
    monkeypatch.setattr(trajectory, "integrate_paths", counted)
    rows = _delta_actions(0.5, SECH, pulse, [shifts, clean], epsrel=1e-6,
                          upper=True)
    assert all(v is rows[0] for v in rows[:5]) and str(rows[0]) == "connector 1"
    assert rows[5:] == alone and paths_sent == [1]

    # a row the engine gives up on fails all its shifts with that error
    def giving_up(f, paths, **kw):
        vals, *rest = engine(f, paths, **kw)
        return [ConvergenceError("row")] * len(vals), *rest

    monkeypatch.setattr(trajectory, "integrate_paths", giving_up)
    rows = _delta_actions(0.5, SECH, pulse, [shifts, clean], epsrel=1e-6,
                          upper=True)
    assert [str(v) for v in rows] == ["connector 1"] * 5 + ["row"] * 5
    monkeypatch.setattr(trajectory, "integrate_paths", counted)
    scan = np.linspace(-3.0 * (theta - math.pi / 2.0), 0.0, _SCAN).tolist()
    rejected, paths_sent = [scan[9], scan[4]], []
    [res] = minimize_delta_actions([0.5], SECH, pulse)
    assert isinstance(res, RegimeError) and str(res) == "connector 1"
    assert sum(paths_sent) == 0


def test_conjugation_check_catches_a_sheet_error(monkeypatch):
    # theta = 2.5: the contour of before the one-sheet construction put the
    # left vertical at Re t_s - 1/omega and the connector at half the mirror,
    # so at dt = -2.09 it crossed the pole and the cut.  Crossed on the upper
    # half only, the two halves no longer mirror each other, and the
    # whole-contour check rejects dA and dA' alike.  A row of one shift is
    # integrated on that shift's contour as built (the row contour would
    # rebuild its lower half from the upper)
    pulse = LorentzPulse(amplitude=0.01, width=2.5, exponent=2)
    build = trajectory.build_contour

    def upper_off_sheet(traj, width):
        good = build(traj, width)
        c1 = traj.t_s.real - 1.0 / traj.omega
        c2 = 0.5 * (-traj.t_s.real - 2.0 * traj.dt_shift)
        H, y = good[0].imag, good[2].imag
        return (good[0], complex(c1, H), complex(c1, y), complex(c2, y)) + good[4:]

    monkeypatch.setattr(trajectory, "build_contour", upper_off_sheet)
    monkeypatch.setattr(trajectory, "_row_contour", lambda rows: list(rows[0][0]))
    dt = -3.0 * (2.5 - math.pi / 2.0) * 0.75
    for order in (0, 1):
        [res] = _delta_actions(0.5, SECH, pulse, [dt], order=order, epsrel=1e-8)
        assert isinstance(res, ConvergenceError)
        assert str(res) == "contour quadrature lost conjugation symmetry"
        assert res.residual > 0.1


def test_near_pinch_root_passes_the_conjugation_check():
    # gap/theta = 1.9e-4: at the root dA' cancels to ~1e-12 while each half
    # of the contour is O(10), so the roundoff of the whole-contour value
    # (Im 6.5e-13) crossed an error estimate at its 50*eps*int|f| floor
    # (5.9e-13); the check now also admits the 1e-12*int|f| of the path's
    # tolerance
    barrier = SechBarrier(V=74.39630366945457, a=2.6518634528734126,
                          m=1.2252818319781313)
    pulse = LorentzPulse(amplitude=1.2014666607333529e-05,
                         width=0.8611912960209469, exponent=2)
    E = 14.338778105321014
    res = minimize_delta_action(E, barrier, pulse)
    tight = _delta_actions(E, barrier, pulse, [res.dt_shift], epsrel=1e-12,
                           upper=True)[0]
    assert abs(res.dA - tight) <= 1e-8 * abs(tight)
    assert res.energy_residual < 1e-10


def test_minimize_canonical_example():
    res = minimize_delta_action(0.5, SECH, PULSE)
    gap = 2.0 - math.pi / 2.0
    # small-amplitude stationary shift -(width - tau_s)/sqrt(3); at this
    # sizeable gap the asymptote is only order-of-magnitude accurate, and
    # it tightens as the gap shrinks (checked in the acceptance suite)
    assert -2.0 * gap / math.sqrt(3.0) < res.dt_shift < 0.0
    assert abs(res.dt_shift) > 0.5 * gap / math.sqrt(3.0)
    # independent energy condition at the minimizer
    assert res.energy_residual < 1e-6 * abs(res.dA) / 2.0
    assert res.A == pytest.approx(res.A0 + res.dA, rel=1e-12)
    assert res.A0 == pytest.approx(static_wkb_exponent(SECH, 0.5), rel=1e-12)
    assert res.dA < 0.0
    # the near-resonance pole form; at this gap the dropped branch-cut piece
    # is of the same order, so only sign and order of magnitude are shared
    literal = -(math.pi / 4.0) * 0.01 * (math.pi / 2.0) ** 2 \
        * (3.0 * 1.0 / 0.5) ** 0.25 * math.sqrt(3.0 * 1.0 / gap)
    dA_form, dt_form = pole_form(0.5, SECH, PULSE)
    assert dA_form == pytest.approx(literal, rel=1e-14)
    assert dt_form == pytest.approx(-gap / math.sqrt(3.0), rel=1e-14)
    assert literal == pytest.approx(-0.0802, rel=1e-2)
    assert res.dA < literal < 0.0
    assert abs(res.dA) < 5.0 * abs(literal)


def test_minimize_where_the_old_scan_reached_the_branch_cut():
    # theta = 2.2 raised SingularityError: the scan's connector ran left of
    # the branch point
    res = minimize_delta_action(0.5, SECH, LorentzPulse(amplitude=0.01,
                                                        width=2.2, exponent=2))
    assert res.dt_shift == pytest.approx(-0.66835, abs=1e-5)
    assert res.dA == pytest.approx(-0.223862, abs=1e-6)
    assert res.energy_residual < 1e-10


# a pole-scan grid: branch points 30% down to 2% of the pulse width below the
# pole (tau_s = pi/(2*sqrt(2E)) for a = m = 1)
GRID_BARRIER = SechBarrier(V=1.4, a=1.0, m=1.0)
GRID_PULSE = LorentzPulse(amplitude=0.007, width=2.1, exponent=2)
GRID_ENERGIES = [math.pi**2 / (8.0 * 2.1**2 * (1.0 - g) ** 2)
                 for g in np.linspace(0.30, 0.02, 4)]


def test_grid_slots_equal_one_energy_calls():
    # the lockstep solve gives each energy the iterates and the engine panels
    # of its own call
    grid = minimize_delta_actions(GRID_ENERGIES, GRID_BARRIER, GRID_PULSE)
    for E, res in zip(GRID_ENERGIES, grid):
        one = minimize_delta_action(E, GRID_BARRIER, GRID_PULSE)
        assert (res.dt_shift, res.dA, res.energy_residual) == (
            one.dt_shift, one.dA, one.energy_residual)
        assert res.A == one.A and res.A0 == one.A0


def test_grid_slots_are_whole_contour_values_at_the_roots():
    # the scan and the Newton steps run on the upper half of each contour;
    # dA and the energy residual come from the whole contour, with its
    # conjugation check, at the returned shift
    grid = minimize_delta_actions(GRID_ENERGIES, GRID_BARRIER, GRID_PULSE)
    for E, res in zip(GRID_ENERGIES, grid):
        assert res.dA == _delta_actions(E, GRID_BARRIER, GRID_PULSE,
                                        [res.dt_shift], epsrel=1e-8)[0]
        slope = _delta_actions(E, GRID_BARRIER, GRID_PULSE, [res.dt_shift],
                               order=1)[0]
        assert res.energy_residual == abs(slope)


def _slot_classes_grid():
    """(energies, pulse) of a grid through every outcome of the minimizer."""
    theta = 2.5
    pulse = LorentzPulse(amplitude=0.01, width=theta, exponent=2)

    def at_gap(g):
        return math.pi**2 / (8.0 * theta**2 * (1.0 - g) ** 2)

    return [at_gap(1e-11), at_gap(-0.01), 0.5, at_gap(0.2), at_gap(0.02), 1.5,
            at_gap(1e-6)], pulse


def test_grid_slot_classes():
    # one grid through every outcome: the pinch, the ordering, no interior
    # minimum (E = 0.5 at theta = 2.5), solved rows, E outside (0, V) and a
    # scan path that gives up at its roundoff floor next to the pinch (it
    # was a warning and a solved row with A = -79.4); each failure stays in
    # its own slot
    energies, pulse = _slot_classes_grid()
    grid = minimize_delta_actions(energies, SECH, pulse)
    assert [type(r).__name__ for r in grid] == [
        "RegimeError", "RegimeError", "ConvergenceError", "MinimizedAction",
        "MinimizedAction", "DomainError", "ConvergenceError"]
    assert "pinch" in str(grid[0]) and "ordering" in str(grid[1])
    assert "no interior minimum" in str(grid[2])
    assert str(grid[6]).startswith("contour quadrature, path ")
    assert "roundoff" in str(grid[6])
    assert grid[6].residual > grid[6].diagnostics["tol"]
    for E, res in zip(energies[3:5], grid[3:5]):
        assert res == minimize_delta_action(E, SECH, pulse)
        assert res.energy_residual < 1e-12


def test_grid_slot_failures_rerun_nothing(monkeypatch):
    # on that grid the pinch fails a scan path before the engine and the
    # roundoff one inside it, yet the scan and the final stage are one
    # engine call each, and each root step one more: the bracket ends ride
    # in the first
    energies, pulse = _slot_classes_grid()
    engine, find_root = trajectory.integrate_paths, trajectory._find_root
    calls, steps = [], []

    def counted_engine(f, paths, **kw):
        def g(z, path_id):
            fz = f(z, path_id)
            calls[-1] = (len(paths), fz.shape[:-1])
            return fz

        calls.append(None)
        return engine(g, paths, **kw)

    def counted_root(fdf, *args, **kw):
        def step(x, live):
            steps.append(len(live))
            return fdf(x, live)
        return find_root(step, *args, **kw)

    monkeypatch.setattr(trajectory, "integrate_paths", counted_engine)
    monkeypatch.setattr(trajectory, "_find_root", counted_root)
    grid = minimize_delta_actions(energies, SECH, pulse)
    assert [type(r).__name__ for r in grid] == [
        "RegimeError", "RegimeError", "ConvergenceError", "MinimizedAction",
        "MinimizedAction", "DomainError", "ConvergenceError"]
    assert len(calls) == 2 + len(steps)
    # the scan: one path of 17 shifts at each energy that reaches the engine;
    # the later stages integrate one shift per path
    assert calls[0] == (4, (_SCAN,))
    assert all(k == () for _, k in calls[1:])


@pytest.mark.parametrize("rig,expected", [
    ((1e-3, 2e-3, "fail", None), "dA' does not rise"),
    ((-1e-3, -2e-3, None, "fail"), "dA' does not rise"),
    ((-1e-3, 2e-3, "fail", None), "iterate"),
    (("fail", 2e-3, None, None), "end"),
    ((-1e-3, "fail", "fail", None), "end"),
], ids=["lo-up", "hi-down", "rising", "lo-fails", "hi-fails"])
def test_first_root_step_error_precedence(monkeypatch, rig, expected):
    # the first root step evaluates dA' at the bracket ends lo, hi and
    # dA', dA'' at the iterate in one engine call, in that order per slot.
    # An end's error comes first; then ends that do not rise, even where
    # the iterate's path fails in the same call; then the iterate's error.
    # rig replaces those four values (None keeps the engine's)
    engine, seen = trajectory._delta_actions, []

    def rigged(E, barrier, pulse, shifts, **kw):
        out = engine(E, barrier, pulse, shifts, **kw)
        seen.append(len(out))
        if len(seen) == 2:
            for k, v in enumerate(rig):
                if v == "fail":
                    out[k] = ConvergenceError("end" if k < 2 else "iterate")
                elif v is not None:
                    out[k] = v
        return out

    monkeypatch.setattr(trajectory, "_delta_actions", rigged)
    [res] = minimize_delta_actions([0.5], SECH, PULSE)
    assert seen[:2] == [_SCAN, 4]
    assert isinstance(res, ConvergenceError)
    assert str(res).startswith(expected)


def test_pole_scan_grid_engine_calls(monkeypatch):
    # the seed-1 grid of the benchmark's pole_scan workload: the scan, four
    # lockstep root steps (the first with dA' at the bracket ends) and the
    # final stage, 29,940 integrand points in 11 passes.  Panels presplit
    # toward the pulse poles and the branch point make the scan one pass and
    # each later stage two
    barrier = SechBarrier(V=1.5634864789386136, a=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=0.009602560125665217,
                         width=1.9934850717737465, exponent=2)
    energies = np.linspace(0.32325997052977423, 0.6419678192518726, 4)
    engine, points, passes = trajectory.integrate_paths, [], []

    def counted(f, paths, **kw):
        def g(z, path_id):
            passes.append(z.size)
            return f(z, path_id)

        out = engine(g, paths, **kw)
        points.append(int(np.sum(out[2])))
        return out

    monkeypatch.setattr(trajectory, "integrate_paths", counted)
    grid = minimize_delta_actions(energies, barrier, pulse)
    assert all(isinstance(r, trajectory.MinimizedAction) for r in grid)
    assert len(points) == 6
    assert sum(points) == sum(passes) == 29_940
    assert len(passes) == 11
    # the scan's 17 shifts per energy share one contour: 1,995 points where
    # a contour per shift took 28,620
    assert points[0] == passes[0] <= 2_500


@pytest.mark.parametrize("barrier,E,pulse", [
    (SECH, 0.5, PULSE),
    (SECH, 0.5, LorentzPulse(amplitude=0.01, width=2.2, exponent=2)),
    (GRID_BARRIER, GRID_ENERGIES[-1], GRID_PULSE),
], ids=["theta2", "theta2.2", "gap2%"])
def test_newton_root_matches_brent(barrier, E, pulse):
    # the lockstep Newton root of dA' against Brent's method on the same
    # slope integral, over one scan step either side
    res = minimize_delta_action(E, barrier, pulse)

    def slope(s):
        return _delta_actions(E, barrier, pulse, [s], order=1)[0]

    h = 3.0 * (pulse.width - unperturbed_trajectory(E, barrier).tau_s) / 16.0
    ref = brentq(slope, res.dt_shift - h, res.dt_shift + h)
    assert abs(res.dt_shift - ref) < 1e-11
    assert res.energy_residual == abs(slope(res.dt_shift))
    assert res.energy_residual < 1e-12


def test_minimized_action_matches_mpmath_reference():
    # tests/reference/trajectory_mpmath.py: the root of dA' and dA there at
    # 30 digits, on a contour that shares only the truncated legs with the
    # package's.  Measured: |dt_shift| within 4.7e-15 and dA within 9.8e-16
    # relative; the windows allow ten times that
    ref = json.loads(
        (Path(__file__).parent / "reference" / "trajectory.json").read_text())
    for point in ref["points"]:
        barrier = SechBarrier(V=point["V"], a=point["a"], m=point["m"])
        pulse = LorentzPulse(amplitude=point["amp"], width=float(point["theta"]),
                             exponent=point["n"])
        res, = minimize_delta_actions([point["E"]], barrier, pulse)
        assert abs(res.dt_shift - float(point["dt_shift"])) < 5e-14
        assert res.dA == pytest.approx(float(point["dA"]), rel=1e-14, abs=0.0)


def test_enhancement_monotone_toward_resonance():
    tau_s = math.pi / 2.0
    amps = []
    for gap_frac in (0.12, 0.05):
        theta = tau_s / (1.0 - gap_frac)
        pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
        res = minimize_delta_action(0.5, SECH, pulse)
        amps.append(abs(res.dA))
    assert amps[1] > amps[0]


# --- Static contour reduction ----------------------------------------------------

@given(setup=_setups())
def test_static_contour_reduction(setup):
    barrier, E = setup
    A0 = static_action_from_contour(E, barrier)
    assert A0 == pytest.approx(static_wkb_exponent(barrier, E), rel=1e-8)
