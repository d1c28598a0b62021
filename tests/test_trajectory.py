"""Property tests and examples for the sech^2 contour-trajectory module."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from pulsetunnel.errors import RegimeError, SingularityError
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    ZeroPulse,
    static_wkb_exponent,
)
from pulsetunnel.trajectory import (
    _aligned_shift,
    _delta_actions,
    branch_expansion,
    build_contour,
    delta_action,
    max_flux_exponent,
    minimize_delta_action,
    pole_form,
    singularity_time,
    static_action_from_contour,
    unperturbed_trajectory,
)

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
    v = traj.velocity(t)
    # velocity consistent with the position evaluator; the comparison is
    # limited by the O(h^2) truncation of the central difference, which for
    # slow trajectories (small E, large m*a^2) reaches ~1e-8 relative
    h = 1e-6
    dnum = (traj.position(t + h) - traj.position(t - h)) / (2.0 * h)
    assert v == pytest.approx(dnum, rel=1e-6, abs=1e-9)
    # energy conservation m*v^2/2 + V/cosh^2(x/a) = E along the trajectory
    x = traj.position(t)
    energy = 0.5 * barrier.m * v * v + barrier.V / np.cosh(x / barrier.a) ** 2
    assert energy == pytest.approx(E, rel=1e-10)


def test_velocity_on_arrays_matches_scalar_calls():
    # contour integrands evaluate far-tail and near points in one array; the
    # overflow guard must act point by point
    traj = unperturbed_trajectory(0.5, SECH)
    H = 2.0 * traj.tau_s
    ts = np.array([-400.0 + 1j * H, -1.0 + 1j * H, 0.3 - 0.5j, 450.0 - 1j * H])
    v = traj.velocity(ts)
    assert np.all(np.isfinite(v))
    # numpy's array and scalar complex sinh/cosh may differ in the last bits
    np.testing.assert_allclose(v, [traj.velocity(t) for t in ts],
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
        np.testing.assert_allclose(traj.position(t), x_ref, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.velocity(t), v_ref, rtol=1e-12, atol=0.0)


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
    v = traj.velocity(t_far)
    assert v == pytest.approx(math.sqrt(2.0 * E / barrier.m), rel=1e-9)
    assert abs(complex(traj.position(t_far)).imag) < 1e-9
    assert traj.velocity(0.0) == pytest.approx(0.0, abs=1e-12)


def test_branch_expansion_near_singularity():
    traj = unperturbed_trajectory(0.5, SECH)
    for dt in (1e-3, -1e-3j):
        t = traj.t_s + dt
        ref = branch_expansion(traj, t)
        val = traj.position(t)
        # both square-root branches continue the principal position branch
        err = min(abs(val - ref), abs(val - (2.0 * (-1j * math.pi / 2.0) - ref)))
        assert err < 1e-4


def test_cut_evaluation_raises():
    traj = unperturbed_trajectory(0.5, SECH)
    with pytest.raises(SingularityError):
        traj.position(traj.t_s - 1.0)


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
def test_imaginary_traversal_time_integral(setup):
    # sqrt(m/2) * int dx / sqrt(V(x) - E) between the turning points equals
    # the leg height pi/omega of the contour (twice Im t_s)
    barrier, E = setup
    xt = barrier.turning_point(E)

    def f(x):
        return 1.0 / math.sqrt(
            barrier.V / math.cosh(x / barrier.a) ** 2 - E
        )

    val, _ = integrate.quad(f, -xt, xt, epsabs=1e-14, epsrel=1e-12,
                            points=[0.0], limit=200)
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


def test_contour_invariance():
    dt = -0.24
    traj = unperturbed_trajectory(0.5, SECH, _aligned_shift(0.5, SECH, dt))
    specs = [
        build_contour(traj, 2.0),
        build_contour(traj, 2.0, cross_height=1.62, connector_x=0.3),
        build_contour(traj, 2.0, cross_height=1.95,
                      connector_x=0.8 * (-traj.t_s.real - 2.0 * traj.dt_shift)),
    ]
    vals = [
        delta_action(0.5, SECH, PULSE, dt, contour=c, epsrel=1e-11)
        for c in specs
    ]
    for c in specs:
        assert c.conjugate_symmetric()
        assert c.tail_bound * PULSE.amplitude < 1e-5
    assert vals[1] == pytest.approx(vals[0], rel=1e-8)
    assert vals[2] == pytest.approx(vals[0], rel=1e-8)
    # moving the truncation point changes the value only at the tail-bound scale
    longer = build_contour(traj, 2.0, tail=650.0)
    val_long = delta_action(0.5, SECH, PULSE, dt, contour=longer, epsrel=1e-11)
    assert abs(val_long - vals[0]) < specs[0].tail_bound * PULSE.amplitude


@pytest.mark.parametrize("gap_frac", [0.3, 0.02])
def test_batched_scan_matches_serial(gap_frac):
    # the minimizer's 17-shift scan runs as one engine call; each shift has
    # its own contour, far-field clip and conjugation check
    theta = (math.pi / 2.0) / (1.0 - gap_frac)
    pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
    shifts = np.linspace(-3.0 * (theta - math.pi / 2.0), 0.0, 17)
    batch = _delta_actions(0.5, SECH, pulse, shifts, epsrel=1e-6, imag_tol=1e-4)
    for s, value in zip(shifts, batch):
        serial = delta_action(0.5, SECH, pulse, s, epsrel=1e-6, imag_tol=1e-4)
        assert abs(value - serial) <= 1e-10 * abs(serial)


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


def test_enhancement_monotone_toward_resonance():
    tau_s = math.pi / 2.0
    amps = []
    for gap_frac in (0.12, 0.05):
        theta = tau_s / (1.0 - gap_frac)
        pulse = LorentzPulse(amplitude=0.005, width=theta, exponent=2)
        res = minimize_delta_action(0.5, SECH, pulse)
        amps.append(abs(res.dA))
    assert amps[1] > amps[0]


def test_max_flux_exponent_composition():
    flux = max_flux_exponent(0.5, SECH, ZeroPulse())
    A0 = static_wkb_exponent(SECH, 0.5)
    assert flux.A == pytest.approx(A0, rel=1e-12)
    assert flux.W_max == pytest.approx(math.exp(-A0), rel=1e-12)
    assert flux.enhancement == pytest.approx(1.0, rel=1e-12)
    assert flux.exponent_only


# --- Static contour reduction ----------------------------------------------------

@given(setup=_setups())
def test_static_contour_reduction(setup):
    barrier, E = setup
    A0 = static_action_from_contour(E, barrier)
    assert A0 == pytest.approx(static_wkb_exponent(barrier, E), rel=1e-8)
