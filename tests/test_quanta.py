"""Property tests and examples for the quanta-absorption optimizer."""

import math

import pytest
from hypothesis import given, strategies as st

from pulsetunnel.errors import DomainError, RegimeError
from pulsetunnel.euclidean import euclidean_action, threshold_energy
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    TriangularBarrier,
    static_wkb_exponent,
)
from pulsetunnel.quanta import effective_action, optimize_quanta
from quanta_scan import optimize_quanta as scan_quanta

finite = dict(allow_nan=False, allow_infinity=False)

CANON = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0)
WELL = TriangularBarrier(V=6.0, E_bound=1.0, field_static=0.0, m=1.0)


# --- effective_action ------------------------------------------------------------

def test_zero_quanta_reduces_to_static_exponent():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    A = effective_action(1.0, 0.0, 5.0, CANON, pulse)
    assert A == pytest.approx(static_wkb_exponent(CANON, 5.0), rel=1e-12)
    # each absorbed quantum contributes one spectral logarithm
    A1 = effective_action(1.0, 1.0, 5.0, CANON, pulse)
    log_arg = (
        math.log(CANON.field_static / pulse.amplitude)
        - (pulse.exponent - 2) * math.log(1.0 * pulse.width)
        + 1.0 * pulse.width
    )
    A0_lifted = (4.0 / 3.0) * (10.0 - 6.0) * CANON.tau00_at(6.0)
    assert A1 == pytest.approx(A0_lifted + 2.0 * log_arg, rel=1e-12)


def test_gaussian_stable_well_example():
    pulse = GaussianPulse(amplitude=0.01, rate=1.0)
    A = effective_action(2.0, 2.5, 1.0, WELL, pulse)
    expected = 5.0 * (math.log(2.0 * math.sqrt(5.0) / 0.01) + 1.0)
    assert A == pytest.approx(expected, rel=1e-12)


def test_gaussian_needs_a_stable_well():
    # the stable-well formula ignores the static field of a decaying barrier
    pulse = GaussianPulse(amplitude=0.05, rate=0.05)
    with pytest.raises(RegimeError):
        effective_action(0.1, 50.0, 5.0, CANON, pulse)
    with pytest.raises(RegimeError):
        optimize_quanta(5.0, CANON, pulse)


def test_effective_action_domain_errors():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    with pytest.raises(DomainError):
        effective_action(-1.0, 1.0, 5.0, CANON, pulse)
    with pytest.raises(DomainError):
        effective_action(1.0, -0.5, 5.0, CANON, pulse)
    with pytest.raises(DomainError):
        effective_action(1.0, 6.0, 5.0, CANON, pulse)   # lifted above the top


# --- Gaussian optimum ------------------------------------------------------------

def test_gaussian_optimum_matches_closed_form_to_log_accuracy():
    pulse = GaussianPulse(amplitude=0.01, rate=1.0)
    plan = optimize_quanta(1.0, WELL, pulse)
    L = math.log(1.0 * math.sqrt(5.0) / 0.01)
    A_closed = 10.0 * math.sqrt(L)
    w_closed = 2.0 * math.sqrt(L)
    assert A_closed == pytest.approx(23.26, rel=1e-3)
    assert w_closed == pytest.approx(4.652, rel=1e-3)
    # frequency agrees within the dropped log-log term 1/(2L)
    assert abs(plan.omega - w_closed) / w_closed <= 1.0 / (2.0 * L)
    # the closed form drops a positive log-log term, so the true minimum of
    # the full curve sits above it by ~ln(2*sqrt(L))/(2L)
    assert plan.A_eff > A_closed
    rel = (plan.A_eff - A_closed) / A_closed
    assert rel <= 1.2 * math.log(2.0 * math.sqrt(L)) / (2.0 * L)
    assert plan.N == pytest.approx((6.0 - 1.0) / plan.omega, rel=1e-9)


def test_gaussian_no_strong_enhancement():
    # over a decaying barrier the Gaussian spectrum has no slow tail: the
    # optimized exponent stays at or above the static one and grows as the
    # pulse weakens
    A0 = static_wkb_exponent(CANON, 5.0)
    prev = None
    for amp in (1e-2, 1e-3, 1e-4):
        well = TriangularBarrier(V=10.0, E_bound=5.0, field_static=0.0, m=1.0)
        plan = optimize_quanta(5.0, well, GaussianPulse(amplitude=amp, rate=1.0))
        assert plan.A_eff > A0
        if prev is not None:
            assert plan.A_eff > prev
        prev = plan.A_eff


# --- Triangular (Lorentzian) optimum ---------------------------------------------

def test_triangular_optimum_stationarity_identity():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    plan = optimize_quanta(5.0, CANON, pulse)
    w, N = plan.omega, plan.N
    assert 0.0 < N < (10.0 - 5.0) / w
    # stationarity in N: traversal time at the lifted energy equals the
    # per-quantum spectral logarithm divided by the frequency
    log_arg = (
        math.log(CANON.field_static / pulse.amplitude)
        - (pulse.exponent - 2) * math.log(w * pulse.width)
        + w * pulse.width
    )
    lifted = 5.0 + w * N
    assert CANON.tau00_at(lifted) == pytest.approx(log_arg / w, rel=1e-4)
    # equivalently the energy lift lands at the threshold gap up to the
    # residual per-quantum logarithm (sign included)
    E_T = threshold_energy(CANON, pulse).E_T
    log_gap = (E_T - 5.0) - plan.deltaE
    resid = (
        math.log(CANON.field_static / pulse.amplitude)
        - (pulse.exponent - 2) * math.log(w * pulse.width)
    )
    predicted = 2.0 * (10.0 - lifted) * resid / (CANON.tau00_at(lifted) * w)
    assert log_gap == pytest.approx(predicted, rel=0.2)


def test_triangular_optimum_approaches_threshold_form():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    plan = optimize_quanta(5.0, CANON, pulse)
    A51 = (4.0 / 3.0) * 2.0 * 2.0 + 2.0 * 3.0 * 2.0    # A0(E_T) + 2(E_T-E)theta
    assert A51 == pytest.approx(17.333, rel=1e-3)
    # the optimum sits on the plateau: it agrees with the threshold form to
    # the residual per-quantum logarithms (which can carry either sign, so
    # the plateau may sit slightly below as well as above)
    log_window = 2.0 * plan.N * (
        abs(math.log(1.0 / 0.05))
        + (pulse.exponent - 2) * math.log(plan.omega * pulse.width)
    )
    assert abs(plan.A_eff - A51) < log_window
    # but never below the full (interference-keeping) exponent
    assert plan.A_eff > euclidean_action(5.0, CANON, pulse).A
    # an 800-point scan agrees with the closed form and never does better
    wide = scan_quanta(5.0, CANON, pulse, omega_points=800)
    assert wide.A_eff <= plan.A_eff + 1e-9
    assert plan.A_eff <= wide.A_eff + 1e-12 * abs(wide.A_eff)
    # the envelope condition: omega*theta = e*E0/amp for n = 3
    assert plan.omega == pytest.approx(math.e * 20.0 / 2.0, rel=1e-15)


def test_separation_bound_vs_euclidean():
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)
    plan = optimize_quanta(5.0, CANON, pulse)
    for E in (3.0, 5.0, 7.0):
        p = optimize_quanta(E, CANON, pulse)
        full = euclidean_action(E, CANON, pulse)
        # the product approximation discards interference: never below the
        # full trajectory exponent
        assert p.A_eff >= full.A
    assert plan.A_eff >= euclidean_action(5.0, CANON, pulse).A


# --- Plan invariants -------------------------------------------------------------

PLAN_DOMAIN = dict(
    V=st.floats(5.0, 20.0, **finite),
    frac=st.floats(0.2, 0.7, **finite),
    ampexp=st.floats(-4.0, -1.3, **finite),
    kind=st.sampled_from(["lorentz", "gauss"]),
    thf=st.floats(0.3, 0.8, **finite),
    n=st.integers(3, 5),
)


def _plan_case(V, frac, ampexp, kind, thf, n):
    E = frac * V
    amp = 10.0 ** ampexp
    if kind == "gauss":
        b = TriangularBarrier(V=V, E_bound=E, field_static=0.0, m=1.0)
        pulse = GaussianPulse(amplitude=amp, rate=1.0)
    else:
        b = TriangularBarrier(V=V, E_bound=E, field_static=1.0, m=1.0)
        pulse = LorentzPulse(amplitude=amp, width=thf * b.tau00, exponent=n)
    return E, b, pulse


@given(**PLAN_DOMAIN)
def test_plan_invariants(V, frac, ampexp, kind, thf, n):
    E, b, pulse = _plan_case(V, frac, ampexp, kind, thf, n)
    plan = optimize_quanta(E, b, pulse)
    assert plan.N >= 0.0
    assert plan.A_eff >= 0.0
    assert plan.deltaE == pytest.approx(plan.omega * plan.N, rel=1e-12)
    assert plan.deltaE <= (V - E) + 1e-9
    assert plan.N_rounded == round(plan.N)


# --- Closed form against the brute-force scan ------------------------------------

def _scan_range(E, b, pulse):
    if isinstance(pulse, GaussianPulse):
        L = math.log(pulse.rate * math.sqrt(b.m * (b.V - E)) / pulse.amplitude)
        w_guess = 2.0 * pulse.rate * math.sqrt(L)
        return 0.05 * w_guess, 20.0 * w_guess
    return 1e-2 / pulse.width, 50.0 * (b.V - E)


def _assert_no_worse_than_scan(E, b, pulse):
    plan = optimize_quanta(E, b, pulse)
    ref = scan_quanta(E, b, pulse)
    lo, hi = _scan_range(E, b, pulse)
    assert lo <= plan.omega <= hi
    assert plan.A_eff <= ref.A_eff + 1e-12 * abs(ref.A_eff)
    assert plan.A_eff == effective_action(plan.omega, plan.N, E, b, pulse)


@given(**PLAN_DOMAIN)
def test_closed_form_no_worse_than_scan_on_plan_domain(V, frac, ampexp, kind,
                                                       thf, n):
    E, b, pulse = _plan_case(V, frac, ampexp, kind, thf, n)
    _assert_no_worse_than_scan(E, b, pulse)


@given(
    V=st.floats(5.0, 20.0, **finite),
    frac=st.floats(0.05, 0.95, **finite),
    e0=st.floats(0.5, 3.0, **finite),
    m=st.floats(0.5, 2.0, **finite),
    ampexp=st.floats(-5.0, math.log10(3.0), **finite),   # amp/E0, above 1 too
    thf=st.floats(0.2, 2.0, **finite),
    n=st.integers(2, 6),
)
def test_lorentz_closed_form_no_worse_than_scan(V, frac, e0, m, ampexp, thf, n):
    E = frac * V
    b = TriangularBarrier(V=V, E_bound=E, field_static=e0, m=m)
    pulse = LorentzPulse(amplitude=e0 * 10.0 ** ampexp, width=thf * b.tau00,
                         exponent=n)
    _assert_no_worse_than_scan(E, b, pulse)


@given(
    V=st.floats(2.0, 20.0, **finite),
    frac=st.floats(0.05, 0.95, **finite),
    m=st.floats(0.5, 2.0, **finite),
    rate=st.floats(0.2, 5.0, **finite),
    L=st.floats(0.05, 8.0, **finite),   # includes L < 1.15, where W_{-1} is complex
)
def test_gaussian_closed_form_no_worse_than_scan(V, frac, m, rate, L):
    E = frac * V
    b = TriangularBarrier(V=V, E_bound=E, field_static=0.0, m=m)
    pulse = GaussianPulse(amplitude=rate * math.sqrt(m * (V - E)) * math.exp(-L),
                          rate=rate)
    _assert_no_worse_than_scan(E, b, pulse)


def test_gaussian_small_L_takes_the_lower_end():
    # below L ~ 2.2 the bounded Brent search of the scan settles near w_guess,
    # while the exponent keeps falling toward the lower end of the range
    b = TriangularBarrier(V=6.0, E_bound=1.0, field_static=0.0, m=1.0)
    pulse = GaussianPulse(amplitude=math.sqrt(5.0) * math.exp(-1.5), rate=1.0)
    plan = optimize_quanta(1.0, b, pulse)
    lo, _ = _scan_range(1.0, b, pulse)
    assert plan.omega == lo
    assert plan.A_eff < scan_quanta(1.0, b, pulse).A_eff - 1.0
