"""Property tests and examples for the imaginary-time action module."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pulsetunnel import euclidean
from pulsetunnel.errors import ConvergenceError, DomainError
from pulsetunnel.euclidean import (
    _imag_axis_moments,
    adapt_pulse_width,
    euclidean_action,
    euclidean_actions,
    solve_tau0,
    threshold_energy,
)
from pulsetunnel.hj import action as hj_action, solve_t0
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)

from engine_spy import spy_engine

finite = dict(allow_nan=False, allow_infinity=False)

CANON = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0)
PULSE5 = LorentzPulse(amplitude=0.05, width=2.0, exponent=3)


def _barriers():
    return st.builds(
        lambda V, e0, m: TriangularBarrier(
            V=V, E_bound=0.5 * V, field_static=e0, m=m
        ),
        V=st.floats(4.0, 20.0, **finite),
        e0=st.floats(0.5, 2.0, **finite),
        m=st.floats(0.5, 2.0, **finite),
    )


# --- Static reduction ------------------------------------------------------------

@given(b=_barriers(), frac=st.floats(0.1, 0.9, **finite))
def test_static_reduction(b, frac):
    E = frac * b.V
    res = euclidean_action(E, b, ZeroPulse())
    assert res.A == pytest.approx(static_wkb_exponent(b, E), rel=1e-10)
    assert res.A == pytest.approx(res.A0, rel=1e-12)
    assert res.deltaE == pytest.approx(0.0, abs=1e-10)
    assert res.tau0 == pytest.approx(b.tau00_at(E), rel=1e-12)


# --- Traversal time --------------------------------------------------------------

def test_tau0_perturbative_above_threshold():
    b = TriangularBarrier(V=10.0, E_bound=9.5, field_static=1.0, m=1.0)
    pulse = LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    tau0 = solve_tau0(9.5, b, pulse)
    # first order in the amplitude: tau0 = tau00 - int_0^tau00 pulse(i u) du
    assert tau0 == pytest.approx(1.0 - pulse.integral_imag_axis(1.0), abs=5e-4)


def test_tau0_pinned_below_threshold():
    # the imaginary-axis divergence pins the root just below the pulse width;
    # the pinning distance scales like amp^(1/(n-1))
    pulse = LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    tau0 = solve_tau0(5.0, CANON, pulse)
    assert 0.95 * 2.0 < tau0 < 2.0
    tighter = solve_tau0(
        5.0, CANON, LorentzPulse(amplitude=0.001, width=2.0, exponent=3)
    )
    assert tau0 < tighter < 2.0


@given(
    b=_barriers(),
    frac=st.floats(0.15, 0.85, **finite),
    thf=st.floats(0.4, 2.0, **finite),
    ampf=st.floats(0.005, 0.05, **finite),
    n=st.integers(2, 4),
)
def test_tau0_window(b, frac, thf, ampf, n):
    E = frac * b.V
    theta = thf * b.tau00_at(E)
    pulse = LorentzPulse(amplitude=ampf * b.field_static, width=theta,
                         exponent=n)
    tau0 = solve_tau0(E, b, pulse)
    assert 0.0 < tau0 < min(theta, b.tau00_at(E))


@pytest.mark.parametrize("n", [24, 27, 30])
def test_tau0_at_high_exponents(n):
    # from n = 24 on G overflows at the first bracket probe,
    # width*(1 - 1e-14) (it was an OverflowError); the root lies well below
    pulse = LorentzPulse(amplitude=0.05, width=2.0, exponent=n)
    for E in (1.0, 5.0):
        tau0 = solve_tau0(E, CANON, pulse)
        g = CANON.field_static * tau0 + pulse.integral_imag_axis(tau0)
        assert 0.0 < tau0 < 2.0
        assert g == pytest.approx(CANON.p0(E), rel=1e-14)


# --- Action and energy shift -----------------------------------------------------

@given(
    b=_barriers(),
    f1=st.floats(0.15, 0.75, **finite),
    df=st.floats(0.02, 0.2, **finite),
    thf=st.floats(0.4, 2.0, **finite),
    ampf=st.floats(0.005, 0.05, **finite),
    n=st.integers(2, 4),
)
def test_monotonicity_and_bounds(b, f1, df, thf, ampf, n):
    E1 = f1 * b.V
    E2 = min((f1 + df) * b.V, 0.9 * b.V)
    if E2 <= E1:
        return
    theta = thf * b.tau00_at(0.5 * b.V)
    pulse = LorentzPulse(amplitude=ampf * b.field_static, width=theta,
                         exponent=n)
    r1 = euclidean_action(E1, b, pulse)
    r2 = euclidean_action(E2, b, pulse)
    # the pulse only assists; the exponent grows toward lower energy
    assert r1.A <= r1.A0 + 1e-12
    assert r2.A <= r2.A0 + 1e-12
    assert r1.deltaE >= -1e-10 and r2.deltaE >= -1e-10
    assert r1.A > r2.A
    E_T = threshold_energy(b, pulse)
    if E2 < 0.95 * E_T:
        # below threshold the outgoing shift also grows toward lower energy
        assert r1.deltaE > r2.deltaE


@given(
    b=_barriers(),
    frac=st.floats(0.15, 0.85, **finite),
    thf=st.floats(0.4, 2.0, **finite),
    ampf=st.floats(0.005, 0.05, **finite),
    n=st.integers(2, 4),
)
def test_energy_bookkeeping(b, frac, thf, ampf, n):
    E = frac * b.V
    theta = thf * b.tau00_at(E)
    pulse = LorentzPulse(amplitude=ampf * b.field_static, width=theta,
                         exponent=n)
    res = euclidean_action(E, b, pulse)
    # V - E - deltaE equals the potential drop at the exit coordinate
    field = b.field_static + pulse.amplitude
    assert b.V - E - res.deltaE == pytest.approx(
        field * res.exit_point, rel=1e-10, abs=1e-10
    )


def test_above_threshold_small_amplitude_correction():
    # leading correction is linear in the pulse amplitude, and its closed
    # asymptote 3*amp/((n-1)*2^n*(1-tau00/theta)^(n-2)*field) becomes exact
    # only as tau00/theta -> 1 (it undercounts by ~2x at tau00/theta = 0.8)
    b = TriangularBarrier(V=10.0, E_bound=9.5, field_static=1.0, m=1.0)
    c1 = 1.0 - euclidean_action(
        9.5, b, LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    ).A / euclidean_action(
        9.5, b, LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    ).A0
    c2 = 1.0 - euclidean_action(
        9.5, b, LorentzPulse(amplitude=0.005, width=2.0, exponent=3)
    ).A / euclidean_action(
        9.5, b, LorentzPulse(amplitude=0.005, width=2.0, exponent=3)
    ).A0
    assert c1 == pytest.approx(2.0 * c2, rel=0.05)

    amp = 2e-4
    ratios = []
    for r in (0.8, 0.9, 0.95):
        tau00 = 2.0 * r
        E = 10.0 - tau00**2 / 2.0
        br = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0, m=1.0)
        res = euclidean_action(
            E, br, LorentzPulse(amplitude=amp, width=2.0, exponent=3)
        )
        rel = 1.0 - res.A / res.A0
        asymptote = 3.0 * amp / (16.0 * (1.0 - r))
        ratios.append(rel / asymptote)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.35)


def test_below_threshold_keystone_vs_hj():
    res = euclidean_action(5.0, CANON, PULSE5)
    state = solve_t0(2.0, 0.0, CANON, PULSE5, branch="exit")
    S = hj_action(2.0, 0.0, CANON, PULSE5, state)
    assert res.A == pytest.approx(2.0 * S.imag, rel=2e-4)
    assert res.regime == "below-threshold"


# mpmath values at 30 working digits, generated by
# tests/reference/euclidean_mpmath.py
_EUCLIDEAN_REFS = json.loads(
    (Path(__file__).parent / "reference" / "euclidean.json").read_text()
)["points"]
_PULSE_KINDS = {"lorentz": LorentzPulse, "gaussian": GaussianPulse}


@pytest.mark.parametrize("ref", _EUCLIDEAN_REFS, ids=lambda ref: ref["name"])
def test_euclidean_matches_mpmath(ref):
    fields = {k: v for k, v in ref["pulse"].items() if k != "kind"}
    pulse = _PULSE_KINDS[ref["pulse"]["kind"]](**fields)
    res = euclidean_action(ref["E"], TriangularBarrier(**ref["barrier"]), pulse)
    for got, key in ((res.A, "A"), (res.exit_point, "exit_point"), (res.tau0, "tau0")):
        want = float(ref[key])
        assert abs(got - want) <= 1e-12 * abs(want), key


# --- The energy grid in one engine call -------------------------------------------

GRID = [float(E) for E in np.linspace(0.5, 9.7, 24)]


@pytest.mark.parametrize("pulse", [
    ZeroPulse(),
    LorentzPulse(amplitude=0.05, width=2.0, exponent=2),
    PULSE5,
    GaussianPulse(amplitude=0.05, rate=0.5),
], ids=["zero", "lorentz2", "lorentz3", "gaussian"])
def test_grid_equals_one_energy_calls(pulse):
    # each path gets the panels of a call of its own, so the grid is the
    # one-energy result to the bit, on both sides of the threshold
    batch = euclidean_actions(GRID, CANON, pulse)
    assert batch == [euclidean_action(E, CANON, pulse) for E in GRID]


def test_grid_keeps_domain_errors_in_their_slots():
    energies = [-1.0, 0.0, 3.0, 10.0, 5.0, 12.0]
    slots = euclidean_actions(energies, CANON, PULSE5)
    assert [isinstance(s, DomainError) for s in slots] == [
        True, True, False, True, False, True]
    assert slots[2] == euclidean_action(3.0, CANON, PULSE5)
    assert slots[4] == euclidean_action(5.0, CANON, PULSE5)


def test_non_finite_path_fills_only_its_own_slot(monkeypatch):
    # tau0 is 1.52 at E = 8.5 and at most 1.30 at E = 9 and 9.5, so
    # poisoning Re z > 1.45 hits the first panel of E = 8.5 alone
    energies = [9.5, 8.5, 9.0]
    good = [euclidean_action(E, CANON, PULSE5) for E in energies]
    integrate_paths = euclidean.integrate_paths

    def poisoned(f, paths, **kw):
        def g(z, path_id):
            return np.where(z.real > 1.45, np.nan, f(z, path_id))
        return integrate_paths(g, paths, **kw)

    monkeypatch.setattr(euclidean, "integrate_paths", poisoned)
    slots = euclidean_actions(energies, CANON, PULSE5)
    assert isinstance(slots[1], ConvergenceError)
    assert slots[0] == good[0] and slots[2] == good[2]
    with pytest.raises(ConvergenceError):
        euclidean_action(8.5, CANON, PULSE5)


def test_delta_E_collects_at_threshold():
    res = euclidean_action(5.0, CANON, PULSE5)
    assert res.E_T == pytest.approx(8.0)
    assert res.deltaE == pytest.approx(8.0 - 5.0, rel=0.02)


def test_continuity_at_threshold_under_grid_refinement():
    E_T = 8.0
    p = LorentzPulse(amplitude=0.01, width=2.0, exponent=3)
    gaps = []
    for eps in (0.1, 0.01):
        lo = euclidean_action(E_T - eps, CANON, p).A
        hi = euclidean_action(E_T + eps, CANON, p).A
        gaps.append(abs(lo - hi))
    assert gaps[1] < 0.2 * gaps[0]


# --- Panels presplit toward the pulse poles ---------------------------------------

# the benchmark's seed-1 curve60 grid: 60 energies below the threshold, whose
# tau0 sit 1.1% to 1.8% below the width
CURVE60_BARRIER = TriangularBarrier(V=10.37061538262509, E_bound=5.0,
                                    field_static=1.0, m=1.0)
CURVE60_PULSE = LorentzPulse(amplitude=0.002, width=1.953069938432006, exponent=3)
CURVE60 = [2.539012287126507 + (6.770699432337352 - 2.539012287126507) * i / 59
           for i in range(60)]


def test_curve60_grid_engine_calls(monkeypatch):
    # panels presplit toward u = +/- width: 2 passes and 9,645 integrand
    # points, where one panel per path took 9 passes and 17,490 points
    calls = spy_engine(monkeypatch, euclidean)
    grid = euclidean_actions(CURVE60, CURVE60_BARRIER, CURVE60_PULSE)
    assert all(isinstance(r, euclidean.EuclideanResult) for r in grid)
    assert [(c["passes"], c["points"]) for c in calls] == [(2, 9_645)]
    theta = CURVE60_PULSE.width
    assert calls[0]["near"] == [(theta, -theta)] * 60


@pytest.mark.parametrize("pulse", [
    ZeroPulse(), GaussianPulse(amplitude=0.05, rate=0.5)], ids=["zero", "gaussian"])
def test_entire_pulse_names_no_poles(pulse, monkeypatch):
    calls = spy_engine(monkeypatch, euclidean)
    euclidean_actions([4.0, 5.0], CANON, pulse)
    assert calls[0]["near"] == [(), ()]


# mpmath int_0^tau0 G^2 du at three curve60 energies, generated by
# tests/reference/near_mpmath.py
_G2_REFS = json.loads(
    (Path(__file__).parent / "reference" / "near.json").read_text()
)["euclidean"]


@pytest.mark.parametrize("ref", _G2_REFS, ids=lambda ref: ref["name"])
def test_int_G2_matches_mpmath(ref, monkeypatch):
    b = TriangularBarrier(E_bound=ref["E"], **ref["barrier"])
    calls = spy_engine(monkeypatch, euclidean)
    res = euclidean_action(ref["E"], b, LorentzPulse(**ref["pulse"]))
    assert res.tau0 == ref["tau0"]
    want = float(ref["int_G2"])
    assert abs(calls[0]["values"][0] - want) <= 1e-11 * want


def test_tiny_mass_int_G2_does_not_underflow():
    # at m = 1.5e-233 the integrand G^2 |dz| underflowed, int G^2 read 0 and
    # A was 2.30607277558e-122, 6.5e-5 off; solved at a mass near 1 it meets
    # mpmath's 2.30592311835e-122
    b = TriangularBarrier(V=1.2538039812530647e+119, E_bound=1.0,
                          field_static=1.4248148910699025e+33,
                          m=1.477343215151712e-233)
    pulse = LorentzPulse(amplitude=2.941778264689318e+147,
                         width=9.214783785117464e-242, exponent=17)
    res = euclidean_action(9.857287467267142e-169, b, pulse)
    assert abs(res.A - 2.30592311835e-122) <= 1e-9 * 2.30592311835e-122


def test_tiny_tau0_second_moment_keeps_its_digits():
    # tau0 = 1.8e-40*theta: J_22 - J_21 cancelled to eps/x^2 of its size,
    # and solved at a mass near 1, where e0^2 no longer overflows, A read
    # -8.96e-73.  The series of int_0^x s^2 (1 - s^2)^-n ds meets mpmath's
    # A = 4.58478957895e-85
    b = TriangularBarrier(V=389392044.54490155, E_bound=1.0,
                          field_static=1.9531958896761045e+201,
                          m=3.8199856176503746e+207)
    pulse = LorentzPulse(amplitude=6.732699534750694e+149,
                         width=5.0351735709165667e-54, exponent=22)
    res = euclidean_action(4.12577243041503e-300, b, pulse)
    assert abs(res.A - 4.58478957895e-85) <= 1e-10 * 4.58478957895e-85
    x = 1e-6
    _, m2 = _imag_axis_moments(LorentzPulse(1.0, 1.0, 22), np.array([x]))
    assert abs(m2[0] - (x**3 / 3.0 + 22.0 * x**5 / 5.0)) <= 1e-15 * m2[0]


@pytest.mark.parametrize("k", [-3, 5, 200])
def test_mass_rescaling_is_exact(k):
    # m*4^k, field and amplitude *2^k is the same problem with lengths
    # scaled by 2^-k: solved at the mass of CANON, every result is that of
    # CANON, the exit point scaled back
    s = 2.0 ** k
    b = TriangularBarrier(V=10.0, E_bound=5.0, field_static=s, m=s * s)
    pulse = LorentzPulse(amplitude=0.05 * s, width=2.0, exponent=3)
    energies = [2.0, 5.0, 8.5]
    canon = euclidean_actions(energies, CANON, LorentzPulse(0.05, 2.0, 3))
    for got, want in zip(euclidean_actions(energies, b, pulse), canon):
        assert (got.A, got.A0, got.tau0, got.deltaE, got.regime, got.E_T) == (
            want.A, want.A0, want.tau0, want.deltaE, want.regime, want.E_T)
        assert got.exit_point == want.exit_point / s


# --- Threshold and width adaptation ----------------------------------------------

def test_threshold_example_and_identity():
    E_T = threshold_energy(CANON, PULSE5)
    assert E_T == pytest.approx(8.0, rel=1e-12)
    assert CANON.tau00_at(E_T) == pytest.approx(2.0, rel=1e-12)


def test_threshold_clamp():
    b = TriangularBarrier(V=2.0, E_bound=1.0, field_static=1.0, m=1.0)
    # V - width^2*field_static^2/(2m) = -2.5 clamps to the lower end
    E_T = threshold_energy(b, LorentzPulse(amplitude=0.1, width=3.0, exponent=3))
    assert E_T == 1e-12 * b.V


def test_adapt_pulse_width_examples():
    b = TriangularBarrier(V=10.0, E_bound=8.0, field_static=1.0, m=1.0)
    assert adapt_pulse_width(b, 8.0) == pytest.approx(2.0, rel=1e-12)
    s = SechBarrier(V=1.0, a=1.0, m=1.0)
    assert adapt_pulse_width(s, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)
    with pytest.raises(DomainError):
        adapt_pulse_width(b, 11.0)


@given(b=_barriers(), frac=st.floats(0.05, 0.95, **finite))
def test_width_threshold_round_trip(b, frac):
    E = frac * b.V
    theta = adapt_pulse_width(b, E)
    pulse = LorentzPulse(amplitude=0.01, width=theta, exponent=3)
    assert threshold_energy(b, pulse) == pytest.approx(E, rel=1e-12)
