"""Tests of the adaptive G7-K15 contour engine: closed forms, tolerances,
failure modes, determinism, and delta_action against mpmath references."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from pulsetunnel.contour import integrate_path, quad_line, quad_path
from pulsetunnel.errors import ConvergenceError
from pulsetunnel.model import LorentzPulse, SechBarrier
from pulsetunnel.trajectory import delta_action


def _steps(z):
    """37 unit jumps on [0, 1]: no finite panel budget resolves them all."""
    return np.sign(np.sin(37.0 * math.pi * z.real))


def _noisy(z):
    """Smooth integrand with a 1e-9 relative noise floor."""
    return np.exp(z) * (1.0 + 1e-9 * np.sin(1e12 * z.real))


# --- Closed forms ------------------------------------------------------------------

@pytest.mark.parametrize("center", [0.0, 0.3 - 0.2j])
def test_full_circle(center):
    val = quad_path(lambda z: 1.0 / (z - center),
                    [("arc", center, 0.7, 0.0, 2.0 * math.pi)])
    assert val == pytest.approx(2j * math.pi, abs=1e-12)


def test_polyline_power():
    pts = [-1.0, 0.5 + 2j, 3.0 - 1j, 2.0 + 0.5j]
    val = quad_path(lambda z: z * z, pts)
    assert val == pytest.approx((pts[-1] ** 3 - pts[0] ** 3) / 3.0, rel=1e-14)
    assert quad_line(lambda z: z * z, 1j, 2.0) == pytest.approx(
        (8.0 - (1j) ** 3) / 3.0, rel=1e-14)


def test_one_array_call_per_pass():
    sizes = []

    def f(z):
        assert z.ndim == 1 and z.dtype == complex
        sizes.append(z.size)
        return 1.0 / (z - (1.02 + 0.05j))

    _, _, n_evals = integrate_path(f, [0.0, 1.0, 1.0 + 1j])
    assert len(sizes) > 1
    assert all(n % 15 == 0 for n in sizes)
    assert sum(sizes) == n_evals


# --- Tolerances ----------------------------------------------------------------------

def test_arc_elements_honour_tolerances():
    # an arc passing 0.02 from a pole; exact value from a logarithm whose cut
    # runs from the pole away from the origin, clear of the arc
    p = 1.02 + 0.05j
    rot = -p.conjugate() / abs(p)

    def log_w(z):
        return cmath.log((z - p) * rot)

    exact = log_w(cmath.exp(1j)) - log_w(cmath.exp(-1j))
    arc = [("arc", 0.0, 1.0, -1.0, 1.0)]
    runs = {}
    for epsrel in (1e-4, 1e-12):
        val, err, n = integrate_path(lambda z: 1.0 / (z - p), arc,
                                     epsabs=0.0, epsrel=epsrel)
        tol = epsrel * abs(val)
        assert err <= tol
        assert abs(val - exact) <= tol
        runs[epsrel] = n
    assert runs[1e-4] < runs[1e-12]


# --- Failure modes -------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_raises(bad):
    with pytest.raises(ConvergenceError):
        quad_line(lambda z: np.where(z.real > 0.5, bad, 1.0), 0.0, 1.0)


def test_panel_limit_warns_and_stops():
    with pytest.warns(IntegrationWarning, match="panel limit"):
        val, err, n = integrate_path(_steps, [0.0, 1.0], epsabs=0.0,
                                     epsrel=1e-14)
    assert n <= 15 * 2 * 400
    assert abs(val - 1.0 / 37.0) <= err


def test_roundoff_warns_and_stops_early():
    with pytest.warns(IntegrationWarning, match="roundoff"):
        val, err, n = integrate_path(_noisy, [0.0, 1.0], epsabs=0.0,
                                     epsrel=1e-13)
    assert n < 15 * 100
    assert val == pytest.approx(math.e - 1.0, rel=1e-8)


# --- Determinism ---------------------------------------------------------------------

def test_reruns_bitwise_identical():
    args = (0.5, SechBarrier(V=1.0, a=1.0, m=1.0),
            LorentzPulse(amplitude=0.01, width=2.0, exponent=2), -0.24)
    first = delta_action(*args)
    assert delta_action(*args) == first
    with pytest.warns(IntegrationWarning):
        a = integrate_path(_steps, [0.0, 1.0], epsabs=0.0, epsrel=1e-14)
    with pytest.warns(IntegrationWarning):
        b = integrate_path(_steps, [0.0, 1.0], epsabs=0.0, epsrel=1e-14)
    assert a == b


# --- High-precision references -------------------------------------------------------

# mpmath values at 30 working digits, copied from bench/references.json
# (generated by bench/references.py); V = a = m = 1, E = 0.5, amp = 0.005, n = 2
DELTA_ACTION_REFERENCES = [
    # gap/theta, theta, dt_shift, value
    (0.15, 1.8479956785822313, -0.16004112037360751, -0.1104918969432547784226517),
    (0.05, 1.6534698176788385, -0.04773156221668995, -0.1418061365702184877623835),
    (0.02, 1.60285339468867, -0.01850815677790024, -0.1937668106468485728723505),
]


@pytest.mark.parametrize("gap_frac,theta,dt_shift,value", DELTA_ACTION_REFERENCES)
def test_delta_action_matches_mpmath(gap_frac, theta, dt_shift, value):
    got = delta_action(0.5, SechBarrier(V=1.0, a=1.0, m=1.0),
                       LorentzPulse(amplitude=0.005, width=theta, exponent=2),
                       dt_shift)
    assert abs(got - value) <= 1e-9 * abs(value)
