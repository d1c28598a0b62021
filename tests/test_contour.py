"""Tests of the adaptive G7-K15 contour engine: closed forms, tolerances,
failure modes, determinism, and delta_action against mpmath references."""

import cmath
import math

import numpy as np
import pytest

from pulsetunnel.contour import integrate_paths
from pulsetunnel.errors import ConvergenceError
from pulsetunnel.model import LorentzPulse, SechBarrier
from pulsetunnel.trajectory import delta_action


def _steps(z, path_id):
    """37 unit jumps on [0, 1]: no finite panel budget resolves them all."""
    return np.sign(np.sin(37.0 * math.pi * z.real))


def _noisy(z, path_id):
    """Smooth integrand with a 1e-9 relative noise floor."""
    return np.exp(z) * (1.0 + 1e-9 * np.sin(1e12 * z.real))


def _one(f, path, **tolerances):
    """(value, abs_err, n_evals) of a one-path call."""
    val, err, n = integrate_paths(f, [path], **tolerances)
    return val[0], err[0], n[0]


# --- Closed forms ------------------------------------------------------------------

def _square(center, half):
    """Closed anticlockwise square of half-width `half` round `center`."""
    return [center + half * c for c in (1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)]


@pytest.mark.parametrize("center", [0.0, 0.3 - 0.2j])
def test_closed_square_round_a_pole(center):
    val = _one(lambda z, path: 1.0 / (z - center), _square(center, 0.7))[0]
    assert val == pytest.approx(2j * math.pi, abs=1e-12)


def test_polyline_power():
    pts = [-1.0, 0.5 + 2j, 3.0 - 1j, 2.0 + 0.5j]
    val = _one(lambda z, path: z * z, pts)[0]
    assert val == pytest.approx((pts[-1] ** 3 - pts[0] ** 3) / 3.0, rel=1e-14)
    assert _one(lambda z, path: z * z, [1j, 2.0])[0] == pytest.approx(
        (8.0 - (1j) ** 3) / 3.0, rel=1e-14)


def test_one_array_call_per_pass():
    sizes = []

    def f(z, path):
        assert z.ndim == 1 and z.dtype == complex
        sizes.append(z.size)
        return 1.0 / (z - (1.02 + 0.05j))

    _, _, n_evals = _one(f, [0.0, 1.0, 1.0 + 1j])
    assert len(sizes) > 1
    assert all(n % 15 == 0 for n in sizes)
    assert sum(sizes) == n_evals


# --- Tolerances ----------------------------------------------------------------------

def test_polyline_near_a_pole_honours_tolerances():
    # a polyline passing 0.02 from a pole; exact value from a logarithm whose
    # cut runs from the pole away from the origin, clear of the polyline
    p = 1.02 + 0.05j
    rot = -p.conjugate() / abs(p)

    def log_w(z):
        return cmath.log((z - p) * rot)

    polyline = [0.0, 1.0 - 0.5j, 1.0 + 0.5j]
    exact = log_w(polyline[-1]) - log_w(polyline[0])
    runs = {}
    for epsrel in (1e-4, 1e-12):
        val, err, n = _one(lambda z, path: 1.0 / (z - p), polyline,
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
        _one(lambda z, path: np.where(z.real > 0.5, bad, 1.0), [0.0, 1.0])


def _gives_up(f, paths, reason, path, **tolerances):
    """The ConvergenceError of a call in which `path` gives up for `reason`."""
    with pytest.raises(ConvergenceError, match=f"path {path}: {reason}") as info:
        integrate_paths(f, paths, **tolerances)
    exc = info.value
    assert str(exc).startswith("contour quadrature, ")
    assert exc.diagnostics.keys() == {"path", "tol"}
    assert exc.diagnostics["path"] == path
    assert exc.residual > exc.diagnostics["tol"]
    return exc


def _counted(f, counts):
    """f, adding the number of points it is evaluated at on each path to counts."""
    def g(z, path_id):
        counts[:] += np.bincount(path_id, minlength=counts.size)
        return f(z, path_id)
    return g


def test_panel_limit_raises():
    counts = np.zeros(1, dtype=int)
    exc = _gives_up(_counted(_steps, counts), [[0.0, 1.0]], "the panel limit", 0,
                    epsabs=0.0, epsrel=1e-14)
    assert exc.diagnostics["tol"] == pytest.approx(1e-14 / 37.0, rel=1e-3)
    # the path gives up with exactly its 400 panels
    assert counts[0] == 15 * (2 * 400 - 1)


def test_roundoff_raises_early():
    counts = np.zeros(1, dtype=int)
    _gives_up(_counted(_noisy, counts), [[0.0, 1.0]], "roundoff", 0,
              epsabs=0.0, epsrel=1e-13)
    assert counts[0] < 15 * 100


def test_epsl1_lifts_a_cancelling_integral_off_its_roundoff_floor():
    # int |f| = 2000/pi puts the roundoff floor near 7e-12, above epsabs
    def f(z, path):
        return 1e3 * np.cos(2.0 * math.pi * z)

    _gives_up(f, [[0.0, 1.0]], "roundoff", 0, epsabs=1e-13)
    val, err, _ = _one(f, [0.0, 1.0], epsabs=1e-13, epsl1=1e-12)
    assert err <= 1e-12 * 2e3 / math.pi
    assert abs(val) <= 1e-12 * 2e3 / math.pi


# --- Many paths in one call ---------------------------------------------------------

def test_batch_matches_single_paths():
    # open and closed polylines, each path with its own pole; every path must
    # get what a call of its own gives, with the same panels
    poles = np.array([1.02 + 0.05j, 0.5 + 0.001j, 0.3 - 0.2j, 2.0 + 2.0j])
    paths = [
        [0.0, 1.0 - 0.5j, 1.0 + 0.5j],
        [0.0, 1.0, 1.0 + 1j],
        _square(0.3 - 0.2j, 0.7),
        [-1.0, 1.0, 1.0 + 1j, -1.0 + 1j, -1.0],
    ]
    val, err, n = integrate_paths(lambda z, path: 1.0 / (z - poles[path]), paths)
    for p, path in enumerate(paths):
        single = _one(lambda z, path_id: 1.0 / (z - poles[p]), path)
        assert abs(val[p] - single[0]) <= 1e-10 * abs(single[0])
        assert n[p] == single[2]
        assert err[p] <= max(1e-12, 1e-10 * abs(val[p]))
    assert val[2] == pytest.approx(2j * math.pi, abs=1e-12)
    # the closed rectangle encloses no pole
    assert abs(val[3]) <= 1e-12


def test_converged_path_is_not_bisected():
    # path 0 meets epsrel 1e-4 on its first pass, although its short segment
    # holds more than its length share of the error; path 1 needs many passes
    poles = np.array([0.25 + 0.049j, 0.5 + 0.001j])
    paths = [[0.0, 0.2, 0.3], [0.0, 1.0]]

    def f(z, path):
        return 1.0 / (z - poles[path])

    val, err, n = integrate_paths(f, paths, epsabs=0.0, epsrel=1e-4)
    assert n[0] == 2 * 15 and n[1] > 10 * 15
    assert err[0] <= 1e-4 * abs(val[0])
    short = integrate_paths(f, [[0.2, 0.3]], epsabs=0.0, epsrel=1.0)[1][0]
    assert short > 1e-4 * abs(val[0]) * 0.1 / 0.3


def test_paths_meet_their_own_tolerance():
    # magnitudes 1e-8 to 1e8: each path's tolerance follows its own value
    scale = np.array([1e-8, 1.0, 1e8])
    p = 0.5 + 0.01j
    exact = cmath.log((1.0 - p) / -p)

    def f(z, path):
        return scale[path] / (z - p)

    # a scalar epsrel, or one per path with the panels of a path's own call
    for epsrel in (1e-6, 1e-12, [1e-12, 1e-6, 1e-9]):
        val, err, n = integrate_paths(f, [[0.0, 1.0]] * 3, epsabs=0.0, epsrel=epsrel)
        for k, tol in enumerate(np.broadcast_to(epsrel, 3)):
            assert err[k] <= tol * abs(val[k])
            assert abs(val[k] - scale[k] * exact) <= tol * abs(val[k])
            own = integrate_paths(lambda z, path: f(z, path + k), [[0.0, 1.0]],
                                  epsabs=0.0, epsrel=tol)
            assert (val[k], n[k]) == (own[0][0], own[2][0])


def test_batch_error_names_its_path():
    def f(z, path):
        return np.where(path == 1, _steps(z, path),
                        np.where(path == 2, _noisy(z, path), z))

    # path 2 reaches its roundoff count long before path 1 fills its panels
    _gives_up(f, [[0.0, 1.0]] * 3, "roundoff", 2, epsabs=0.0, epsrel=1e-13)
    counts = np.zeros(2, dtype=int)
    _gives_up(_counted(f, counts), [[0.0, 1.0]] * 2, "the panel limit", 1,
              epsabs=0.0, epsrel=1e-13)
    # path 1 fills its own 400 panels, whatever path 0 uses
    assert counts.tolist() == [15, 15 * (2 * 400 - 1)]
    val, err, n = integrate_paths(f, [[0.0, 1.0]], epsabs=0.0, epsrel=1e-13)
    assert val[0] == pytest.approx(0.5, rel=1e-14) and n[0] == 15


def test_non_finite_value_names_its_path():
    def f(z, path):
        return np.where((path == 2) & (z.real > 0.5), np.nan, 1.0 + 0.0 * z)

    with pytest.raises(ConvergenceError, match="path 2") as info:
        integrate_paths(f, [[0.0, 1.0]] * 3)
    assert info.value.diagnostics["path"] == 2


# --- Determinism ---------------------------------------------------------------------

def test_reruns_bitwise_identical():
    args = (0.5, SechBarrier(V=1.0, a=1.0, m=1.0),
            LorentzPulse(amplitude=0.01, width=2.0, exponent=2), -0.24)
    first = delta_action(*args)
    assert delta_action(*args) == first
    a, b = (_gives_up(_steps, [[0.0, 1.0]], "the panel limit", 0,
                      epsabs=0.0, epsrel=1e-14) for _ in range(2))
    assert (str(a), a.residual, a.diagnostics) == (str(b), b.residual, b.diagnostics)


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
