"""Tests of the adaptive G7-K15 contour engine: closed forms, tolerances,
failure modes, determinism, and delta_action against mpmath references."""

import cmath
import math

import numpy as np
import pytest

from pulsetunnel.contour import _presplit, _segments, integrate_paths
from pulsetunnel.errors import ConvergenceError
from pulsetunnel.model import LorentzPulse, SechBarrier
from pulsetunnel.trajectory import delta_action

from presplit_reference import presplit


def _steps(z, path_id):
    """37 unit jumps on [0, 1]: no finite panel budget resolves them all."""
    return np.sign(np.sin(37.0 * math.pi * z.real))


def _noisy(z, path_id):
    """Smooth integrand with a 1e-9 relative noise floor."""
    return np.exp(z) * (1.0 + 1e-9 * np.sin(1e12 * z.real))


def _one(f, path, **tolerances):
    """(value, abs_err, n_evals) of a one-path call."""
    val, err, n, _ = integrate_paths(f, [path], **tolerances)
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
    # the error fills the path's slot; the call itself returns
    val = _one(lambda z, path: np.where(z.real > 0.5, bad, 1.0), [0.0, 1.0])[0]
    assert isinstance(val, ConvergenceError)


def _gives_up(f, paths, reason, path, **tolerances):
    """The ConvergenceError in `path`'s slot of a call on `paths`, where it
    gives up for `reason`."""
    exc = integrate_paths(f, paths, **tolerances)[0][path]
    assert isinstance(exc, ConvergenceError)
    assert f"path {path}: {reason}" in str(exc)
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

# open and closed polylines, each path with its own pole
BATCH_POLES = np.array([1.02 + 0.05j, 0.5 + 0.001j, 0.3 - 0.2j, 2.0 + 2.0j])
BATCH_PATHS = [
    [0.0, 1.0 - 0.5j, 1.0 + 0.5j],
    [0.0, 1.0, 1.0 + 1j],
    _square(0.3 - 0.2j, 0.7),
    [-1.0, 1.0, 1.0 + 1j, -1.0 + 1j, -1.0],
]


def _batch_pole(z, path):
    return 1.0 / (z - BATCH_POLES[path])


def test_batch_matches_single_paths():
    # every path must get what a call of its own gives, with the same panels
    val, err, n, _ = integrate_paths(_batch_pole, BATCH_PATHS)
    for p, path in enumerate(BATCH_PATHS):
        single = _one(lambda z, path_id: 1.0 / (z - BATCH_POLES[p]), path)
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

    val, err, n, _ = integrate_paths(f, paths, epsabs=0.0, epsrel=1e-4)
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
        val, err, n, _ = integrate_paths(f, [[0.0, 1.0]] * 3, epsabs=0.0, epsrel=epsrel)
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

    # path 2 reaches its roundoff count long before path 1 fills its panels,
    # and each keeps its own error
    _gives_up(f, [[0.0, 1.0]] * 3, "roundoff", 2, epsabs=0.0, epsrel=1e-13)
    _gives_up(f, [[0.0, 1.0]] * 3, "the panel limit", 1, epsabs=0.0, epsrel=1e-13)
    counts = np.zeros(2, dtype=int)
    _gives_up(_counted(f, counts), [[0.0, 1.0]] * 2, "the panel limit", 1,
              epsabs=0.0, epsrel=1e-13)
    # path 1 fills its own 400 panels, whatever path 0 uses
    assert counts.tolist() == [15, 15 * (2 * 400 - 1)]
    val, err, n, _ = integrate_paths(f, [[0.0, 1.0]], epsabs=0.0, epsrel=1e-13)
    assert val[0] == pytest.approx(0.5, rel=1e-14) and n[0] == 15


def test_failed_paths_stop_and_the_others_keep_their_own_results():
    # in one call path 1 fills its 400 panels and path 2 meets a nan on the
    # third pass: each keeps its error in its slot and is evaluated no more,
    # while paths 0 and 3 get what calls of their own give, and path 3 goes
    # on after both have failed
    poles = np.array([0.3 + 0.01j, 5.0, 0.5 + 0.001j, 0.7 + 1e-7j])

    def g(z, path):
        return np.where(path == 1, _steps(z, path), 1.0 / (z - poles[path]))

    passes = []

    def f(z, path):
        passes.append(np.bincount(path, minlength=4))
        return np.where((path == 2) & (len(passes) >= 3), np.nan, g(z, path))

    val, err, n, _ = integrate_paths(f, [[0.0, 1.0]] * 4)
    assert "path 1: the panel limit" in str(val[1])
    assert str(val[2]) == "integrand is not finite on integration path 2"
    counts = np.array(passes)
    assert counts.sum(axis=0).tolist() == n.tolist()
    assert n[1] == 15 * (2 * 400 - 1)
    assert counts[:3, 2].all() and not counts[3:, 2].any()
    last = [int(np.flatnonzero(counts[:, p])[-1]) for p in range(4)]
    assert last[3] > max(last[:3])
    for p in (0, 3):
        own = integrate_paths(lambda z, path: g(z, path + p), [[0.0, 1.0]])
        assert (val[p], err[p], n[p]) == (own[0][0], own[1][0], own[2][0])


def test_non_finite_value_names_its_path():
    def f(z, path):
        return np.where((path == 2) & (z.real > 0.5), np.nan, 1.0 + 0.0 * z)

    val = integrate_paths(f, [[0.0, 1.0]] * 3)[0]
    assert isinstance(val[2], ConvergenceError) and "path 2" in str(val[2])
    assert val[2].diagnostics["path"] == 2
    assert val[:2] == [1.0, 1.0]


# --- Presplit panels ------------------------------------------------------------------

@pytest.mark.parametrize("near", [None, [[]] * 4, [()] * 4])
def test_no_near_points_is_the_plain_call(near):
    # no point to split toward: the same panels, bit for bit
    plain = integrate_paths(_batch_pole, BATCH_PATHS)
    val, err, n, _ = integrate_paths(_batch_pole, BATCH_PATHS, near=near)
    assert val == plain[0]
    assert err.tolist() == plain[1].tolist() and n.tolist() == plain[2].tolist()


@pytest.mark.parametrize("epsrel", [1e-10, 1e-12])
def test_presplit_toward_a_pole_saves_passes_and_points(epsrel):
    # the polyline of test_polyline_near_a_pole_honours_tolerances, its first
    # pass graded toward the pole 0.02 away
    p = 1.02 + 0.05j
    polyline = [0.0, 1.0 - 0.5j, 1.0 + 0.5j]
    passes = []

    def f(z, path):
        passes.append(z.size)
        return 1.0 / (z - p)

    plain = _one(f, polyline, epsrel=epsrel)
    passes.clear()
    val, err, n, _ = integrate_paths(f, [polyline], epsrel=epsrel, near=[[p]])
    assert abs(val[0] - plain[0]) <= 1e-13 * abs(plain[0])
    assert err[0] <= max(1e-12, epsrel * abs(val[0]))
    assert n[0] < plain[2] and len(passes) <= 2 and sum(passes) == n[0]


@pytest.mark.filterwarnings("error")
def test_points_off_range_or_on_the_path_split_nothing():
    # not finite, or on the chord (distance 0): the first pass is the one
    # panel of the segment, and the call is the plain one
    near = [[np.nan, np.inf, complex(np.inf, np.nan), complex(-np.inf, 1.0),
             0.5, 0.0, 1.0]]
    passes = []

    def f(z, path):
        passes.append(z.size)
        return np.exp(z)

    val, err, n, _ = integrate_paths(f, [[0.0, 1.0]], near=near)
    assert passes[0] == 15
    plain = integrate_paths(f, [[0.0, 1.0]])
    assert (val, err.tolist(), n.tolist()) == (plain[0], plain[1].tolist(),
                                               plain[2].tolist())


def test_presplit_stops_at_the_panel_limit():
    # 64 points 1e-12 off the chord ask for about 64 panels each: path 0 is
    # presplit to its 400 panels and no more, and its adaptive loop gives up
    # at the panel limit with no further pass; path 1 gets the panels of its
    # own call
    q = 0.5 + 1e-30j
    near = [(k + 0.5) / 64 + 1e-12j for k in range(64)]

    def f(z, path):
        return np.where(path == 0, 1.0 / (z - q), z * z)

    counts = np.zeros(2, dtype=int)
    val, err, n, _ = integrate_paths(_counted(f, counts), [[0.0, 1.0]] * 2,
                                  near=[near, []])
    assert "path 0: the panel limit (400) is reached" in str(val[0])
    assert n[0] == counts[0] == 15 * 400
    assert n[1] == 15 and val[1] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_presplit_keeps_one_ulp_panels_whole():
    # the waypoint 0.3+0.1j, named as a near point, sits a rounding error
    # off the end of the first segment, so that segment is bisected toward
    # s = 1 down to panels one ulp wide, whose midpoints round to an end:
    # they stay whole (88 panels), where the level loop split them on up to
    # the 400-panel limit (6,000 points; 225 with the pole alone named).
    # The second segment's 4 panels hold the waypoint as an end, at
    # distance 0
    pole = 0.1 + 0.05j
    path = [0.0, 0.3 + 0.1j, 1.0]
    segments = _segments([path])
    owner, lo, hi = _presplit(segments, [[0.3 + 0.1j, pole]], np.arange(2),
                              np.zeros(2), np.ones(2))
    assert np.bincount(owner).tolist() == [88, 4]
    assert np.all(lo < hi)
    val, _, n, _ = integrate_paths(lambda z, k: 1.0 / (z - pole), [path],
                                   near=[[0.3 + 0.1j, pole]])
    want, _, n_want, _ = integrate_paths(lambda z, k: 1.0 / (z - pole), [path],
                                         near=[[pole]])
    assert n[0] == 1_380 and n_want[0] == 225
    assert val[0] == pytest.approx(want[0], rel=1e-14)


def test_limit_on_one_path_leaves_the_others_splitting():
    # path 0's 120 segments all pass near 0 and reach its 400 panels at the
    # second level, while path 1 splits toward its point for about 20
    # levels: those levels count each path's panels, and path 1 keeps the
    # panels, value and error of its own call
    zigzag = [(-1.0) ** k + 0.01j * k for k in range(121)]
    q = 0.5 + 1e-6j

    def f(z, path):
        return np.where(path == 0, np.exp(z), 1.0 / (z - q))

    val, err, n, _ = integrate_paths(f, [zigzag, [0.0, 1.0]], near=[[0.0], [q]])
    assert n[0] == 15 * 400
    own = integrate_paths(lambda z, path: f(z, path + 1), [[0.0, 1.0]], near=[[q]])
    assert (val[1], err[1], n[1]) == (own[0][0], own[1][0], own[2][0])
    assert n[1] >= 15 * 40


_BAD = np.array([np.nan, np.inf, complex(-np.inf, 1.0), complex(np.inf, np.nan),
                 1e308 + 1e308j])


def _presplit_call(rng, kind):
    """(segments, near) of one random _presplit call of the given kind, the
    segments as contour._segments gives them."""
    seg_path, origin, jac, near = [], [], [], []
    for p in range(rng.integers(1, 4)):
        if kind == "walk":      # axis-parallel dyadic steps: exact chords
            step = rng.integers(1, 9, size=rng.integers(2, 7)) / 4.0
            w = np.cumsum(step * 1j ** rng.integers(4, size=step.size))
        elif kind == "zigzag":  # every segment passes near 0
            m = rng.integers(60, 260)
            w = rng.uniform(0.2, 1.0, m) * np.exp(1j * np.pi * (np.arange(m) + rng.random(m)))
        elif kind == "repeat":  # one segment, back and forth: ties in L/d
            w = np.resize([0.0, 1.0 + 0.5j], rng.integers(60, 260))
        else:                   # "deep": many far segments, one point off a near one
            w = np.concatenate([[0.3, 0.7], 10.0 + np.arange(rng.integers(120, 200))])
        a, d = w[:-1], np.diff(w)
        k = rng.integers(0, 6)
        seg = rng.integers(0, a.size, size=k)
        on = a[seg] + rng.integers(0, 5, size=k) / 4.0 * d[seg]
        off = on + 10.0 ** rng.uniform(-3.0, 0.5, k) * np.exp(2j * np.pi * rng.random(k))
        u = rng.random(k)
        pts = np.where(u < 0.1, _BAD[seg % _BAD.size], np.where(u < 0.2, on, off)).tolist()
        if kind == "zigzag":
            pts.append(0.05 * rng.normal())
        elif kind == "deep":    # more levels than s resolves near it
            pts.append(rng.uniform(0.3, 0.7) + 10.0 ** rng.uniform(-40.0, -20.0) * 1j)
        seg_path.append(np.full(a.size, p))
        origin.append(a)
        jac.append(d)
        near.append(pts)
    segments = tuple(np.concatenate(v).astype(t) for v, t in
                     ((seg_path, int), (origin, complex), (jac, complex)))
    return segments, near


def test_presplit_matches_the_reference_level_loop():
    # the level loop that counts panels only where the limit can bind gives
    # the panels of the loop that counts them at every level, bit for bit:
    # points not finite, on a chord, past the range of s, and levels where
    # the limit binds, with ties in L/d among identical segments
    rng = np.random.default_rng(35)
    kinds = rng.choice(["walk", "zigzag", "repeat", "deep"], p=[0.5, 0.25, 0.24, 0.01],
                       size=2000)
    limited = deep = ties = 0
    for kind in kinds:
        segments, near = _presplit_call(rng, kind)
        k = segments[0].size
        got = _presplit(segments, near, np.arange(k), np.zeros(k), np.ones(k))
        want = presplit(segments, near, np.arange(k), np.zeros(k), np.ones(k))
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        owner, lo, hi = got
        per_path = np.bincount(segments[0][owner])
        limited += per_path.max() == 400
        deep += (hi - lo).min() < 2.0**-53      # where mid stops being exact
        if kind == "repeat":    # identical segments split alike, but for a tie cut
            per_seg = np.bincount(owner)            # at the limiting level
            ties += any(np.ptp(per_seg[segments[0] == p][::2]) > 0
                        for p in (per_path == 400).nonzero()[0])
    assert limited >= 500 and deep >= 5 and ties >= 50


# --- Several integrals per path --------------------------------------------------------

def _stacked(z, path):
    """Three integrands per node: the path's pole, its mirror and z^2."""
    p = BATCH_POLES[path]
    return np.stack([1.0 / (z - p), 1.0 / (z - p.conjugate()), z * z])


@pytest.mark.parametrize("near", [None, [[p, p.conjugate()] for p in BATCH_POLES]])
def test_stacked_integrals_match_their_own_calls(near):
    # each of the K integrals on a path's shared panels meets the tolerance
    # of its own scalar call, whose value it matches within that tolerance
    epsrel = [1e-10, 1e-12, 1e-6, 1e-8]
    val, err, n, _ = integrate_paths(_stacked, BATCH_PATHS, epsrel=epsrel, near=near)
    assert err.shape == (4, 3)
    for p, path in enumerate(BATCH_PATHS):
        assert len(val[p]) == 3
        for k in range(3):
            own = _one(lambda z, path_id: _stacked(z, p + 0 * path_id)[k], path,
                       epsrel=epsrel[p], near=None if near is None else [near[p]])
            tol = max(1e-12, epsrel[p] * abs(own[0]))
            assert err[p, k] <= max(1e-12, epsrel[p] * abs(val[p][k]))
            assert abs(val[p][k] - own[0]) <= 2.0 * tol
            # shared panels are at least as fine as any one integral's
            assert n[p] >= own[2]


def test_one_integrand_per_node_is_the_parent_call():
    # a 1-D integrand keeps the engine's earlier results bit for bit
    # (values, error estimates and counts of the engine before it took
    # stacked integrands), and a stack of one gives the same
    pinned = {
        None: (["(-0.8185236631476993-1.5753615124717126j)",
                "(0.8039167161784386+4.246341053815725j)",
                "(-5.551115123125783e-17+6.283185307179586j)",
                "(5.551115123125783e-17-1.3877787807814457e-16j)"],
               [2.4169020859032128e-11, 1.589352238309294e-10,
                7.828169996844484e-14, 3.2821998992259626e-14],
               [510, 660, 420, 120]),
        "near": (["(-0.8185236631476991-1.5753615124717126j)",
                  "(0.8039167161784383+4.246341053815726j)",
                  "(-2.498001805406602e-16+6.283185307179586j)",
                  "(5.551115123125783e-17-5.551115123125783e-17j)"],
                 [5.5803618530195846e-12, 2.7127608316588095e-10,
                  7.828169996844484e-14, 3.2821998992259626e-14],
                 [285, 330, 360, 105]),
    }
    for key, (values, errs, counts) in pinned.items():
        near = [[p] for p in BATCH_POLES] if key else None
        val, err, n, _ = integrate_paths(_batch_pole, BATCH_PATHS, near=near)
        assert [repr(v) for v in val] == values
        assert err.tolist() == errs and n.tolist() == counts
        one = integrate_paths(lambda z, path: _batch_pole(z, path)[None],
                              BATCH_PATHS, near=near)
        assert [v[0] for v in one[0]] == val
        assert one[1][:, 0].tolist() == errs and one[2].tolist() == counts


def test_one_open_integral_fails_its_whole_path():
    # integral 1 of path 0 never converges: path 0 fills its 400 panels and
    # gives up as a whole, naming that integral's estimate; path 1 carries
    # the same stack on its own and converges
    def f(z, path):
        steps = np.where(path == 0, _steps(z, path), z)
        return np.stack([z * z, steps])

    counts = np.zeros(2, dtype=int)
    val, err, n, _ = integrate_paths(_counted(f, counts), [[0.0, 1.0]] * 2,
                                  epsabs=0.0, epsrel=1e-12)
    exc = val[0]
    assert isinstance(exc, ConvergenceError)
    assert "path 0: the panel limit (400) is reached" in str(exc)
    assert exc.residual == err[0, 1] > exc.diagnostics["tol"]
    assert n[0] == counts[0] == 15 * (2 * 400 - 1)
    assert val[1] == pytest.approx([1.0 / 3.0, 0.5], rel=1e-14)
    assert n[1] == counts[1] == 15


def test_stacked_integrals_count_each_node_once():
    sizes = []

    def f(z, path):
        sizes.append(z.size)
        return np.stack([1.0 / (z - (1.02 + 0.05j)), np.exp(z), z])

    val, err, n, _ = integrate_paths(f, [[0.0, 1.0, 1.0 + 1j]])
    assert len(sizes) > 1 and sum(sizes) == n[0]
    assert n[0] == _one(lambda z, path: 1.0 / (z - (1.02 + 0.05j)),
                        [0.0, 1.0, 1.0 + 1j])[2]


def test_l1_is_the_integral_of_the_modulus():
    # the fourth item is int |f| |dz| per path (its K15 sums on the panels
    # of f), and per path and integral for a stack; |dz| makes it the same
    # on a path and its reverse
    f = lambda z, path: (z + 1.0) * np.where(path == 0, 1.0, 1j)
    _, _, _, l1 = integrate_paths(f, [[0.0, 1.0], [1.0, 0.0], [0.0, 1j]])
    # int_0^1 sqrt(1 + y^2) dy on the imaginary leg
    up = 0.5 * math.sqrt(2.0) + 0.5 * math.asinh(1.0)
    np.testing.assert_allclose(l1, [1.5, 1.5, up], rtol=1e-8)
    _, err, _, l1 = integrate_paths(
        lambda z, path: np.stack([z, 2.0 * z]), [[0.0, 1.0]] * 2)
    assert l1.shape == err.shape == (2, 2)
    np.testing.assert_allclose(l1, [[0.5, 1.0]] * 2, rtol=1e-14)


@pytest.mark.filterwarnings("error")
def test_non_finite_integral_names_its_path():
    # finite integrand values whose panel sums overflow (1e308 over a segment
    # of length 10): the integral is inf, not a result
    def f(z, path):
        return np.where(path == 1, 1e308, 1.0) + 0.0 * z

    val, err, n, _ = integrate_paths(f, [[0.0, 10.0]] * 3)
    assert str(val[1]) == "integral is not finite on integration path 1"
    assert val[1].diagnostics == {"path": 1}
    assert val[0] == val[2] == pytest.approx(10.0, rel=1e-14)
    stacked = integrate_paths(lambda z, path: np.stack([f(z, 0 * path), f(z, path)]),
                              [[0.0, 10.0]] * 2)[0]
    assert stacked[0] == pytest.approx([10.0, 10.0], rel=1e-14)
    assert str(stacked[1]) == "integral is not finite on integration path 1"


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
