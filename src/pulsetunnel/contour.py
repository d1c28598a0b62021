"""Adaptive quadrature along piecewise paths in the complex plane.

One engine integrates every path.  Each element, a straight segment or a
circular arc, is a map from a real parameter s in [0, 1] into the plane, and
the adaptive Gauss-Kronrod G7-K15 rule of QUADPACK (Piessens et al. 1983)
works on panels in s.  Each pass evaluates the integrand once, on a complex
array holding the 15 nodes of every new panel, so integrands must accept
arrays.  integrate_paths is the one entry point: it runs any number of paths
through one such loop, and a single integral is a batch of one.  Each path
converges under its own test, sum of its panel errors <= max(epsabs,
epsrel*|I|).  A path that reaches its panel limit or its roundoff floor
without converging, or whose integrand is not finite, raises
ConvergenceError naming the path.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["integrate_paths", "line_with_detour"]

_EPSABS = 1e-12
_EPSREL = 1e-10
_LIMIT = 400            # panels per path
_ROUNDOFF = 10          # bisections that do not reduce the error estimate

# G7-K15 nodes on [-1, 1] and weights (QUADPACK qk15); the Gauss-7 nodes are
# the odd-indexed Kronrod nodes
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
_RULES = np.stack([_KRONROD, _KRONROD - _GAUSS], axis=1).astype(complex)
_FLOOR = 50.0 * np.finfo(float).eps    # roundoff floor per unit of int |f|


def integrate_paths(f, paths, epsabs=_EPSABS, epsrel=_EPSREL, *, epsl1=0.0):
    """Arrays (value, abs_err, n_evals) of the integrals of f along `paths`.

    Each path is a list of elements, ("line", a, b) or
    ("arc", center, radius, phi0, phi1); a bare list of complex waypoints is
    a polyline.  All paths share one adaptive loop, so each pass makes one
    call f(z, path_id) on the nodes of every path's new panels; path_id is an
    integer array, like z, naming the path of each node.  Each path converges
    on its own, with tolerance max(epsabs, epsrel*|I_p|), its own panel limit
    and its own roundoff count, and is not bisected once it has.  epsl1 adds
    epsl1 * int |f| |dz| to each path's tolerance (a scalar, or one value per
    path); the roundoff floor is 50*eps times that integral, so this suits
    integrals meant to cancel.
    abs_err is the summed G7-K15 error estimate over a path's panels and
    n_evals the number of points f was evaluated at on it.  A path that gives
    up (panel limit or roundoff) raises ConvergenceError with its abs_err as
    `residual` and diagnostics {"path": p, "tol": its tolerance}.
    """
    elements = _Elements(paths)
    n = len(paths)
    if not elements.length.size:
        return np.zeros(n, dtype=complex), np.zeros(n), np.zeros(n, dtype=int)

    # panels, in parameter s of their element
    owner = np.arange(elements.length.size)
    lo = np.zeros(owner.size)
    hi = np.ones(owner.size)
    val, err, absval = _gk15(f, elements, owner, lo, hi)
    n_first = np.bincount(elements.path, minlength=n)
    n_panels = n_first.copy()
    roundoff = np.zeros(n, dtype=int)
    use_l1 = bool(np.any(epsl1))
    while True:
        pid = elements.path[owner]
        total = np.bincount(pid, val.real, n) + 1j * np.bincount(pid, val.imag, n)
        err_sum = np.bincount(pid, err, n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        if use_l1:
            tol = np.maximum(tol, epsl1 * np.bincount(pid, absval, n))
        active = err_sum > tol
        if not np.count_nonzero(active):
            break
        # bisect the panels above their length share of their path's
        # tolerance; a panel whose error is its roundoff floor cannot improve
        span = (hi - lo) * elements.length[owner]
        share = tol[pid] * span / np.bincount(pid, span, n)[pid]
        split = active[pid] & (err > share) & (err > _FLOOR * absval)
        n_split = np.bincount(pid[split], minlength=n)
        room = _LIMIT - n_panels
        stuck = (roundoff >= _ROUNDOFF) | (n_split == 0)
        stop = (active & (stuck | (room <= 0))).nonzero()[0]
        if stop.size:
            p = int(stop[0])
            reason = ("roundoff error prevents the requested tolerance"
                      if stuck[p] else f"the panel limit ({_LIMIT}) is reached")
            raise ConvergenceError(
                f"contour quadrature, path {p}: {reason}; error estimate "
                f"{err_sum[p]:.3g} against tolerance {tol[p]:.3g}",
                residual=err_sum[p], diagnostics={"path": p, "tol": tol[p]})
        split = split.nonzero()[0]
        if np.count_nonzero(n_split > room):
            # keep each path's `room` worst panels
            ranked = split[np.lexsort((-err[split], pid[split]))]
            rank = np.arange(ranked.size) - np.searchsorted(pid[ranked], pid[ranked])
            split = np.sort(ranked[rank < room[pid[ranked]]])
        k = split.size
        s_pid = pid[split]
        mid = 0.5 * (lo[split] + hi[split])
        c_owner = np.concatenate([owner[split], owner[split]])
        c_lo = np.concatenate([lo[split], mid])
        c_hi = np.concatenate([mid, hi[split]])
        c_val, c_err, c_abs = _gk15(f, elements, c_owner, c_lo, c_hi)
        n_panels += np.bincount(s_pid, minlength=n)
        # QUADPACK's roundoff test: bisection that neither moves the value
        # nor reduces the error estimate
        pair_val = c_val[:k] + c_val[k:]
        pair_err = c_err[:k] + c_err[k:]
        stalled = ((np.abs(val[split] - pair_val) <= 1e-5 * np.abs(pair_val))
                   & (pair_err >= 0.99 * err[split]))
        roundoff += np.bincount(s_pid[stalled], minlength=n)
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        owner = np.concatenate([owner[keep], c_owner])
        lo = np.concatenate([lo[keep], c_lo])
        hi = np.concatenate([hi[keep], c_hi])
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])
        absval = np.concatenate([absval[keep], c_abs])
    # each bisection adds one panel and evaluates two
    return total, err_sum, 15 * (2 * n_panels - n_first)


class _Elements:
    """The paths' elements of nonzero length, as maps of s in [0, 1].

    A line a->b is z = a + s*(b - a); an arc is
    z = center + radius*exp(i*(phi0 + s*dphi)).  `path` holds the index of
    each element's path.
    """

    def __init__(self, paths):
        rows = []
        for p, path in enumerate(paths):
            if path and not isinstance(path[0], tuple):
                path = [("line", a, b) for a, b in zip(path[:-1], path[1:])]
            for el in path:
                if el[0] == "line":
                    a, b = complex(el[1]), complex(el[2])
                    rows.append((p, False, a, b - a, 0.0, 0.0, abs(b - a)))
                elif el[0] == "arc":
                    center, radius = complex(el[1]), float(el[2])
                    phi0, dphi = float(el[3]), float(el[4]) - float(el[3])
                    rows.append((p, True, center, radius, phi0, dphi,
                                 abs(radius * dphi)))
                else:
                    raise ValueError(f"unknown path element {el[0]!r}")
        cols = list(zip(*[r for r in rows if r[-1] > 0.0])) or [()] * 7
        self.path = np.array(cols[0], dtype=int)
        self.arc = np.array(cols[1], dtype=bool)
        self.origin = np.array(cols[2], dtype=complex)    # a, or the center
        self.scale = np.array(cols[3], dtype=complex)     # b - a, or the radius
        self.phi0 = np.array(cols[4], dtype=float)
        self.dphi = np.array(cols[5], dtype=float)
        self.length = np.array(cols[6], dtype=float)
        self.has_arc = bool(self.arc.any())

    def nodes(self, owner, s):
        """Points z(s) and derivatives dz/ds of panels `owner` at rows of s.

        dz/ds of a line is constant along the row and comes as one column.
        """
        o = owner[:, None]
        z = self.origin[o] + s * self.scale[o]
        jac = self.scale[o]
        if self.has_arc:
            rot = self.scale[o] * np.exp(1j * (self.phi0[o] + s * self.dphi[o]))
            arc = self.arc[o]
            z = np.where(arc, self.origin[o] + rot, z)
            jac = np.where(arc, 1j * self.dphi[o] * rot, jac)
        return z, jac


def _gk15(f, elements, owner, lo, hi):
    """G7-K15 value, QUADPACK error estimate and integral of |f| per panel."""
    half = 0.5 * (hi - lo)
    z, jac = elements.nodes(owner, 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES)
    path_id = elements.path[owner].repeat(_NODES.size)
    fz = np.asarray(f(z.ravel(), path_id), dtype=complex)
    fz = (np.broadcast_to(fz, z.size) if fz.ndim == 0 else fz).reshape(z.shape)
    bad = ~np.isfinite(fz)
    if np.count_nonzero(bad):
        p = int(path_id.reshape(z.shape)[bad][0])
        raise ConvergenceError(
            f"integrand is not finite on integration path {p}",
            diagnostics={"z": complex(z[bad][0]), "path": p},
        )
    fv = fz * jac
    kronrod, diff = (fv @ _RULES).T     # K15 and K15 - G7 per unit half-width
    resabs = half * (np.abs(fv) @ _KRONROD)
    resasc = half * (np.abs(fv - 0.5 * kronrod[:, None]) @ _KRONROD)
    err = half * np.abs(diff)
    varies = resasc > 0
    scaled = resasc * np.minimum(
        1.0, (200.0 * err / np.where(varies, resasc, 1.0)) ** 1.5)
    err = np.where(varies, scaled, err)
    return half * kronrod, np.maximum(err, _FLOOR * resabs), resabs


def line_with_detour(a: complex, b: complex, poles, radius: float,
                     side: complex | None = None):
    """Path elements for the segment a->b, detouring around listed poles.

    When the segment comes within `radius` of a pole, the portion inside the
    circle of that radius is replaced by the arc around the pole on the side
    the segment already favours (the pole keeps its side of the path).  `side`,
    when given, is a complex direction forcing the arc to bulge that way --
    needed when the pole sits exactly on the path and a branch convention
    dictates the side.
    """
    elements = [("line", a, b)]
    for pole in poles:
        new_elements = []
        for el in elements:
            if el[0] != "line":
                new_elements.append(el)
                continue
            new_elements.extend(
                _split_segment(el[1], el[2], pole, radius, side)
            )
        elements = new_elements
    return elements


def _split_segment(a, b, pole, radius, side=None):
    dz = b - a
    length = abs(dz)
    if length == 0:
        return [("line", a, b)]
    u = dz / length
    # closest approach of the segment to the pole
    s = ((pole - a) / u).real
    s = min(max(s, 0.0), length)
    p = a + s * u
    d = abs(p - pole)
    if d >= radius:
        return [("line", a, b)]
    half = math.sqrt(max(radius * radius - d * d, 0.0))
    s0, s1 = s - half, s + half
    if s1 <= 0 or s0 >= length:
        return [("line", a, b)]
    s0 = max(s0, 0.0)
    s1 = min(s1, length)
    za = a + s0 * u
    zb = a + s1 * u
    # push intersection points out to the circle radius
    za = pole + radius * (za - pole) / abs(za - pole)
    zb = pole + radius * (zb - pole) / abs(zb - pole)
    phi0 = cmath.phase(za - pole)
    phi1 = cmath.phase(zb - pole)
    # go around on the side the chord already is: sweep through the direction
    # pole -> closest point (or an arbitrary perpendicular if d == 0)
    if side is not None:
        phi_mid = cmath.phase(side)
    elif d > 1e-15:
        phi_mid = cmath.phase(p - pole)
    else:
        phi_mid = cmath.phase(1j * u)
    phi1 = _unwrap_through(phi0, phi1, phi_mid)
    parts = []
    if abs(za - a) > 1e-15:
        parts.append(("line", a, za))
    parts.append(("arc", pole, radius, phi0, phi1))
    if abs(b - zb) > 1e-15:
        parts.append(("line", zb, b))
    return parts


def _unwrap_through(phi0, phi1, phi_mid):
    """Adjust phi1 by 2*pi so the sweep phi0->phi1 passes through phi_mid."""
    two_pi = 2.0 * math.pi

    def norm(x):
        return (x + math.pi) % two_pi - math.pi

    for shift in (0.0, two_pi, -two_pi):
        cand = phi1 + shift
        lo, hi = min(phi0, cand), max(phi0, cand)
        mid = phi_mid
        # test both representatives of phi_mid
        if lo - 1e-12 <= mid <= hi + 1e-12 or lo - 1e-12 <= mid + two_pi <= hi + 1e-12 \
                or lo - 1e-12 <= mid - two_pi <= hi + 1e-12:
            if hi - lo <= two_pi:
                return cand
    return phi1
