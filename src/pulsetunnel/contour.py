"""Adaptive quadrature along polylines in the complex plane.

One engine integrates every path.  A path is a list of complex waypoints;
each segment a->b is the map z = a + s*(b - a) of a real parameter s in
[0, 1], and the adaptive Gauss-Kronrod G7-K15 rule of QUADPACK (Piessens et
al. 1983) works on panels in s.  A path that must pass a singularity on a
given side goes round it through extra waypoints: only the homotopy class of
a path enters the value.  A caller that knows where the integrand is
singular may name those points; the first pass then starts from panels
bisected toward them, not from one panel per segment.  Each pass evaluates
the integrand once, on a complex array holding the 15 nodes of every new
panel, so integrands must accept arrays.  integrate_paths is the one entry
point: it runs any number of paths through one such loop, and a single
integral is a batch of one.  Each path converges under its own test, sum of
its panel errors <= max(epsabs, epsrel*|I|).  A path that reaches its panel
limit or its roundoff floor without converging, or whose integrand is not
finite, gets ConvergenceError naming the path in its own slot; the others go
on, as in QUADPACK.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

__all__ = ["integrate_paths"]

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


def integrate_paths(f, paths, epsabs=_EPSABS, epsrel=_EPSREL, *, epsl1=0.0,
                    near=None):
    """(values, abs_err, n_evals, l1) of the integrals of f along `paths`.

    Each path is a list of complex waypoints, integrated segment by segment
    (segments of zero length are skipped).  All paths share one adaptive
    loop, so each pass makes one call f(z, path_id) on the nodes of every
    path's new panels; path_id is an integer array, like z, naming the path
    of each node.  f returns one value per node, or an array (K, n) of K
    integrands on the n nodes: then each path carries K integrals on one
    set of panels, slot p of values is a list of K values, and abs_err, l1
    (and the tolerances) are shaped (paths, K).  Each integral converges
    under its own tolerance max(epsabs, epsrel*|I|); a path converges, and
    is bisected no more, once all its integrals have, and a panel is
    bisected while one of its path's open integrals exceeds its length
    share of that integral's tolerance.  epsl1 adds epsl1 * int |f| |dz| to
    an integral's tolerance; the roundoff floor is 50*eps times that
    integral, so this suits integrals meant to cancel.  epsrel and epsl1 are
    scalars, one value per path, or one per path and integral.
    near, if given, holds one sequence of complex points per path at which
    f is singular: before the first pass each segment is bisected in s,
    level by level, while a panel's chord is longer than its distance to the
    nearest of its path's points (at most 400 panels a path; a point that is
    not finite or lies on the chord splits nothing).
    abs_err is the summed G7-K15 error estimate over a path's panels, l1 the
    integral of |f| |dz| and n_evals the number of points f was evaluated at
    on it, 15*(2*panels - initial panels), whatever K.  Slot p of values
    holds path p's integral, or the ConvergenceError the path gave up with
    as a whole, and then it is bisected no more: at its panel limit or the
    roundoff count of one of its integrals (the error estimate and
    tolerance of its integral furthest from converging as `residual` and
    diagnostics {"path": p, "tol": tol}), at a non-finite f (diagnostics
    {"z": that node, "path": p}), or at a non-finite integral or error
    estimate (diagnostics {"path": p}).

    A one-value integrand keeps its panel arrays flat, (panels,): run as
    stacks of K = 1 its passes would take about a third longer, in numpy's
    per-call overhead on these small arrays.
    """
    segments = _segments(paths)
    seg_path, length = segments[0], np.abs(segments[2])
    n = len(paths)
    if not length.size:
        return [0j] * n, np.zeros(n), np.zeros(n, dtype=int), np.zeros(n)

    # panels, in parameter s of their segment; the values, errors and
    # integrals of |f| of K integrals are shaped (panels, K)
    owner = np.arange(length.size)
    lo = np.zeros(owner.size)
    hi = np.ones(owner.size)
    if near is not None:
        owner, lo, hi = _presplit(segments, near, owner, lo, hi)
    failed = {}             # path: the ConvergenceError it gave up with
    val, err, absval = _gk15(f, segments, owner, lo, hi, failed)
    vector = val.ndim == 2
    if vector:      # per path -> per path and integral
        epsrel, epsl1 = (np.asarray(v)[:, None] if np.ndim(v) == 1 else v
                         for v in (epsrel, epsl1))
    n_first = np.bincount(seg_path[owner], minlength=n)
    n_panels = n_first.copy()
    roundoff = np.zeros((n,) + val.shape[1:])
    use_l1 = bool(np.any(epsl1))
    while True:
        pid = seg_path[owner]
        total = _sums(pid, val.real, n) + 1j * _sums(pid, val.imag, n)
        err_sum = _sums(pid, err, n)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        if use_l1:
            tol = np.maximum(tol, epsl1 * _sums(pid, absval, n))
        lost = ~np.isfinite(total + err_sum)
        if np.count_nonzero(lost):
            for p in _any(lost).nonzero()[0].tolist():
                failed.setdefault(p, ConvergenceError(
                    f"integral is not finite on integration path {p}",
                    diagnostics={"path": p}))
        open_ = err_sum > tol
        if failed:
            open_[list(failed)] = False
        active = _any(open_)
        if not np.count_nonzero(active):
            break
        # bisect the panels above their length share of an open integral's
        # tolerance; a panel whose error is its roundoff floor cannot improve
        span = (hi - lo) * length[owner]
        with np.errstate(over="ignore"):    # an inf share splits nothing
            share = (tol[pid].T * span / np.bincount(pid, span, n)[pid]).T
        wants = open_[pid] & (err > share) & (err > _FLOOR * absval)
        split = _any(wants)
        n_split = np.bincount(pid[split], minlength=n)
        room = _LIMIT - n_panels
        stuck = _any(roundoff >= _ROUNDOFF) | (n_split == 0)
        stop = (active & (stuck | (room <= 0))).nonzero()[0]
        for p in stop.tolist():
            reason = ("roundoff error prevents the requested tolerance"
                      if stuck[p] else f"the panel limit ({_LIMIT}) is reached")
            e, t = err_sum[p], tol[p]
            if vector:      # the integral furthest from its tolerance
                with np.errstate(divide="ignore", invalid="ignore"):
                    j = np.argmax(np.where(open_[p], e / t, -np.inf))
                e, t = e[j], t[j]
            failed[p] = ConvergenceError(
                f"contour quadrature, path {p}: {reason}; error estimate "
                f"{e:.3g} against tolerance {t:.3g}",
                residual=e, diagnostics={"path": p, "tol": t})
        if stop.size:
            continue        # decide again without the paths that gave up
        split = split.nonzero()[0]
        if np.count_nonzero(n_split > room):
            split = _worst(split, pid, err.max(axis=1) if vector else err, room)
        k = split.size
        s_pid = pid[split]
        mid = 0.5 * (lo[split] + hi[split])
        c_owner = np.concatenate([owner[split], owner[split]])
        c_lo = np.concatenate([lo[split], mid])
        c_hi = np.concatenate([mid, hi[split]])
        c_val, c_err, c_abs = _gk15(f, segments, c_owner, c_lo, c_hi, failed)
        n_panels += np.bincount(s_pid, minlength=n)
        # QUADPACK's roundoff test, per integral that asked for the
        # bisection: it neither moved the value nor reduced the error
        pair_val = c_val[:k] + c_val[k:]
        pair_err = c_err[:k] + c_err[k:]
        stalled = ((np.abs(val[split] - pair_val) <= 1e-5 * np.abs(pair_val))
                   & (pair_err >= 0.99 * err[split]) & wants[split])
        roundoff += _sums(s_pid, stalled, n)
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        owner = np.concatenate([owner[keep], c_owner])
        lo = np.concatenate([lo[keep], c_lo])
        hi = np.concatenate([hi[keep], c_hi])
        val = np.concatenate([val[keep], c_val])
        err = np.concatenate([err[keep], c_err])
        absval = np.concatenate([absval[keep], c_abs])
    values = [failed.get(p, v) for p, v in enumerate(total.tolist())]
    # each bisection adds one panel and evaluates two
    return values, err_sum, 15 * (2 * n_panels - n_first), _sums(pid, absval, n)


def _any(x):
    """x (paths or panels,), or whether any of its K columns holds."""
    return x.any(axis=1) if x.ndim == 2 else x


def _sums(pid, x, n):
    """Per-path sums of the panel values x, (panels,) or (panels, K), each
    in panel order, as np.bincount adds."""
    if x.ndim == 1:
        return np.bincount(pid, x, n)
    K = x.shape[1]
    bins = (pid[:, None] * K + np.arange(K)).ravel()
    return np.bincount(bins, x.ravel(), n * K).reshape(n, K)


def _segments(paths):
    """(path, a, b - a) arrays of the paths' segments of nonzero length:
    segment k is z = a[k] + s*(b - a)[k], s in [0, 1], on path path[k]."""
    rows = [(p, complex(a), complex(b) - complex(a))
            for p, path in enumerate(paths) for a, b in zip(path[:-1], path[1:])]
    cols = list(zip(*[r for r in rows if abs(r[2]) > 0.0])) or [()] * 3
    return (np.array(cols[0], dtype=int), np.array(cols[1], dtype=complex),
            np.array(cols[2], dtype=complex))


def _presplit(segments, near, owner, lo, hi):
    """The panels (owner, lo, hi), bisected level by level while a panel's
    chord is longer than its distance to the nearest of its path's `near`
    points.  A point that is not finite, or on the chord, splits nothing; a
    path stops at _LIMIT panels, the last level splitting the panels of
    largest chord over distance."""
    seg_path, origin, jac = segments
    n = len(near)
    pts = np.full((n, max(map(len, near), default=0) or 1), np.nan, dtype=complex)
    for p, q in enumerate(near):
        pts[p, :len(q)] = q
    count = np.bincount(seg_path, minlength=n)
    done = []
    while owner.size:
        pid = seg_path[owner]
        chord = (hi - lo) * jac[owner]
        with np.errstate(all="ignore"):
            q = pts[pid] - (origin[owner] + lo * jac[owner])[:, None]
            t = np.clip((q / chord[:, None]).real, 0.0, 1.0)
            dist = np.abs(q - t * chord[:, None])
            dist = np.where(dist > 0.0, dist, np.inf).min(axis=1)
            ratio = np.abs(chord) / dist
        split = (ratio > 1.0).nonzero()[0]
        room = _LIMIT - count
        if np.count_nonzero(np.bincount(pid[split], minlength=n) > room):
            split = _worst(split, pid, ratio, room)
        count += np.bincount(pid[split], minlength=n)
        keep = np.ones(owner.size, dtype=bool)
        keep[split] = False
        done.append((owner[keep], lo[keep], hi[keep]))
        mid = 0.5 * (lo[split] + hi[split])
        owner = np.tile(owner[split], 2)
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
    owner, lo, hi = (np.concatenate(v) for v in zip(*done))
    order = np.lexsort((lo, owner))
    return owner[order], lo[order], hi[order]


def _worst(idx, pid, key, room):
    """The panels idx, less all but the room[p] of largest key on each path p."""
    ranked = idx[np.lexsort((-key[idx], pid[idx]))]
    rank = np.arange(ranked.size) - np.searchsorted(pid[ranked], pid[ranked])
    return np.sort(ranked[rank < room[pid[ranked]]])


def _gk15(f, segments, owner, lo, hi, failed):
    """G7-K15 value, QUADPACK error estimate and integral of |f| per panel,
    each shaped (panels,), or (panels, K) where f gives K integrands.  A
    path with a node where f is not finite gets its ConvergenceError in
    `failed`, and f counts as 0 there."""
    seg_path, origin, jac = (v[owner] for v in segments)
    half = 0.5 * (hi - lo)
    jac = jac[:, None]
    z = origin[:, None] + (0.5 * (lo + hi)[:, None] + half[:, None] * _NODES) * jac
    path_id = seg_path.repeat(_NODES.size)
    fz = np.asarray(f(z.ravel(), path_id), dtype=complex)
    vector = fz.ndim == 2
    fz = (np.broadcast_to(fz, z.size) if fz.ndim == 0 else fz).reshape(-1, *z.shape)
    bad = ~np.isfinite(fz)
    if np.count_nonzero(bad):
        bad = bad.any(axis=0)
        ids, first = np.unique(path_id.reshape(z.shape)[bad], return_index=True)
        for p, z_bad in zip(ids.tolist(), z[bad][first].tolist()):
            failed[p] = ConvergenceError(
                f"integrand is not finite on integration path {p}",
                diagnostics={"z": z_bad, "path": p})
        fz = np.where(bad, 0.0, fz)
    # a finite f times a long segment may overflow: the inf or nan it leaves
    # in the panel's value and error is silent, as in Python floats.  The K
    # integrands' panels are stacked as (K*panels) rows of 15 nodes
    with np.errstate(over="ignore", invalid="ignore"):
        fv = (fz * jac).reshape(-1, _NODES.size)
        kronrod, diff = (fv @ _RULES).T     # K15 and K15 - G7 per unit half-width
        half = np.tile(half, fz.shape[0]) if vector else half
        resabs = half * (np.abs(fv) @ _KRONROD)
        resasc = half * (np.abs(fv - 0.5 * kronrod[:, None]) @ _KRONROD)
        err = half * np.abs(diff)
        varies = resasc > 0
        # capped before the power, which overflows past a ratio of ~1e205
        scaled = resasc * np.minimum(
            1.0, 200.0 * err / np.where(varies, resasc, 1.0)) ** 1.5
        err = np.where(varies, scaled, err)
    out = half * kronrod, np.maximum(err, _FLOOR * resabs), resabs
    if vector:      # (K*panels,) -> (panels, K)
        out = (np.ascontiguousarray(v.reshape(fz.shape[0], -1).T) for v in out)
    return tuple(out)
