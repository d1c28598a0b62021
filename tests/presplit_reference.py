"""A level loop for contour._presplit in its plainest form: it counts every
path's panels at every level and enters numpy's errstate once per level.
The tests hold the engine's panels to it bit for bit."""

import numpy as np

from pulsetunnel.contour import _LIMIT, _worst


def presplit(segments, near, owner, lo, hi):
    """The panels (owner, lo, hi), bisected level by level while a panel's
    chord is longer than its distance to the nearest of its path's `near`
    points.  A point that is not finite, or on the chord, splits nothing,
    nor does a panel whose midpoint rounds to one of its ends; a path stops
    at _LIMIT panels, the last level splitting the panels of largest chord
    over distance."""
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
        mid = 0.5 * (lo[split] + hi[split])
        split = split[(lo[split] < mid) & (mid < hi[split])]
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
