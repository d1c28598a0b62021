"""Safeguarded Newton-bisect, the package's one root finder.  Each root it
solves sits next to a pole, of a function that rises and is convex across
its bracket (docs/decisions.md, "One root finder")."""

import math

from .errors import ConvergenceError, PulseTunnelError, _one

_RTOL, _MAX_STEPS = 4.0 * 2.0**-52, 100


def _find_root(fdf, lo, hi, x, xtol, name):
    """Roots of functions f_i, each rising on (lo[i], hi[i]) from
    f_i(lo[i]) < 0, from x[i], in lockstep: each step makes one call
    fdf(x, live) for lists (f, f') at the iterates x of the slots `live`,
    then steps slot by slot: x replaces the bracket end where f has its
    sign, and the next iterate is the Newton step if 0 < f' < inf and it
    stays in the bracket, else the midpoint.  x is the root once that step
    is at most xtol[i] + 4*eps*|x|.
    Slot i of the list returned holds f_i's root or its PulseTunnelError;
    an f entry that is one ends its slot with it.  Given floats and a scalar
    fdf(x), it solves that grid of one: the root, or its error raised.
    An OverflowError or a non-finite f is beyond the root, as is hi until it
    is evaluated: a bracket that closes on one of them, unless the Newton
    step from its last point ends within that tolerance of it, or no root in
    100 steps, is a ConvergenceError."""
    if isinstance(x, float):    # zip((f, f')) gives the lists ((f,), (f',))
        return _one(_find_root(lambda x, live: zip(fdf(x[0])), [lo], [hi], [x],
                               [xtol], name))
    bracket, lo, hi, x = list(zip(lo, hi)), list(lo), list(hi), list(x)
    f_hi = [math.inf] * len(x)
    out, live, step = [None] * len(x), list(range(len(x))), 0
    while live:
        step += 1
        try:
            f, df = fdf([x[i] for i in live], live)
        except OverflowError:       # of a scalar fdf, in Python floats
            f, df = [math.inf], [math.nan]
        for i, fx, dfx in zip(live, f, df):
            if isinstance(fx, PulseTunnelError):
                out[i] = fx
                continue
            if fx < 0:
                lo[i] = x[i]
            else:
                hi[i], f_hi[i] = x[i], fx
            new = x[i] - fx / dfx if 0.0 < dfx < math.inf else math.nan
            if not lo[i] <= new <= hi[i]:
                new = 0.5 * (lo[i] + hi[i])
            done = abs(new - x[i]) <= xtol[i] + _RTOL * abs(x[i])
            if not done and step < _MAX_STEPS:
                x[i] = new
            elif done and (math.isfinite(f_hi[i]) or 0.0 < dfx < math.inf
                           and x[i] - fx / dfx
                           <= hi[i] + xtol[i] + _RTOL * abs(x[i])):
                out[i] = x[i]
            else:
                out[i] = ConvergenceError(
                    f"no {name} root in ({bracket[i][0]:.6g}, "
                    f"{bracket[i][1]:.6g}) after {step} steps")
        live = [i for i in live if out[i] is None]
    return out
