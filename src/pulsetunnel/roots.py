"""Safeguarded Newton-bisect, the package's one root finder.  Each root it
solves sits next to a pole, of a function that rises and is convex across
its bracket (docs/decisions.md, "One root finder")."""

import math

from .errors import ConvergenceError

_RTOL, _MAX_STEPS = 4.0 * 2.0**-52, 100


def _newton_bisect(x, fx, dfx, lo, hi, f_lo, xtol):
    """(next iterate, lo, hi) after f(x) = fx and f'(x) = dfx.  x replaces
    the bracket end where f has its sign (f_lo has f's sign at lo).  The
    next iterate is the Newton step if 0 < f' < inf and it stays in the
    bracket, else the midpoint; it is None, and x the root, once that step
    is at most xtol + 4*eps*|x|."""
    if fx * f_lo > 0:
        lo = x
    else:
        hi = x
    new = x - fx / dfx if 0.0 < dfx < math.inf else math.nan
    if not lo <= new <= hi:
        new = 0.5 * (lo + hi)
    return (None if abs(new - x) <= xtol + _RTOL * abs(x) else new), lo, hi


def _find_root(fdf, lo, hi, x, rtol, name):
    """Root of f, rising on (lo, hi) from f(lo) < 0, from x; fdf(x) returns
    (f(x), f'(x)).  The step tolerance, xtol in _newton_bisect, is
    rtol*(hi - lo): relative to the bracket, so a bracket far below 1 is
    solved too.  An OverflowError or a non-finite f is beyond the root, as is
    hi until it is evaluated: a bracket that closes on one of them, unless
    the Newton step from its last point ends within that tolerance of it, or
    no root in 100 steps, is a ConvergenceError."""
    bracket, f_hi, xtol = (lo, hi), math.inf, rtol * (hi - lo)
    for step in range(1, _MAX_STEPS + 1):
        try:
            fx, dfx = fdf(x)
        except OverflowError:
            fx, dfx = math.inf, math.nan
        if not fx < 0:
            f_hi = fx
        new, lo, hi = _newton_bisect(x, fx, dfx, lo, hi, -1.0, xtol)
        if new is None:
            if (math.isfinite(f_hi) or 0.0 < dfx < math.inf
                    and x - fx / dfx <= hi + xtol + _RTOL * abs(x)):
                return x
            break
        x = new
    raise ConvergenceError(f"no {name} root in ({bracket[0]:.6g}, "
                           f"{bracket[1]:.6g}) after {step} steps")
