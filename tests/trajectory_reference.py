"""Reference routes for the trajectory tests, which the package itself does
not need.

- branch_expansion: the leading square-root behaviour of x0 next to its
  branch point t_s, against which the principal position branch is checked.
- static_action_from_contour: the static WKB exponent as a contour integral
  of the unperturbed Lagrangian, an independent route to the spatial
  integral of sqrt(V - E).
"""

import cmath
import math

import numpy as np

from pulsetunnel.contour import integrate_paths
from pulsetunnel.model import SechBarrier
from pulsetunnel.trajectory import (
    TrajectoryHandle,
    _motion,
    build_contour,
    unperturbed_trajectory,
)


def branch_expansion(traj: TrajectoryHandle, a: float, t) -> complex:
    """Leading behaviour of x0 near the branch point t_s (sqrt(V/E) is
    sqrt(1 + u0^2))."""
    root = cmath.sqrt(
        2.0 * traj.omega * (traj.t_s - t) * math.sqrt(1.0 + traj.u0**2)
    )
    return -1j * math.pi * a / 2.0 + a * root


def static_action_from_contour(E: float, barrier: SechBarrier) -> float:
    """A0 = -i int_C L0 dt over the pulse-free contour (legs cancel exactly).

    Quadrature of the unperturbed Lagrangian between the leg corners of
    build_contour's path (for a width of pi/omega) rather than the spatial
    integral of sqrt(V - E).
    """
    traj = unperturbed_trajectory(E, barrier, 0.0)
    pts = list(build_contour(traj, 2.0 * traj.tau_s)[1:-1])
    m = barrier.m

    def L0(t, path_id):
        v, x = (_motion(k, t, barrier.a, traj.omega, traj.u0, 0.0) for k in (1, 0))
        return 0.5 * m * v * v - barrier.V / np.cosh(x / barrier.a) ** 2 + E

    val = -1j * integrate_paths(L0, [pts], epsabs=1e-13, epsrel=1e-11)[0][0]
    return float(val.real)
