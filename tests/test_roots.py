"""The safeguarded Newton-bisect of pulsetunnel.roots against scipy's brentq,
and the branches of its lockstep driver _find_root.

Every root the package solves sits next to a pole.  scipy.optimize.brentq,
which the package no longer imports, stays the independent reference here;
its brackets are found the way the package once found them, by moving the
upper end toward the pole until the function changes sign.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

import pulsetunnel
from pulsetunnel import hj
from pulsetunnel.errors import ConvergenceError
from pulsetunnel.euclidean import solve_tau0
from pulsetunnel.model import GaussianPulse, LorentzPulse, TriangularBarrier
from pulsetunnel.roots import _find_root

EPS = 2.0**-52


def _below_pole(f, lo, width):
    """width - (width - lo)*2^-k, the first k with f >= 0 there."""
    k = 1
    while f(width - (width - lo) * 2.0**-k) < 0:
        k += 1
    return width - (width - lo) * 2.0**-k


def _brentq_tau0(E, b, p):
    def g(tau):
        return b.field_static * tau + p.integral_imag_axis(tau) - b.p0(E)

    hi = b.tau00_at(E)
    if isinstance(p, LorentzPulse) and hi >= p.width:
        hi = _below_pole(g, 0.0, p.width)
    return brentq(g, 0.0, hi, xtol=1e-15, rtol=4.0 * EPS), g


def _assert_tau0_matches_brentq(E, b, p):
    ref, g = _brentq_tau0(E, b, p)
    tau0 = solve_tau0(E, b, p)
    assert tau0 == pytest.approx(ref, rel=1e-13, abs=0.0)
    # both stop once the step is at most tol = 1e-15 + 4 eps tau0, so each
    # may lie up to tol from the root: the residual is no worse than
    # brentq's, or than g' times twice that tolerance
    rise = (1.0 - (tau0 / p.width) ** 2) ** -p.exponent \
        if isinstance(p, LorentzPulse) else math.exp((p.rate * tau0) ** 2)
    slope = b.field_static + p.amplitude * rise
    tol = 1e-15 + 4.0 * EPS * tau0
    assert abs(g(tau0)) <= max(abs(g(ref)), 2.0 * slope * tol)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 18, 24, 30])
def test_tau0_matches_brentq_on_a_lorentz_grid(n):
    for amp in (1e-6, 1e-3, 0.1, 1.0):
        for theta in (0.3, 1.0, 3.0):
            for V in (2.0, 10.0, 30.0):
                b = TriangularBarrier(V=V, E_bound=0.5 * V, field_static=1.0)
                p = LorentzPulse(amplitude=amp, width=theta, exponent=n)
                for k in range(9):
                    _assert_tau0_matches_brentq(V * (0.02 + 0.12 * k), b, p)


@pytest.mark.parametrize("rate", [0.2, 1.0, 3.0])
def test_tau0_matches_brentq_for_gaussian_pulses(rate):
    for amp in (1e-4, 0.05, 1.0):
        for V in (2.0, 10.0, 30.0):
            b = TriangularBarrier(V=V, E_bound=0.5 * V, field_static=1.0)
            p = GaussianPulse(amplitude=amp, rate=rate)
            for k in range(9):
                _assert_tau0_matches_brentq(V * (0.02 + 0.12 * k), b, p)


def _axis(b, p):
    """(f, -f') of the axis saddle function, written out here."""
    p0, e0 = b.p0(), b.field_static
    th, n, amp = p.width, p.exponent, p.amplitude

    def f(tau):
        w = amp * th**2 / (2.0 * (n - 1)) * ((1.0 - tau**2 / th**2) ** (1 - n) - 1.0)
        return tau * p0 - 0.5 * e0 * tau**2 - w

    def minus_slope(tau):
        return e0 * tau + amp * tau * (1.0 - tau**2 / th**2) ** (-n) - p0

    return f, minus_slope


@pytest.mark.parametrize("n", [3, 5, 10, 18, 24, 30])
def test_axis_maximizer_and_exit_root_match_brentq(n):
    for amp in (1e-5, 0.05, 1.0):
        for E in (1.0, 5.0, 9.0):
            b = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0)
            p = LorentzPulse(amplitude=amp, width=0.8 * b.tau00, exponent=n)
            f, minus_slope = _axis(b, p)
            ref_max = brentq(minus_slope, 0.0, _below_pole(minus_slope, 0.0, p.width),
                             xtol=1e-14 * p.width, rtol=4.0 * EPS)
            _, tau_max, _ = hj._axis_saddle(b, p)
            assert tau_max == pytest.approx(ref_max, rel=1e-13, abs=0.0)
            for frac in (0.3, 0.9, 0.999):
                x = f(ref_max + frac * (p.width - ref_max)) / b.m

                def g(tau):
                    return b.m * x - f(tau)

                ref = brentq(g, ref_max, _below_pole(g, ref_max, p.width),
                             xtol=1e-16, rtol=4.0 * EPS)
                assert hj._exit_root_t0(x, b, p) == pytest.approx(
                    ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [3, 10, 18, 24, 30])
@pytest.mark.parametrize("E", [1.0, 5.0])
def test_exit_branch_at_t0_is_the_euclidean_root(n, E):
    # at n = 24 and 30 the exit-branch bracket once overflowed (exit 3)
    b = TriangularBarrier(V=10.0, E_bound=E, field_static=1.0)
    p = LorentzPulse(amplitude=0.05, width=2.0, exponent=n)
    tau0 = solve_tau0(E, b, p)
    x_exit = _axis(b, p)[0](tau0) / b.m
    t0 = hj.solve_t0(x_exit, 0.0, b, p, branch="exit").t0
    assert abs(t0 - 1j * tau0) <= 1e-14 * tau0


FAILED = ConvergenceError("slot failed")


def _bisect_grid(roots, slots, error_from=None):
    """_find_root on (0, 1) from 0.5 for f_i(x) = x - roots[i], i in slots,
    with f' reported as 0, so every step bisects; slot error_from's f is an
    error from its third evaluation on.  (out, evaluations per slot)."""
    calls = {i: 0 for i in slots}

    def fdf(x, live):
        f = []
        for k, xk in zip(live, x):
            i = slots[k]
            calls[i] += 1
            f.append(FAILED if i == error_from and calls[i] >= 3 else xk - roots[i])
        return f, [0.0] * len(live)

    n = len(slots)
    return _find_root(fdf, [0.0] * n, [1.0] * n, [0.5] * n, [1e-12] * n,
                      "test"), calls


def test_a_slot_error_ends_that_slot_only():
    roots = [0.3, 0.6, 0.9]
    out, calls = _bisect_grid(roots, [0, 1, 2], error_from=1)
    assert out[1] is FAILED and calls[1] == 3
    for i in (0, 2):
        [alone], calls_alone = _bisect_grid(roots, [i])
        assert out[i] == alone == pytest.approx(roots[i], abs=1e-11)
        assert calls[i] == calls_alone[i] > 30
    assert _bisect_grid(roots, [])[0] == []


def test_a_root_at_the_unevaluated_upper_end_is_a_convergence_error():
    # f(x) = x - 1 has its root at hi = 1; with f' reported as 0 every step
    # bisects, so no iterate has f >= 0: hi is beyond the root
    def fdf(x, live):
        return [v - 1.0 for v in x], [0.0] * len(x)

    [out] = _find_root(fdf, [0.0], [1.0], [0.5], [1e-15], "test")
    assert isinstance(out, ConvergenceError)


def test_an_overflow_of_a_scalar_fdf_is_beyond_the_root():
    # a scalar fdf that raises OverflowError right of 0.5, as Python floats
    # do, from 0.9: that point closes the bracket, and bisection brings the
    # iterate below 0.5, where Newton finds the root at 0.3
    def fdf(x):
        if x > 0.5:
            raise OverflowError("beyond")
        return x - 0.3, 1.0

    assert _find_root(fdf, 0.0, 1.0, 0.9, 1e-15, "test") == 0.3


def test_cli_imports_neither_scipy_optimize_nor_integrate():
    # scipy.optimize alone took 0.18-0.28 s to import after scipy.special
    # and scipy.fft
    code = ("import sys, pulsetunnel.cli, pulsetunnel.tdse; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') "
            "if m in sys.modules))")
    src = str(Path(pulsetunnel.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


_SCIPY_FREE_RUNS = '''
import contextlib, io, sys
import numpy as np
import pulsetunnel, pulsetunnel.cli, pulsetunnel.tdse
from pulsetunnel import tdse
from pulsetunnel.cli import main
from pulsetunnel.model import ZeroPulse


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def scipy():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


lorentz = ["--amp", "0.05", "--pulse", "lorentz"]
for command in ("verify", "rate", "adapt"):
    run(command, "--E", "5", *lorentz)
for method in ("hj", "euclidean", "quanta", "auto"):
    run("action-curve", "--method", method, "--E-grid", "4:6:3", *lorentz)
run("action-curve", "--method", "trajectory", "--barrier", "sech", "--V", "1",
    "--a", "1", "--amp", "0.005", "--n", "2", "--theta", "3",
    "--E-grid", "0.4:0.6:3")
print(scipy())
run("action-curve", "--pulse", "gauss", "--V", "10", "--E0", "1",
    "--amp", "0.05", "--E-grid", "4:6:3")
grid = tdse.GridSpec(x_min=-20.0, x_max=20.0, n_points=1024, dt=0.01,
                     t_final=0.05)
start = tdse.WavefunctionState(np.exp(-grid.x**2).astype(complex), 0.0,
                               grid=grid)
tdse.evolve(start, np.zeros_like(grid.x), [ZeroPulse()], grid)
print([m for m in ("scipy.special", "scipy.fft") if m in sys.modules])
'''


def test_cli_runs_load_no_scipy_until_a_gaussian_or_the_oracle():
    # loading scipy.special and scipy.fft took about 0.4 s of a 0.75 s
    # verify process, and a Lorentz or zero pulse never calls them
    # (docs/decisions.md, "What a CLI call imports").  pytest itself imports
    # scipy, so this runs in a fresh interpreter
    src = str(Path(pulsetunnel.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_RUNS],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["[]", "['scipy.special', 'scipy.fft']"]
