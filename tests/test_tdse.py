"""Property tests and examples for the split-operator quantum oracle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsetunnel import tdse
from pulsetunnel.errors import DomainError
from pulsetunnel.model import LorentzPulse, TriangularBarrier, ZeroPulse
from pulsetunnel.tdse import (
    GridSpec,
    WavefunctionState,
    enhancement_exponent,
    evolve,
    prepare_metastable,
)

finite = dict(allow_nan=False, allow_infinity=False)


def _gaussian_state(grid, sigma, k0=0.0, x0=0.0):
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * x)
    psi = psi.astype(complex)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WavefunctionState(psi=psi, time=0.0, grid=grid)


def _well_potential(depth, width):
    def v(x):
        return -depth * np.exp(-(x**2) / (2.0 * width**2))
    return v


# --- GridSpec validation ---------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(-10.0, 10.0, 1000, 0.01, 10.0)
    with pytest.raises(DomainError):
        GridSpec(-10.0, 10.0, 1536, 0.01, 10.0)
    with pytest.raises(DomainError):
        GridSpec(-10.0, 10.0, 1024, 0.01, 10.0, absorber_frac=0.05)
    with pytest.raises(DomainError):
        GridSpec(-10.0, 10.0, 1024, -0.01, 10.0)


def test_absorbers_must_not_overlap():
    # overlapping layers leave no interior, where the coupling coordinate runs
    with pytest.raises(DomainError, match="overlap"):
        GridSpec(-10.0, 10.0, 1024, 0.01, 10.0, absorber_frac=0.6)
    GridSpec(-10.0, 10.0, 1024, 0.01, 10.0, absorber_frac=0.5)


def test_grid_mass_must_match_barrier():
    # the kinetic steps read the grid's mass and the well the barrier's
    b = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=2.0)
    with pytest.raises(DomainError, match="mass"):
        prepare_metastable(b, GridSpec(-10.0, 10.0, 1024, 0.01, 10.0))


# --- Unitarity -------------------------------------------------------------------

@settings(deadline=None)
@given(
    depth=st.floats(0.5, 5.0, **finite),
    width=st.floats(0.5, 2.0, **finite),
    sigma=st.floats(0.5, 2.0, **finite),
    dt=st.floats(0.002, 0.02, **finite),
)
def test_unitarity_without_absorbers(depth, width, sigma, dt):
    grid = GridSpec(-20.0, 20.0, 1024, dt, 300.0 * dt)
    state = _gaussian_state(grid, sigma)
    [(out, rec)] = evolve(state, _well_potential(depth, width), [ZeroPulse()],
                          grid, absorbers=False)
    assert abs(out.norm() - 1.0) < 1e-10
    assert np.all(np.abs(rec.norm - 1.0) < 1e-10)


# --- Time reversal ---------------------------------------------------------------

@settings(deadline=None)
@given(
    depth=st.floats(0.5, 4.0, **finite),
    sigma=st.floats(0.6, 1.5, **finite),
    amp=st.floats(0.0, 0.3, **finite),
)
def test_time_reversal(depth, sigma, amp):
    grid = GridSpec(-20.0, 20.0, 1024, 0.01, 2.0)
    pot = _well_potential(depth, 1.0)
    pulse = (
        LorentzPulse(amplitude=amp, width=1.0, exponent=2)
        if amp > 1e-6 else ZeroPulse()
    )
    state = _gaussian_state(grid, sigma)
    [(fwd, _)] = evolve(state, pot, [pulse], grid, absorbers=False)
    [(back, _)] = evolve(fwd, pot, [pulse], grid, absorbers=False,
                         t_final=0.0, dt=-grid.dt)
    overlap = abs(np.sum(np.conj(state.psi) * back.psi) * grid.dx)
    assert overlap > 1.0 - 1e-6


# --- Free-packet dispersion ------------------------------------------------------

def test_free_gaussian_dispersion():
    grid = GridSpec(-40.0, 40.0, 2048, 0.005, 4.0)
    sigma = 1.0
    state = _gaussian_state(grid, sigma, k0=2.0)
    [(out, _)] = evolve(state, lambda x: np.zeros_like(x), [ZeroPulse()], grid,
                        absorbers=False)
    t = 4.0
    x = grid.x
    # analytic spreading Gaussian (m = 1)
    st_c = sigma**2 + 1j * t / 2.0
    psi_ref = (
        (2.0 * math.pi * sigma**2) ** 0.25
        / np.sqrt(2.0 * math.pi * st_c)
        * np.exp(
            -((x - 2.0 * t) ** 2) / (4.0 * st_c)
            + 1j * (2.0 * x - 2.0 * t)
        )
    )
    norm_ref = math.sqrt(np.sum(np.abs(psi_ref) ** 2) * grid.dx)
    psi_ref /= norm_ref
    overlap = abs(np.sum(np.conj(psi_ref) * out.psi) * grid.dx)
    assert overlap > 1.0 - 1e-6


# --- Metastable preparation and static decay -------------------------------------

def _a0_barrier(A0, V=2.0, E=1.0, m=1.0):
    e0 = 4.0 * math.sqrt(2.0 * m * (V - E)) / (3.0 * A0)
    return TriangularBarrier(V=V, E_bound=E, field_static=e0, m=m)


def test_nearly_stable_well_keeps_norm():
    b = _a0_barrier(40.0)     # decay exponent far beyond double precision
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 10.0)
    state, pot = prepare_metastable(b, grid)
    [(out, _)] = evolve(state, pot, [ZeroPulse()], grid)
    assert out.norm() > 1.0 - 1e-6


def test_static_decay_exponent_and_refinement():
    b = _a0_barrier(8.0)
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 150.0)
    res = enhancement_exponent(b, ZeroPulse(), grid)
    # exponent-only agreement with the WKB value (prefactor neglected)
    assert res["static_exponent"] == pytest.approx(8.0, rel=0.15)
    # pulse off: no enhancement beyond fit noise
    assert abs(res["delta_A"]) < 0.3
    # refinement dt/2, dx/2 moves the measured exponent by < 1%
    fine = GridSpec(-15.0, 25.0, 4096, 0.005, 150.0)
    res_f = enhancement_exponent(b, ZeroPulse(), fine)
    assert res_f["static_exponent"] == pytest.approx(
        res["static_exponent"], rel=0.01
    )


def test_norm_bookkeeping_with_absorbers():
    b = _a0_barrier(8.0)
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 150.0)
    state, pot = prepare_metastable(b, grid)
    [(out, _)] = evolve(state, pot, [ZeroPulse()], grid)
    assert out.norm() + out.absorbed_left + out.absorbed_right <= 1.0 + 1e-8
    # the clipped barrier tilts both ways from the well: two-sided escape
    assert out.absorbed_left > 0.0 and out.absorbed_right > 0.0


# --- Batched propagation, real relaxation, health block --------------------------

def test_batched_evolve_matches_single_runs():
    grid = GridSpec(-10.0, 10.0, 1024, 0.01, 4.0)
    state = _gaussian_state(grid, 0.3)
    pot = _well_potential(1.0, 1.0)
    pulse = LorentzPulse(amplitude=0.3, width=1.0, exponent=2)
    batch = evolve(state, pot, (ZeroPulse(), pulse), grid)
    assert len(batch) == 2
    for (out_b, rec_b), p in zip(batch, (ZeroPulse(), pulse)):
        [(out_s, rec_s)] = evolve(state, pot, [p], grid)
        assert np.max(np.abs(out_b.psi - out_s.psi)) < 1e-12
        np.testing.assert_allclose(rec_b.flux, rec_s.flux, rtol=1e-12, atol=0.0)
        # absorbed fractions are parts of a unit norm; early on they are the
        # sum of norm decrements at roundoff level, so compare them absolutely
        for name in ("absorbed_left", "absorbed_right"):
            assert getattr(out_b, name) > 1e-3
            assert abs(getattr(out_b, name) - getattr(out_s, name)) < 1e-12
            np.testing.assert_allclose(getattr(rec_b, name), getattr(rec_s, name),
                                       rtol=0.0, atol=1e-12)
    # the pulse acts on its own row only
    assert np.max(np.abs(batch[0][0].psi - batch[1][0].psi)) > 1e-3


def test_evolve_start_layout():
    # a start state that is a strided view gives the same runs as a C-ordered
    # one, and every returned row is C-ordered
    grid = GridSpec(-10.0, 10.0, 1024, 0.01, 1.0)
    state = _gaussian_state(grid, 0.7, k0=2.0)
    pot = _well_potential(1.0, 1.0)
    pulses = (ZeroPulse(), LorentzPulse(amplitude=0.3, width=1.0, exponent=2))
    ref = evolve(state, pot, pulses, grid, detector_x=4.0)
    views = (
        np.asfortranarray(np.stack([state.psi, -state.psi]))[0],
        np.repeat(state.psi, 3)[::3],
        state.psi[::-1].copy()[::-1],
    )
    for psi in views:
        assert not psi.flags.c_contiguous
        start = WavefunctionState(psi=psi, time=0.0, grid=grid)
        for (out, rec), (out_ref, rec_ref) in zip(
                evolve(start, pot, pulses, grid, detector_x=4.0), ref):
            np.testing.assert_array_equal(out.psi, out_ref.psi)
            np.testing.assert_array_equal(rec.flux, rec_ref.flux)
            assert out.psi.flags.c_contiguous
    assert all(out.psi.flags.c_contiguous for out, _ in ref)


def _complex_relax(vstat, grid, x_cut, n_steps=4000, dtau=None):
    """Imaginary-time relaxation on complex arrays (reference implementation)."""
    x = grid.x
    if dtau is None:
        dtau = 0.5 * grid.dt
    mask = 1.0 / (1.0 + np.exp((np.abs(x) - x_cut) / (0.05 * x_cut)))
    psi = np.exp(-(x**2)).astype(complex) * mask
    expk = np.exp(-grid.k**2 / (2.0 * grid.m) * dtau)
    expv = np.exp(-0.5 * vstat * dtau)
    last_e = math.inf
    for i in range(n_steps):
        psi = expv * psi
        psi = np.fft.ifft(expk * np.fft.fft(psi))
        psi = expv * psi * mask
        psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
        if i % 200 == 199:
            e = tdse._energy(psi, vstat, grid)
            if abs(e - last_e) < 1e-10 * max(abs(e), 1.0):
                break
            last_e = e
    return psi


def test_real_relaxation_matches_complex_reference(monkeypatch):
    b = _a0_barrier(8.0)
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 150.0)
    state, pot = prepare_metastable(b, grid)
    assert np.iscomplexobj(state.psi) and np.all(state.psi.imag == 0.0)
    monkeypatch.setattr(tdse, "_relax_in_well", _complex_relax)
    state_ref, pot_ref = prepare_metastable(b, grid)
    assert pot.well_depth == pytest.approx(pot_ref.well_depth, rel=1e-10)
    vstat = pot(grid.x)
    assert tdse._energy(state.psi, vstat, grid) == pytest.approx(
        tdse._energy(state_ref.psi, pot_ref(grid.x), grid), rel=1e-10)


def test_relaxation_cap_off_the_check_period(monkeypatch):
    # 390 steps: one energy check at step 200, then 190 merged steps; the
    # state must still be normalised after the last step's mask
    b = _a0_barrier(8.0)
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 150.0)
    monkeypatch.setattr(tdse, "_RELAX_STEPS", 390)
    state, pot = prepare_metastable(b, grid)
    assert abs(state.norm() - 1.0) < 1e-12
    monkeypatch.setattr(tdse, "_relax_in_well",
                        functools.partial(_complex_relax, n_steps=390))
    state_ref, pot_ref = prepare_metastable(b, grid)
    assert pot.well_depth == pytest.approx(pot_ref.well_depth, rel=1e-10)
    assert tdse._energy(state.psi, pot(grid.x), grid) == pytest.approx(
        tdse._energy(state_ref.psi, pot_ref(grid.x), grid), rel=1e-10)
    assert np.max(np.abs(state.psi - state_ref.psi)) < 1e-10


def _step_loop_relax(vstat, grid, x_cut):
    """Imaginary-time relaxation by stepping on real arrays, normalised at the
    energy checks and after the last step (reference implementation)."""
    import scipy.fft as sfft
    x = grid.x
    dtau = 0.5 * grid.dt
    mask = 1.0 / (1.0 + np.exp((np.abs(x) - x_cut) / (0.05 * x_cut)))
    psi = np.exp(-(x**2)) * mask
    k = 2.0 * math.pi * np.fft.rfftfreq(grid.n_points, d=grid.dx)
    expk = np.exp(-k**2 / (2.0 * grid.m) * dtau)
    expv = np.exp(-0.5 * vstat * dtau)
    expv_mask = expv * mask
    merged = expv_mask * expv
    last = tdse._RELAX_STEPS - 1
    last_e = math.inf
    psi *= expv
    for i in range(tdse._RELAX_STEPS):
        spec = sfft.rfft(psi)
        spec *= expk
        psi = sfft.irfft(spec, n=grid.n_points, overwrite_x=True)
        check = i % 200 == 199
        if not (check or i == last):
            psi *= merged
            continue
        psi *= expv_mask
        psi /= math.sqrt(np.dot(psi, psi) * grid.dx)
        if check:
            e = tdse._energy(psi, vstat, grid)
            if abs(e - last_e) < 1e-10 * max(abs(e), 1.0):
                break
            last_e = e
        if i < last:
            psi *= expv
    return psi.astype(complex)


_ORACLE_GRID = (-30.0, 50.0, 2048, 0.005, 100.0)


@pytest.mark.parametrize("barrier, bounds, cap, stops", [
    # the oracle grid: all three relaxations run to the cap
    (_a0_barrier(16.0), _ORACLE_GRID, 4000, [4000] * 3),
    (_a0_barrier(8.0), (-15.0, 25.0, 2048, 0.01, 150.0), 4000, [1200] * 3),
    (TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0),
     (-10.0, 10.0, 1024, 0.02, 10.0), 4000, [800, 600, 600, 600]),
    # a cap off the check period: one check at step 200
    (_a0_barrier(8.0), (-15.0, 25.0, 2048, 0.01, 150.0), 390, [390] * 3),
])
def test_krylov_relaxation_matches_step_loop(barrier, bounds, cap, stops,
                                             monkeypatch):
    grid = GridSpec(*bounds)
    monkeypatch.setattr(tdse, "_RELAX_STEPS", cap)
    energy, krylov = tdse._energy, tdse._relax_in_well

    def prepare(relax):
        # the state, the potential, and the energy checks of each relaxation
        calls, checks = [], []

        def counted_energy(*args):
            calls.append(1)
            return energy(*args)

        def counted_relax(*args):
            n0 = len(calls)
            psi = relax(*args)
            checks.append(len(calls) - n0)
            return psi

        monkeypatch.setattr(tdse, "_energy", counted_energy)
        monkeypatch.setattr(tdse, "_relax_in_well", counted_relax)
        return (*prepare_metastable(barrier, grid), checks)

    state, pot, checks = prepare(krylov)
    state_ref, pot_ref, checks_ref = prepare(_step_loop_relax)
    # a relaxation that stops at step s has made s // 200 checks
    assert checks == checks_ref == [s // 200 for s in stops]
    assert abs(state.norm() - 1.0) < 1e-12
    # measured up to 3.8e-15 (psi) and 4.4e-16 (depth, relative)
    assert np.max(np.abs(state.psi - state_ref.psi)) <= 1e-13
    assert pot.well_depth == pytest.approx(pot_ref.well_depth, rel=1e-13)


def test_krylov_relaxation_transform_counts(monkeypatch):
    # the energy checks keep their complex FFT pairs; the 12,000 real
    # transform pairs of the step loop become one pair per basis vector
    import scipy.fft
    counts = {"rfft": 0, "fft": 0}
    for name in counts:
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    prepare_metastable(_a0_barrier(16.0), GridSpec(*_ORACLE_GRID))
    # 20 energy checks in each of three relaxations, then one per tuning step
    assert counts["fft"] == 63
    assert counts["rfft"] <= 300


def test_health_block_balances():
    b = _a0_barrier(8.0)
    grid = GridSpec(-15.0, 25.0, 2048, 0.01, 60.0)
    pulse = LorentzPulse(amplitude=0.2 * b.field_static, width=2.0, exponent=3)
    diag = enhancement_exponent(b, pulse, grid)["diagnostics"]
    assert diag["settle_time"] == 22.5 and diag["pulse_center"] == 37.5
    assert diag["peak_half_width"] == 8.0
    for run in ("static", "pulsed"):
        h = diag[run]
        assert all(type(v) is float for k, v in h.items() if k != "steps")
        assert type(h["steps"]) is int and h["steps"] == 6000
        absorbed = h["absorbed_left"] + h["absorbed_right"]
        assert h["norm"] + absorbed <= 1.0 + 1e-8 and h["balance"] >= -1e-8
        assert h["absorbed_left"] > 0.0 and h["absorbed_right"] > 0.0


# --- Merged Strang step and the coupling phase -----------------------------------

@pytest.mark.parametrize("c", [1.5e-4, 1.23e-2, 0.3])
@pytest.mark.parametrize("bounds", [
    (-30.0, 50.0, 2048, 0.15),      # the oracle grid: 1,433 points between the
                                    # absorbers, edges between grid points
    (-16.0, 16.0, 1024, 0.125),     # edges on grid points, 767 points between
    (-10.3, 13.7, 2048, 0.13),      # a spacing with no short binary form
])
def test_coupling_phase_matches_exp(bounds, c):
    x_min, x_max, n, frac = bounds
    grid = GridSpec(x_min, x_max, n, 0.01, 1.0, absorber_frac=frac)
    out = tdse._coupling_phase(grid)(c)
    ref = np.exp(1j * tdse._coupling(grid) * c)
    # measured up to 5.6e-16, at c = 0.3
    assert np.max(np.abs(out - ref)) < 2e-15


def _strang_reference(state, potential, pulse, grid, detector_x, t_final, dt):
    """Two potential half-steps per step, as the scheme is written; returns the
    final psi, the absorbed fractions and the recorded (times, norm,
    absorbed_left, absorbed_right, flux) (reference implementation)."""
    x, dx = grid.x, grid.dx
    cap = tdse._absorber(grid)
    xc = tdse._coupling(grid)
    expk = np.exp(-1j * grid.k**2 / (2.0 * grid.m) * dt)
    half_v = np.exp(-1j * (potential(x) - 1j * cap) * 0.5 * dt)
    n_steps = int(round(abs(t_final - state.time) / abs(dt)))
    j = int(np.clip(round((detector_x - grid.x_min) / dx), 1, grid.n_points - 2))
    psi, t = state.psi.copy(), state.time
    norm_prev = state.norm()
    absorbed = np.array([state.absorbed_left, state.absorbed_right])
    rec = []
    for i in range(n_steps):
        c = np.real(pulse(t + 0.5 * dt)) * 0.5 * dt
        half = half_v * np.exp(1j * xc * c)
        psi = half * np.fft.ifft(expk * np.fft.fft(half * psi))
        t += dt
        dens = np.abs(psi) ** 2
        norm = np.sum(dens) * dx
        weights = np.array([np.sum(dens * cap * (x < 0)),
                            np.sum(dens * cap * (x >= 0))])
        if np.sum(weights) > 0.0 and norm_prev > norm:
            absorbed += (norm_prev - norm) * weights / np.sum(weights)
        norm_prev = norm
        if i % tdse._RECORD_EVERY == 0 or i == n_steps - 1:
            flux = (np.conj(psi[j]) * (psi[j + 1] - psi[j - 1]) / (2.0 * dx)).imag
            rec.append((t, norm, *absorbed, flux / grid.m))
    return psi, absorbed, np.array(rec).reshape(-1, 5).T


@pytest.mark.parametrize("t_start, t_final, dt, block, x0", [
    (0.0, 2.185, 0.005, 1000, 2.0),     # 437 steps, not a multiple of 10
    (0.0, 2.185, 0.005, 64, 2.0),       # the same across pulse-block edges
    (0.0, 0.005, 0.005, 1000, 2.0),     # one step
    (0.5, 0.5, 0.005, 1000, 2.0),       # no step
    # backwards, from a packet in the right absorber, whose norm then grows
    # step by step (a norm that stays at 1 collects roundoff decrements)
    (1.0, 0.0, -0.005, 64, 5.0),
])
def test_merged_step_matches_two_half_steps(t_start, t_final, dt, block, x0,
                                            monkeypatch):
    monkeypatch.setattr(tdse, "_PULSE_BLOCK", block)
    grid = GridSpec(-10.0, 10.0, 1024, 0.005, 10.0)
    start = _gaussian_state(grid, 0.7, k0=2.0, x0=x0)
    state = WavefunctionState(psi=start.psi, time=t_start, absorbed_left=0.01,
                              absorbed_right=0.02, grid=grid)
    pot = _well_potential(1.0, 1.0)
    pulses = (ZeroPulse(), LorentzPulse(amplitude=0.3, width=1.0, exponent=2))
    batch = evolve(state, pot, pulses, grid, detector_x=4.0, t_final=t_final,
                   dt=dt)
    for (out, rec), pulse in zip(batch, pulses):
        psi, absorbed, (times, norm, rec_l, rec_r, flux) = _strang_reference(
            state, pot, pulse, grid, 4.0, t_final, dt)
        assert rec.steps == round(abs(t_final - t_start) / abs(dt))
        assert out.time == (times[-1] if rec.steps else t_start)
        # measured up to 5.3e-15 (psi), 1.4e-13 (flux, relative), 9.2e-15
        # (norm) and 2.1e-14 (absorbed fractions)
        assert np.max(np.abs(out.psi - psi)) <= 1e-12
        np.testing.assert_array_equal(rec.times, times)
        np.testing.assert_allclose(rec.flux, flux, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(rec.norm, norm, rtol=0.0, atol=1e-13)
        for got, want in ((rec.absorbed_left, rec_l), (rec.absorbed_right, rec_r),
                          ([out.absorbed_left, out.absorbed_right], absorbed)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
