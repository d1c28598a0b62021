"""Brute-force split-operator Schrodinger solver used as the exact-quantum oracle.

Propagates i dpsi/dt = [-(1/2m) d2/dx2 + V(x) - x*pulse(t)] psi on a periodic
grid with smooth imaginary-potential absorbers, starting from a quasi-bound
state of a Gaussian-regularized narrow well.  Comparisons against the
semiclassical modules are exponent-only.

The scheme is second-order Strang splitting (Feit, Fleck & Steiger, J. Comput.
Phys. 47, 412, 1982), in its "first same as last" form: the closing potential
half-step of one step and the opening one of the next are one multiply, so a
step makes one potential multiply and two FFTs.  `evolve` advances a batch of
runs that share a start state as one C-ordered (B, N) array, each row stored
whole: the static factors are built once per call, the coupling phase of each
live pulse is built without trig at every point (`_coupling_phase`), the FFTs
run in place, and the squares of psi's real and imaginary parts go through
one matrix product per step for the norm and the absorber bookkeeping.
Results agree with the two-half-step form to roundoff.  `enhancement_exponent`
runs its static and pulsed evolutions as one such batch.  The well state is
the capped imaginary-time relaxation of a real start in a real potential,
evaluated without stepping: a Lanczos basis of the symmetric relaxation step
(Park & Light, J. Chem. Phys. 85, 5870, 1986) gives each checked power of the
step from a few dozen real transform pairs, where stepping takes up to
4,000.  The functions that transform import scipy.fft themselves and call
through the module, so importing this module loads no scipy
(docs/decisions.md, "What a CLI call imports").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .model import LorentzPulse, TriangularBarrier, ZeroPulse

__all__ = [
    "GridSpec",
    "WavefunctionState",
    "TdsePotential",
    "prepare_metastable",
    "evolve",
    "enhancement_exponent",
]


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int
    dt: float
    t_final: float
    absorber_frac: float = 0.15
    m: float = 1.0

    def __post_init__(self):
        if self.n_points < 1024 or self.n_points & (self.n_points - 1):
            raise DomainError("n_points must be a power of two >= 1024")
        if self.absorber_frac < 0.10:
            raise DomainError("absorbing boundary width must be >= 10% of domain")
        if self.absorber_frac > 0.5:
            raise DomainError("absorbing boundaries must not overlap (width <= 50%)")
        if not (0.0 < self.dt <= self.t_final):
            raise DomainError("need 0 < dt <= t_final")
        # split-operator steps are unconditionally stable; accuracy needs the
        # phase advance of occupied states per step to stay small, which the
        # caller controls through dt relative to the potential/energy scales.

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def absorber_width(self) -> float:
        return self.absorber_frac * (self.x_max - self.x_min)


@dataclass
class WavefunctionState:
    psi: np.ndarray
    time: float
    absorbed_left: float = 0.0
    absorbed_right: float = 0.0
    grid: GridSpec | None = None

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)


@dataclass(frozen=True)
class TdsePotential:
    """Static potential: clipped triangular slope plus a Gaussian-regularized well."""

    barrier: TriangularBarrier
    well_width: float
    well_depth: float
    floor: float

    def __call__(self, x):
        b = self.barrier
        v = np.maximum(b.V - b.field_static * np.abs(x), self.floor)
        return v - self.well_depth * np.exp(-(x**2) / (2.0 * self.well_width**2))


_ABSORBER_STRENGTH = 1.0    # peak of the cubic absorbing potential


def _absorber(grid: GridSpec) -> np.ndarray:
    x = grid.x
    w = grid.absorber_width
    left = np.clip((grid.x_min + w - x) / w, 0.0, 1.0)
    right = np.clip((x - (grid.x_max - w)) / w, 0.0, 1.0)
    return _ABSORBER_STRENGTH * (left**3 + right**3)


def _coupling(grid: GridSpec):
    """Length-gauge coordinate, saturated inside the absorbers."""
    w = grid.absorber_width
    lo, hi = grid.x_min + w, grid.x_max - w
    return np.clip(grid.x, lo, hi)


def _energy(psi, vstat, grid: GridSpec) -> float:
    import scipy.fft as sfft
    dx = grid.dx
    kin = sfft.ifft(grid.k**2 / (2.0 * grid.m) * sfft.fft(psi))
    num = np.sum(np.conj(psi) * (kin + vstat * psi)).real * dx
    den = np.sum(np.abs(psi) ** 2) * dx
    return float(num / den)


_RELAX_STEPS = 4000     # cap on imaginary-time steps of one relaxation


def _lanczos(apply, start, powers):
    """Lanczos basis for the powers B^p start, p in `powers`, of the real
    symmetric positive semi-definite operator B = `apply`.

    Returns the orthonormal basis as rows Q, and the eigenvalues lam, divided
    by the largest, and eigenvectors W of the tridiagonal T = Q B Q^T, so that
    B^p start is proportional to (W (lam**p * W[0])) @ Q.  Each new row is
    orthogonalised against all earlier ones, twice.  The basis grows until
    beta_M |[f(T) e1]_M| <= 1e-15 ||f(T) e1||, with f(T) = (T / lam_max)^p,
    at the smallest and the largest power, or until it holds max(powers) + 1
    rows, whose span holds every B^p start exactly.
    """
    ends = (min(powers), max(powers))
    q = start / math.sqrt(np.dot(start, start))
    rows = np.empty((8, len(q)))
    alpha, beta = [], []
    while True:
        m = len(alpha)
        if m == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        rows[m] = q
        basis = rows[:m + 1]
        w = apply(q)
        a = 0.0
        for _ in range(2):
            h = basis @ w
            w -= h @ basis
            a += h[m]
        alpha.append(a)
        b = math.sqrt(np.dot(w, w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        lam, vec = np.linalg.eigh(t)
        lam /= lam[-1]
        if m >= ends[1] or all(
                b * abs(vec[-1] @ f) <= 1e-15 * math.sqrt(np.dot(f, f))
                for f in (lam**p * vec[0] for p in ends)):
            return basis, lam, vec
        beta.append(b)
        q = w / b


def _relax_in_well(vstat, grid: GridSpec, x_cut: float):
    """Imaginary-time relaxation confined to |x| < x_cut, step dt/2: the state
    after up to _RELAX_STEPS steps, stopped by the energy check every 200.

    A step is a potential half-step exp(-V dt/4), a kinetic step, the other
    half-step and the mask.  After n steps from exp(-x^2) mask the state is
    sqrt(mask) B^n y0, with B = D S D, D = exp(-V dt/4) sqrt(mask), S the
    kinetic step and y0 = exp(-x^2) sqrt(mask).  B is real symmetric, so each
    check state is evaluated in a Lanczos basis of B from y0 (`_lanczos`)
    instead of by stepping; the energies are checked on those states in
    order, as the steps would reach them.  The state is real and is returned
    normalised, as a complex wavefunction.
    """
    import scipy.fft as sfft
    x = grid.x
    dtau = 0.5 * grid.dt
    mask = 1.0 / (1.0 + np.exp((np.abs(x) - x_cut) / (0.05 * x_cut)))
    root = np.sqrt(mask)
    k = 2.0 * math.pi * np.fft.rfftfreq(grid.n_points, d=grid.dx)
    expk = np.exp(-k**2 / (2.0 * grid.m) * dtau)
    half = np.exp(-0.5 * vstat * dtau) * root

    def step(q):
        spec = sfft.rfft(half * q)
        spec *= expk
        out = sfft.irfft(spec, n=grid.n_points, overwrite_x=True)
        out *= half
        return out

    # the energy checks, then the cap
    powers = [*range(200, _RELAX_STEPS, 200), _RELAX_STEPS]
    basis, lam, vec = _lanczos(step, np.exp(-(x**2)) * root, powers)
    last_e = math.inf
    for p in powers:
        psi = root * (vec @ (lam**p * vec[0]) @ basis)
        psi /= math.sqrt(np.dot(psi, psi) * grid.dx)
        if p % 200 == 0:
            e = _energy(psi, vstat, grid)
            if abs(e - last_e) < 1e-10 * max(abs(e), 1.0):
                break
            last_e = e
    return psi.astype(complex)


_TUNE_TOL = 0.01        # relative energy tolerance of the tuned well
_MAX_TUNE = 12          # secant steps on the well depth


def prepare_metastable(
    barrier: TriangularBarrier, grid: GridSpec
) -> tuple[WavefunctionState, TdsePotential]:
    """Quasi-bound state of the regularized well, tuned to the target energy.

    The delta well is regularized as a Gaussian of width exit length / 50;
    its depth is adjusted (secant) until the relaxed state's energy matches
    barrier.E_bound within 1% relative; the grid's mass must be the barrier's.
    """
    b = barrier
    if grid.m != b.m:
        raise DomainError(f"grid mass {grid.m} differs from barrier mass {b.m}")
    exit_len = b.exit_point
    well_width = exit_len / 50.0
    x_cut = 0.45 * exit_len
    # delta-well strength reproducing the target binding below the apex
    g = math.sqrt(2.0 * (b.V - b.E_bound) / b.m)
    depth = g / (math.sqrt(2.0 * math.pi) * well_width)
    floor = -2.0 * b.V

    achieved = []
    prev = None
    for _ in range(_MAX_TUNE):
        pot = TdsePotential(b, well_width, depth, floor)
        vstat = pot(grid.x)
        psi = _relax_in_well(vstat, grid, x_cut)
        e = _energy(psi, vstat, grid)
        achieved.append((depth, e))
        err = e - b.E_bound
        if abs(err) < _TUNE_TOL * abs(b.E_bound):
            state = WavefunctionState(psi=psi, time=0.0, grid=grid)
            return state, pot
        if prev is None:
            # deeper well -> lower energy; linear guess from the delta relation
            d_new = depth * (1.0 + err / (2.0 * (b.V - b.E_bound)))
        else:
            d0, e0 = prev
            if abs(e - e0) < 1e-14:
                break
            d_new = depth - err * (depth - d0) / (e - e0)
        prev = (depth, e)
        depth = d_new
    raise ConvergenceError(
        f"could not tune the well to E={b.E_bound}",
        diagnostics={"achieved": achieved},
    )


_PULSE_BLOCK = 1000   # steps per vectorized pulse evaluation
_RECORD_EVERY = 10    # steps between recorded samples
_PHASE_BLOCK = 64     # fine-block width of the coupling phase


def _coupling_phase(grid: GridSpec):
    """A function phase(c) that returns exp(i*c*xc), xc = _coupling(grid), in
    a buffer of its own, which the next call overwrites.

    Between the absorbers xc is the uniform grid, so the phase there is a
    coarse x fine outer product, exp(i*c*x[j0 + 64a]) * exp(i*c*dx*b): one
    short exp and one broadcast multiply instead of cos/sin at every point.
    Each clipped stretch is one scalar.
    """
    x = grid.x
    w = grid.absorber_width
    lo, hi = grid.x_min + w, grid.x_max - w
    j0 = int(np.searchsorted(x, lo, side="right"))
    j1 = int(np.searchsorted(x, hi, side="left"))
    n_blocks = -(-(j1 - j0) // _PHASE_BLOCK)
    # the last block runs on past j1 into the right absorber, which holds at
    # least a tenth of the grid, and is overwritten there
    j_end = j0 + n_blocks * _PHASE_BLOCK
    # i*x at the block starts, at lo and at hi, then i*dx*b within a block
    arg = 1j * np.concatenate((x[j0:j_end:_PHASE_BLOCK], (lo, hi),
                               grid.dx * np.arange(_PHASE_BLOCK)))
    e = np.empty_like(arg)
    coarse, fine = e[:n_blocks, None], e[n_blocks + 2:]
    out = np.empty(grid.n_points, dtype=complex)
    middle = out[j0:j_end].reshape(n_blocks, _PHASE_BLOCK)
    left, right = out[:j0], out[j1:]

    def phase(c):
        np.multiply(arg, c, out=e)
        np.exp(e, out=e)
        np.multiply(coarse, fine, out=middle)
        left.fill(e[n_blocks])
        right.fill(e[n_blocks + 1])
        return out

    return phase


@dataclass
class EvolutionRecord:
    times: np.ndarray
    norm: np.ndarray
    absorbed_left: np.ndarray
    absorbed_right: np.ndarray
    flux: np.ndarray            # probability current at the detector point
    steps: int


def evolve(
    state: WavefunctionState,
    potential,
    pulses,
    grid: GridSpec,
    *,
    absorbers: bool = True,
    detector_x: float | None = None,
    t_final: float | None = None,
    dt: float | None = None,
) -> list[tuple[WavefunctionState, EvolutionRecord]]:
    """Second-order split-operator propagation with time-dependent pulses.

    `potential` is a callable V_static(x).  Each pulse couples in length
    gauge, -x*pulse(t), with the coordinate saturated inside the absorbing
    layers.  The runs, one per pulse of the sequence `pulses`, start from the
    same state and advance together as one (B, N) array; the call returns
    their (state, record) pairs in that order.

    Between two kinetic steps the closing potential half-step of one step
    and the opening one of the next are one multiply,
    half_v^2 * exp(i xc (c_i + c_{i+1})), with c_i = f(t_mid_i) dt/2.  The
    bookkeeping of step i reads the post-kinetic psi: |psi|^2 times
    |half_v|^2 is the post-step density, and the detector flux takes the
    closing factor at its three points only.
    """
    import scipy.fft as sfft
    g = grid
    dx = g.dx
    dt = g.dt if dt is None else dt
    t_final = g.t_final if t_final is None else t_final
    x = g.x
    vstat = potential(x) if callable(potential) else np.asarray(potential)
    cap = _absorber(g) if absorbers else np.zeros_like(x)
    expk = np.exp(-1j * g.k**2 / (2.0 * g.m) * dt)
    # static half step; a live pulse multiplies in exp(i xc f(t_mid) dt/2)
    half_v = np.exp(-1j * (vstat - 1j * cap) * 0.5 * dt)
    phase = _coupling_phase(g)

    n_steps = int(round(abs(t_final - state.time) / abs(dt)))
    # t advances by sequential += dt, as a left fold
    t_steps = np.full(n_steps + 1, dt)
    t_steps[0] = state.time
    np.add.accumulate(t_steps, out=t_steps)
    live = [(r, p) for r, p in enumerate(pulses) if not isinstance(p, ZeroPulse)]

    n_rows = len(pulses)
    # one C-ordered row per run (a copy of a broadcast keeps its axis order:
    # rows interleaved, and every pass would walk runs of n_rows)
    psi = np.repeat(np.asarray(state.psi, dtype=complex)[None], n_rows, axis=0)
    # merged potential step per row; a ZeroPulse row keeps half_v^2
    half_v2 = half_v * half_v
    merged = np.repeat(half_v2[None], n_rows, axis=0)
    # columns: post-kinetic |psi|^2 -> post-step norm/dx, left and right
    # absorber weights, each entry twice, for the re and im parts of
    # psi.view(float); the transpose of a (3, 2N) array, which BLAS takes
    # faster than a (2N, 3) one
    left = x < 0
    moments = np.stack([np.ones_like(x), cap * left, cap * ~left])
    moments *= half_v.real**2 + half_v.imag**2
    moments = np.repeat(moments, 2, axis=1).T
    sq = np.empty((n_rows, 2 * g.n_points))
    det = detector_x if detector_x is not None else 0.8 * g.x_max
    j_det = int(np.clip(round((det - g.x_min) / dx), 1, g.n_points - 2))
    near = slice(j_det - 1, j_det + 2)
    xc_near = _coupling(g)[near]

    # every _RECORD_EVERY-th step and the last one
    rec_steps = np.union1d(np.arange(0, n_steps, _RECORD_EVERY),
                           np.arange(max(n_steps - 1, 0), n_steps))
    # per recorded step and row: norm, absorbed left and right, flux
    rec = np.empty((4, len(rec_steps), n_rows))
    k_rec = 0
    absorbed_l = [state.absorbed_left] * n_rows
    absorbed_r = [state.absorbed_right] * n_rows
    norm_prev = [state.norm()] * n_rows

    for i in range(n_steps):
        b = i % _PULSE_BLOCK
        if b == 0:
            # field values for this block of steps and the next step, in one
            # call per pulse
            t_mid = t_steps[i:min(i + _PULSE_BLOCK + 1, n_steps)] + 0.5 * dt
            coefs = [(r, np.real(p(t_mid)) * (0.5 * dt)) for r, p in live]
        if i == 0:      # the opening half-step
            psi *= half_v
            for r, coef in coefs:
                psi[r] *= phase(coef[0])
        psi = sfft.fft(psi, axis=-1, overwrite_x=True)
        psi *= expk
        psi = sfft.ifft(psi, axis=-1, overwrite_x=True)
        record = k_rec < len(rec_steps) and i == rec_steps[k_rec]
        if absorbers or record:
            np.square(psi.view(float), out=sq)
            m = (sq @ moments).tolist()
            norm_now = [row[0] * dx for row in m]
        if absorbers:
            # apportion the exact norm decrement by the local absorber weight
            for r, (_, w_l, w_r) in enumerate(m):
                lost = norm_prev[r] - norm_now[r]
                w_tot = w_l + w_r
                if w_tot > 0.0 and lost > 0.0:
                    absorbed_l[r] += lost * w_l / w_tot
                    absorbed_r[r] += lost * w_r / w_tot
            norm_prev = norm_now
        if record:
            # the post-step psi at the detector and its two neighbours
            psi_d = psi[:, near] * half_v[near]
            for r, coef in coefs:
                psi_d[r] *= np.exp(1j * xc_near * coef[b])
            dpsi = (psi_d[:, 2] - psi_d[:, 0]) / (2.0 * dx)
            rec[:, k_rec] = (norm_now, absorbed_l, absorbed_r,
                             (np.conj(psi_d[:, 1]) * dpsi).imag / g.m)
            k_rec += 1
        if i < n_steps - 1:     # close this step and open the next
            for r, coef in coefs:
                np.multiply(half_v2, phase(coef[b] + coef[b + 1]), out=merged[r])
            psi *= merged
        else:                   # close the last step
            psi *= half_v
            for r, coef in coefs:
                psi[r] *= phase(coef[b])

    out = [
        (
            WavefunctionState(psi=psi[r], time=float(t_steps[-1]),
                              absorbed_left=absorbed_l[r],
                              absorbed_right=absorbed_r[r], grid=g),
            EvolutionRecord(t_steps[rec_steps + 1], *rec[:, :, r],
                            steps=n_steps),
        )
        for r in range(n_rows)
    ]
    return out


def _static_rate(record: EvolutionRecord) -> float:
    """Quasi-stationary decay rate from the late-time norm decay."""
    n = len(record.times)
    sl = slice(n // 2, n)
    t = record.times[sl]
    ln_n = np.log(np.maximum(record.norm[sl], 1e-300))
    slope = np.polyfit(t, ln_n, 1)[0]
    return max(-slope, 0.0)


def _pulse_duration(pulse) -> float:
    if isinstance(pulse, LorentzPulse):
        return float(pulse.width)
    rate = getattr(pulse, "rate", None)
    if rate:
        return 1.0 / rate
    return 1.0


def _health(state: WavefunctionState, record: EvolutionRecord) -> dict:
    """Final norm, absorbed fractions, their balance and the step count."""
    norm = float(record.norm[-1])
    absorbed = state.absorbed_left + state.absorbed_right
    return {
        "norm": norm,
        "absorbed_left": float(state.absorbed_left),
        "absorbed_right": float(state.absorbed_right),
        "balance": 1.0 - norm - absorbed,
        "steps": int(record.steps),
    }


_PULSE_CENTER = 0.625   # of the run: where the pulse peaks
_SETTLE = 0.375         # of the run: the static baseline starts here


def enhancement_exponent(barrier: TriangularBarrier, pulse, grid: GridSpec) -> dict:
    """Measured exponent reduction ln(peak pulsed escape flux / static flux).

    Runs the static and pulsed evolutions from the same prepared state, as one
    batch.  The prepared state sheds a transient flux burst while it settles
    into quasi-stationary decay, so the pulse is centered at 5/8 of the run
    and the baseline flux is the static median after 3/8 of the run; the
    pulsed peak is searched only within four pulse durations of the center.
    Exponent-only comparison.
    The result's "diagnostics" hold, for each run, the final norm, the
    absorbed fractions, the balance 1 - norm - absorbed and the step count,
    plus the settle time, the pulse center and the peak-search half-width.
    """
    state, pot = prepare_metastable(barrier, grid)
    det = 1.3 * barrier.exit_point
    t0 = _PULSE_CENTER * grid.t_final
    settle = _SETTLE * grid.t_final
    shifted = pulse if isinstance(pulse, ZeroPulse) else _ShiftedPulse(pulse, t0)
    (out_static, rec_static), (out_pulsed, rec_pulsed) = evolve(
        state, pot, (ZeroPulse(), shifted), grid, detector_x=det
    )
    gamma0 = _static_rate(rec_static)
    if gamma0 < 1e-300 or not np.isfinite(gamma0):
        raise ConvergenceError(
            "static rate below the double-precision floor (exponent too large "
            "for a desk-scale oracle)"
        )
    flux0 = float(np.median(rec_static.flux[rec_static.times > settle]))
    half_width = 4.0 * _pulse_duration(pulse)
    window = np.abs(rec_pulsed.times - t0) < half_width
    if not np.any(window):
        raise ConvergenceError("pulse window lies outside the simulated times")
    peak = float(np.max(rec_pulsed.flux[window]))
    if peak <= 0 or flux0 <= 0:
        raise ConvergenceError("escape flux not resolved above noise")
    # exponent reduction A0 - A >= 0: pulsed peak flux exceeds the static one
    delta_A = math.log(peak / flux0)
    i_peak = int(np.argmax(rec_pulsed.flux[window]))
    return {
        "delta_A": delta_A,
        "static_rate": gamma0,
        "static_exponent": -math.log(gamma0 / (2.0 * (barrier.V - barrier.E_bound))),
        "static_flux": flux0,
        "peak_flux": peak,
        "peak_time": float(rec_pulsed.times[window][i_peak] - t0),
        "diagnostics": {
            "static": _health(out_static, rec_static),
            "pulsed": _health(out_pulsed, rec_pulsed),
            "settle_time": float(settle),
            "pulse_center": float(t0),
            "peak_half_width": float(half_width),
        },
    }


class _ShiftedPulse:
    """Pulse recentered at t0 for use inside a finite simulation window."""

    def __init__(self, pulse, t0):
        self.pulse = pulse
        self.t0 = t0

    def __call__(self, t):
        return self.pulse(t - self.t0)
