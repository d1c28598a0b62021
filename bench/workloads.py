"""Workloads of the pulsetunnel benchmark.

Each workload draws its inputs from a seed, defines one round of operations
(the run repeats whole rounds), and checks the outputs of the operations
that succeeded against closed forms computed here, the mpmath references in
references.json, other methods of the package, and properties the method
must have.  The package is driven from outside: through `pulsetunnel.cli.main`
and the public functions of its modules, always looked up as module
attributes so the tracer can wrap them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from pulsetunnel import cli, euclidean, hj, model, tdse, trajectory

REFERENCES = Path(__file__).resolve().parent / "references.json"


class OperationFailed(Exception):
    """An operation returned an error instead of a result."""


# --- closed forms, computed independently of the package -------------------------

def triangular_tau00(V, E, e0, m=1.0):
    return math.sqrt(2.0 * m * (V - E)) / e0


def triangular_A0(V, E, e0, m=1.0):
    """Static exponent (4/3)(V - E) tau00."""
    return (4.0 / 3.0) * (V - E) * triangular_tau00(V, E, e0, m)


def sech_A0(V, a, m, E):
    """Static exponent 2 pi a sqrt(2m) (sqrt(V) - sqrt(E)) of V/cosh^2(x/a)."""
    return 2.0 * math.pi * a * math.sqrt(2.0 * m) * (math.sqrt(V) - math.sqrt(E))


def sech_tau_s(E, a, m):
    """Imaginary part pi/(2 omega) of the sech^2 trajectory branch point."""
    return math.pi * a * math.sqrt(m) / (2.0 * math.sqrt(2.0 * E))


# --- helpers -----------------------------------------------------------------------

def run_cli(argv: list[str], out: Path) -> bytes:
    """One CLI invocation writing its CSV to `out`; returns the CSV bytes."""
    code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise OperationFailed(f"pulsetunnel {' '.join(argv)} exited with {code}")
    data = out.read_bytes()
    if b",error" in data:
        raise OperationFailed(f"pulsetunnel {' '.join(argv)} reported error rows")
    return data


def parse_csv(data: bytes) -> tuple[list[str], list[dict]]:
    """Header comment lines and the rows as dicts of floats (or strings)."""
    header, rows, columns = [], [], None
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append({k: _cell(v) for k, v in zip(columns, line.split(","))})
    return header, rows


def _cell(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else math.inf


def fmt(x: float) -> str:
    return repr(float(x))


class Checks:
    """Collects the failed checks of a workload."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def identical(self, outputs: dict) -> None:
        for label, outs in outputs.items():
            self.expect(all(o == outs[0] for o in outs[1:]),
                        f"{label}: output differs between rounds")

    def csv(self, label: str, data: bytes, out: Path) -> list[dict]:
        header, rows = parse_csv(data)
        self.expect(f"#   out: {out}" in header,
                    f"{label}: CSV header does not embed the --out path")
        return rows


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    # one result is one operation, or one whole round if this is set
    result_is_round = False

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir

    def operations(self) -> list[tuple[str, object]]:
        """One round: (label, zero-argument callable) pairs."""
        raise NotImplementedError

    def check(self, outputs: dict[str, list]) -> list[str]:
        """Problems found in the outputs of the successful operations."""
        raise NotImplementedError

    def out(self, label: str) -> Path:
        return self.out_dir / f"{label}.csv"


# --- oracle ------------------------------------------------------------------------

class Oracle(Workload):
    """Split-operator oracle on the A0 = 16 triangular configuration.

    The seed draws the pulse amplitude as a fraction of the static field; the
    cost (grid, steps, well tuning) does not depend on it.
    """

    name = "oracle"
    V, E, m, A0 = 2.0, 1.0, 1.0, 16.0

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        e0 = 4.0 * math.sqrt(2.0 * self.m * (self.V - self.E)) / (3.0 * self.A0)
        self.barrier = model.TriangularBarrier(V=self.V, E_bound=self.E,
                                               field_static=e0, m=self.m)
        self.pulse = model.LorentzPulse(
            amplitude=self.rng.uniform(0.45, 0.55) * e0, width=10.0, exponent=3)
        # 2048 points and t_final = 100 keep a result near 10 s; the static
        # exponent comes out at 14.8 against 16 and dA within 7% of the
        # euclidean prediction (4096 points and t_final = 200: 15.6, 6%)
        self.grid = tdse.GridSpec(-30.0, 50.0, 2048, 0.005, 100.0)

    def operations(self):
        return [("enhancement_exponent",
                 lambda: tdse.enhancement_exponent(self.barrier, self.pulse,
                                                   self.grid))]

    def check(self, outputs):
        c = Checks()
        c.identical(outputs)
        b = self.barrier
        static = triangular_A0(b.V, b.E_bound, b.field_static, b.m)
        semi = euclidean.euclidean_action(b.E_bound, b, self.pulse)
        predicted = semi.A0 - semi.A
        c.expect(rel(semi.A0, static) < 1e-12, "euclidean A0 != closed form")
        c.expect(predicted > 1.0, f"predicted enhancement {predicted} <= 1")
        for res in outputs.get("enhancement_exponent", [])[:1]:
            c.expect(rel(res["static_exponent"], static) < 0.15,
                     f"static exponent {res['static_exponent']} vs {static}")
            c.expect(rel(res["delta_A"], predicted) < 0.20,
                     f"oracle dA {res['delta_A']} vs euclidean {predicted}")
        return c.problems


# --- pole-gap scan -----------------------------------------------------------------

class PoleScan(Workload):
    """Trajectory action curve on the sech^2 barrier through the CLI.

    Four energies whose gap between pulse pole and trajectory branch point
    runs from about 30% down to about 2% of the pulse width.
    """

    name = "pole_scan"
    a, m, n, points = 1.0, 1.0, 2, 4

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        r = self.rng
        self.V = r.uniform(1.2, 1.6)
        self.theta = r.uniform(1.9, 2.3)
        self.amp = r.uniform(0.004, 0.01)
        g_lo, g_hi = r.uniform(0.019, 0.021), r.uniform(0.29, 0.31)
        self.E_lo, self.E_hi = self.energy_at_gap(g_lo), self.energy_at_gap(g_hi)
        self.argv = [
            "action-curve", "--barrier", "sech", "--V", fmt(self.V),
            "--a", fmt(self.a), "--m", fmt(self.m), "--pulse", "lorentz",
            "--amp", fmt(self.amp), "--theta", fmt(self.theta),
            "--n", str(self.n), "--method", "trajectory",
            "--E-grid", f"{fmt(self.E_lo)}:{fmt(self.E_hi)}:{self.points}",
        ]

    def energy_at_gap(self, gap_frac: float) -> float:
        """Energy whose branch point sits gap_frac*theta below the pulse pole."""
        return (math.pi**2 * self.a**2 * self.m
                / (8.0 * self.theta**2 * (1.0 - gap_frac) ** 2))

    def operations(self):
        return [("action_curve", lambda: run_cli(self.argv, self.out("pole_scan")))]

    def check(self, outputs):
        c = Checks()
        c.identical(outputs)
        barrier = model.SechBarrier(V=self.V, a=self.a, m=self.m)
        pulse = model.LorentzPulse(amplitude=self.amp, width=self.theta,
                                   exponent=self.n)
        for data in outputs.get("action_curve", [])[:1]:
            rows = c.csv("pole_scan", data, self.out("pole_scan"))
            c.expect(len(rows) == self.points,
                     f"pole_scan: {len(rows)} rows, expected {self.points}")
            for r in rows:
                E, dA = r["E"], r["deltaA"]
                c.expect(rel(r["A0"], sech_A0(self.V, self.a, self.m, E)) < 1e-8,
                         f"E={E}: A0 {r['A0']} != closed form")
                c.expect(abs(r["A"] - (r["A0"] + dA)) <= 1e-10 * abs(r["A"]),
                         f"E={E}: A != A0 + deltaA")
                c.expect(dA < 0, f"E={E}: deltaA {dA} >= 0")
                gap = self.theta - sech_tau_s(E, self.a, self.m)
                at_closed = trajectory.delta_action(E, barrier, pulse,
                                                    -gap / math.sqrt(3.0))
                # the minimizer's own quadrature runs at epsrel 1e-8
                c.expect(dA <= at_closed + 1e-7 * abs(at_closed),
                         f"E={E}: minimized dA {dA} > dA(-gap/sqrt3) {at_closed}")
            mags = [abs(r["deltaA"]) for r in rows]      # gap grows with E
            c.expect(all(x > y for x, y in zip(mags, mags[1:])),
                     f"|deltaA| does not grow as the gap closes: {mags}")
        refs = load_references()
        for ref in refs["delta_action"]:
            value = trajectory.delta_action(
                ref["E"], model.SechBarrier(V=ref["V"], a=ref["a"], m=ref["m"]),
                model.LorentzPulse(amplitude=ref["amp"], width=float(ref["theta"]),
                                   exponent=ref["n"]),
                float(ref["dt_shift"]))
            c.expect(rel(value, float(ref["value"])) < 1e-9,
                     f"delta_action at gap {ref['gap_frac']}: {value} vs "
                     f"mpmath {ref['value']}")
        for ref in refs["static_wkb"]:
            if ref["barrier"] == "sech":
                value = model.static_wkb_exponent(
                    model.SechBarrier(V=ref["V"], a=ref["a"], m=ref["m"]), ref["E"])
                c.expect(rel(value, float(ref["value"])) < 1e-10,
                         f"sech static exponent {value} vs mpmath {ref['value']}")
        return c.problems


# --- Hamilton-Jacobi corrections ---------------------------------------------------

def corrections(barrier, pulse, x: float):
    """Exit-branch saddle, action, sigma1 and sigma2 at (x, t = 0)."""
    state = hj.solve_t0(x, 0.0, barrier, pulse, branch="exit")
    S = hj.action(x, 0.0, barrier, pulse, state)
    return (state.t0, S, hj.sigma1(state, barrier, pulse),
            hj.sigma2(state, barrier, pulse))


class HjCorrections(Workload):
    """solve_t0, action, sigma1 and sigma2 at three exit-branch points.

    One result is the corrections at one point; a round runs the three.

    The inputs do not depend on the seed.  The cost of sigma2 jumps several
    fold with small changes of its input (the small-amplitude case takes
    1.7 s to 7.5 s for z/z2 between 0.49 and 0.51, and the deep case 0.5 s
    to 7.7 s for amplitudes between 0.045 and 0.055), so drawn inputs would
    make runs on different seeds incomparable.
    """

    name = "hj_corrections"
    n = 3
    z_frac = 0.5

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.canon = model.TriangularBarrier(V=10.0, E_bound=5.0,
                                             field_static=1.0, m=1.0)
        self.canon_pulse = model.LorentzPulse(amplitude=0.05, width=2.0,
                                              exponent=self.n)
        self.small_pulse = model.LorentzPulse(amplitude=1e-5, width=2.0,
                                              exponent=self.n)
        self.small_x = self._interior_x(self.canon, self.small_pulse, self.z_frac)
        self.deep = model.TriangularBarrier(V=30.0, E_bound=10.0,
                                            field_static=1.0, m=1.0)
        self.deep_pulse = model.LorentzPulse(amplitude=0.05, width=3.0,
                                             exponent=self.n)

    @staticmethod
    def x1(b, p) -> float:
        return b.field_static * p.width**2 / (2.0 * b.m)

    def z2(self, b, p) -> float:
        tau00 = triangular_tau00(b.V, b.E_bound, b.field_static, b.m)
        base = p.amplitude / b.field_static * p.width / (2**self.n * (tau00 - p.width))
        return base ** (1.0 / self.n)

    def _interior_x(self, b, p, z_frac) -> float:
        """Coordinate between x1 and x2 whose saddle sits at z = z_frac * z2."""
        th, n = p.width, self.n
        tau0 = th * (1.0 - z_frac * self.z2(b, p))
        p0 = math.sqrt(2.0 * b.m * (b.V - b.E_bound))
        wtilde = (p.amplitude * th**2 / (2.0 * (n - 1))
                  * ((1.0 - tau0**2 / th**2) ** (1 - n) - 1.0))
        return (tau0 * p0 - 0.5 * b.field_static * tau0**2 - wtilde) / b.m

    def operations(self):
        canon, deep = self.canon, self.deep
        return [
            ("canon_x1", lambda: corrections(canon, self.canon_pulse,
                                             self.x1(canon, self.canon_pulse))),
            ("small_amp_interior", lambda: corrections(canon, self.small_pulse,
                                                       self.small_x)),
            ("deep_x1", lambda: corrections(deep, self.deep_pulse,
                                            self.x1(deep, self.deep_pulse))),
        ]

    def check(self, outputs):
        c = Checks()
        c.identical(outputs)
        first = {label: outs[0] for label, outs in outputs.items()}
        if "canon_x1" in first:
            self._check_canon(c, first["canon_x1"])
        if "small_amp_interior" in first:
            self._check_small(c, first["small_amp_interior"])
        if "deep_x1" in first:
            _, S, s1, s2 = first["deep_x1"]
            c.expect(abs(S) > 5.0 * abs(s1) > 25.0 * abs(s2),
                     f"deep: hierarchy |S|={abs(S)} |s1|={abs(s1)} |s2|={abs(s2)}")
        return c.problems

    def _check_canon(self, c: Checks, res) -> None:
        b, p = self.canon, self.canon_pulse
        t0, S, s1, _ = res
        A = euclidean.euclidean_action(b.E_bound, b, p).A
        c.expect(rel(2.0 * S.imag, A) < 1e-4,
                 f"canon: 2 Im S {2.0 * S.imag} vs euclidean A {A}")
        c.expect(abs(t0.real) < 1e-10 and 0.0 < t0.imag < p.width,
                 f"canon: exit saddle {t0} not on (0, i theta)")
        # Im(i sigma1) at the exit point is exactly -pi/2 at leading order
        c.expect(abs((1j * s1).imag + 0.5 * math.pi) < 1e-6,
                 f"canon: Im(i sigma1) {(1j * s1).imag} != -pi/2")

    def _check_small(self, c: Checks, res) -> None:
        b, p, n = self.canon, self.small_pulse, self.n
        s2 = res[3]
        z2 = self.z2(b, p)
        z = self.z_frac * z2
        tau00 = triangular_tau00(b.V, b.E_bound, b.field_static, b.m)
        ratio_n = (z2 / z) ** n
        expected = ((3 * n * (n + 1) + n * (2 * n - 3) * ratio_n)
                    / (48.0 * (b.V - b.E_bound) * p.width * z2**2
                       * (1.0 - p.width / tau00) * (1.0 - ratio_n) ** 3)
                    * (z2 / z) ** (n + 2))
        c.expect(rel((1j * s2).real, expected) < 0.15,
                 f"small amplitude: Re(i sigma2) {(1j * s2).real} vs "
                 f"interior asymptote {expected}")


# --- short CLI sweeps --------------------------------------------------------------

class CliSweeps(Workload):
    """Many short CLI invocations on the triangular barrier (no TDSE, no sigma2).

    One result is one sweep of the seven invocations: they take from 1 ms to
    tens of ms each, so the median of single invocations would jump between
    kinds of invocation.
    """

    name = "cli_sweeps"
    result_is_round = True
    E0, m, n = 1.0, 1.0, 3
    # the CLI's own hj-vs-euclidean window (1e-4) holds only near this point,
    # so the verify configuration is not drawn from the seed
    VERIFY = ["verify", "--V", "10", "--E0", "1", "--E", "5", "--amp", "0.05",
              "--theta", "1.8", "--n", "3"]

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        r = self.rng
        self.V = r.uniform(9.5, 10.5)
        self.theta = r.uniform(1.9, 2.1)
        self.amp = 0.05
        self.E_T = self.V - self.theta**2 * self.E0**2 / (2.0 * self.m)
        self.E_rate = r.uniform(0.55, 0.65) * self.E_T
        self.E_target = r.uniform(0.75, 0.85) * self.V
        self.sech = (r.uniform(0.8, 1.2), r.uniform(0.8, 1.2), r.uniform(0.4, 0.6))
        tri = ["--V", fmt(self.V), "--E0", fmt(self.E0), "--m", fmt(self.m),
               "--theta", fmt(self.theta), "--n", str(self.n)]
        lo, hi = fmt(0.4 * self.E_T), fmt(0.7 * self.E_T)
        Vs, a, Es = self.sech
        self.commands = {
            "curve60": ["action-curve", *tri, "--amp", "0.002",
                        "--E-grid", f"{fmt(0.3 * self.E_T)}:{fmt(0.8 * self.E_T)}:60"],
            "hj": ["action-curve", "--method", "hj", *tri, "--amp", fmt(self.amp),
                   "--E-grid", f"{lo}:{hi}:4"],
            "quanta": ["action-curve", "--method", "quanta", *tri,
                       "--amp", fmt(self.amp), "--E-grid", f"{lo}:{hi}:2"],
            "rate": ["rate", *tri, "--amp", fmt(self.amp), "--E", fmt(self.E_rate)],
            "adapt_triangular": ["adapt", *tri, "--amp", fmt(self.amp),
                                 "--E", fmt(self.E_target)],
            "adapt_sech": ["adapt", "--barrier", "sech", "--V", fmt(Vs),
                           "--a", fmt(a), "--E", fmt(Es), "--amp", fmt(self.amp)],
            "verify": self.VERIFY,
        }

    def operations(self):
        return [(label, lambda argv=argv, label=label: run_cli(argv, self.out(label)))
                for label, argv in self.commands.items()]

    def A0(self, E):
        return triangular_A0(self.V, E, self.E0, self.m)

    def check(self, outputs):
        c = Checks()
        c.identical(outputs)
        rows = {label: c.csv(label, outs[0], self.out(label))
                for label, outs in outputs.items()}
        V, th, n = self.V, self.theta, self.n

        if "curve60" in rows:
            r = rows["curve60"]
            c.expect(len(r) == 60, "curve60: row count")
            c.expect(all(x["regime"] == "below-threshold" for x in r),
                     "curve60: regime")
            c.expect(all(rel(x["A0"], self.A0(x["E"])) < 1e-8 for x in r),
                     "curve60: A0 != (4/3)(V-E)tau00")
            slope = np.polyfit([x["E"] for x in r], [x["A"] for x in r], 1)[0]
            c.expect(rel(slope, -2.0 * th) < 0.02,
                     f"curve60: slope {slope} vs -2 theta = {-2.0 * th}")
        if "hj" in rows:
            r = rows["hj"]
            c.expect(all(rel(x["A0"], self.A0(x["E"])) < 1e-8 for x in r),
                     "hj: A0 != closed form")
            c.expect(all(x["A"] < x["A0"] for x in r), "hj: A >= A0")
            As = [x["A"] for x in r]
            c.expect(all(a > b for a, b in zip(As, As[1:])), "hj: A not decreasing")
        if "quanta" in rows:
            for x in rows["quanta"]:
                E = x["E"]
                c.expect(x["A_eff"] <= self.A0(E) * (1.0 + 1e-9),
                         f"quanta E={E}: A_eff above the static exponent")
                c.expect(x["omega_opt"] > 0 and x["N_opt"] >= 0
                         and x["omega_opt"] * x["N_opt"] < V - E,
                         f"quanta E={E}: lifted energy outside (E, V)")
        if "rate" in rows:
            r = rows["rate"]
            E = self.E_rate
            tau00 = triangular_tau00(V, E, self.E0, self.m)
            quart = 2.0 * (n - 1) * (V - E) / (th * tau00**2)
            exp0 = 2.0 * (V - E) * th * (1.0 - th**2 / (3.0 * tau00**2))
            t_peak = (1.0 / (4.0 * quart)) ** 0.25
            ts = [x["t"] for x in r]
            c.expect(len(r) == 60 and all(x["rate"] > 0 for x in r),
                     "rate: rows or signs")
            c.expect(all(rel(x["exponent"], exp0 + quart * x["t"] ** 4) < 1e-8
                         for x in r), "rate: exponent != closed form")
            t_max = max(r, key=lambda x: x["rate"])["t"]
            c.expect(abs(t_max - t_peak) <= ts[1] - ts[0],
                     f"rate: peak at {t_max}, closed form {t_peak}")
        if "adapt_triangular" in rows:
            Et = self.E_target
            theta_t = triangular_tau00(V, Et, self.E0, self.m)
            for x in rows["adapt_triangular"]:
                El = x["E_launch"]
                A_pred = (4.0 / 3.0) * (V - Et) * theta_t + 2.0 * (Et - El) * theta_t
                c.expect(rel(x["theta"], theta_t) < 1e-10
                         and rel(x["A0"], self.A0(El)) < 1e-8
                         and rel(x["A_pred"], A_pred) < 1e-8,
                         f"adapt_triangular E_launch={El}: closed forms")
        if "adapt_sech" in rows:
            Vs, a, Es = self.sech
            for x in rows["adapt_sech"]:
                c.expect(rel(x["theta"], sech_tau_s(Es, a, 1.0)) < 1e-10
                         and rel(x["Im_t_s"], x["theta"]) < 1e-10
                         and rel(x["A0_at_target"], sech_A0(Vs, a, 1.0, Es)) < 1e-8,
                         "adapt_sech: closed forms")
        if "verify" in rows:
            by_check = {x["check"]: x for x in rows["verify"]}
            hjv = by_check.get("hj_vs_euclidean")
            c.expect(hjv is not None and hjv["status"] == "pass"
                     and hjv["rel_deviation"] < 1e-4,
                     "verify: 2 Im S not within 1e-4 of the euclidean A")
        ref = next(r for r in load_references()["static_wkb"]
                   if r["barrier"] == "triangular")
        value = model.static_wkb_exponent(
            model.TriangularBarrier(V=ref["V"], E_bound=ref["E"],
                                    field_static=ref["field_static"], m=ref["m"]),
            ref["E"])
        c.expect(rel(value, float(ref["value"])) < 1e-12,
                 f"triangular static exponent {value} vs mpmath {ref['value']}")
        return c.problems


WORKLOADS = {w.name: w for w in (Oracle, PoleScan, HjCorrections, CliSweeps)}
