"""Command-line driver: parameter parsing, method routing, CSV emission.

Subcommands
-----------
action-curve : A(E), A0(E), deltaE(E) over an energy grid.
rate         : time-resolved escape flux for the pulsed triangular barrier.
adapt        : recommend a pulse width (and amplitude window) for a target energy.
verify       : cross-method comparison table on one configuration.

CSV files open with a YAML-style commented header capturing the full run
configuration and the package version; identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 regime/validity error (a bad
config, a file error or arithmetic beyond double precision included),
3 numerical non-convergence.  A result that is not finite is a RegimeError:
an error row in an action curve, exit 2 for any other command.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .errors import (
    ConvergenceError,
    DomainError,
    PulseTunnelError,
    RegimeError,
    SingularityError,
)
from .euclidean import (
    adapt_pulse_width,
    euclidean_action,
    euclidean_actions,
    threshold_energy,
    threshold_form,
)
from .hj import (
    amp_lower_bound,
    decay_rate_series,
    exit_exponent,
    exit_exponents,
    rate_peak_time,
)
from .model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)
from .quanta import optimize_quanta
from .trajectory import (
    minimize_delta_action,
    minimize_delta_actions,
    pole_form,
    unperturbed_trajectory,
)

EXIT_OK = 0
EXIT_REGIME = 2
EXIT_NONCONVERGENCE = 3


# --- Run configuration ------------------------------------------------------------

# the values a string field accepts, checked by RunConfig.validate and listed
# by --help
_CHOICES = {
    "barrier": ("triangular", "sech"),
    "pulse": ("lorentz", "gauss", "zero"),
    "method": ("hj", "euclidean", "trajectory", "quanta", "auto"),
}


@dataclass
class RunConfig:
    """Run parameters.  Each field is a command-line flag (--name, with - for
    _) and a --config key of the same name; both reach from_mapping as text,
    which is their one conversion, and validate is their one check."""

    barrier: str = "triangular"
    V: float = 10.0
    E0: float = 1.0                     # static field of the triangular barrier
    a: float = 1.0                      # sech barrier width
    m: float = 1.0
    pulse: str = "lorentz"
    amp: float = 0.0
    theta: float = 2.0                  # Lorentzian width
    n: int = 3                          # Lorentzian exponent
    omega_rate: float = 1.0             # Gaussian rate
    E: float | None = None
    E_grid: str | None = None           # "start:stop:num"
    method: str = "auto"
    out: str | None = None
    tol: float = 1e-6
    t_grid: str | None = None

    def validate(self) -> None:
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise DomainError(f"unknown {key} {getattr(self, key)!r}")
        if not math.isfinite(self.tol):
            raise DomainError(f"tol must be finite, got {self.tol}")
        # physical invariants re-checked by constructing the model objects
        self.make_barrier(E_hint=self.E)
        self.make_pulse()

    def make_barrier(self, E_hint: float | None = None):
        if self.barrier == "triangular":
            E_bound = E_hint if E_hint is not None else 0.5 * self.V
            return TriangularBarrier(
                V=self.V, E_bound=E_bound, field_static=self.E0, m=self.m
            )
        return SechBarrier(V=self.V, a=self.a, m=self.m)

    def make_pulse(self):
        if self.pulse == "zero" or self.amp == 0.0:
            return ZeroPulse()
        if self.pulse == "lorentz":
            return LorentzPulse(amplitude=self.amp, width=self.theta,
                                exponent=self.n)
        return GaussianPulse(amplitude=self.amp, rate=self.omega_rate)

    def energies(self) -> list[float]:
        if self.E_grid:
            return _parse_grid(self.E_grid, "--E-grid")
        if self.E is not None:
            return [self.E]
        raise DomainError("provide --E or --E-grid")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        kwargs = {}
        for key, raw in mapping.items():
            field = cls.__dataclass_fields__.get(key)
            if field is None:
                raise DomainError(f"unknown config key {key!r}")
            # the annotation names the type: "float", "int", "str | None", ...
            convert = {"float": float, "int": int}.get(field.type.split()[0], str)
            try:
                kwargs[key] = convert(raw)
            except ValueError:
                raise DomainError(f"{key!r} has a bad value {raw!r}") from None
        return cls(**kwargs)


def _parse_grid(spec: str, flag: str) -> list[float]:
    """Points of a "start:stop:num" grid; both ends are included, so num >= 2."""
    try:
        start, stop, num = spec.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError:
        raise DomainError(f"{flag} must be start:stop:num, got {spec!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"{flag} needs finite ends, got {spec!r}")
    if num < 2:
        raise DomainError(f"{flag} needs num >= 2 (both ends are included), "
                          f"got {spec!r}")
    return _grid(start, stop, num)


def _grid(start: float, stop: float, num: int) -> list[float]:
    return [start + (stop - start) * i / (num - 1) for i in range(num)]


def _format(v) -> str:
    """A config value or CSV cell: floats to 12 significant digits, None as nan."""
    if v is None:
        return "nan"
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


# --- CSV emission -----------------------------------------------------------------

def write_csv(stream, command: str, config: RunConfig, columns, rows) -> None:
    stream.write(f"# pulsetunnel: {__version__}\n")
    stream.write(f"# command: {command}\n")
    stream.write("# config:\n")
    for key, value in asdict(config).items():
        if value is not None:
            stream.write(f"#   {key}: {_format(value)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format(c) for c in row) + "\n")


def read_csv_config(path: str) -> RunConfig:
    """Reload the RunConfig embedded in a CSV header (round-trip support)."""
    mapping = {}
    in_config = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body == "config:":
                in_config = True
                continue
            if in_config and ":" in body:
                key, _, value = body.partition(":")
                mapping[key.strip()] = value.strip()
    return RunConfig.from_mapping(mapping)


def _emit(command: str, config: RunConfig, columns, rows) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, command, config, columns, rows)
    else:
        write_csv(sys.stdout, command, config, columns, rows)


# --- Subcommands ------------------------------------------------------------------

# The cells after E of the action-curve rows, per method: rows(energies,
# config, pulse) gives each energy its cells or the PulseTunnelError it raised.
# The solvers are looked up as module globals at call time, so a wrapper
# installed on those names sees every call.

def _euclidean_rows(energies, config, pulse):
    # the Euclidean route reads no E_bound, so one barrier serves the grid
    return [res if isinstance(res, PulseTunnelError)
            else (res.A, res.A0, res.deltaE, res.regime)
            for res in euclidean_actions(energies, config.make_barrier(), pulse)]


def _trajectory_rows(energies, config, pulse):
    # the sech^2 barrier does not depend on E, so one barrier serves the grid
    return [res if isinstance(res, PulseTunnelError)
            else (res.A, res.A0, res.dA, "perturbative")
            for res in minimize_delta_actions(energies, config.make_barrier(),
                                              pulse)]


def _hj_rows(energies, config, pulse):
    # exit_exponents sets each energy's E_bound, and A0 reads none
    barrier = config.make_barrier()
    return [A if isinstance(A, PulseTunnelError)
            else (A, static_wkb_exponent(barrier, E), None, "hj")
            for E, A in zip(energies, exit_exponents(energies, barrier, pulse))]


def _quanta_rows(energies, config, pulse):
    out = []
    for E in energies:
        try:
            plan = optimize_quanta(E, config.make_barrier(E_hint=E), pulse)
            out.append((plan.A_eff, plan.omega, plan.N, "quanta"))
        except PulseTunnelError as exc:
            out.append(exc)
    return out


# method -> (barrier it needs, CSV columns, rows over the energy grid)
_CURVE_METHODS = {
    "euclidean": ("triangular", ["E", "A", "A0", "deltaE", "regime"],
                  _euclidean_rows),
    "hj": ("triangular", ["E", "A", "A0", "deltaE", "regime"], _hj_rows),
    "trajectory": ("sech", ["E", "A", "A0", "deltaA", "regime"],
                   _trajectory_rows),
    "quanta": ("triangular", ["E", "A_eff", "omega_opt", "N_opt", "regime"],
               _quanta_rows),
}


def cmd_action_curve(config: RunConfig) -> tuple[list[str], list[tuple]]:
    """One row per energy; an energy the method cannot solve gives an
    error:<class> row, while a barrier the method cannot use is a RegimeError."""
    energies = config.energies()
    method = config.method
    if method == "auto":
        method = "euclidean" if config.barrier == "triangular" else "trajectory"
    needs, columns, rows = _CURVE_METHODS[method]
    if config.barrier != needs:
        raise RegimeError(f"the {method} method needs the {needs} barrier")
    if exc := _non_finite(columns[:1] * len(energies), energies):
        raise exc       # a grid point overflowed, or --E with the sech barrier
    out = []
    for E, cells in zip(energies, rows(energies, config, config.make_pulse())):
        if not isinstance(cells, PulseTunnelError):
            cells = _non_finite(columns[1:], cells) or cells
        if isinstance(cells, PulseTunnelError):
            cells = (None, None, None, f"error:{type(cells).__name__}")
        out.append((E, *cells))
    return columns, out


def _non_finite(columns, row) -> RegimeError | None:
    """The RegimeError of a result row with a float cell that is not finite."""
    for name, cell in zip(columns, row):
        if isinstance(cell, float) and not math.isfinite(cell):
            return RegimeError(f"{name} = {cell} is not finite; the inputs "
                               "leave double-precision range")
    return None


def cmd_rate(config: RunConfig) -> tuple[list[str], list[tuple]]:
    if config.barrier != "triangular":
        raise RegimeError("the time-resolved rate needs the triangular barrier")
    barrier = config.make_barrier(E_hint=config.E)
    pulse = config.make_pulse()
    t_peak = rate_peak_time(barrier, pulse)
    if config.t_grid:
        times = _parse_grid(config.t_grid, "--t-grid")
    else:
        times = _grid(0.05 * t_peak, 4.0 * t_peak, 60)
    series = decay_rate_series(times, barrier, pulse)
    rows = list(zip(series.times, series.rate, series.exponent,
                    series.prefactor))
    return ["t", "rate", "exponent", "prefactor"], rows


def cmd_adapt(config: RunConfig) -> tuple[list[str], list[tuple]]:
    """Pulse width matched to the target energy, plus the amplitude window.

    The recommended width places the pulse singularity at the trajectory
    singularity of the target energy (so the threshold energy equals the
    target).  The minimum amplitude ratio and the predicted exponent are
    launch-energy dependent, so they are tabulated over launch energies
    below the target (--E-grid, default 0.3..0.9 of the target).
    """
    E_target = config.E
    barrier = config.make_barrier(E_hint=E_target)
    theta = adapt_pulse_width(barrier, E_target)
    if config.barrier == "sech":
        traj = unperturbed_trajectory(E_target, barrier)
        A0 = static_wkb_exponent(barrier, E_target)
        rows = [(E_target, theta, traj.t_s.imag, A0)]
        return ["E_target", "theta", "Im_t_s", "A0_at_target"], rows

    launches = (config.energies() if config.E_grid
                else [E_target * (0.3 + 0.1 * i) for i in range(7)])
    rows = []
    for E_launch in launches:
        b = config.make_barrier(E_hint=E_launch)
        probe = LorentzPulse(amplitude=max(config.amp, 1e-6), width=theta,
                             exponent=config.n)
        amp_min = amp_lower_bound(b, probe) * config.E0
        A0 = static_wkb_exponent(b, E_launch)
        A_pred = threshold_form(E_launch, E_target, config.V, theta)
        rows.append((E_launch, theta, amp_min, A_pred, A0, A0 - A_pred))
    return ["E_launch", "theta", "amp_min", "A_pred", "A0", "enhancement"], rows


def cmd_verify(config: RunConfig) -> tuple[list[str], list[tuple]]:
    rows = []
    b = config.make_barrier(E_hint=config.E)
    pulse = config.make_pulse()
    if config.barrier == "triangular":
        res = euclidean_action(config.E, b, pulse)
        rows.append(("euclidean_A", res.A, res.A, 0.0, "pass"))
        if isinstance(pulse, LorentzPulse) and pulse.width < b.tau00:
            A_hj = exit_exponent(b, pulse)
            dev = abs(A_hj - res.A) / abs(res.A)
            rows.append(("hj_vs_euclidean", A_hj, res.A, dev,
                         "pass" if dev < max(config.tol, 1e-4) else "fail"))
            A51 = threshold_form(config.E, threshold_energy(b, pulse), b.V,
                                 pulse.width)
            dev51 = abs(res.A - A51) / abs(A51)
            rows.append(("euclidean_vs_threshold_form", res.A, A51, dev51,
                         "info"))
    else:
        dA_form, dt_form = pole_form(config.E, b, pulse)
        res = minimize_delta_action(config.E, b, pulse)
        dev = abs(res.dA - dA_form) / abs(dA_form)
        rows.append(("trajectory_dA_vs_pole_form", res.dA, dA_form, dev,
                     "info"))
        devdt = abs(res.dt_shift - dt_form) / abs(dt_form)
        rows.append(("dt_shift_vs_closed_form", res.dt_shift, dt_form, devdt,
                     "info"))
    if any(r[4] == "fail" for r in rows):
        raise ConvergenceError("verification failed", diagnostics={"rows": rows})
    return ["check", "value", "reference", "rel_deviation", "status"], rows


# --- Entry point ------------------------------------------------------------------

_COMMANDS = {
    "action-curve": cmd_action_curve,
    "rate": cmd_rate,
    "adapt": cmd_adapt,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (its subcommands' too) that raises its errors, an
    unknown flag or a flag without its value, as DomainError: main's one
    "regime error:" line and exit 2, not argparse's usage text."""

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call: a subcommand per
    _COMMANDS entry, each with a flag per RunConfig field.  The flags keep
    their values as text for RunConfig.from_mapping, and list the _CHOICES
    in --help.  parse_args leaves the parser unchanged, so one parser serves
    every main() in the process."""
    p = _Parser(
        prog="pulsetunnel",
        description="Semiclassical tunneling exponents under soft pulses",
    )
    p.add_argument("--config", help="key=value file mirroring the flags")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        for field in fields(RunConfig):
            choices = _CHOICES.get(field.name)
            metavar = "{" + ",".join(choices) + "}" if choices else None
            sp.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                            metavar=metavar)
    return p


def _load_config_file(path: str) -> dict:
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise DomainError(f"config line {line!r} is not key = value")
            mapping[key.strip()] = value.strip()
    return mapping


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        mapping = _load_config_file(args.config) if args.config else {}
        for key, value in vars(args).items():
            if key not in ("command", "config") and value is not None:
                mapping[key] = value
        config = RunConfig.from_mapping(mapping)
        config.validate()
        if config.E is None and args.command != "action-curve":
            raise DomainError(f"{args.command} needs --E")
        columns, rows = _COMMANDS[args.command](config)
        # action-curve checks its rows itself, into error rows
        for row in rows if args.command != "action-curve" else ():
            if exc := _non_finite(columns, row):
                raise exc
        _emit(args.command, config, columns, rows)
    except (RegimeError, DomainError, SingularityError) as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ArithmeticError as exc:      # an overflow or a division by zero
        print(f"regime error: {type(exc).__name__} {exc}; the inputs leave "
              "double-precision range", file=sys.stderr)
        return EXIT_REGIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
