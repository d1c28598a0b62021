#!/usr/bin/env python3
"""Energy dependence of the tunneling exponent, on both barriers.

Writes results/action_curve.csv with A(E), the static A0(E) and the collected
energy deltaE(E) for the pulsed triangular barrier: below the threshold
energy the curve follows the pulse-dominated branch with slope -2*theta;
above it A merges into A0.

Writes results/trajectory_action_curve.csv with A(E), A0(E) and the
perturbative correction deltaA(E) for the sech^2 barrier, over the energies
whose trajectory branch point sits 2% up to 30% of the pulse width below the
pulse pole: |deltaA| grows as the gap closes.
"""

import math
import pathlib
import sys

from pulsetunnel.cli import RunConfig, cmd_action_curve, write_csv

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"


def sech_energy_at_gap(theta: float, gap_frac: float) -> str:
    """Energy (a = m = 1) whose branch point pi/(2 sqrt(2E)) sits gap_frac*theta
    below the pulse pole, as the grid endpoint string."""
    return format(math.pi**2 / (8.0 * theta**2 * (1.0 - gap_frac) ** 2), ".12g")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    theta = 2.1
    curves = {
        "action_curve.csv": RunConfig(
            barrier="triangular", V=10.0, E0=1.0, m=1.0,
            pulse="lorentz", amp=0.02, theta=2.0, n=3,
            E_grid="1:9.5:60", method="euclidean",
        ),
        "trajectory_action_curve.csv": RunConfig(
            barrier="sech", V=1.4, a=1.0, m=1.0,
            pulse="lorentz", amp=0.007, theta=theta, n=2,
            E_grid=f"{sech_energy_at_gap(theta, 0.02)}:"
                   f"{sech_energy_at_gap(theta, 0.30)}:8",
            method="trajectory",
        ),
    }
    for name, config in curves.items():
        config.validate()
        columns, rows = cmd_action_curve(config)
        path = OUT / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, "action-curve", config, columns, rows)
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
