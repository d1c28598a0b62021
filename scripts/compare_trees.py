#!/usr/bin/env python3
"""Run the same random CLI invocations against two pulsetunnel source trees
and report where they differ.

    python3 scripts/compare_trees.py OLD_SRC NEW_SRC [--runs N] [--seed S]

OLD_SRC and NEW_SRC are directories that hold a `pulsetunnel` package, such
as the `src/` of two checkouts.  Each tree runs in a worker process of its
own, which imports the package from that tree and calls `cli.main` on every
argv in turn, with warnings turned into errors as under `python -W error`.

The argv are `action-curve --method hj`, `action-curve --method euclidean`
and `verify` on the triangular barrier, in equal shares.  Half of them draw
every flag log-uniformly from 1e-300 to 1e300 (a quarter of those with a
Gaussian pulse); the other half draw ordinary Lorentzian regimes.

Prints one block per run whose exit code, standard error or CSV rows differ
(the rows that differ, side by side) and a summary line.  Exits 1 when an
exit code differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
import traceback
import warnings


def draw_argv(rng: random.Random) -> list[str]:
    """One random invocation."""
    command = rng.choice(["hj", "euclidean", "verify"])
    head = (["verify"] if command == "verify"
            else ["action-curve", "--method", command])

    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    if rng.random() < 0.5:
        flags = {k: repr(log_uniform(-300, 300))
                 for k in ("V", "E0", "m", "theta", "amp")}
        flags["n"] = str(rng.randint(2, 30))
        if rng.random() < 0.25:
            flags.update(pulse="gauss", omega_rate=repr(log_uniform(-300, 300)))
        energies = [log_uniform(-300, 300)]
    else:
        V = rng.uniform(5.0, 30.0)
        E0, m = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        # widths around the static traversal time at mid-barrier
        theta = rng.uniform(0.3, 1.5) * (2.0 * m * 0.5 * V) ** 0.5 / E0
        flags = {"V": repr(V), "E0": repr(E0), "m": repr(m),
                 "theta": repr(theta), "n": str(rng.randint(2, 10)),
                 "amp": repr(log_uniform(-6, 0))}
        energies = sorted(rng.uniform(0.05, 0.95) * V
                          for _ in range(1 if command == "verify"
                                         else rng.randint(1, 6)))
    argv = list(head)
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    if len(energies) == 1:
        return argv + ["--E", repr(energies[0])]
    lo, hi = energies[0], energies[-1]
    return argv + ["--E-grid", f"{lo!r}:{hi!r}:{len(energies)}"]


def worker(src: str) -> None:
    """Run each argv of the JSON list on stdin; print [code, out, err] each."""
    sys.path.insert(0, src)
    from pulsetunnel import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except BaseException:       # what `python -W error` would print
                traceback.print_exc(limit=0)
                code = 1
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(src: str, argvs: list[list[str]]) -> list:
    proc = subprocess.run([sys.executable, __file__, "--worker", src],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def rows(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if not line.startswith("#")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.old_src and args.new_src):
        p.error("give OLD_SRC and NEW_SRC")
    rng = random.Random(args.seed)
    argvs = [draw_argv(rng) for _ in range(args.runs)]
    old, new = run_tree(args.old_src, argvs), run_tree(args.new_src, argvs)
    code_diffs = other_diffs = 0
    for argv, (c0, out0, err0), (c1, out1, err1) in zip(argvs, old, new):
        if (c0, out0, err0) == (c1, out1, err1):
            continue
        code_diffs += c0 != c1
        other_diffs += c0 == c1
        print("argv:", " ".join(argv))
        print(f"  exit: {c0} -> {c1}")
        if err0 != err1:
            print(f"  stderr: {err0.strip()!r} -> {err1.strip()!r}")
        for r0, r1 in itertools.zip_longest(rows(out0), rows(out1),
                                            fillvalue="(none)"):
            if r0 != r1:
                print(f"  row: {r0} -> {r1}")
    same = args.runs - code_diffs - other_diffs
    print(f"{args.runs} runs: {same} identical, {other_diffs} differ with the "
          f"same exit code, {code_diffs} differ in exit code")
    return 1 if code_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
