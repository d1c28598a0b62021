#!/usr/bin/env python3
"""Benchmark harness for pulsetunnel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (oracle, pole_scan, hj_corrections, cli_sweeps) in a closed
loop in this process: whole rounds of the workload's operations, until S
seconds have passed.  Then it checks the outputs and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the package's layers are wrapped and the per-layer metrics are
reported instead, each per result.

End-to-end times are scaled to a reference machine speed by a calibration
process that samples the speed of the same CPU during the run (see
Calibrator).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SETUP_SAMPLES = 3
# the calibration child takes a sample every CAL_PERIOD_S; CAL_REF_S is the
# CPU seconds of one sample at the reference speed (about its mean on the
# machine of the reference figures in README.md)
CAL_PERIOD_S = 0.25
CAL_REF_S = 0.005
# the keys of workloads.WORKLOADS, repeated so that parsing the arguments does
# not import the package (that import is part of the measured set-up)
NAMES = ("oracle", "pole_scan", "hj_corrections", "cli_sweeps")


def _import_package() -> None:
    """Put the checkout's src/ first on the path; fail if it is missing."""
    src = ROOT / "src"
    if not (src / "pulsetunnel" / "__init__.py").is_file():
        sys.exit(f"error: no pulsetunnel sources under {src}")
    sys.path.insert(0, str(src))


def set_up(name: str, seed: int, out_dir: Path):
    """Import pulsetunnel and build the workload's inputs; returns the workload."""
    import workloads

    return workloads.WORKLOADS[name](seed, out_dir)


def pin_to_one_cpu() -> None:
    """Run on one CPU (the set-up probes and the calibration child inherit it).

    The CLI's trajectory method hands the GIL between four threads.  On two
    CPUs every hand-off waits for the other CPU to be scheduled, which on a
    busy host added up to half again to the wall time of pole_scan while its
    CPU time moved far less; on one CPU wall time follows CPU time.  The
    calibration must also run on the CPU it calibrates: the speeds of the two
    CPUs of a shared host drift independently.  The figures are single-core
    figures, so a change cannot gain by spreading work over cores, only by
    doing less of it.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(start, end) of a set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    start, end = proc.stdout.split()[-2:]
    return float(start), float(end)


class Calibrator:
    """Samples the speed of this CPU for the whole run.

    The host's speed drifts by tens of percent within seconds and over hours,
    more than a regression the benchmark must see.  A child process
    (calibrate.py), pinned to the same CPU, times a fixed piece of work in
    its own CPU seconds every CAL_PERIOD_S, and every end-to-end time is
    reported in reference seconds: raw seconds x CAL_REF_S / (mean sample
    over the same stretch of time).  The child takes a few percent of the
    CPU, the same share in every run.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py"), str(CAL_PERIOD_S)],
            stdout=self._fh)
        deadline = time.perf_counter() + 60.0
        while not self.path.read_text(encoding="utf-8").startswith("ready\n"):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                sys.exit("error: the calibration process did not start")
            time.sleep(0.01)
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """Take the sample that covers the end of the run, then stop the child."""
        end = time.perf_counter() + CAL_PERIOD_S
        while self.proc.poll() is None and time.perf_counter() < end + 1.0:
            lines = self.path.read_text(encoding="utf-8").splitlines()[1:]
            if lines and float(lines[-1].split()[0]) > end:
                break
            time.sleep(0.05)
        self.proc.terminate()
        self.proc.wait()
        self._fh.close()
        self.samples = [(float(t), float(c)) for t, c in
                        (line.split() for line in
                         self.path.read_text(encoding="utf-8").splitlines()[1:])]

    def factor(self, start: float, end: float) -> float:
        """Multiplies raw seconds spent between start and end into reference
        seconds, from the samples taken within one period of that stretch."""
        cpu = [c for t, c in self.samples
               if start - CAL_PERIOD_S <= t <= end + CAL_PERIOD_S]
        if not cpu:
            raise RuntimeError("no calibration sample near a measured stretch")
        return CAL_REF_S / statistics.fmean(cpu)


def measure(workload, seconds: float) -> dict:
    """Closed loop of whole rounds until `seconds` have passed."""
    from scipy.integrate import IntegrationWarning

    ops = workload.operations()
    outputs, spans, cpus = {}, [], []
    attempted = failed = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        start = time.perf_counter()
        while True:
            for label, op in ops:
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    out = op()
                except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                    failed += 1
                    print(f"operation {label} failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
                else:
                    outputs.setdefault(label, []).append(out)
                spans.append((w0, time.perf_counter()))
                cpus.append(time.process_time() - c0)
                attempted += 1
            if time.perf_counter() - start >= seconds:
                break
    return {
        "outputs": outputs,
        "spans": spans,
        "cpus": cpus,
        "per_result": len(ops) if workload.result_is_round else 1,
        "attempted": attempted,
        "failed": failed,
        "warnings": sum(issubclass(w.category, IntegrationWarning) for w in caught),
    }


def results(run: dict, cal: Calibrator) -> list[tuple[float, float]]:
    """(wall, CPU) of each result in reference seconds; a result is one
    operation or one whole round."""
    k, spans, cpus = run["per_result"], run["spans"], run["cpus"]
    out = []
    for i in range(0, len(spans), k):
        start, end = spans[i][0], spans[i + k - 1][1]
        f = cal.factor(start, end)
        out.append(((end - start) * f, sum(cpus[i:i + k]) * f))
    return out


def end_to_end_metrics(run: dict, setups: list[tuple[float, float]],
                       cal: Calibrator) -> dict:
    walls, cpus = zip(*results(run, cal))
    setup = [(end - start) * cal.factor(start, end) for start, end in setups]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "results_per_s": (len(walls) / sum(walls), "1/s"),
        "result_p50_s": (statistics.median(walls), "s"),
        "cpu_s": (sum(cpus) / len(cpus), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB"),
    }


def per_layer_metrics(run: dict, tracer, cal: Calibrator) -> dict:
    walls = [wall for wall, _ in results(run, cal)]
    n = len(walls)
    cnt, sec = tracer.counts, tracer.seconds

    def count(key):
        return (cnt[key] / n, "count/result")

    def secs(key):
        return (sec[key] / n, "s/result")

    steps = cnt["tdse.steps"]
    return {
        "model.pulse_calls": count("model.pulse"),
        "model.pulse_points": count("model.pulse.points"),
        "contour.quad_calls": count("contour.quad"),
        "contour.integrand_evals": count("contour.integrand"),
        "contour.integrand_s": secs("contour.integrand"),
        "contour.self_s": ((sec["contour.quad"] - sec["contour.integrand"]) / n,
                           "s/result"),
        "contour.integration_warnings": (run["warnings"] / n, "count/result"),
        "hj.solve_t0_s": secs("hj.solve_t0"),
        "hj.action_s": secs("hj.action"),
        "hj.sigma1_s": secs("hj.sigma1"),
        "hj.sigma2_s": secs("hj.sigma2"),
        "hj.sigma2_calls": count("hj.sigma2"),
        "trajectory.delta_action_calls": count("trajectory.delta_action"),
        "trajectory.delta_action_s": secs("trajectory.delta_action"),
        "trajectory.minimize_s": secs("trajectory.minimize"),
        "euclidean.action_calls": count("euclidean.action"),
        "euclidean.action_s": secs("euclidean.action"),
        "quanta.optimize_s": secs("quanta.optimize"),
        "quanta.effective_action_calls": count("quanta.effective_action"),
        "tdse.prepare_metastable_s": secs("tdse.prepare_metastable"),
        "tdse.evolve_s": secs("tdse.evolve"),
        "tdse.fft_s": secs("tdse.fft"),
        "tdse.steps": count("tdse.steps"),
        "tdse.fft_calls": count("tdse.fft"),
        "tdse.step_us": (sec["tdse.evolve"] / steps * 1e6 if steps else 0.0, "us"),
        "cli.invocations": count("cli.main"),
        "cli.main_s": secs("cli.main"),
        "cli.csv_bytes": (cnt["cli.csv_bytes"] / n, "bytes/result"),
        "trace.result_p50_s": (statistics.median(walls), "s"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _import_package()

    if args.setup_probe:
        start = time.perf_counter()
        set_up(args.workload, args.seed, OUT)       # writes nothing
        print(repr(start), repr(time.perf_counter()))
        return 0

    pin_to_one_cpu()
    out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cal = None
    try:
        cal = Calibrator(out_dir / "calibration.txt")
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install_fft()
            workload = set_up(args.workload, args.seed, out_dir)
            tracer.install()
            tracer.reset()
        else:
            start = time.perf_counter()
            workload = set_up(args.workload, args.seed, out_dir)
            setups = [(start, time.perf_counter())]
            setups += [setup_probe(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]

        run = measure(workload, args.seconds)
        cal.stop()
        if tracer is not None:
            tracer.uninstall()
            metrics = per_layer_metrics(run, tracer, cal)
        else:
            metrics = end_to_end_metrics(run, setups, cal)
        problems = workload.check(run["outputs"])
    finally:
        if cal is not None and cal.proc.poll() is None:
            cal.stop()
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    cpu = [c for _, c in cal.samples]
    print(f"{args.workload:>15} {'calibration sample (mean)':<32} "
          f"{statistics.fmean(cpu):14.6g} s over {len(cpu)} samples; "
          f"whole-run factor {CAL_REF_S / statistics.fmean(cpu):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<32} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
