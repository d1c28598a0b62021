"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py

Every check of every workload must reject an output perturbed to break it,
and a run of each workload on the default seed must report 0 failed
operations with its metrics named as in BENCHMARK.json.  The real outputs
are computed once per workload; the whole file takes about a minute and a
half, most of it the seed runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._import_package()

import workloads  # noqa: E402
from pulsetunnel import euclidean, model, trajectory  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def one_round(workload) -> dict:
    outputs = {}
    for label, op in workload.operations():
        outputs.setdefault(label, []).append(op())
    return outputs


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """One round of real outputs per workload (the oracle's is synthesized)."""
    cache = {}

    def get(name):
        if name not in cache:
            out_dir = tmp_path_factory.mktemp(name)
            wl = workloads.WORKLOADS[name](SEED, out_dir)
            cache[name] = (wl, one_round(wl) if name != "oracle" else {})
        return cache[name]

    return get


def edit_csv(data: bytes, row: int, column: str, fn) -> bytes:
    """Apply fn to one numeric cell (row -1 edits every row) and reformat."""
    lines = data.decode().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].strip().split(",")
    j = columns.index(column)
    body = range(head + 1, len(lines)) if row == -1 else [head + 1 + row]
    for i in body:
        cells = lines[i].rstrip("\n").split(",")
        value = fn(workloads._cell(cells[j]), dict(zip(columns, map(workloads._cell, cells))))
        cells[j] = value if isinstance(value, str) else format(value, ".12g")
        lines[i] = ",".join(cells) + "\n"
    return "".join(lines).encode()


def drop_line(data: bytes, predicate) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not predicate(line))


def drop_last_row(data: bytes) -> bytes:
    return b"".join(data.splitlines(keepends=True)[:-1])


def problems_after(wl, outputs, label, mutate) -> list[str]:
    bad = {k: list(v) for k, v in outputs.items()}
    bad[label] = [mutate(bad[label][0])]
    return wl.check(bad)


def assert_rejected(problems, fragment):
    assert any(fragment in p for p in problems), problems


def test_workload_names_agree():
    assert (list(run.NAMES) == list(workloads.WORKLOADS)
            == [w["name"] for w in SPEC["workloads"]])


# --- the unperturbed outputs pass ------------------------------------------------------

@pytest.mark.parametrize("name", ["pole_scan", "hj_corrections", "cli_sweeps"])
def test_real_outputs_pass(real, name):
    wl, outputs = real(name)
    assert wl.check(outputs) == []


def test_rounds_must_be_identical(real):
    wl, outputs = real("cli_sweeps")
    twice = {k: v + v for k, v in outputs.items()}
    assert wl.check(twice) == []
    twice["rate"] = [twice["rate"][0], twice["rate"][0] + b"\n"]
    assert_rejected(wl.check(twice), "rate: output differs between rounds")


# --- oracle ------------------------------------------------------------------------

def oracle_output(wl, static_factor=1.0, dA_factor=1.0):
    b = wl.barrier
    semi = euclidean.euclidean_action(b.E_bound, b, wl.pulse)
    return {"static_exponent": 0.98 * wl.A0 * static_factor,
            "delta_A": 0.9 * (semi.A0 - semi.A) * dA_factor}


def test_oracle_checks(real, monkeypatch):
    wl, _ = real("oracle")
    assert wl.check({"enhancement_exponent": [oracle_output(wl)]}) == []
    assert_rejected(
        wl.check({"enhancement_exponent": [oracle_output(wl, static_factor=1.3)]}),
        "static exponent")
    assert_rejected(
        wl.check({"enhancement_exponent": [oracle_output(wl, dA_factor=1.5)]}),
        "oracle dA")
    good = oracle_output(wl)
    assert_rejected(
        wl.check({"enhancement_exponent": [good, dict(good, delta_A=1.0)]}),
        "differs between rounds")
    original = euclidean.euclidean_action

    def skewed(E, barrier, pulse):
        res = original(E, barrier, pulse)
        return type(res)(**{**res.__dict__, "A0": res.A0 * 1.01, "A": res.A0 * 1.01})

    monkeypatch.setattr(euclidean, "euclidean_action", skewed)
    problems = wl.check({"enhancement_exponent": [good]})
    assert_rejected(problems, "euclidean A0 != closed form")
    assert_rejected(problems, "predicted enhancement")


# --- pole scan ---------------------------------------------------------------------

POLE_MUTATIONS = [
    (lambda d: drop_line(d, lambda line: line.startswith(b"#   out:")), "--out path"),
    (lambda d: drop_last_row(d), "3 rows"),
    (lambda d: edit_csv(d, 0, "A0", lambda v, r: v * (1 + 1e-6)), "A0"),
    (lambda d: edit_csv(d, 1, "A", lambda v, r: v + 1e-6), "A != A0 + deltaA"),
    (lambda d: edit_csv(d, 2, "deltaA", lambda v, r: -v), ">= 0"),
    (lambda d: edit_csv(d, 0, "deltaA", lambda v, r: v * 0.99), "minimized dA"),
    (lambda d: edit_csv(d, 3, "deltaA", lambda v, r: v * 10.0), "does not grow"),
]


@pytest.mark.parametrize("mutate,fragment", POLE_MUTATIONS)
def test_pole_scan_rejects(real, mutate, fragment):
    wl, outputs = real("pole_scan")
    assert_rejected(problems_after(wl, outputs, "action_curve", mutate), fragment)


def test_pole_scan_rejects_reference_mismatch(real, monkeypatch):
    wl, outputs = real("pole_scan")
    delta_action, wkb = trajectory.delta_action, model.static_wkb_exponent
    monkeypatch.setattr(trajectory, "delta_action",
                        lambda *a, **k: delta_action(*a, **k) * (1 + 1e-8))
    monkeypatch.setattr(model, "static_wkb_exponent",
                        lambda *a, **k: wkb(*a, **k) * (1 + 1e-9))
    problems = wl.check(outputs)
    assert_rejected(problems, "delta_action at gap 0.02")
    assert_rejected(problems, "sech static exponent")


# --- Hamilton-Jacobi corrections ----------------------------------------------------

def replace(i, fn):
    """Mutation of item i of one point's (t0, S, sigma1, sigma2)."""
    def mutate(res):
        return tuple(fn(x) if k == i else x for k, x in enumerate(res))
    return mutate


HJ_MUTATIONS = [
    ("canon_x1", replace(1, lambda S: S + 1e-3j), "2 Im S"),
    ("canon_x1", replace(0, lambda t0: t0 + 1e-6), "exit saddle"),
    ("canon_x1", replace(2, lambda s1: s1 + 1e-5), "Im(i sigma1)"),
    ("small_amp_interior", replace(3, lambda s2: s2 * 1.3), "interior asymptote"),
    ("deep_x1", replace(3, lambda s2: s2 * 100.0), "deep: hierarchy"),
]


@pytest.mark.parametrize("label,mutate,fragment", HJ_MUTATIONS)
def test_hj_corrections_rejects(real, label, mutate, fragment):
    wl, outputs = real("hj_corrections")
    assert_rejected(problems_after(wl, outputs, label, mutate), fragment)


# --- CLI sweeps --------------------------------------------------------------------

CLI_MUTATIONS = [
    ("curve60", lambda d: drop_line(d, lambda line: line.startswith(b"#   out:")),
     "curve60: CSV header"),
    ("curve60", lambda d: drop_last_row(d), "curve60: row count"),
    ("curve60", lambda d: edit_csv(d, 5, "regime", lambda v, r: "above-threshold"),
     "curve60: regime"),
    ("curve60", lambda d: edit_csv(d, 7, "A0", lambda v, r: v * (1 + 1e-6)),
     "curve60: A0"),
    ("curve60", lambda d: edit_csv(d, -1, "A", lambda v, r: v + 0.1 * r["E"]),
     "curve60: slope"),
    ("hj", lambda d: edit_csv(d, 1, "A0", lambda v, r: v * (1 + 1e-6)), "hj: A0"),
    ("hj", lambda d: edit_csv(d, 0, "A", lambda v, r: r["A0"] + 1.0), "hj: A >= A0"),
    ("hj", lambda d: edit_csv(d, 2, "A", lambda v, r: v * 1.5), "hj: A not decreasing"),
    ("quanta", lambda d: edit_csv(d, 0, "A_eff", lambda v, r: v * 10.0),
     "above the static exponent"),
    ("quanta", lambda d: edit_csv(d, 1, "N_opt", lambda v, r: v * 1e6),
     "lifted energy"),
    ("rate", lambda d: edit_csv(d, 3, "rate", lambda v, r: -v), "rate: rows or signs"),
    ("rate", lambda d: edit_csv(d, 4, "exponent", lambda v, r: v * (1 + 1e-6)),
     "rate: exponent"),
    ("rate", lambda d: edit_csv(d, 50, "rate", lambda v, r: 1.0), "rate: peak"),
    ("adapt_triangular", lambda d: edit_csv(d, 2, "theta", lambda v, r: v * (1 + 1e-9)),
     "adapt_triangular"),
    ("adapt_sech", lambda d: edit_csv(d, 0, "A0_at_target", lambda v, r: v * (1 + 1e-7)),
     "adapt_sech"),
    ("verify", lambda d: edit_csv(d, 1, "status", lambda v, r: "fail"), "verify"),
    ("verify", lambda d: edit_csv(d, 1, "rel_deviation", lambda v, r: 2e-4), "verify"),
]


@pytest.mark.parametrize("label,mutate,fragment", CLI_MUTATIONS)
def test_cli_sweeps_rejects(real, label, mutate, fragment):
    wl, outputs = real("cli_sweeps")
    assert_rejected(problems_after(wl, outputs, label, mutate), fragment)


def test_cli_sweeps_rejects_reference_mismatch(real, monkeypatch):
    wl, outputs = real("cli_sweeps")
    wkb = model.static_wkb_exponent
    monkeypatch.setattr(model, "static_wkb_exponent",
                        lambda *a, **k: wkb(*a, **k) * (1 + 1e-11))
    assert_rejected(wl.check(outputs), "triangular static exponent")


def test_run_cli_rejects_errors(tmp_path):
    with pytest.raises(workloads.OperationFailed):
        workloads.run_cli(["adapt", "--E", "11"], tmp_path / "x.csv")


# --- end to end: the harness on the default seed -----------------------------------

def harness(*args) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_seed_run_has_no_failures(name):
    result = harness("--workload", name, "--seed", str(SEED), "--seconds", "0",
                     "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = harness("--workload", "cli_sweeps", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # one result is one sweep of the seven invocations
    assert result["metrics"]["cli.invocations"]["value"] == 7.0


def test_harness_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "cli_sweeps", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

