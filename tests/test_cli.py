"""End-to-end tests for the command-line driver: exit codes, CSV format,
byte-level determinism, and config round-trips."""

import math

import pytest

from pulsetunnel import cli
from pulsetunnel.cli import (
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_REGIME,
    RunConfig,
    main,
    read_csv_config,
)
from pulsetunnel.errors import ConvergenceError


def _run(argv):
    return main(argv)


# --- Exit codes ------------------------------------------------------------------

def test_action_curve_exit_ok(tmp_path):
    out = tmp_path / "curve.csv"
    code = _run([
        "action-curve", "--barrier", "triangular", "--V", "10", "--E0", "1",
        "--pulse", "lorentz", "--amp", "0.05", "--theta", "2", "--n", "3",
        "--E-grid", "3:7:5", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# pulsetunnel: ")
    assert lines[1] == "# command: action-curve"
    assert lines[2] == "# config:"
    header_end = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_end] == "E,A,A0,deltaE,regime"
    assert len(lines) == header_end + 1 + 5


def test_rate_exit_ok(tmp_path, capsys):
    code = _run([
        "rate", "--E", "5", "--amp", "0.05", "--theta", "2", "--n", "3",
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    body = [l for l in captured.splitlines() if not l.startswith("#")]
    assert body[0] == "t,rate,exponent,prefactor"
    # positive rates on a positive time grid
    for row in body[1:]:
        t, rate, *_ = row.split(",")
        assert float(t) > 0.0
        assert float(rate) > 0.0


def test_adapt_exit_ok(capsys):
    code = _run(["adapt", "--E", "8", "--amp", "0.05"])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    body = [l for l in captured.splitlines() if not l.startswith("#")]
    assert body[0].startswith("E_launch,theta,")
    # the adapted width for V=10, E0=1, target 8 is sqrt(2*(V-E)) = 2
    first = body[1].split(",")
    assert float(first[1]) == pytest.approx(2.0, rel=1e-12)


def test_verify_exit_ok(capsys):
    code = _run([
        "verify", "--barrier", "triangular", "--E", "5",
        "--amp", "0.05", "--theta", "1.8", "--n", "3",
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    body = [l for l in captured.splitlines() if not l.startswith("#")]
    assert "hj_vs_euclidean" in captured
    assert ",fail," not in captured
    assert body[0] == "check,value,reference,rel_deviation,status"


def test_regime_exit_code(capsys):
    # the time-resolved rate is only derived for the triangular barrier
    code = _run(["rate", "--barrier", "sech", "--E", "0.5"])
    assert code == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


def test_domain_exit_code(capsys):
    # adapt target above the barrier top
    code = _run(["adapt", "--E", "11"])
    assert code == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # one point cannot span start:stop (was a ZeroDivisionError)
    ["rate", "--E", "5", "--amp", "0.05", "--t-grid", "0.1:1:1"],
    # an empty grid (was an empty table with exit 0)
    ["rate", "--E", "5", "--amp", "0.05", "--t-grid", "0.1:1:0"],
    # two fields instead of three (was an uncaught ValueError)
    ["action-curve", "--E-grid", "1:2", "--amp", "0.05"],
])
def test_bad_grid_exit_code(argv, capsys):
    assert _run(argv) == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


def test_nonconvergence_exit_code(monkeypatch, capsys):
    def boom(config):
        raise ConvergenceError("iteration stalled")

    monkeypatch.setitem(cli._COMMANDS, "rate", boom)
    code = _run(["rate", "--E", "5", "--amp", "0.05", "--theta", "2"])
    assert code == EXIT_NONCONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


# --- Determinism -----------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "curve.csv"
    argv = [
        "action-curve", "--barrier", "triangular", "--V", "10", "--E0", "1",
        "--pulse", "lorentz", "--amp", "0.05", "--theta", "2", "--n", "3",
        "--E-grid", "3:7:9", "--out", str(out),
    ]
    assert _run(argv) == EXIT_OK
    first = out.read_bytes()
    assert _run(argv) == EXIT_OK
    assert out.read_bytes() == first


def test_byte_identical_threaded_method(tmp_path):
    # the trajectory method maps the energies serially; reruns must give the
    # same row order and bytes
    out = tmp_path / "traj.csv"
    argv = [
        "action-curve", "--barrier", "sech", "--V", "1", "--a", "1",
        "--pulse", "lorentz", "--amp", "0.01", "--theta", "2", "--n", "2",
        "--E-grid", "0.4:0.6:3", "--method", "trajectory", "--out", str(out),
    ]
    assert _run(argv) == EXIT_OK
    first = out.read_bytes()
    assert _run(argv) == EXIT_OK
    assert out.read_bytes() == first


# --- Config round-trips ----------------------------------------------------------

def test_csv_header_round_trip(tmp_path):
    out = tmp_path / "curve.csv"
    argv = [
        "action-curve", "--barrier", "triangular", "--V", "12.5", "--E0", "0.8",
        "--pulse", "lorentz", "--amp", "0.03", "--theta", "1.7", "--n", "4",
        "--E-grid", "3:7:5", "--out", str(out),
    ]
    assert _run(argv) == EXIT_OK
    cfg = read_csv_config(str(out))
    assert cfg.V == 12.5
    assert cfg.E0 == 0.8
    assert cfg.amp == 0.03
    assert cfg.theta == 1.7
    assert cfg.n == 4
    assert cfg.E_grid == "3:7:5"
    assert cfg.barrier == "triangular"
    # the reloaded config reproduces the original run byte-for-byte
    out2 = tmp_path / "replay.csv"
    cfg.out = str(out2)
    columns, rows = cli.cmd_action_curve(cfg)
    with open(out2, "w", encoding="utf-8", newline="") as fh:
        cli.write_csv(fh, "action-curve", cfg, columns, rows)
    a = [l for l in out.read_text().splitlines() if not l.startswith("#   out")]
    b = [l for l in out2.read_text().splitlines() if not l.startswith("#   out")]
    assert a == b


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "V = 10\n"
        "E0 = 1\n"
        "amp = 0.05\n"
        "theta = 2\n"
        "n = 3\n"
        "E = 5\n"
    )
    code = _run(["--config", str(cfg_file), "rate", "--theta", "1.5"])
    assert code == EXIT_OK
    header = [
        l for l in capsys.readouterr().out.splitlines() if l.startswith("#")
    ]
    assert "#   theta: 1.5" in header      # flag overrides the file
    assert "#   amp: 0.05" in header       # file value survives
    assert "#   V: 10" in header


def test_config_validation_rejects_bad_values(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("barrier = parabolic\n")
    code = _run(["--config", str(cfg_file), "rate", "--E", "5"])
    assert code == EXIT_REGIME


def test_run_config_mapping_types():
    cfg = RunConfig.from_mapping(
        {"V": "11", "n": "4", "E": "3.5", "barrier": "triangular"}
    )
    assert cfg.V == 11.0 and isinstance(cfg.V, float)
    assert cfg.n == 4 and isinstance(cfg.n, int)
    assert cfg.E == 3.5
    assert cfg.barrier == "triangular"


def test_float_formatting_stable():
    assert cli._format_value(1.0 / 3.0) == "0.333333333333"
    assert cli._format_value(2.0) == "2"
    assert cli._format_value("auto") == "auto"
