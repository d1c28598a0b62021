"""End-to-end tests for the command-line driver: exit codes, CSV format,
byte-level determinism, and config round-trips."""

import dataclasses
import math

import pytest

from pulsetunnel import cli, euclidean, hj, trajectory
from pulsetunnel.cli import (
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_REGIME,
    RunConfig,
    main,
    read_csv_config,
)
from pulsetunnel.errors import ConvergenceError

from engine_spy import spy_engine


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


@pytest.mark.parametrize("argv", [
    # the Euclidean overflow step-back spun on a NaN G (these never returned)
    ["action-curve", "--V", "10", "--E0", "nan", "--E", "5", "--amp", "0.05"],
    ["action-curve", "--V", "10", "--m", "nan", "--E", "5", "--amp", "0.05"],
    ["action-curve", "--V", "10", "--theta", "inf", "--E", "5", "--amp", "0.05"],
    # an uncaught ValueError (exit 1)
    ["action-curve", "--method", "hj", "--V", "10", "--E", "5", "--amp", "nan"],
    ["action-curve", "--method", "quanta", "--V", "10", "--E", "5",
     "--amp", "0.05", "--theta", "nan"],
    # a table of NaN cells (exit 0)
    ["adapt", "--V", "10", "--E", "5", "--amp", "nan"],
    # a NaN window fails every check (exit 3)
    ["verify", "--V", "10", "--E", "5", "--amp", "0.05", "--tol", "nan"],
])
def test_non_finite_inputs_exit_code(argv, capsys):
    assert _run(argv) == EXIT_REGIME
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("pulse_args", [
    # the amplitude divided the pole form (was a ZeroDivisionError)
    ["--amp", "0"],
    # compared against the pole form of a pulse it never ran (was exit 0)
    ["--pulse", "zero", "--amp", "0.01"],
    # the pole form is the n = 2 residue (was exit 0, printing it for n = 3)
    ["--amp", "0.01", "--n", "3"],
])
def test_verify_sech_without_pole_exit_code(pulse_args, capsys):
    code = _run(["verify", "--barrier", "sech", "--V", "1", "--a", "1",
                 "--E", "0.5", *pulse_args])
    assert code == EXIT_REGIME
    assert "regime error" in capsys.readouterr().err


@pytest.mark.parametrize("n,exit_code,message", [
    # dA on one sheet has no interior minimum in the scan bracket; at
    # theta = 2.2 the scan used to reach the trajectory's branch cut, a
    # SingularityError that ended in a traceback with exit 1
    ("2", EXIT_NONCONVERGENCE, "no interior minimum"),
    # stopped by the pole form before the scan (was the same traceback)
    ("3", EXIT_REGIME, "second-order pole"),
], ids=["n2", "n3"])
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_verify_sech_branch_cut_exit_code(n, exit_code, message, capsys):
    code = _run(["verify", "--barrier", "sech", "--V", "1", "--a", "1",
                 "--E", "0.5", "--amp", "0.01", "--n", n, "--theta", "2.5"])
    assert code == exit_code
    err = capsys.readouterr().err
    prefix = "regime error:" if exit_code == EXIT_REGIME else "non-convergence:"
    assert err.startswith(prefix) and message in err


@pytest.mark.parametrize("flags", [
    ["--V", "1", "--a", "1", "--E", "0.5", "--theta", "3"],
    ["--V", "5", "--a", "0.3", "--E", "2.5", "--theta", "1"],
], ids=["theta3", "V5"])
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_verify_sech_without_interior_minimum(flags, capsys):
    # the old contour crossed the pulse pole or the cut of x0 here and gave
    # a roundoff warning and exit 3, or a spurious minimum with exit 0
    code = _run(["verify", "--barrier", "sech", "--amp", "0.01", "--n", "2",
                 *flags])
    assert code == EXIT_NONCONVERGENCE
    assert "no interior minimum" in capsys.readouterr().err


def test_trajectory_curve_of_a_zero_pulse_is_the_static_action(capsys):
    # the minimizer gives an amplitude of 0 no contour: A = A0, deltaA = 0
    assert _run(["action-curve", "--barrier", "sech", "--method",
                 "trajectory", "--V", "1.5", "--amp", "0",
                 "--E-grid", "0.4:0.6:3"]) == EXIT_OK
    assert _body(capsys.readouterr())[1:] == [
        "0.4,5.26294440057,5.26294440057,0,perturbative",
        "0.5,4.59961087823,4.59961087823,0,perturbative",
        "0.6,3.99991153395,3.99991153395,0,perturbative"]


def test_trajectory_curve_of_a_gaussian_pulse_has_error_rows(capsys):
    # an entire pulse has no pole for the contour to pass: every energy is a
    # RegimeError row
    assert _run(["action-curve", "--barrier", "sech", "--method",
                 "trajectory", "--V", "1.5", "--pulse", "gauss", "--amp",
                 "0.01", "--E-grid", "0.4:0.6:3"]) == EXIT_OK
    assert _body(capsys.readouterr())[1:] == [
        f"{E},nan,nan,nan,error:RegimeError" for E in ("0.4", "0.5", "0.6")]


def test_verify_sech_reports_the_minimizer_against_the_pole_form(capsys):
    # the two info rows are the minimizer's dA and shift against the pole
    # form's, as the library computes them
    config = RunConfig(barrier="sech", V=1.5, a=1.0, theta=2.0, n=2,
                       amp=0.01, E=0.5)
    assert _run(["verify", "--barrier", "sech", "--V", "1.5", "--a", "1",
                 "--theta", "2", "--n", "2", "--amp", "0.01",
                 "--E", "0.5"]) == EXIT_OK
    barrier, pulse = config.make_barrier(), config.make_pulse()
    res = trajectory.minimize_delta_action(0.5, barrier, pulse)
    dA_form, dt_form = trajectory.pole_form(0.5, barrier, pulse)
    expected = [("trajectory_dA_vs_pole_form", res.dA, dA_form),
                ("dt_shift_vs_closed_form", res.dt_shift, dt_form)]
    assert _body(capsys.readouterr())[1:] == [
        ",".join([check, *map(cli._format, (value, ref, abs(value - ref) / abs(ref))),
                  "info"])
        for check, value, ref in expected]


def test_verify_hj_at_the_true_exit_point(capsys):
    # 2 Im S at the small-amplitude estimate x1 was off by 8.4e-4 and failed
    # the 1e-4 window (exit 3)
    assert _run(["verify", "--E", "6", "--amp", "0.05", "--theta", "2",
                 "--n", "3"]) == EXIT_OK
    rows = [l.split(",") for l in capsys.readouterr().out.splitlines()
            if l.startswith("hj_vs_euclidean")]
    assert len(rows) == 1 and rows[0][4] == "pass"
    assert float(rows[0][3]) < 1e-12


def test_verify_engine_calls(monkeypatch, capsys):
    # the benchmark's verify call: int G^2 in 2 passes (105 points) and the
    # HJ exit action in 1 (75 points), on panels presplit toward the pulse
    # poles; from one panel a segment they took 6 and 5 passes
    euclidean_calls = spy_engine(monkeypatch, euclidean)
    hj_calls = spy_engine(monkeypatch, hj)
    assert _run(["verify", "--V", "10", "--E0", "1", "--E", "5", "--amp", "0.05",
                 "--theta", "1.8", "--n", "3"]) == EXIT_OK
    assert [(c["passes"], c["points"]) for c in euclidean_calls] == [(2, 105)]
    assert [(c["passes"], c["points"]) for c in hj_calls] == [(1, 75)]


def test_action_curve_rows_and_error_capture(capsys):
    # the last grid point lies above the barrier top V = 10
    code = _run(["action-curve", "--V", "10", "--E0", "1", "--amp", "0.05",
                 "--theta", "2", "--n", "3", "--E-grid", "3:12:4"])
    assert code == EXIT_OK
    body = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert body[0] == "E,A,A0,deltaE,regime"
    assert len(body) == 1 + 4
    rows = [row.split(",") for row in body[1:4]]
    for _, A, A0, _, regime in rows:
        assert not regime.startswith("error")
        assert float(A) < float(A0)
    # exponent decreases with energy along the curve
    As = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(As, As[1:]))
    assert body[4] == "12,nan,nan,nan,error:DomainError"


def _body(captured):
    return [l for l in captured.out.splitlines() if not l.startswith("#")]


def test_euclidean_grid_across_the_barrier_keeps_its_error_rows(capsys):
    # the grid runs as one batch; energies outside (0, V) keep their
    # DomainError rows, and every other row is that energy's own --E run
    assert _run(["action-curve", "--V", "10", "--E0", "1", "--amp", "0.05",
                 "--theta", "2", "--n", "3", "--E-grid=-2:12:8"]) == EXIT_OK
    body = _body(capsys.readouterr())
    assert len(body) == 1 + 8
    errors = [row for row in body[1:] if ",error" in row]
    assert errors == ["-2,nan,nan,nan,error:DomainError",
                      "0,nan,nan,nan,error:DomainError",
                      "10,nan,nan,nan,error:DomainError",
                      "12,nan,nan,nan,error:DomainError"]
    for row in body[3:7]:
        assert _run(["action-curve", "--V", "10", "--E0", "1", "--amp", "0.05",
                     "--theta", "2", "--n", "3", "--E", row.split(",")[0]]) \
            == EXIT_OK
        assert _body(capsys.readouterr())[1] == row


@pytest.mark.parametrize("n", ["24", "30"])
def test_high_pulse_exponents_without_traceback(n, capsys):
    # both ended in an uncaught OverflowError (exit 1): the Euclidean bracket
    # probed G where it overflows, and so did the hj exit-branch bracket; hj
    # now takes its exit point from the Euclidean tau0 and agrees with A
    flags = ["--V", "10", "--E0", "1", "--amp", "0.05", "--theta", "2",
             "--n", n, "--E", "1"]
    assert _run(["action-curve", "--method", "euclidean", *flags]) == EXIT_OK
    E, A, A0, deltaE, regime = _body(capsys.readouterr())[1].split(",")
    assert regime == "below-threshold"
    assert 0.0 < float(A) < float(A0) and math.isfinite(float(deltaE))
    assert _run(["action-curve", "--method", "hj", *flags]) == EXIT_OK
    assert _body(capsys.readouterr())[1].split(",")[1] == A
    assert _run(["verify", *flags]) == EXIT_OK
    rows = {r.split(",")[0]: r.split(",") for r in _body(capsys.readouterr())}
    assert rows["hj_vs_euclidean"][4] == "pass"


def test_hj_exit_point_outside_its_bracket_exit_code(capsys):
    # at n = 18 the exit point lies below (x1/2, x1), outside the Brent
    # bracket hj once searched next to x1 (exit 1, then exit 3); the exit
    # point now comes from the Euclidean tau0, and hj agrees with A
    assert _run(["verify", "--V", "10", "--E0", "1", "--amp", "0.05",
                 "--theta", "2", "--n", "18", "--E", "1"]) == EXIT_OK
    rows = {r.split(",")[0]: r.split(",") for r in _body(capsys.readouterr())}
    assert rows["hj_vs_euclidean"][4] == "pass"
    assert float(rows["hj_vs_euclidean"][3]) < 1e-12


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("flags,fragment", [
    (["--V", "abc"], "'abc'"), (["--n", "2.5"], "'2.5'"),
    (["--barrier", "foo"], "'foo'"), (["--pulse", "square"], "'square'"),
    (["--method", "magic"], "'magic'"),
    # argparse's own errors: an unknown flag, and a negative number in
    # exponent form, which it reads as a flag (--E0=-1e-3 gets through)
    (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["--E-grid", "1:2:2", "--E0", "-1e-3"], "--E0: expected one argument"),
], ids=["float", "int", "barrier", "pulse", "method", "unknown-flag",
        "negative-exponent-value"])
def test_bad_flag_value_exit_code(flags, fragment, capsys):
    # argparse rejected these itself, with a SystemExit and its usage text
    # out of main
    assert _run(["action-curve", "--E", "5", "--amp", "0.05", *flags]) \
        == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.startswith("regime error:") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("command", ["action-curve", "rate", "adapt", "verify"])
def test_help_lists_every_field_and_choice(command, capsys):
    with pytest.raises(SystemExit) as exc:
        _run([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for field in dataclasses.fields(RunConfig):
        assert f"--{field.name.replace('_', '-')} " in out
    for choices in ("{triangular,sech}", "{lorentz,gauss,zero}",
                    "{hj,euclidean,trajectory,quanta,auto}"):
        assert choices in out


TRI = ["--V", "10", "--E0", "1", "--amp", "0.05", "--theta", "2", "--n", "3"]
SECH = ["--barrier", "sech", "--V", "1", "--a", "1", "--amp", "0.01",
        "--theta", "2.5", "--n", "2"]


@pytest.mark.parametrize("argv,code,last_row", [
    # a barrier the method cannot use (both were exit 0)
    (["--method", "euclidean", *SECH, "--E-grid", "0.3:0.4:2"], EXIT_REGIME, None),
    (["--method", "quanta", *SECH, "--E-grid", "0.3:0.4:2"], EXIT_REGIME, None),
    # an energy the method cannot solve: E above the barrier top
    (["--method", "euclidean", *TRI, "--E-grid", "5:12:2"], EXIT_OK,
     "12,nan,nan,nan,error:DomainError"),
    # the pulse width reaches the static traversal time
    (["--method", "hj", *TRI, "--E-grid", "5:9:2"], EXIT_OK,
     "9,nan,nan,nan,error:RegimeError"),
    # dA has no interior minimum in the scan bracket
    (["--method", "trajectory", *SECH, "--E-grid", "0.4:0.5:2"], EXIT_OK,
     "0.5,nan,nan,nan,error:ConvergenceError"),
    # the Gaussian optimum needs amp << rate*sqrt(m(V-E)) (was exit 2)
    (["--method", "quanta", "--V", "10", "--E0", "0", "--pulse", "gauss",
      "--amp", "0.01", "--omega-rate", "0.05", "--E-grid", "1:9.99:2"],
     EXIT_OK, "9.99,nan,nan,nan,error:DomainError"),
    # a negative Gaussian exponent, L = ln(rate*sqrt(m(V-E))/amp) = 1.50 at
    # E = 15 (was A_eff = -48.67); at E = 1, L = 2.17 and A_eff > 0
    (["--method", "quanta", "--V", "20", "--E0", "0", "--pulse", "gauss",
      "--amp", "0.5", "--omega-rate", "1", "--E-grid", "1:15:2"],
     EXIT_OK, "15,nan,nan,nan,error:RegimeError"),
    # a negative Lorentzian exponent: amp = 3 E0 puts the absorption log
    # below 0 at the stationary frequency (was A_eff = -2.07 at E = 5); at
    # E = 9.995 the range ends below that frequency and A_eff > 0
    (["--method", "quanta", "--V", "10", "--E0", "1", "--theta", "2",
      "--n", "3", "--amp", "3", "--E-grid", "9.995:5:2"],
     EXIT_OK, "5,nan,nan,nan,error:RegimeError"),
], ids=["sech-euclidean", "sech-quanta", "euclidean", "hj", "trajectory",
        "quanta", "quanta-negative", "quanta-negative-lorentz"])
def test_action_curve_method_errors(argv, code, last_row, capsys):
    assert _run(["action-curve", *argv]) == code
    captured = capsys.readouterr()
    if last_row is None:
        assert "needs the triangular barrier" in captured.err
        return
    body = [l for l in captured.out.splitlines() if not l.startswith("#")]
    assert len(body) == 3
    assert ",error" not in body[1]
    assert body[2] == last_row


def test_near_pinch_quadrature_gives_up(capsys):
    # gap/theta = 1e-6: a scan path stops at its roundoff floor (error
    # estimate 19.5 against 6.3e-5); the engine only warned, verify exited 0
    # and action-curve wrote A = -79.38 as an ordinary row
    near_pinch = [*SECH, "--E", "0.19739248280655539"]
    assert _run(["verify", *near_pinch]) == EXIT_NONCONVERGENCE
    assert capsys.readouterr().err.startswith("non-convergence: contour quadrature")
    assert _run(["action-curve", "--method", "trajectory", *near_pinch]) == EXIT_OK
    assert _body(capsys.readouterr())[1:] == [
        "0.197392482807,nan,nan,nan,error:ConvergenceError"]


@pytest.mark.parametrize("argv,code,message", [
    # G overflows over the whole tau0 bracket, which closes on the overflow
    # (once a RuntimeError of scipy's brentq)
    (["verify", "--pulse", "gauss", "--m", "1e300", "--amp", "1e-300",
      "--E", "5"], EXIT_NONCONVERGENCE, "no tau0 root"),
    # an OverflowError in the Euclidean closed forms
    (["action-curve", "--method", "euclidean", "--E0", "1e200", "--E", "5",
      "--amp", "0.05"], EXIT_REGIME, "OverflowError"),
    # a ZeroDivisionError in SechBarrier.omega
    (["action-curve", "--barrier", "sech", "--a", "1e-300", "--E", "0.5",
      "--amp", "0.01"], EXIT_REGIME, "ZeroDivisionError"),
    # an OverflowError in the exit action at x1 (tau00^2)
    (["rate", "--V", "1", "--E0", "1e-300", "--amp", "1", "--E", "0.5"],
     EXIT_REGIME, "OverflowError"),
    # an infinite static traversal time (once a ValueError of scipy's brentq)
    (["verify", "--pulse", "gauss", "--V", "1e30", "--m", "1e300",
      "--amp", "1e-200", "--E0", "0.5", "--E", "1e-200"], EXIT_REGIME,
     "static traversal time inf"),
    # non-finite result cells (these wrote inf and nan with exit 0)
    (["adapt", "--a", "2", "--V", "1e200", "--amp", "1e30", "--theta", "1e300",
      "--E", "5", "--n", "2"], EXIT_REGIME, "amp_min = inf is not finite"),
    (["adapt", "--theta", "10", "--amp", "5", "--V", "1e300", "--omega-rate",
      "1", "--E", "1", "--n", "3"], EXIT_REGIME, "amp_min = inf is not finite"),
    # an action curve gives such an energy an error row
    (["action-curve", "--method", "quanta", "--V", "1e300", "--amp", "5",
      "--E", "1e-300", "--n", "2"], EXIT_OK,
     ["1e-300,nan,nan,nan,error:RegimeError"]),
    # a tiny field: the bound underflows to amp_min = 0 (was exit 2, from an
    # OverflowError in the unread exit coordinate x1 = E0*theta^2/(2m))
    (["adapt", "--V", "10", "--E0", "1e-200", "--amp", "1e-300", "--E", "5",
      "--n", "3"], EXIT_OK, [
        "1.5,3.16227766017e+200,0,4.3217794689e+201,4.67285304237e+201,"
        "3.5107357347e+200",
        "2,3.16227766017e+200,0,4.00555170288e+201,4.26666666667e+201,"
        "2.61114963787e+200",
        "2.5,3.16227766017e+200,0,3.68932393686e+201,3.87298334621e+201,"
        "1.83659409344e+200",
        "3,3.16227766017e+200,0,3.37309617085e+201,3.49221356099e+201,"
        "1.19117390143e+200",
        "3.5,3.16227766017e+200,0,3.05686840483e+201,3.1248111054e+201,"
        "6.79427005727e+199",
        "4,3.16227766017e+200,0,2.74064063881e+201,2.77128129211e+201,"
        "3.06406532976e+199",
        "4.5,3.16227766017e+200,0,2.4244128728e+201,2.43219151293e+201,"
        "7.77864013154e+198",
    ]),
    # a tau0 bracket of 7.3e-89: an absolute step tolerance of 1e-15 stopped
    # the solve at its start, where rounding leaves g < 0 ("no tau0 root");
    # the root is tau00 to rounding, so A = A0
    (["verify", "--E0", "3.979508451902636e+125", "--m", "4.23785572404942e+73",
      "--theta", "2.943177261788327e-30", "--amp", "3.85577264811186e-26",
      "--n", "24", "--E", "8.320930153007496e-255"], EXIT_OK,
     ["euclidean_A,9.75432870799e-88,9.75432870799e-88,0,pass"]),
    # amp*theta overflows and tau0/theta underflows: G = inf*0 is nan, an
    # error row (this printed a RuntimeWarning, which the suite's warning
    # filter turns into an error)
    (["action-curve", "--method", "euclidean", "--V", "4.2719604035728106e+195",
      "--theta", "3.0388723531942082e+287", "--amp", "8.725990815273443e+184",
      "--n", "30", "--E", "2.3536092068914477e+187"], EXIT_OK,
     ["2.35360920689e+187,nan,nan,nan,error:ConvergenceError"]),
    # the same inputs over an energy grid: each energy's G is inf*0 or inf
    # (amp*theta overflows, so no energy of these inputs solves), in one
    # lockstep array call, and the last energy is V
    (["action-curve", "--method", "euclidean", "--V", "4.2719604035728106e+195",
      "--theta", "3.0388723531942082e+287", "--amp", "8.725990815273443e+184",
      "--n", "30", "--E-grid",
      "2.3536092068914477e+187:4.2719604035728106e+195:4"], EXIT_OK,
     ["2.35360920689e+187,nan,nan,nan,error:ConvergenceError",
      "1.42398681688e+195,nan,nan,nan,error:ConvergenceError",
      "2.84797361023e+195,nan,nan,nan,error:ConvergenceError",
      "4.27196040357e+195,nan,nan,nan,error:DomainError"]),
    # m = 1.75e-191: the kinetic integral of p^2 (~1e-370) and amp*theta
    # underflowed, and hj wrote A = 1.71132219761e-179; the Euclidean A is
    # 5.70440732536e-180 and mpmath's 5.70440732495e-180, 1.5e-5 from this
    # row (tau0 sits 1.9e-10*theta below the pole).  Panels presplit toward
    # the poles moved the row from ...688e-180, 3.5e-12 closer to mpmath
    (["action-curve", "--method", "hj", "--V", "25.1017060772112",
      "--E0", "1.895994390930278", "--m", "1.7503228605816456e-191",
      "--theta", "2.692682741860235e-181", "--amp", "2.010261273250176e-186",
      "--n", "30", "--E", "14.509282325711807"], EXIT_OK,
     ["14.5092823257,5.70449230686e-180,1.43439508508e-94,nan,hj"]),
    # amp/rate overflows and erfi underflows in the Gaussian's imaginary-axis
    # integral, and amp/rate^2 in its first moment: inf*0 printed a
    # RuntimeWarning on the way to the error row
    (["action-curve", "--method", "euclidean", "--V", "11.853754663842217",
      "--m", "1.4348040068819126e+17", "--theta", "7.183446065548428e+155",
      "--amp", "4.565792734705011e+70", "--n", "24", "--pulse", "gauss",
      "--omega-rate", "1.0066222702909754e-269",
      "--E", "2.082438085624027e-169"], EXIT_OK,
     ["2.08243808562e-169,nan,nan,nan,error:ConvergenceError"]),
    (["action-curve", "--method", "euclidean", "--V", "3.4185784495693756",
      "--E0", "2.720749521432889", "--m", "0.5122895244086876",
      "--theta", "9.969942636296925e+242", "--amp", "1.4387818620763562e+206",
      "--n", "24", "--pulse", "gauss", "--omega-rate", "3.0183264190468845e-72",
      "--E", "2.4620992883079778"], EXIT_OK,
     ["2.46209928831,nan,nan,nan,error:RegimeError"]),
    # the quadrature's error scaling overflowed in a power (a RuntimeWarning)
    # before the pulse pole stopped the run
    (["verify", "--V", "24.502744408282176", "--m", "2.673074693225846e+261",
      "--theta", "2.677582420919926", "--amp", "0.4538842800786306",
      "--n", "10", "--E", "13.58577512339775"], EXIT_REGIME,
     "pulse evaluated at its pole"),
    # the exit route's pole check overflowed in the pulse value (a
    # RuntimeWarning), which it does not read
    (["verify", "--V", "5.2569779349795334e+163", "--E0", "2.935139527615123",
      "--m", "1.8086290114314587e-148", "--theta", "9.651060300667626e-239",
      "--amp", "1.642205317491207e-05", "--n", "26",
      "--E", "2.1837817529984827e+163"], EXIT_NONCONVERGENCE,
     "verification failed"),
    # a finite integrand times a segment of length ~1e270 overflowed in the
    # quadrature panel (RuntimeWarnings) before the closed forms overflowed
    (["verify", "--V", "1.0783617325190618", "--E0", "2.2214735342680316",
      "--m", "8.740976176192478e+239", "--theta", "1.8867665778916902e+270",
      "--amp", "0.0007234993853730605", "--n", "30",
      "--E", "0.39546703932249494"], EXIT_REGIME, "OverflowError"),
    # the square of a finite Gaussian imaginary-axis integral above 1e154
    # overflowed in the integrand of int G^2 (a RuntimeWarning)
    (["verify", "--V", "2.5354499579356537e+297", "--E0", "1.257705865496538",
      "--m", "0.6642800639294909", "--theta", "102403199726.50885",
      "--amp", "0.0628266026920231", "--n", "24", "--pulse", "gauss",
      "--omega-rate", "2.144034800303098e-109", "--E", "6.531701011187358"],
     EXIT_NONCONVERGENCE, "integrand is not finite on integration path 0"),
    # a panel's share of a path tolerance of ~1e263 overflows in int G^2
    # (such an overflow printed a RuntimeWarning); an inf share splits
    # nothing, so the path gives up.  A Gaussian pulse names no poles to
    # presplit toward
    (["verify", "--V", "2e+232", "--E0", "1e+71", "--m", "1", "--amp", "1e+60",
      "--pulse", "gauss", "--omega-rate", "3e-45", "--E", "1"],
     EXIT_NONCONVERGENCE, "roundoff error prevents"),
    # the same overflow, tolerance ~4e269, stopped int G^2 of a Lorentzian;
    # on panels presplit toward its poles the panel values overflow to nan
    # first (mpmath: int G^2 = 1.27e314 and A = 1.74e320, beyond double
    # range): the path gives up on its non-finite integral (a nan A and
    # "verification failed" before)
    (["verify", "--V", "2.538855376756939e+276", "--E0", "2.4697804813007256e+82",
      "--m", "0.577371919643182", "--theta", "3.433312337572352e+43",
      "--amp", "0.05239418693783107", "--n", "26", "--E", "4.038681709829438"],
     EXIT_NONCONVERGENCE, "integral is not finite on integration path 0"),
    # amp*width^2 overflows in the Lorentzian's first moment, and inf*0 was
    # an invalid-value RuntimeWarning on the way to the nan
    (["verify", "--V", "10.326278829258557", "--E0", "2.706848838031653e+137",
      "--m", "1.444785265319069", "--theta", "1.845603364847251e+50",
      "--amp", "3.8017239705924795e+212", "--n", "26", "--E", "6.17877234232731"],
     EXIT_REGIME, "value = nan is not finite"),
    # the connector check fails at some scan shifts only (its interval
    # collapses in rounding at theta = 1e288); the shifts that pass
    # overflow in the trajectory (RuntimeWarnings) and give their paths up
    (["action-curve", "--barrier", "sech", "--method", "trajectory",
      "--V", "7.953406848788617e-75", "--a", "0.01528123819948645",
      "--m", "8.643298478744994e-137", "--theta", "1.0391227352093567e+288",
      "--amp", "5.1956938887074585e-67", "--n", "9",
      "--E", "1.1836144869153911e-84"], EXIT_OK,
     ["1.18361448692e-84,nan,nan,nan,error:RegimeError"]),
    # an inf rate prefactor times an underflowed exponential was an
    # invalid-value RuntimeWarning on the way to the nan
    (["rate", "--V", "1.9649361811573217e+18", "--E0", "8.272538265360801e-171",
      "--m", "4.990016735409436e-166", "--theta", "20.057977368566753",
      "--amp", "1.6057648494324502e+191", "--n", "28",
      "--E", "6.610292655321379e-205"], EXIT_REGIME, "rate = nan is not finite"),
    # at a huge mass the HJ route's pulse closed forms overflowed
    # (RuntimeWarnings) before the action's path gave up.  That pulse was
    # zero: the amplitude rescaled to unit mass, 3.24e-266 * 2^-272,
    # underflows, and the route now refuses the rescaling
    (["action-curve", "--method", "hj", "--V", "16.669541926155848",
      "--E0", "20.4886926937551", "--m", "3.440470987465432e+163",
      "--theta", "24.454348188254006", "--amp", "3.238570241318718e-266",
      "--n", "22", "--E", "6.457202094625802"], EXIT_OK,
     ["6.45720209463,nan,nan,nan,error:DomainError"]),
    # the Euclidean route solves at unit mass: there tau0 solves and the
    # closed forms overflow in width^2, a DomainError row (as the unsolved
    # tau0 of the problem as given was), not an OverflowError that ends the
    # grid
    (["action-curve", "--method", "euclidean", "--V", "6.556333933865696e+260",
      "--E0", "1.6819491418467846e+134", "--m", "1.3995617848832137e+99",
      "--theta", "1.6180599624645942e+250", "--amp", "1.8119968835737745e+63",
      "--n", "17", "--E", "476344.50543758966"], EXIT_OK,
     ["476344.505438,nan,nan,nan,error:DomainError"]),
    # at unit mass the amplitude's moments overflow to a nan A; the problem
    # as given solves
    (["verify", "--V", "2.0054737124425817e+170", "--E0", "3.140969280995144e-59",
      "--m", "6.515820548072835e-267", "--theta", "4.057973489721655e+89",
      "--amp", "6.212863020630919e-47", "--n", "3", "--E", "1.213014931832307e-33"],
     EXIT_OK, ["euclidean_A,6.95780052795e+168,6.95780052795e+168,0,pass"]),
    # the amplitude rescaled to unit mass, 1e-180 * 2^-498, is 0: the HJ
    # route refuses that rescaling (it wrote A = A0, the action of no
    # pulse), while the Euclidean route solves the problem as given
    (["action-curve", "--method", "hj", "--m", "1e300", "--amp", "1e-180",
      "--theta", "1e150", "--E", "5"], EXIT_OK,
     ["5,nan,nan,nan,error:DomainError"]),
    (["action-curve", "--method", "euclidean", "--m", "1e300", "--amp",
      "1e-180", "--theta", "1e150", "--E", "5"], EXIT_OK,
     ["5,nan,nan,nan,error:ConvergenceError"]),
], ids=["tau0-root", "euclidean-overflow", "sech-division", "rate-overflow",
        "tau00-overflow", "adapt-inf", "adapt-nan", "quanta-inf",
        "adapt-tiny-E0", "tau0-tiny-bracket", "nan-pulse-integral",
        "nan-pulse-integral-grid", "hj-underflow", "gauss-integral-nan",
        "gauss-moment-nan",
        "gk15-error-overflow", "exit-pole-check-overflow",
        "gk15-panel-overflow", "gauss-square-overflow",
        "tolerance-share-overflow-gauss", "tolerance-share-overflow",
        "lorentz-moment-nan", "sech-connector-overflow", "rate-nan",
        "hj-huge-mass-overflow", "unit-mass-overflow", "unit-mass-nan",
        "unit-mass-inexact-hj", "unit-mass-inexact-euclidean"])
def test_extreme_inputs_exit_code(argv, code, message, capsys):
    # the first five ended in a traceback (exit 1)
    assert _run(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        # message lists the rows of the table
        assert _body(captured)[1:] == message and not captured.err
        return
    err = captured.err
    assert message in err and err.count("\n") == 1
    if code == EXIT_REGIME:
        assert err.startswith("regime error:")
        # every regime row leaves double precision, but the pole hit
        assert "double-precision range" in err or "pole" in message
    else:
        assert err.startswith("non-convergence:")


def test_quanta_gaussian_on_decaying_barrier_error_rows(capsys):
    # the stable-well formula ignored the static field (A_eff = -3577 at E = 5)
    assert _run(["action-curve", "--method", "quanta", "--V", "10", "--E0",
                 "1", "--pulse", "gauss", "--amp", "0.05", "--omega-rate",
                 "0.05", "--E-grid", "5:9:2"]) == EXIT_OK
    body = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert body[1:] == ["5,nan,nan,nan,error:RegimeError",
                        "9,nan,nan,nan,error:RegimeError"]


@pytest.mark.parametrize("lines,out,fragment", [
    # values that do not parse (were a ValueError traceback)
    ("V = abc\n", None, "'V'"),
    ("n = 3.0\n", None, "'n'"),
    # an unknown key and a line without '=' (were silently dropped)
    ("colour = red\n", None, "'colour'"),
    ("V 10\n", None, "'V 10'"),
    # a missing config file and an --out inside a missing directory (were a
    # FileNotFoundError traceback)
    (None, None, "missing.cfg"),
    ("", "no-such-dir/rate.csv", "rate.csv"),
], ids=["bad-float", "bad-int", "unknown-key", "no-equals", "missing-config",
        "missing-out-dir"])
def test_config_and_output_errors_exit_code(lines, out, fragment, tmp_path,
                                            capsys):
    cfg_file = tmp_path / ("missing.cfg" if lines is None else "run.cfg")
    if lines is not None:
        cfg_file.write_text(lines)
    out_flags = ["--out", str(tmp_path / out)] if out else []
    code = _run(["--config", str(cfg_file), "rate", "--E", "5", "--amp",
                 "0.05", *out_flags])
    assert code == EXIT_REGIME
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and fragment in err


def test_nonconvergence_exit_code(monkeypatch, capsys):
    def boom(config):
        raise ConvergenceError("iteration stalled")

    monkeypatch.setitem(cli._COMMANDS, "rate", boom)
    code = _run(["rate", "--E", "5", "--amp", "0.05", "--theta", "2"])
    assert code == EXIT_NONCONVERGENCE
    assert "non-convergence" in capsys.readouterr().err


def test_quanta_frequency_stays_in_scan_range(capsys):
    # n = 2: the exponent falls toward the lower frequency edge 1e-2/theta,
    # and the optimum must stop there (it was 0.00407); at E = 14 it does,
    # with A_eff = 3.95 (at amp 2.46 both minima are negative, an error row)
    code = _run([
        "action-curve", "--method", "quanta", "--V", "16.7", "--E0", "2.27",
        "--m", "1.15", "--theta", "1.23", "--n", "2", "--amp", "2.0",
        "--E-grid", "13:14:2",
    ])
    assert code == EXIT_OK
    body = [l for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")]
    assert body[0] == "E,A_eff,omega_opt,N_opt,regime"
    assert len(body) == 3
    for row in body[1:]:
        E, _, omega, _, _ = row.split(",")
        # the CSV keeps 12 significant digits, so an edge may round past
        # itself (E = 13 sits on the upper one)
        assert 1e-2 / 1.23 * (1.0 - 1e-11) <= float(omega)
        assert float(omega) <= 50.0 * (16.7 - float(E)) * (1.0 + 1e-11)


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
    # the trajectory method solves the grid in lockstep; reruns must give the
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
    assert cli._format(1.0 / 3.0) == "0.333333333333"
    assert cli._format(2.0) == "2"
    assert cli._format("auto") == "auto"
    assert cli._format(None) == "nan"
