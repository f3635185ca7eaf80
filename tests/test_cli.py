import json
import math
import os

import pytest

from jetvar.cli import build_parser, run
from jetvar.symcore import ChartContext, parse_expr
from conftest import run_jetvar

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def prob_path(name):
    return os.path.join(PROBLEMS, name)


def run_cli(*args):
    proc = run_jetvar(*args)
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError:
        data = None
    return proc.returncode, data, proc.stderr


def strip_timing(data):
    data = dict(data)
    data.pop("timing", None)
    return data


HO = prob_path("harmonic_oscillator.prob")
FREE = prob_path("free_particle_field.prob")
QUARTIC = prob_path("quartic_r2.prob")


def test_derive_success_and_content():
    code, data, _ = run_cli("derive", HO)
    assert code == 0 and data["exit_code"] == 0
    assert data["checks"]["defect_zero"]["pass"]
    assert data["results"]["momenta"]["P(1;1)"] == "y(1;1)"


def test_derive_quartic_momentum_text():
    code, data, _ = run_cli("derive", QUARTIC)
    assert code == 0
    assert data["results"]["momenta"]["P(1;1)"] == "-y(1;1,1,1)"
    assert data["results"]["momenta"]["P(1;1,1)"] == "y(1;1,1)"


def test_derive_zero_lagrangian(tmp_path):
    f = tmp_path / "zero.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"0\"\n")
    code, data, _ = run_cli("derive", str(f))
    assert code == 0
    assert data["results"]["extended_lagrangian"] == "0"
    assert all(v == "0" for v in data["results"]["euler_lagrange"].values())


def test_malformed_expression_exit_1(tmp_path):
    f = tmp_path / "bad.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"y(1;1\"\n")
    code, data, _ = run_cli("derive", str(f))
    assert code == 1
    assert data["error"]["type"] == "ParseError"
    assert "position" in data["error"]["message"]


def test_degenerate_exit_3():
    code, data, _ = run_cli("legendre", prob_path("degenerate.prob"))
    assert code == 3
    assert data["error"]["type"] == "DegeneracyError"


def test_nongeodesic_exit_2(tmp_path):
    f = tmp_path / "bad_field.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n\n"
                 "[field]\ny(1;1) = \"y(1)\"\n")
    code, data, _ = run_cli("field-check", str(f))
    assert code == 2
    assert not data["checks"]["geodesic"]["pass"]
    assert data["results"]["pulled_derivative"]


def test_exit_codes_are_exclusive():
    # 0 success, 1 validation, 2 failed check, 3 degenerate: one per situation
    assert run_cli("derive", HO)[0] == 0
    assert run_cli("derive", prob_path("nonexistent.prob"))[0] == 1
    assert run_cli("legendre", prob_path("degenerate.prob"))[0] == 3


def test_regularity_point_file():
    code, data, _ = run_cli("regularity", QUARTIC, "--at",
                            prob_path("origin1d_r2.at"))
    assert code == 0
    assert data["checks"]["regular"]["pass"]
    assert data["results"]["hessian"]["positive_definite"]


def test_regularity_missing_point_is_input_error():
    code, data, _ = run_cli("regularity", QUARTIC)
    assert code == 1


def test_hdd_solve_matches_sine():
    code, data, _ = run_cli("hdd-solve", HO, "--init", prob_path("ho.init"),
                            "--x0", "0", "--x1", "1", "--step", "1e-3")
    assert code == 0
    assert abs(data["results"]["final"]["y(1)"] - math.sin(1.0)) <= 1e-6
    assert data["checks"]["holonomy"]["pass"]


def test_field_check_and_hj_and_excess():
    code, data, _ = run_cli("field-check", FREE)
    assert code == 0 and data["results"]["status"] == "zero"
    code, data, _ = run_cli("hj", FREE)
    assert code == 0 and data["checks"]["closed"]["pass"]
    code, data, _ = run_cli("excess", FREE)
    assert code == 0
    ctx = ChartContext(1, 1, 1)
    got = parse_expr(data["results"]["excess"], ctx)
    assert got.equal_exact(parse_expr("1/2*(y(1;1)-1)^2", ctx))


def test_verify_extremal_and_first_variation():
    code, data, _ = run_cli("verify-extremal", HO)
    assert code == 0
    assert data["results"]["euler_lagrange_residual"] <= 1e-10
    code, data, _ = run_cli("first-variation", HO)
    assert code == 0
    assert data["checks"]["first_variation"]["pass"]


def test_tolerance_override_changes_outcome():
    code, data, _ = run_cli("first-variation", HO, "--tol",
                            "first_variation=1e-15")
    assert code == 2
    assert not data["checks"]["first_variation"]["pass"]


def test_unknown_tolerance_rejected():
    code, data, _ = run_cli("derive", HO, "--tol", "nope=1")
    assert code == 1


@pytest.mark.parametrize("blocks,extra", [
    ("[domain]\nlower = 0, abc\n", ()),
    ("[domain]\nresolution = sixty\n", ()),
    ("[domain]\nresolution = 50\n\n[tolerances]\nholonomy = oops\n", ()),
    ("[domain]\nresolution = 50\n", ("--tol", "holonomy=abc")),
    ("[domain]\nresolution = 50\n\n[domain]\nlower = 1\n", ()),
    ("[domain]\nresolution = 50\n", ("--x0", "abc")),
    ("[domain]\nresolution = 50\n", ("--x1", "1..2")),
    ("[domain]\nresolution = 50\n", ("--step", "small")),
    ("[domain]\nresolution = 50\n", ("--resolution", "2.5")),
    ("[domain]\nresolution = 50\n", ("--eps", "tiny")),
    ("[domain]\nresolution = 50\n", ("--resolution", "0")),
    ("[domain]\nupper = nan\nresolution = 50\n", ()),
    ("[domain]\nlower = -inf\nresolution = 50\n", ()),
], ids=["domain-lower", "domain-resolution", "tolerances-block", "tol-option",
        "duplicate-block", "x0-option", "x1-option", "step-option",
        "resolution-option", "eps-option", "resolution-zero", "domain-nan",
        "domain-inf"])
def test_malformed_input_is_input_error(tmp_path, blocks, extra):
    f = tmp_path / "bad.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2 - 1/2*y(1)^2\"\n\n"
                 "[gamma]\ny(1) = \"sin(x(1))\"\n\n" + blocks)
    code, data, _ = run_cli("verify-extremal", str(f), *extra)
    assert code == 1
    assert data["error"]["type"] == "InputError"


@pytest.mark.parametrize("x1,step,message", [
    ("1", "1", "--step"),        # one step: two samples admit no derivative check
    ("1", "nan", "finite"),
    ("inf", "0.1", "finite"),
    ("1", "1e-300", "--step"),   # 1e300 steps: over the step budget
    ("1", "5e-324", "--step"),   # the step count overflows to inf
], ids=["one-step", "nan-step", "infinite-x1", "tiny-step", "subnormal-step"])
def test_hdd_solve_bad_interval_is_input_error(x1, step, message):
    code, data, _ = run_cli("hdd-solve", HO, "--init", prob_path("ho.init"),
                            "--x0", "0", "--x1", x1, "--step", step)
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert message in data["error"]["message"]


@pytest.mark.parametrize("command,option,text", [
    ("regularity", "--at", "x(1) = 0\ny(1) = 0\ny(1;1) = nan\ny(1;1,1) = 0\n"),
    ("regularity", "--at", "x(1) = 0\ny(1) = 0\ny(1;1) = 0\ny(1;1,1) = inf\n"),
    ("hdd-solve", "--init", "y(1) = nan\nP(1;1) = 1\n"),
], ids=["point-nan", "point-inf", "init-nan"])
def test_non_finite_point_is_input_error(tmp_path, command, option, text):
    f = tmp_path / "values.txt"
    f.write_text(text)
    prob = QUARTIC if command == "regularity" else HO
    code, data, _ = run_cli(command, prob, option, str(f),
                            "--x0", "0", "--x1", "1", "--step", "0.1")
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert "not finite" in data["error"]["message"]


def test_overflow_is_evaluation_error(tmp_path):
    f = tmp_path / "steep.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n\n"
                 "[gamma]\ny(1) = \"exp(1000*x(1))\"\n\n"
                 "[domain]\nresolution = 50\n")
    code, data, _ = run_cli("verify-extremal", str(f))
    assert code == 1
    assert data["error"]["type"] == "EvaluationError"


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "derive")


@pytest.mark.parametrize("name", sorted(f[:-len(".prob")] for f in os.listdir(PROBLEMS)
                                        if f.endswith(".prob")))
def test_derive_matches_golden_report(name):
    """``derive`` on every shipped problem reproduces its recorded report text."""
    data, _ = run(build_parser().parse_args(["derive", prob_path(name + ".prob")]))
    got = json.dumps({k: data[k] for k in ("results", "checks", "exit_code")},
                     indent=2, sort_keys=True) + "\n"
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert got == fh.read()


@pytest.mark.parametrize("args", [
    ("derive", HO),
    ("legendre", HO),
    ("derive", QUARTIC),
    ("field-check", FREE),
    ("excess", FREE),
    ("hj", FREE),
    ("verify-extremal", HO),
    ("hdd-solve", HO, "--init", prob_path("ho.init"),
     "--x0", "0", "--x1", "1", "--step", "1e-2"),
])
def test_reports_are_deterministic(args):
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert strip_timing(first) == strip_timing(second)


def test_report_expressions_reparse():
    _, data, _ = run_cli("derive", QUARTIC)
    ctx = ChartContext(1, 1, 2)
    ctx.ensure_max_order(4)
    for text in data["results"]["momenta"].values():
        parse_expr(text, ctx)
    for text in data["results"]["euler_lagrange"].values():
        parse_expr(text, ctx)
    lt = parse_expr(data["results"]["extended_lagrangian"], ctx)
    assert not lt.is_zero()


def test_out_file_and_text_format(tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli("derive", HO, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["exit_code"] == 0
    proc = run_jetvar("derive", HO, "--format", "text")
    assert proc.returncode == 0
    assert "momenta" in proc.stdout


def test_derive_with_free_coefficient_table():
    code, data, _ = run_cli("derive", prob_path("g_family_r2.prob"))
    assert code == 0
    assert data["checks"]["defect_zero"]["pass"]
    assert "coefficient_corrections" in data["results"]
    assert data["results"]["coefficient_corrections"]["q(1;1|2)"] == "y(1)"
    assert data["results"]["coefficient_corrections"]["q(1;2|1)"] == "-y(1)"


def test_regularity_reports_indefinite_hessian():
    code, data, _ = run_cli("regularity", prob_path("indefinite.prob"),
                            "--at", prob_path("origin.at"))
    assert code == 0  # regular (full rank) even though indefinite
    assert data["checks"]["regular"]["pass"]
    assert not data["results"]["hessian"]["positive_definite"]


def test_hj_non_closed_field_exit_2_with_report(tmp_path):
    f = tmp_path / "nongeo.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n\n"
                 "[field]\ny(1;1) = \"y(1)\"\n")
    code, data, _ = run_cli("hj", str(f))
    assert code == 2
    assert not data["checks"]["closed"]["pass"]
    assert data["exit_code"] == 2
