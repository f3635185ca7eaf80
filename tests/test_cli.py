import json
import math
import os

import pytest

from jetvar.cli import DEFAULT_TOLERANCES, build_parser, main, run
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


@pytest.mark.parametrize("prob,init,step", [
    (HO, "ho.init", "0.003"),
    (QUARTIC, "cubic_r2.init", "0.003"),
    (QUARTIC, "cubic_r2.init", "0.007"),
], ids=["ho-0.003", "quartic-0.003", "quartic-0.007"])
def test_hdd_solve_step_not_dividing_the_interval(tmp_path, prob, init, step):
    # 334 (143) equal steps instead of a short last one, which made the grid
    # non-uniform and the derivative checks fall back to second order
    out = tmp_path / "report.json"
    assert main(["hdd-solve", prob, "--init", prob_path(init), "--x0", "0", "--x1", "1",
                 "--step", step, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks["holonomy"]["pass"] and checks["euler_lagrange_along"]["pass"]


def test_in_process_calls_share_no_options(tmp_path):
    # main builds its parser once per process; one call's options must not leak
    out = tmp_path / "report.json"
    assert main(["derive", HO, "--tol", "holonomy=1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"]["holonomy"] == 1.0
    assert main(["derive", HO, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"] == DEFAULT_TOLERANCES


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


HDD_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "hdd")
ANHARMONIC = "1/2*y(1;1)^2 + 1/12*y(1;1)^4 - 1/2*y(1)^2"


def problem_file(tmp_path, m, r, L, name="p.prob"):
    f = tmp_path / name
    f.write_text(f"[problem]\nn = 1\nm = {m}\nr = {r}\n\n[lagrangian]\nL = \"{L}\"\n")
    return str(f)


def init_file(tmp_path, text, name="p.init"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


# name -> (m, r, L or a shipped problem, init text or a shipped init file, step)
HDD_CASES = {
    "ho_chart": (1, 1, HO, "ho.init", "2.5e-4"),
    "quartic_r2_chart": (1, 2, QUARTIC, "cubic_r2.init", "0.003"),
    "anharmonic_newton": (1, 1, ANHARMONIC, "ho.init", "1.25e-3"),
    "anharmonic_r2_newton": (
        1, 2, "1/2*y(1;1,1)^2 + 1/12*y(1;1,1)^4 - 1/2*y(1;1)^2",
        "y(1) = 0.1\ny(1;1) = 0.2\nP(1;1) = 0.3\nP(1;1,1) = 0.4\n", "0.003"),
    "coupled_m2_newton": (
        2, 1, "1/2*(y(1;1)^2 + y(2;1)^2) + 1/12*(y(1;1)^4 + y(2;1)^4)"
              " + 1/4*y(1;1)^2*y(2;1)^2 - 1/2*(y(1)^2 + y(2)^2)",
        "y(1) = 0.1\ny(2) = -0.2\nP(1;1) = 0.3\nP(2;1) = 0.5\n", "0.003"),
}


@pytest.mark.parametrize("name", sorted(HDD_CASES))
def test_hdd_solve_matches_golden_report(tmp_path, name):
    """``hdd-solve`` on chart and Newton paths reproduces its recorded report."""
    m, r, L, init, step = HDD_CASES[name]
    prob = L if L.endswith(".prob") else problem_file(tmp_path, m, r, L)
    init = prob_path(init) if init.endswith(".init") else init_file(tmp_path, init)
    data, code = run(build_parser().parse_args(
        ["hdd-solve", prob, "--init", init, "--x0", "0", "--x1", "1", "--step", step]))
    assert code == 0
    got = json.dumps(strip_timing(data), indent=2, sort_keys=True) + "\n"
    with open(os.path.join(HDD_GOLDEN, name + ".json")) as fh:
        assert got == fh.read()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("y0", ["709.0", "710.0"])
def test_hdd_solve_overflow_is_evaluation_error(tmp_path, y0):
    # At 709 every stage value is finite and the RK4 combination overflows
    # P(1;1) to -inf; at 710 exp(y) itself overflows in the first stage.
    prob = problem_file(tmp_path, 1, 1, "1/2*y(1;1)^2 - exp(y(1))")
    init = init_file(tmp_path, f"y(1) = {y0}\nP(1;1) = 0.0\n")
    proc = run_jetvar("hdd-solve", prob, "--init", init,
                      "--x0", "0", "--x1", "1", "--step", "0.1")
    assert proc.returncode == 1
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert data["error"]["type"] == "EvaluationError"


def test_hdd_solve_newton_without_root_is_newton_error(tmp_path):
    # P = y'^2 = -1 has no real root: every start fails
    prob = problem_file(tmp_path, 1, 1, "1/3*y(1;1)^3")
    init = init_file(tmp_path, "y(1) = 0.0\nP(1;1) = -1.0\n")
    data, code = run(build_parser().parse_args(
        ["hdd-solve", prob, "--init", init, "--x0", "0", "--x1", "1", "--step", "0.01"]))
    assert code == 1
    assert data["error"] == {"type": "NewtonError",
                             "message": "no convergence after 50 iterations at layer 0"}


def test_hdd_solve_newton_restarts_after_singular_jacobian(tmp_path):
    # P = y'^2 = 1: the first start y' = 0 has a zero Jacobian, the restart
    # at 1 converges, and y' = 1 along the whole trajectory
    prob = problem_file(tmp_path, 1, 1, "1/3*y(1;1)^3")
    init = init_file(tmp_path, "y(1) = 0.0\nP(1;1) = 1.0\n")
    data, code = run(build_parser().parse_args(
        ["hdd-solve", prob, "--init", init, "--x0", "0", "--x1", "1", "--step", "0.01"]))
    assert code == 0 and data["results"]["path"] == "newton"
    assert abs(data["results"]["final"]["y(1)"] - 1.0) <= 1e-9


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
    out.write_text("x" * 100000)  # a longer old file is cut, not left behind
    code, _, _ = run_cli("derive", HO, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["exit_code"] == 0
    assert run_cli("derive", HO, "--out", os.devnull)[0] == 0
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


G_R3 = ("[problem]\nn = 2\nm = 1\nr = 3\n\n"
        "[lagrangian]\nL = \"1/2*(y(1;1,1,1)^2 + y(1;2,2,2)^2)\"\n\n[g]\n")


def test_g_keys_accept_any_index_order(tmp_path):
    f = tmp_path / "g.prob"
    reports = []
    for key in ("g(1;1|2,1)", "g(1;1|1,2)"):
        # admissible: N(1,2) g(1;1|1,2) + N(1,1) g(1;2|1,1) = 0
        f.write_text(G_R3 + f"{key} = \"y(1)\"\ng(1;2|1,1) = \"-2*y(1)\"\n")
        data, code = run(build_parser().parse_args(["derive", str(f)]))
        assert code == 0
        assert data["results"]["coefficient_corrections"]
        reports.append(strip_timing(data))
    assert reports[0] == reports[1]
    f.write_text(G_R3 + "g(1;1|2,1) = \"y(1)\"\ng(1;1|1,2) = \"y(1)\"\n")
    data, code = run(build_parser().parse_args(["derive", str(f)]))
    assert code == 1 and "duplicate [g] entry" in data["error"]["message"]


@pytest.mark.parametrize("command,text", [
    ("derive", "[problem]\nn = 2\nm = 1\nr = 2\n\n[lagrangian]\n"
               "L = \"(y(1;1,1)+y(1;2,2))^2/(1+y(1;1)^2+y(1;2)^2)\"\n"),
    ("first-variation", "[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\n"
                        "L = \"y(1;1)^2/(1+y(1)^2) + exp(x(1))*y(1)\"\n\n"
                        "[gamma]\ny(1) = \"cos(x(1))/(2+x(1))\"\n\n"
                        "[variation]\ny(1) = \"1 + x(1)^2\"\n\n"
                        "[domain]\nlower = 0\nupper = 2\nresolution = 301\n"),
], ids=["derive-n2", "first-variation"])
def test_quotient_problems_finish_with_checks_passing(tmp_path, command, text):
    f = tmp_path / "quotient.prob"
    f.write_text(text)
    data, code = run(build_parser().parse_args([command, str(f)]))
    assert code == 0
    assert data["checks"] and all(c["pass"] for c in data["checks"].values())


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
