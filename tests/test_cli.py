import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from jetvar.cli import DEFAULT_TOLERANCES, ProblemFile, build_parser, main, run
from jetvar.symcore import ChartContext, parse_expr
from conftest import child_env, run_jetvar

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


@pytest.mark.parametrize("L,position", [
    ("y(1;1)²", 6),
    ("(" * 250 + "y(1;1)" + ")" * 250, 100),
    ("sqrt(" * 250 + "y(1;1)" + ")" * 250, 500),
    ("sqrt(" * 200 + "y(1;1)" + ")" * 200, 500),
], ids=["superscript-digit", "parentheses-250", "sqrt-250", "sqrt-200"])
def test_unparseable_density_is_parse_error(tmp_path, L, position):
    # each used to end in a traceback: int("²"), or RecursionError in the
    # parser or, for 200 nested sqrt, later in derive
    f = tmp_path / "bad.prob"
    f.write_text(f"[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"{L}\"\n")
    code, data, err = run_cli("derive", str(f))
    assert code == 1 and "Traceback" not in err
    assert data["error"]["type"] == "ParseError"
    assert f"(at position {position})" in data["error"]["message"]


def test_nesting_bound_admits_its_own_depth(tmp_path):
    from jetvar.symcore.parser import MAX_NESTING
    f = tmp_path / "deep.prob"
    L = "sqrt(" * MAX_NESTING + "1 + y(1;1)^2" + ")" * MAX_NESTING
    f.write_text(f"[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"{L}\"\n")
    code, data, _ = run_cli("derive", str(f))
    assert code == 0 and data["checks"]["defect_zero"]["pass"]


def test_a_long_run_of_unary_minus_parses(tmp_path):
    # read in a loop: 1,000 signs used to recurse once each
    f = tmp_path / "signs.prob"
    for signs in (1000, 1001):
        f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                     f"[lagrangian]\nL = \"{'-' * signs}y(1;1)^2\"\n")
        code, data, err = run_cli("derive", str(f))
        assert code == 0 and "Traceback" not in err
        assert data["problem"]["L"] == ("-" if signs % 2 else "") + "y(1;1)^2"


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


@pytest.mark.parametrize("argv", [
    ["derive", prob_path("laplace.prob"), "--bogus", "1"],
    ["frobnicate", prob_path("laplace.prob")],
], ids=["unknown-option", "unknown-command"])
def test_usage_error_is_input_error(argv, capsys):
    # argparse's own exit 2 would read as "a computed check failed"
    code, data, _ = run_cli(*argv)
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "InputError"


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child starts
    try:
        proc = subprocess.run([sys.executable, "-m", "jetvar.cli", "derive", HO],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


def test_help_exits_0():
    proc = run_jetvar("--help")
    assert proc.returncode == 0
    assert "usage: jetvar" in proc.stdout


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


def test_first_variation_three_base_dimensions(tmp_path):
    # gamma = x1 x2 x3 is harmonic, so the whole variation is the boundary
    # term; the integral of d1(gamma) over the unit cube is 1/4
    f = tmp_path / "laplace3.prob"
    f.write_text("[problem]\nn = 3\nm = 1\nr = 1\n\n[lagrangian]\n"
                 "L = \"1/2*(y(1;1)^2 + y(1;2)^2 + y(1;3)^2)\"\n\n"
                 "[gamma]\ny(1) = \"x(1)*x(2)*x(3)\"\n\n"
                 "[variation]\ny(1) = \"x(1)\"\n\n"
                 "[domain]\nlower = 0\nupper = 1\nresolution = 9\n")
    code, data, _ = run_cli("first-variation", str(f))
    assert code == 0
    res = data["results"]
    for key in ("lhs", "boundary", "rhs"):
        assert abs(res[key] - 0.25) <= 1e-12
    assert res["interior"] == 0


def test_first_variation_of_polynomial_section_is_exact(tmp_path):
    # Laplace density, a quadratic section and a quadratic variation: both
    # sides are 65/3, and polynomial integrands are integrated in closed form
    f = tmp_path / "laplace_poly.prob"
    f.write_text("[problem]\nn = 2\nm = 1\nr = 1\n\n[lagrangian]\n"
                 "L = \"1/2*(y(1;1)^2 + y(1;2)^2)\"\n\n"
                 "[gamma]\ny(1) = \"3*x(1)^2 - 3*x(2)^2 + 2*x(1)*x(2)\"\n\n"
                 "[variation]\ny(1) = \"5*x(1)*x(2) + 3*x(1)^2\"\n\n"
                 "[domain]\nlower = 0\nupper = 1\nresolution = 201\n")
    code, data, _ = run_cli("first-variation", str(f))
    assert code == 0
    res = data["results"]
    assert abs(res["lhs"] - res["rhs"]) < 1e-9
    assert res["lhs"] == float(Fraction(65, 3))


def test_default_resolution_fits_the_grid_budget_at_n3(tmp_path):
    # no [domain] resolution: n = 3 takes 100 points per axis (100^3 <= 10^6)
    f = tmp_path / "laplace3.prob"
    f.write_text("[problem]\nn = 3\nm = 1\nr = 1\n\n[lagrangian]\n"
                 "L = \"1/2*(y(1;1)^2 + y(1;2)^2 + y(1;3)^2)\"\n\n"
                 "[gamma]\ny(1) = \"x(1)*x(2)*x(3)\"\n\n"
                 "[domain]\nlower = 0\nupper = 1\n")
    code, data, _ = run_cli("verify-extremal", str(f))
    assert code == 0
    # the action is 3 * 1/2 * (1/3)^2 = 1/6
    assert data["results"]["action"] == pytest.approx(1 / 6, rel=1e-14)


def test_tolerance_override_changes_outcome():
    # one 5-point panel leaves the sin integrand's two sides about 1e-13 apart
    code, data, _ = run_cli("first-variation", HO, "--resolution", "2", "--tol",
                            "first_variation=1e-15")
    assert code == 2
    assert not data["checks"]["first_variation"]["pass"]


def test_unknown_tolerance_rejected():
    code, data, _ = run_cli("derive", HO, "--tol", "nope=1")
    assert code == 1


GAMMA = "[gamma]\ny(1) = \"sin(x(1))\"\n\n"


@pytest.mark.parametrize("command,blocks,extra", [
    ("verify-extremal", GAMMA + "[domain]\nlower = 0, abc\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = sixty\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n\n[tolerances]\nholonomy = oops\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--tol", "holonomy=abc")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n\n[tolerances]\nholonomy = nan\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n\n[tolerances]\nholonomy = inf\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n\n[tolerances]\nholonomy = -1\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--tol", "holonomy=nan")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--tol", "holonomy=inf")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--tol", "holonomy=-1")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n\n[domain]\nlower = 1\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--x0", "abc")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--x1", "1..2")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--step", "small")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--resolution", "2.5")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--eps", "tiny")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 50\n", ("--resolution", "0")),
    ("verify-extremal", GAMMA + "[domain]\nupper = nan\nresolution = 50\n", ()),
    ("verify-extremal", GAMMA + "[domain]\nlower = -inf\nresolution = 50\n", ()),
    ("verify-extremal", "[gamma]\ny(1;1) = \"cos(x(1))\"\n", ()),
    ("verify-extremal", "[gamma]\ny(1)*(1+y(1))/(1+y(1)) = \"x(1)\"\n\n"
                        "[domain]\nresolution = 50\n", ()),
    ("legendre", GAMMA + "[delta]\nx(1) = \"0\"\n", ()),
    ("field-check", GAMMA + "[field]\nP(1;1) = \"1\"\n", ()),
    ("first-variation", GAMMA + "[variation]\ny(1;1) = \"1\"\n", ()),
    ("first-variation", GAMMA + "[variation]\ny(1) = \"1\"\n\n[domain]\nresolution = 50\n",
     ("--eps", "1e-5")),
    ("verify-extremal", GAMMA + "[domain]\nresolution = 10000001\n", ()),
    ("verify-extremal", "[problem]\nn = 2\nm = 1\nr = 1\n\n[lagrangian]\n"
                        "L = \"1/2*(y(1;1)^2 + y(1;2)^2)\"\n\n[gamma]\ny(1) = \"x(1)\"\n",
     ("--resolution", "3163")),
], ids=["domain-lower", "domain-resolution", "tolerances-block", "tol-option",
        "tolerances-nan", "tolerances-inf", "tolerances-negative",
        "tol-nan", "tol-inf", "tol-negative",
        "duplicate-block", "x0-option", "x1-option", "step-option",
        "resolution-option", "eps-option", "resolution-zero", "domain-nan",
        "domain-inf", "gamma-key", "gamma-key-quotient", "delta-key", "field-key", "variation-key",
        "eps-removed", "grid-over-budget-n1", "grid-over-budget-n2"])
def test_malformed_input_is_input_error(tmp_path, command, blocks, extra):
    # blocks that open with their own [problem] replace the n = 1 header
    f = tmp_path / "bad.prob"
    f.write_text(blocks if blocks.startswith("[problem]") else
                 "[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2 - 1/2*y(1)^2\"\n\n" + blocks)
    code, data, _ = run_cli(command, str(f), *extra)
    assert code == 1
    assert data["error"]["type"] == "InputError"


HEADER = "[problem]\nn = 1\nm = 1\nr = 1\n\n"
LAGRANGIAN = "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n"


@pytest.mark.parametrize("text,kind,message", [
    (HEADER + "[lagrangian]\nL = \"1/2*y(1;1)^2 % 3\"\n", "ParseError",
     "bad.prob:7: [lagrangian] L: unexpected character '%' (at position 13)"),
    (HEADER + "[DEFAULT]\nL = \"1/2*y(1;1)^2\"\n\n[lagrangian]\n", "InputError",
     "[lagrangian] block needs an L entry"),
    (HEADER + "[lagrangian]\nL: \"1/2*y(1;1)^2\"\n", "InputError",
     "bad.prob:7: expected 'key = value'"),
    ("n = 1\n" + HEADER + LAGRANGIAN, "InputError", "bad.prob:1: n comes before the first"),
    (HEADER + LAGRANGIAN + "    + y(1)^2\n", "InputError", "bad.prob:8: expected 'key = value'"),
    (HEADER + "r = 2\n" + LAGRANGIAN, "InputError", "bad.prob:6: r is given twice"),
    (HEADER + LAGRANGIAN + " = 1\n", "InputError", "bad.prob:8: expected 'key = value'"),
], ids=["percent", "default-block", "colon", "before-first-block", "continuation",
        "repeated-key", "empty-key"])
def test_problem_file_format(tmp_path, text, kind, message):
    # the first three used to pass configparser: a traceback
    # (InterpolationSyntaxError), L inherited from [DEFAULT], a `:` delimiter
    f = tmp_path / "bad.prob"
    f.write_text(text)
    code, data, err = run_cli("derive", str(f))
    assert code == 1 and "Traceback" not in err
    assert data["error"]["type"] == kind
    assert message in data["error"]["message"]


@pytest.mark.parametrize("option", ["--at", "--init"])
def test_block_header_in_a_values_file_is_input_error(tmp_path, option):
    f = tmp_path / "values.txt"
    f.write_text("[point]\ny(1) = 0\nP(1;1) = 1\n")
    command = "regularity" if option == "--at" else "hdd-solve"
    code, data, _ = run_cli(command, QUARTIC if option == "--at" else HO, option, str(f),
                            "--x0", "0", "--x1", "1", "--step", "0.1")
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert data["error"]["message"].endswith("values.txt:1: a values file has no [block] headers")


@pytest.mark.parametrize("command,text,option,message", [
    ("verify-extremal", LAGRANGIAN + "\n[gamma]\ny(1) = \"sin(x(1)\"\n\n[domain]\n"
                        "resolution = 50\n", None,
     "p.prob:10: [gamma] y(1): expected ')', found end of input (at position 8)"),
    ("derive", "[lagrangian]\nL = \"1/2*y(1;1,1)^2\"\n\n[g]\ng(1;2|1) = \"y(1) +\"\n", None,
     "p.prob:10: [g] g(1;2|1): unexpected end of input (at position 6)"),
    ("regularity", LAGRANGIAN, "x(1) = 0\ny(1) = 0\ny(1;1) = 1/(2\n",
     "values.txt:3: y(1;1): expected ')', found end of input (at position 4)"),
], ids=["gamma", "g", "point"])
def test_entry_parse_error_names_file_line_block_and_key(tmp_path, command, text, option,
                                                        message):
    # the message used to give only the position, and end of input as None
    path = tmp_path / "p.prob"
    r = "2" if command == "derive" else "1"
    path.write_text(HEADER.replace("r = 1", f"r = {r}") + text)
    extra = ()
    if option is not None:
        (tmp_path / "values.txt").write_text(option)
        extra = ("--at", str(tmp_path / "values.txt"))
    code, data, _ = run_cli(command, str(path), *extra)
    assert code == 1
    assert data["error"]["type"] == "ParseError"
    assert data["error"]["message"].endswith(message)


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
    # 334 (143) equal steps instead of a short last one; the derivative
    # checks use that step in their five-point stencil
    out = tmp_path / "report.json"
    assert main(["hdd-solve", prob, "--init", prob_path(init), "--x0", "0", "--x1", "1",
                 "--step", step, "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks["holonomy"]["pass"] and checks["euler_lagrange_along"]["pass"]


def test_hdd_solve_far_from_origin():
    # near 1e6 the sample abscissae are spaced unevenly by rounding; the
    # checks differentiate with the integration's step, not their spacing
    code, data, _ = run_cli("hdd-solve", HO, "--init", prob_path("ho.init"),
                            "--x0", "1000000", "--x1", "1000001", "--step", "0.01")
    assert code == 0
    assert data["checks"]["holonomy"]["detail"]["max"] < 1e-8
    assert data["checks"]["euler_lagrange_along"]["detail"]["max"] < 1e-8


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
    ("regularity", "--at", "x(1) = 0\ny(1) = 0\ny(1;1) = 10^400\ny(1;1,1) = 0\n"),
    ("hdd-solve", "--init", "y(1) = -10^400\nP(1;1) = 1\n"),
], ids=["point-nan", "point-inf", "init-nan", "point-beyond-float", "init-beyond-float"])
def test_non_finite_point_is_input_error(tmp_path, command, option, text):
    f = tmp_path / "values.txt"
    f.write_text(text)
    prob = QUARTIC if command == "regularity" else HO
    code, data, _ = run_cli(command, prob, option, str(f),
                            "--x0", "0", "--x1", "1", "--step", "0.1")
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert "not finite" in data["error"]["message"]


@pytest.mark.parametrize("which", ["problem", "point", "init"])
def test_non_utf8_file_is_input_error(tmp_path, which):
    bad = tmp_path / "latin1.txt"
    prob, option = {"problem": (str(bad), ()), "point": (QUARTIC, ("--at", str(bad))),
                    "init": (HO, ("--init", str(bad)))}[which]
    bad.write_bytes("[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"y(1;1)^2\"  ; é\n"
                    .encode("latin-1") if which == "problem" else b"y(1) = 0  # \xe9\n")
    command = "hdd-solve" if which == "init" else "regularity"
    code, data, err = run_cli(command, prob, *option, "--x0", "0", "--x1", "1", "--step", "0.1")
    assert code == 1 and "Traceback" not in err
    assert data["error"]["type"] == "InputError"
    assert str(bad) in data["error"]["message"] and "utf-8" in data["error"]["message"]


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


def _texts(entry):
    """Every string of a report entry: a string or a nested dict of them."""
    if isinstance(entry, str):
        return [entry]
    return [t for value in entry.values() for t in _texts(value)]


@pytest.mark.parametrize("name", sorted(f[:-len(".json")] for f in os.listdir(GOLDEN)))
def test_golden_derive_text_is_canonical(name):
    """Each expression a derive golden records prints back to itself after a
    parse in its problem's context: the recorded text is canonical."""
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        data = json.load(fh)
    texts = _texts(data["results"]) + _texts(data["checks"]["defect_zero"]["detail"])
    ctx = ProblemFile(prob_path(name + ".prob")).ctx
    for text in texts:
        assert str(parse_expr(text, ctx)) == text


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


REGULARITY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "regularity")
REGULARITY_CASES = {
    "quotient_r2": "origin1d_r2.at", "elastica": "origin1d_r2.at",
    "quartic_r2": "origin1d_r2.at", "minimal_surface": "origin.at",
    "laplace": "origin.at", "indefinite": "origin.at", "g_family_r2": "origin.at",
}


@pytest.mark.parametrize("name", sorted(REGULARITY_CASES))
def test_regularity_matches_golden_report(name):
    """``regularity`` reproduces its recorded blocks, ranks and Hessian (exit 3
    with its error for the rank-deficient g_family_r2)."""
    data, _ = run(build_parser().parse_args(
        ["regularity", prob_path(name + ".prob"), "--at", prob_path(REGULARITY_CASES[name])]))
    got = json.dumps(strip_timing(data), indent=2, sort_keys=True) + "\n"
    with open(os.path.join(REGULARITY_GOLDEN, name + ".json")) as fh:
        assert got == fh.read()


# P(1;1) = y(1;1)^3/3 - y(1;1) has three roots y(1;1) for |P(1;1)| < 2/3. From
# P(1;1) = 0 the flow P(1;1)' = 13/10 x(1) follows the middle root to
# -0.867962196538897 at x(1) = 1, where the outer root is 1.994
FOLD = "1/12*y(1;1)^4 - 1/2*y(1;1)^2 + 13/10*x(1)*y(1)"
MIDDLE_ROOT = -0.867962196538897


def _fold_hdd_solve(tmp_path, step):
    prob = problem_file(tmp_path, 1, 1, FOLD)
    init = init_file(tmp_path, "y(1) = 0.0\nP(1;1) = 0.0\n")
    return run_cli("hdd-solve", prob, "--init", init, "--x0", "0", "--x1", "1",
                   "--step", step)


def test_hdd_solve_samples_the_followed_root(tmp_path):
    code, data, _ = _fold_hdd_solve(tmp_path, "0.001")
    assert code == 0
    assert abs(data["results"]["final"]["y(1;1)"] - MIDDLE_ROOT) <= 1e-9


def test_hdd_solve_coarse_step_keeps_the_followed_root(tmp_path):
    # near the fold (dy(1;1)/dx is about -5 at x = 1) the coarse step's RK4
    # and stencil error may fail holonomy; the sampled root is still the one
    # the integration followed
    _, data, _ = _fold_hdd_solve(tmp_path, "0.01")
    assert abs(data["results"]["final"]["y(1;1)"] - MIDDLE_ROOT) <= 1e-6


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


# m -> L whose momenta P(s;1) = y(s;1)^2 have a singular Jacobian at y(s;1) = 0;
# m = 1 steps by division, m = 2 through LAPACK
CUBIC = {1: "1/3*y(1;1)^3", 2: "1/3*y(1;1)^3 + 1/3*y(2;1)^3"}


def _cubic_hdd_solve(tmp_path, m, momenta):
    init = "".join(f"y({s}) = 0.0\n" for s in range(1, m + 1))
    init += "".join(f"P({s};1) = {p}\n" for s, p in enumerate(momenta, 1))
    return run(build_parser().parse_args(
        ["hdd-solve", problem_file(tmp_path, m, 1, CUBIC[m], f"m{m}.prob"),
         "--init", init_file(tmp_path, init, f"m{m}.init"),
         "--x0", "0", "--x1", "1", "--step", "0.01"]))


def test_hdd_solve_newton_without_root_is_newton_error(tmp_path):
    # P(1;1) = y(1;1)^2 = -1 has no real root: every start fails
    for m, momenta in ((1, [-1.0]), (2, [-1.0, 1.0])):
        data, code = _cubic_hdd_solve(tmp_path, m, momenta)
        assert code == 1
        assert data["error"] == {"type": "NewtonError",
                                 "message": "no convergence after 50 iterations at layer 0"}


def test_hdd_solve_newton_restarts_after_singular_jacobian(tmp_path):
    # P(s;1) = y(s;1)^2 = 1: the first start y(s;1) = 0 is singular, the
    # restart at 1 converges, and y(s;1) = 1 along the whole trajectory
    for m in (1, 2):
        data, code = _cubic_hdd_solve(tmp_path, m, [1.0] * m)
        assert code == 0 and data["results"]["path"] == "newton"
        for s in range(1, m + 1):
            assert abs(data["results"]["final"][f"y({s})"] - 1.0) <= 1e-9


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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unusable_out_path_is_input_error(tmp_path, capsys, where):
    out = str(tmp_path / "missing" / "x.json") if where == "missing-dir" else str(tmp_path)
    # The path is decided before the command runs: a missing problem file
    # is never reached, so the report names the output path.
    for problem in (HO, prob_path("nonexistent.prob")):
        code, data, stderr = run_cli("derive", problem, "--out", out)
        assert code == 1, stderr
        assert data["error"]["type"] == "InputError"
        assert out in data["error"]["message"]
        assert "Traceback" not in stderr
        assert main(["derive", problem, "--out", out]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "derive"
        assert report["error"]["type"] == "InputError"
        assert out in report["error"]["message"]
    assert not (tmp_path / "missing").exists()


def _text_table_keys(text, table):
    """Keys of the results table ``table`` of a ``--format text`` report, in
    print order."""
    lines = text.splitlines()
    keys = []
    for line in lines[lines.index(f"  {table}:") + 1:]:
        if not line.startswith("    "):
            break
        keys.append(line.strip().split(": ", 1)[0])
    return keys


def test_text_report_prints_tables_in_canonical_order(tmp_path):
    # (s, |K|, K[, i]) order; the JSON reports sort their keys, so only the
    # text format shows it
    out = tmp_path / "report.txt"
    assert main(["derive", prob_path("g_family_r2.prob"), "--format", "text",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert _text_table_keys(text, "momenta") == [
        "P(1;1)", "P(1;2)", "P(1;1,1)", "P(1;1,2)", "P(1;2,2)"]
    assert _text_table_keys(text, "cartan_coefficients") == [
        "f(1;|1)", "f(1;|2)", "f(1;1|1)", "f(1;1|2)", "f(1;2|1)", "f(1;2|2)"]
    assert _text_table_keys(text, "coefficient_corrections") == [
        "q(1;|1)", "q(1;|2)", "q(1;1|2)", "q(1;2|1)"]
    assert _text_table_keys(text, "hamilton_table") == [
        "H(1)", "H(1;1)", "H(1;2)", "H(1;1,1)", "H(1;1,2)", "H(1;2,2)",
        "H(1;1,1,1)", "H(1;1,1,2)", "H(1;1,2,2)", "H(1;2,2,2)"]
    assert main(["legendre", QUARTIC, "--format", "text", "--out", str(out)]) == 0
    assert _text_table_keys(out.read_text(), "inverse_relations") == [
        "y(1;1,1)", "y(1;1,1,1)"]


def test_excess_certificate_reads_the_definiteness_pivot():
    # the free particle's top-order Hessian is 1: a pivot tolerance of 5
    # fails the definiteness condition
    code, data, _ = run_cli("excess", FREE, "--tol", "definiteness_pivot=5")
    assert code == 2
    assert data["tolerances"]["definiteness_pivot"] == 5.0
    assert not data["checks"]["certificate:hessian-positive-definite"]["pass"]


@pytest.mark.parametrize("n,block", [
    (2, "lower = 0, 0, 0"),
    (1, "lower = 0, 0"),
    (2, "upper = 1, 1, 1"),
], ids=["n2-three-lower", "n1-two-lower", "n2-three-upper"])
def test_domain_bounds_number_one_or_n(tmp_path, n, block):
    f = tmp_path / "bounds.prob"
    L = " + ".join(f"1/2*y(1;{i})^2" for i in range(1, n + 1))
    f.write_text(f"[problem]\nn = {n}\nm = 1\nr = 1\n\n[lagrangian]\nL = \"{L}\"\n\n"
                 f"[gamma]\ny(1) = \"x(1)\"\n\n[domain]\n{block}\nresolution = 5\n")
    code, data, _ = run_cli("verify-extremal", str(f))
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert "[domain]" in data["error"]["message"]
    assert f"n = {n}" in data["error"]["message"]


def test_derive_with_free_coefficient_table():
    code, data, _ = run_cli("derive", prob_path("g_family_r2.prob"))
    assert code == 0
    assert data["checks"]["defect_zero"]["pass"]
    assert "coefficient_corrections" in data["results"]
    assert data["results"]["coefficient_corrections"]["q(1;1|2)"] == "y(1)"
    assert data["results"]["coefficient_corrections"]["q(1;2|1)"] == "-y(1)"


@pytest.mark.parametrize("command,option,text,message", [
    ("hdd-solve", "--init", "y(1) = 0\ny(1) = 5\nP(1;1) = 1\n", "values.txt:2: y(1) is given twice"),
    ("regularity", "--at", "x(1) = 0\ny(1) = 0.1\nP(1;1) = 1\ny(1;1) = 0.2\ny(1;1,1) = 0.3\n"
                           "P(1;1) = 1\n", "values.txt:6: P(1;1) is given twice"),
], ids=["init", "point"])
def test_coordinate_given_twice_in_a_values_file_is_input_error(tmp_path, command, option,
                                                                 text, message):
    f = tmp_path / "values.txt"
    f.write_text(text)
    prob = QUARTIC if command == "regularity" else HO
    code, data, _ = run_cli(command, prob, option, str(f),
                            "--x0", "0", "--x1", "1", "--step", "0.1")
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert data["error"]["message"].endswith(message)


def test_coordinate_given_twice_in_a_block_is_input_error(tmp_path):
    # the keys differ as text, so the problem file parser keeps both
    f = tmp_path / "twice.prob"
    f.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                 "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n\n"
                 "[gamma]\ny(1) = \"x(1)\"\ny( 1 ) = \"x(1)^2\"\n\n"
                 "[domain]\nresolution = 50\n")
    code, data, _ = run_cli("verify-extremal", str(f))
    assert code == 1
    assert data["error"]["type"] == "InputError"
    assert data["error"]["message"] == "duplicate [gamma] entry 'y( 1 )': y(1) is given twice"


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


@pytest.mark.parametrize("command,text,code,message", [
    ("legendre", None, 3, "momentum relation for P(1;1) is not affine in order-1 jets"),
    ("field-check", "[problem]\nn = 1\nm = 1\nr = 2\n\n[lagrangian]\nL = \"1/2*y(1;1,1)^2\"\n\n"
                    "[field]\ny(1;1,1,1) = \"0\"\n", 1, "slope field misses component y(1;1,1)"),
    ("derive", "[problem]\nn = 2\nm = 1\nr = 2\n\n[lagrangian]\n"
               "L = \"1/2*(y(1;1,1)^2 + y(1;2,2)^2)\"\n\n[g]\ng(1;3|1) = \"y(1)\"\n",
     1, "index out of range in g(1;3|1)"),
    ("field-check", "[problem]\nn = 1\nm = 1\nr = 2\n\n[lagrangian]\nL = \"1/2*y(1;1,1)^2\"\n\n"
                    "[field]\ny(1;1) = \"0\"\n", 1, "slope component y(1;1) has order 1 outside 2..3"),
    ("derive", "[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"y(1;1)^2 + y(1;1,1)\"\n",
     1, "Lagrangian of declared order 1 contains y(1;1,1)"),
], ids=["legendre-momentum", "field-missing-jet", "g-entry", "field-component-order",
        "lagrangian-order"])
def test_messages_print_coordinate_text(tmp_path, command, text, code, message):
    path = prob_path("minimal_surface.prob")
    if text is not None:
        path = tmp_path / "p.prob"
        path.write_text(text)
    data, got = run(build_parser().parse_args([command, str(path)]))
    assert got == code and data["error"]["message"] == message
