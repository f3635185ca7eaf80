import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetvar import numerics as N
from jetvar.errors import (DivisionByZeroError, DomainError, EvaluationError,
                           IndexRangeError, InputError, MissingCoordinateError,
                           OrderOverflowError, ParseError)
from jetvar.symcore import (ChartContext, Coord, Evaluator, Expr, base, jet,
                            mom, parse_expr, vel)
from conftest import assert_sym_equal, random_polynomial, run_python


@pytest.fixture
def ctx():
    return ChartContext(1, 1, 2)


# -- parsing ---------------------------------------------------------------

def test_parse_literal(ctx):
    e = parse_expr("1/2*y(1;1,1)^2", ctx)
    half = Expr.const(ctx, Fraction(1, 2))
    assert e == half * Expr.coord(ctx, jet(1, (1, 1))) ** 2


def test_parse_sorts_jet_indices():
    ctx = ChartContext(2, 1, 2)
    assert parse_expr("y(1;2,1)", ctx) == parse_expr("y(1;1,2)", ctx)


def test_parse_index_out_of_range():
    ctx = ChartContext(2, 1, 2)
    with pytest.raises(IndexRangeError):
        parse_expr("y(1;3)", ctx)


def test_parse_syntax_error_reports_position(ctx):
    with pytest.raises(ParseError) as err:
        parse_expr("y(1;1) + * 2", ctx)
    assert err.value.position is not None


def test_parse_order_overflow():
    ctx = ChartContext(1, 1, 1)  # max_order defaults to 1
    with pytest.raises(OrderOverflowError):
        parse_expr("y(1;1,1)", ctx)


def test_parse_velocity_and_momentum(ctx):
    assert parse_expr("v(1;|1)", ctx) == Expr.coord(ctx, vel(1, (), 1))
    c2 = ChartContext(2, 1, 2)
    assert parse_expr("v(1;2,1|1)", c2) == Expr.coord(c2, vel(1, (1, 2), 1))
    assert parse_expr("P(1;1,2)", c2) == Expr.coord(c2, mom(1, (1, 2)))


def test_parse_decimal_is_exact(ctx):
    assert parse_expr("0.5", ctx) == Expr.const(ctx, Fraction(1, 2))


def test_roundtrip_canonical_text(ctx):
    rng = random.Random(3)
    atoms = [base(1), jet(1), jet(1, (1,)), jet(1, (1, 1))]
    for _ in range(25):
        e = random_polynomial(ctx, rng, atoms)
        assert parse_expr(str(e), ctx) == e
    for text in ("(y(1)+1)/(y(1;1)-2)", "sin(y(1)/(1+y(1)^2))/(3+x(1))^2",
                 "sqrt(1+y(1;1)^2)^-5", "1/(2*y(1)+4)"):
        q = parse_expr(text, ctx)
        assert parse_expr(str(q), ctx) == q
    t = parse_expr("sin(y(1))^2*cos(x(1)) - sqrt(y(1;1))", ctx)
    assert parse_expr(str(t), ctx) == t


# -- partial derivatives ------------------------------------------------------

def test_partial_examples(ctx):
    e = parse_expr("1/2*y(1;1,1)^2", ctx)
    assert_sym_equal(e.partial(jet(1, (1, 1))), parse_expr("y(1;1,1)", ctx))
    assert parse_expr("x(1)", ctx).partial(jet(1)).is_zero()
    assert_sym_equal(parse_expr("sin(y(1))", ctx).partial(jet(1)),
                     parse_expr("cos(y(1))", ctx))


def test_partial_quotient_and_functions(ctx):
    e = parse_expr("ln(y(1))", ctx)
    assert e.partial(jet(1)).equal_exact(parse_expr("1/y(1)", ctx))
    s = parse_expr("sqrt(y(1))", ctx)
    ds = s.partial(jet(1))
    assert ds.equal_exact(1 / (Expr.const(ctx, 2) * s))


# -- total derivative ----------------------------------------------------------

def test_total_derivative_examples(ctx):
    assert_sym_equal(parse_expr("y(1)", ctx).total_derivative(1),
                     parse_expr("y(1;1)", ctx))
    assert_sym_equal(parse_expr("y(1;1)*y(1;1)", ctx).total_derivative(1),
                     parse_expr("2*y(1;1)*y(1;1,1)", ctx))
    c2 = ChartContext(2, 1, 1)
    assert parse_expr("x(1)", c2).total_derivative(2).is_zero()


def test_total_derivative_order_overflow():
    ctx = ChartContext(1, 1, 1)  # bound 1
    e = parse_expr("y(1;1)", ctx)
    with pytest.raises(OrderOverflowError):
        e.total_derivative(1)
    ctx.ensure_max_order(2)
    assert_sym_equal(e.total_derivative(1), parse_expr("y(1;1,1)", ctx))


def test_total_derivative_rejects_velocities(ctx):
    with pytest.raises(InputError):
        parse_expr("v(1;|1)", ctx).total_derivative(1)


def test_formal_derivatives_commute():
    ctx = ChartContext(2, 2, 2, max_order=4)
    rng = random.Random(11)
    atoms = [base(1), base(2), jet(1), jet(2, (1,)), jet(1, (1, 2))]
    for _ in range(15):
        e = random_polynomial(ctx, rng, atoms)
        d12 = e.total_derivative(1).total_derivative(2)
        d21 = e.total_derivative(2).total_derivative(1)
        assert d12 == d21


def test_leibniz_rule(ctx):
    rng = random.Random(13)
    atoms = [base(1), jet(1), jet(1, (1,))]
    for _ in range(15):
        e = random_polynomial(ctx, rng, atoms)
        f = random_polynomial(ctx, rng, atoms)
        lhs = (e * f).total_derivative(1)
        rhs = e.total_derivative(1) * f + e * f.total_derivative(1)
        assert lhs == rhs


# -- prolonged total derivative -------------------------------------------------

def test_prolonged_examples(ctx):
    assert_sym_equal(parse_expr("y(1;1)", ctx).prolonged_total_derivative(1),
                     parse_expr("v(1;1|1)", ctx))
    got = parse_expr("y(1)*y(1;1)", ctx).prolonged_total_derivative(1)
    want = parse_expr("v(1;|1)*y(1;1) + y(1)*v(1;1|1)", ctx)
    assert_sym_equal(got, want)
    with pytest.raises(InputError):
        parse_expr("v(1;|1)", ctx).prolonged_total_derivative(1)


# -- evaluation -----------------------------------------------------------------

def test_eval_examples(ctx):
    assert parse_expr("1/2*y(1;1)^2", ctx).eval({jet(1, (1,)): 2}) == 2.0
    with pytest.raises(MissingCoordinateError):
        parse_expr("x(1)+y(1)", ctx).eval({base(1): 1})
    with pytest.raises(DivisionByZeroError):
        parse_expr("1/y(1)", ctx).eval({jet(1): 0})


def test_eval_domain_errors(ctx):
    with pytest.raises(DomainError):
        parse_expr("ln(y(1))", ctx).eval({jet(1): -1.0})
    with pytest.raises(DomainError):
        parse_expr("sqrt(y(1))", ctx).eval({jet(1): -1.0})


def test_eval_overflow_is_evaluation_error(ctx):
    # Python raises OverflowError on floats; numpy returns inf on arrays:
    # both paths report an EvaluationError when the inputs are finite.
    for text, bad in (("exp(x(1))", 1000.0), ("x(1)^400", 1e10),
                      ("x(1)*x(1)", 1e200)):
        e = parse_expr(text, ctx)
        with pytest.raises(EvaluationError):
            e.eval({base(1): bad})
        with pytest.raises(EvaluationError):
            N.grid(Evaluator([e], [base(1)]), np.array([1.0, bad, 2.0]))
    # non-finite inputs propagate
    assert math.isinf(parse_expr("2*x(1)", ctx).eval({base(1): math.inf}))
    got = N.grid(Evaluator([parse_expr("2*x(1)", ctx)], [base(1)]),
                 np.array([1.0, math.inf]))
    assert got[0][0] == 2.0 and math.isinf(got[0][1])


def test_evaluator_set_shares_atoms_and_checks_inputs(ctx):
    a = parse_expr("sin(x(1))^2 + y(1)", ctx)
    b = parse_expr("cos(x(1)) - sin(x(1))/y(1)", ctx)
    ev = Evaluator([a, b], [base(1), jet(1)])
    assert ev.source.count("_m.sin(") == 1
    assert ev(0.5, 2.0) == (a.eval({base(1): 0.5, jet(1): 2.0}),
                            b.eval({base(1): 0.5, jet(1): 2.0}))
    va, vb = N.grid(ev, np.linspace(0.0, 1.0, 7), 2.0)
    assert va.shape == vb.shape == (7,)
    with pytest.raises(MissingCoordinateError, match=r"y\(1\)"):
        Evaluator([a], [base(1)])(0.5)


def _reference_eval(e: Expr, point: dict) -> float:
    """Point-by-point walk of the polynomial, as evaluation worked before it
    was compiled: ``cn/cd`` times atom powers in monomial order, summed in
    dict order from 0.0, atoms cached at their first visit; a reciprocal
    atom is ``1.0 / arg``."""
    ctx = e.ctx
    vals = {ctx.coord_id(c): float(v) for c, v in point.items()}
    cache = {}

    def poly(p):
        total = 0.0
        for mono, (cn, cd) in p.items():
            term = cn / cd
            for aid, exp in mono:
                term *= atom(aid) ** exp
            total += term
        return total

    def atom(aid):
        if aid in cache:
            return cache[aid]
        a = ctx.atom(aid)
        if isinstance(a, Coord):
            if aid not in vals:
                raise MissingCoordinateError(f"no value for coordinate {a.text()}")
            v = vals[aid]
        else:
            x = poly(a.arg.num)
            if a.name == "recip":
                if x == 0:
                    raise DivisionByZeroError("denominator evaluated to zero")
                v = 1.0 / x
            elif a.name == "ln":
                if x <= 0:
                    raise DomainError(f"ln of non-positive value {x}")
                v = math.log(x)
            elif a.name == "sqrt":
                if x < 0:
                    raise DomainError(f"sqrt of negative value {x}")
                v = math.sqrt(x)
            else:
                v = getattr(math, a.name)(x)
        cache[aid] = v
        return v

    return poly(e.num)


_EVAL_COORDS = (base(1), base(2), jet(1))


def _random_transcendental(ctx, rng, depth):
    """Sum of monomials in coordinates, quotients and function atoms whose
    arguments keep values moderate (no overflow, denominators >= 1); at
    depth 0 only coordinates and sin/cos of a coordinate."""
    coords = [Expr.coord(ctx, c) for c in _EVAL_COORDS]
    kinds = ["coord", "coord", "sin", "cos", "exp", "ln", "sqrt", "quot"]
    total = Expr.const(ctx, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    for _ in range(rng.randint(1, 3 if depth else 2)):
        term = Expr.const(ctx, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                        rng.randint(1, 4)))
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(kinds if depth else ["coord", "coord", "nested"])
            if kind == "coord":
                f = rng.choice(coords)
            elif kind == "nested":  # a function atom inside an argument
                f = Expr.func(ctx, rng.choice(["sin", "cos"]), rng.choice(coords))
            else:
                u = _random_transcendental(ctx, rng, depth - 1)
                bounded = u / (1 + u * u)
                f = {"sin": lambda: Expr.func(ctx, "sin", u),
                     "cos": lambda: Expr.func(ctx, "cos", bounded),
                     "exp": lambda: Expr.func(ctx, "exp", bounded),
                     "ln": lambda: Expr.func(ctx, "ln", 1 + u * u),
                     "sqrt": lambda: Expr.func(ctx, "sqrt", 1 + u * u),
                     "quot": lambda: bounded}[kind]()
            term = term * f ** rng.randint(1, 2)
        total = total + term
    return total


def _first_error(fn):
    try:
        fn()
    except (DivisionByZeroError, DomainError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["ln", "sqrt", "quot"]))
def test_compiled_evaluation_matches_pointwise_walk(seed, poison):
    ctx = ChartContext(2, 1, 1)
    rng = random.Random(seed)
    e = _random_transcendental(ctx, rng, depth=1)
    shape = (3, 4)
    grid = [np.array([rng.uniform(-2.0, 2.0) for _ in range(12)]).reshape(shape)
            for _ in _EVAL_COORDS]
    points = [{c: float(g[idx]) for c, g in zip(_EVAL_COORDS, grid)}
              for idx in np.ndindex(shape)]

    # floats: bit-identical to the reference walk
    scalar = [e.eval(pt) for pt in points]
    assert scalar == [_reference_eval(e, pt) for pt in points]

    # arrays: elementwise equal to the float path up to last-digit rounding
    values = N.grid(Evaluator([e], _EVAL_COORDS), *grid)[0]
    assert values.shape == shape
    for got, want in zip(values.ravel(), scalar):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    # a grid with bad points raises what a row-major point loop raises first
    y = Expr.coord(ctx, jet(1))
    bad = e + {"ln": lambda: Expr.func(ctx, "ln", y),
               "sqrt": lambda: Expr.func(ctx, "sqrt", y),
               "quot": lambda: 1 / y}[poison]()
    ys = np.abs(grid[2]) + 0.25
    for k in rng.sample(range(12), rng.randint(1, 3)):
        ys.flat[k] = 0.0 if poison != "sqrt" else -rng.uniform(0.1, 2.0)
    bad_grid = grid[:2] + [ys]
    loop_error = None
    for idx in np.ndindex(shape):
        pt = {c: float(g[idx]) for c, g in zip(_EVAL_COORDS, bad_grid)}
        loop_error = _first_error(lambda: _reference_eval(bad, pt))
        if loop_error:
            break
    assert loop_error is not None
    bad_ev = Evaluator([bad], _EVAL_COORDS)
    assert _first_error(lambda: N.grid(bad_ev, *bad_grid)) == loop_error


def test_division_by_zero_expression(ctx):
    with pytest.raises(DivisionByZeroError):
        parse_expr("y(1)", ctx) / Expr.const(ctx, 0)


# -- canonical forms ---------------------------------------------------------------

def test_binomial_identity_canonicalizes_to_zero(ctx):
    a = parse_expr("y(1)", ctx)
    b = parse_expr("x(1)", ctx)
    assert ((a + b) ** 2 - a ** 2 - 2 * a * b - b ** 2).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(0, 3))
def test_canonical_soundness_random(seed, extra):
    ctx = ChartContext(2, 1, 1)
    rng = random.Random(seed)
    atoms = [base(1), base(2), jet(1), jet(1, (1,)), jet(1, (2,))]
    e1 = random_polynomial(ctx, rng, atoms, n_terms=3, degree=2 + extra % 2)
    e2 = random_polynomial(ctx, rng, atoms, n_terms=3, degree=2)
    lhs = (e1 + e2) * (e1 - e2)
    rhs = e1 ** 2 - e2 ** 2
    assert lhs == rhs  # identical canonical forms
    point = {a: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for a in atoms}
    assert math.isclose(lhs.eval(point), rhs.eval(point),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_partial_matches_finite_differences(ctx):
    rng = random.Random(17)
    atoms = [base(1), jet(1), jet(1, (1,))]
    h = 1e-6
    for _ in range(10):
        e = random_polynomial(ctx, rng, atoms)
        point = {a: rng.uniform(0.2, 1.0) for a in atoms}
        for a in atoms:
            up = dict(point)
            dn = dict(point)
            up[a] += h
            dn[a] -= h
            fd = (e.eval(up) - e.eval(dn)) / (2 * h)
            sym = e.partial(a).eval(point)
            assert abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))


def test_quotient_equality_cross_multiplication(ctx):
    a = parse_expr("(y(1)^2 - 1)/(y(1) - 1)", ctx)
    b = parse_expr("(y(1)^2 + 3*y(1) + 2)/(y(1) + 2)", ctx)
    # both reduce to y+1 off the poles, but with different stored factors
    assert a.equal_exact(b)
    assert not a == b  # stored representations differ (no cancellation)


def test_zero_test_is_exact_across_reciprocal_atoms(ctx):
    e = parse_expr("1/(1+y(1)) + 1/(1-y(1)) - 2/(1-y(1)^2)", ctx)
    assert len(e.num) == 3  # three different reciprocal atoms, not cancelled
    assert e.is_zero()
    assert not (e + parse_expr("1/(1+y(1))", ctx)).is_zero()


def test_probable_equality_for_transcendental(ctx):
    e = parse_expr("sin(y(1))^2 + cos(y(1))^2", ctx)
    one = Expr.const(ctx, 1)
    assert not e.equal_exact(one)
    assert e.probably_equal(one)
    assert not e.probably_equal(Expr.const(ctx, 2))


def test_interned_function_atoms_share_identity(ctx):
    a = parse_expr("sin(y(1) + 1)", ctx)
    b = parse_expr("sin(1 + y(1))", ctx)
    assert a == b


def test_context_validation():
    with pytest.raises(IndexRangeError):
        ChartContext(0, 1, 1)
    with pytest.raises(IndexRangeError):
        ChartContext(1, 1, 2, max_order=1)


def test_symbolic_layers_import_no_numpy():
    # Arrays live in the numeric modules only; the exact engine loads none.
    proc = run_python("-c", "import sys, jetvar, jetvar.symcore, jetvar.forms, jetvar.varcalc;"
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
