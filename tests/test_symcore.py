import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jetvar import _poly as K
from jetvar import numerics as N
from jetvar.errors import (DivisionByZeroError, DomainError, EvaluationError,
                           IndexRangeError, InputError, MissingCoordinateError,
                           OrderOverflowError, ParseError)
from jetvar.symcore import (ChartContext, Coord, Evaluator, Expr, base, jet,
                            mom, parse_expr, vel)
from jetvar.symcore.context import RESIDUE_PRIME
from jetvar.symcore.expr import _func_derivative
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
    inputs = [random_polynomial(ctx, rng, atoms) for _ in range(15)]
    for _ in range(3):  # quotients and function atoms, nested ones included
        p, q = (random_polynomial(ctx, rng, atoms) for _ in range(2))
        inputs += [p / (1 + q * q), Expr.func(ctx, "sin", p) * q,
                   Expr.func(ctx, "exp", p) / (1 + q * q),
                   Expr.func(ctx, "sqrt", 1 + p * p),
                   Expr.func(ctx, "cos", p / (1 + q * q)) + Expr.func(ctx, "ln", 1 + q * q)]
    for e in inputs:
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


def _diff_one_atom(p, aid):
    """Derivative by one atom in its own walk over the terms: the kernel's
    ``poly_diff`` before the gradient."""
    out = {}
    for m, c in p.items():
        for pos, (atom, exp) in enumerate(m):
            if atom != aid:
                continue
            nm = m[:pos] + (((atom, exp - 1),) if exp > 1 else ()) + m[pos + 1:]
            s = K.rat_add(out.get(nm, (0, 1)), K.rat(c[0] * exp, c[1]))
            if s[0] == 0:
                del out[nm]
            else:
                out[nm] = s
            break
    return out


def _two_walk_partial(e, c):
    """Reference partial: a support walk, then one derivative walk per atom."""
    ctx = e.ctx
    cid = ctx.coord_id(c)
    out = Expr(ctx, _diff_one_atom(e.num, cid))
    for aid in sorted(K.poly_support(e.num)):
        if ctx.is_coord(aid) or cid not in ctx.func_coord_support(aid):
            continue
        fa = ctx.atom(aid)
        chain = Expr(ctx, _diff_one_atom(e.num, aid)) * _func_derivative(ctx, aid, fa)
        out = out + chain * _two_walk_partial(fa.arg, c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_gradient_partials_match_two_walk_reference(seed):
    ctx = ChartContext(2, 1, 1)
    rng = random.Random(seed)
    e = _random_transcendental(ctx, rng, depth=1)
    # the kernel: one entry per atom, each the one-atom derivative, in the
    # same term order (numeric evaluation sums terms in dict order)
    grad = K.poly_grad(e.num)
    assert set(grad) == K.poly_support(e.num)
    for aid, d in grad.items():
        assert list(d.items()) == list(_diff_one_atom(e.num, aid).items())
    for c in (*_EVAL_COORDS, jet(1, (1,))):
        want = _two_walk_partial(e, c)
        for got in (e.partial(c), e.partial(c)):  # the second reads the cache
            assert list(got.num.items()) == list(want.num.items())


def _nested_reciprocals(ctx, rng, depth):
    """Random expression whose reciprocal atoms sit inside the arguments of
    function and reciprocal atoms, ``depth`` levels deep."""
    coords = [Expr.coord(ctx, c) for c in _EVAL_COORDS]
    e = random_polynomial(ctx, rng, coords, n_terms=2, degree=2)
    for _ in range(depth):
        inner = 1 + e * e
        wrapped = {"sqrt": lambda: Expr.func(ctx, "sqrt", inner),
                   "exp": lambda: Expr.func(ctx, "exp", e),
                   "sin": lambda: Expr.func(ctx, "sin", e),
                   "recip": lambda: 1 / inner}[rng.choice(["sqrt", "exp", "sin", "recip"])]()
        p, q = (random_polynomial(ctx, rng, coords, n_terms=2, degree=1) for _ in range(2))
        e = p + q / (1 + wrapped)
    return e


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 3))
def test_canonical_text_roundtrip_with_nested_reciprocals(seed, depth):
    ctx = ChartContext(2, 1, 1)
    e = _nested_reciprocals(ctx, random.Random(seed), depth)
    text = str(e)
    assert parse_expr(text, ctx) == e
    assert str(parse_expr(text, ctx)) == text
    # The same construction in a fresh context whose atom ids are shifted
    # (atoms used nowhere else are interned first) renders the same text:
    # atom texts and sort keys are cached per context and id, and neither
    # context's cache reaches the other.
    fresh = ChartContext(2, 1, 1)
    Expr.func(fresh, "cos", Expr.coord(fresh, jet(1, (1,))))
    assert str(_nested_reciprocals(fresh, random.Random(seed), depth)) == text
    assert str(e) == text


def test_canonical_text_of_nested_reciprocal_example():
    text = "1/(1+sqrt(1+1/(1+y(1)^2)))"
    ctx = ChartContext(1, 1, 1)
    e = parse_expr(text, ctx)
    assert str(e) == "(sqrt((y(1)^2 + 1)^-1 + 1) + 1)^-1"
    assert parse_expr(str(e), ctx) == e
    fresh = ChartContext(1, 1, 1)
    Expr.coord(fresh, base(1))
    assert str(parse_expr(text, fresh)) == str(e)


def test_reciprocal_text_does_not_depend_on_interning_order():
    # y(1) interned before x(1): the reciprocal's argument is still scaled by
    # the coefficient of x(1), its monomial that prints first
    ctx = ChartContext(1, 1, 1)
    y = Expr.coord(ctx, jet(1))
    e = 1 / (2 * Expr.coord(ctx, base(1)) + y)
    assert str(e) == "1/2*(x(1) + 1/2*y(1))^-1"
    assert str(parse_expr(str(e), ChartContext(1, 1, 1))) == str(e)
    for seed in (0, 3, 4):
        text = str(_random_transcendental(ChartContext(2, 1, 1), random.Random(seed), 2))
        assert str(parse_expr(text, ChartContext(2, 1, 1))) == text, seed


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


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["cancel", "perturbed", "random"]))
def test_zero_certificate_never_lies(seed, kind):
    # The residue only ever answers "nonzero"; it must agree with clearing
    # the reciprocal atoms, also when sqrt/exp atoms sit in their arguments.
    ctx = ChartContext(1, 1, 1)
    rng = random.Random(seed)
    x, y, y1 = (Expr.coord(ctx, c) for c in (base(1), jet(1), jet(1, (1,))))
    atoms = [x, y, y1, Expr.func(ctx, "sqrt", 1 + y1 * y1),
             Expr.func(ctx, "exp", x - y)]

    def poly(n_terms=2):
        return random_polynomial(ctx, rng, atoms, n_terms=n_terms, degree=2,
                                 allow_const=False)

    dens = [1 + poly() for _ in range(rng.randint(1, 3))]
    if kind == "random":
        e = Expr.sum(ctx, [poly() / d ** rng.randint(1, 2) for d in dens])
    else:
        a, b, c = poly(), rng.choice(dens), rng.choice(dens)
        e = a / b + a / c - a * (b + c) / (b * c)
        if kind == "perturbed":
            e = e + poly(n_terms=1) / rng.choice(dens)
    assert e.is_zero() == (not e._split()[0])
    if kind == "cancel":
        assert e.is_zero()


def test_zero_test_falls_through_when_the_residue_cannot_decide(ctx):
    p = RESIDUE_PRIME
    y = parse_expr("y(1)", ctx)
    # a coefficient denominator that is 0 modulo the prime
    zero = parse_expr(f"(y(1)+1)/({p}*(1+y(1))) - 1/{p}", ctx)
    nonzero = parse_expr(f"(y(1)+2)/({p}*(1+y(1))) - 1/{p}", ctx)
    assert any(d == p for _, d in zero.num.values())
    # a reciprocal atom whose argument has residue 0 at the certificate point
    c = y.residue()
    zero_arg = 1 / (y - c) + 1 / (y + c) - 2 * y / (y * y - c * c)
    nonzero_arg = 1 / (y - c) + parse_expr("x(1)", ctx)
    assert (y - c).residue() == 0 and len(zero_arg.num) == 3
    for e, want in ((zero, True), (nonzero, False), (zero_arg, True), (nonzero_arg, False)):
        assert e.residue() == 0  # no certificate: the answer comes from clearing
        assert e.is_zero() is want
        assert e.equal_exact(Expr.const(ctx, 0)) is want


def test_probable_equality_for_transcendental(ctx):
    e = parse_expr("sin(y(1))^2 + cos(y(1))^2", ctx)
    one = Expr.const(ctx, 1)
    assert not e.equal_exact(one)
    assert e.probably_equal(one)
    assert not e.probably_equal(Expr.const(ctx, 2))


def test_probable_equality_when_a_coordinate_cancels():
    # x(1) cancels from the difference, but each side still needs its value
    ctx = ChartContext(1, 1, 1)
    lhs = parse_expr("x(1) + sin(y(1))", ctx)
    assert not lhs.probably_equal(parse_expr("x(1) + cos(y(1))", ctx))
    square = parse_expr("x(1) + sin(y(1))^2", ctx)
    assert square.probably_equal(parse_expr("x(1) + 1 - cos(y(1))^2", ctx))


@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3), st.data())
def test_coords_lists_a_family_once_in_sort_order(n, m, r, data):
    ctx = ChartContext(n, m, r)
    kind, lengths = data.draw(st.sampled_from([(jet, range(2 * r)), (mom, range(1, r + 1))]))
    orders = data.draw(st.lists(st.sampled_from(lengths), unique=True))
    got = ctx.coords(kind, orders)
    assert got == sorted(got, key=Coord.sort_key)
    assert len(set(got)) == len(got) == m * sum(math.comb(n + k - 1, k) for k in orders)
    for c in got:
        ctx.coord_id(c)  # each one is a coordinate of the chart


def test_coord_equality_and_hash():
    # equal coordinates built apart, one pair per kind
    pairs = [(base(2), Coord("x", i=2)), (jet(1, (2, 1)), jet(1, (1, 2))),
             (vel(1, (2, 1), 2), Coord("v", i=2, sigma=1, J=(1, 2))),
             (mom(2, (1,)), Coord("P", sigma=2, J=(1,)))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        fields = (a.kind, a.i, a.sigma, a.J)
        assert a != fields and fields != a
    assert jet(1, (1,)) != mom(1, (1,)) and jet(1) != jet(2)
    # interning looks coordinates up by hash, which is made of integers only
    code = ("from jetvar.symcore import base, jet, mom, vel; "
            "print([hash(c) for c in (base(1), jet(1, (2, 1)), vel(1, (1,), 2), mom(1, (1,)))])")
    outs = []
    for seed in ("1", "2"):
        proc = run_python("-c", code, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_interned_function_atoms_share_identity(ctx):
    a = parse_expr("sin(y(1) + 1)", ctx)
    b = parse_expr("sin(1 + y(1))", ctx)
    assert a == b


def test_functions_fold_at_exact_arguments(ctx):
    for text, value in (("exp(0)", 1), ("sin(0)", 0), ("cos(0)", 1), ("ln(1)", 0),
                        ("sqrt(9/4)", Fraction(3, 2)), ("exp(y(1) - y(1))", 1),
                        ("sin(2*x(1) - x(1) - x(1))", 0)):
        e = parse_expr(text, ctx)
        assert e == value and e.is_constant(), text
    assert (parse_expr("exp(0)", ctx) - 1).is_zero()
    assert (parse_expr("cos(0)^2 + sin(0)", ctx) - 1).is_zero()
    assert not ctx._func_ids  # a folded function interns no atom
    assert str(parse_expr("exp(0*y(1)) + cos(x(1) - x(1))*y(1)", ctx)) == "y(1) + 1"
    assert not parse_expr("exp(1)", ctx).is_constant()


def test_context_validation():
    with pytest.raises(IndexRangeError):
        ChartContext(0, 1, 1)
    with pytest.raises(IndexRangeError):
        ChartContext(1, 1, 2, max_order=1)


def test_symbolic_layers_import_no_numpy():
    quotient = os.path.join(os.path.dirname(__file__), os.pardir, "problems", "quotient_r2.prob")
    numpy_loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"
    numeric_layers = ("jetvar.numerics", "jetvar.legendre", "jetvar.fields")
    oscillator = os.path.join(os.path.dirname(__file__), os.pardir, "problems",
                              "harmonic_oscillator.prob")
    rule_loaded = ("sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))"
                   " if 'numpy' in sys.modules else ['numpy']")
    cases = [
        # Arrays live in the numeric modules only; the exact engine loads none.
        ("import jetvar, jetvar.symcore, jetvar.forms, jetvar.varcalc", numpy_loaded),
        # The numeric modules import numpy when they compute; derive never does.
        ("import jetvar.cli; assert jetvar.cli.main("
         f"['derive', {quotient!r}, '--out', os.devnull]) == 0", numpy_loaded),
        # The CLI registers the numeric modules: tracers look them up by name.
        ("import jetvar.cli", f"[m for m in {numeric_layers!r} if m not in sys.modules]"),
        # Registered, not run: derive runs none of them (type() does not load
        # a lazy module, and a run one is a plain module).
        ("import types, jetvar.cli; assert jetvar.cli.main("
         f"['derive', {quotient!r}, '--out', os.devnull]) == 0",
         f"[m for m in {numeric_layers!r} if type(sys.modules[m]) is types.ModuleType]"),
        # A numeric command runs the module it uses on first use.
        ("import types, jetvar.cli; assert jetvar.cli.main("
         f"['first-variation', {oscillator!r}, '--out', os.devnull]) == 0",
         "[m for m in ('jetvar.numerics',) if type(sys.modules[m]) is not types.ModuleType]"),
        # A layer imported before the CLI is the one the CLI uses, not a copy.
        ("import jetvar.numerics as N0, jetvar.cli",
         "[] if jetvar.cli.N is N0 is sys.modules['jetvar.numerics'] else ['copy']"),
        # Record classes are plain classes: start-up loads no dataclasses
        # machinery, which imports inspect, ast, dis and tokenize.
        ("import jetvar.cli", "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"),
        # Problem, point and init files have their own line reader.
        ("import jetvar.cli", "[m for m in ('configparser',) if m in sys.modules]"),
        # The 5-point rule is in closed form: quadrature on arrays (a sin
        # integrand) loads numpy but not its polynomial package.
        ("import jetvar.cli; assert jetvar.cli.main("
         f"['first-variation', {oscillator!r}, '--out', os.devnull]) == 0", rule_loaded),
    ]
    for code, shown in cases:
        proc = run_python("-c", f"import os, sys; {code}; print({shown})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", code
