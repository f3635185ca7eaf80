"""Cross-check the expression engine against an external CAS.

Random polynomial expressions are mirrored into sympy symbols; arithmetic,
partial derivatives and formal derivatives must agree after expansion.
Random quotients are mirrored with each reciprocal atom as 1/D; their
derivatives must agree after cancellation, and their canonical text, which
writes each shared reciprocal part once, must parse back to the same
quotient in a context that interns atoms in another order. Quadrature of random
polynomials must agree with the exact integral. Skipped when sympy is
unavailable.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar.symcore import ChartContext, Expr, base, jet, parse_expr
from conftest import random_polynomial


def mirror(e, table):
    """Mirror an expression into sympy via the atom table; a reciprocal
    atom becomes 1/D and a function atom the sympy function."""
    total = sympy.Integer(0)
    for mono, (cn, cd) in e.num.items():
        term = sympy.Rational(cn, cd)
        for aid, exp in mono:
            if aid in table:
                atom = table[aid]
            else:
                fa = e.ctx.atom(aid)
                arg = mirror(fa.arg, table)
                atom = 1 / arg if fa.name == "recip" else getattr(sympy, fa.name)(arg)
            term *= atom ** exp
        total += term
    return total


def to_sympy(e, table):
    """Mirror a polynomial expression into sympy via the atom table."""
    assert all(aid in table for mono in e.num for aid, _ in mono)  # no reciprocal atom
    return sympy.expand(mirror(e, table))


def make_table(ctx):
    table = {}
    for i in range(1, ctx.n + 1):
        table[ctx.coord_id(base(i))] = sympy.Symbol(f"x{i}")
    for y in ctx.coords(jet, range(ctx.max_order + 1)):
        name = "y" + str(y.sigma) + "_" + "".join(map(str, y.J))
        table[ctx.coord_id(y)] = sympy.Symbol(name)
    return table


def test_arithmetic_matches_cas():
    ctx = ChartContext(2, 2, 2)
    rng = random.Random(60)
    table = make_table(ctx)
    atoms = [base(1), base(2)] + ctx.coords(jet, range(3))
    for _ in range(15):
        a = random_polynomial(ctx, rng, atoms, n_terms=4, degree=3)
        b = random_polynomial(ctx, rng, atoms, n_terms=3, degree=2)
        assert to_sympy(a + b, table) == to_sympy(a, table) + to_sympy(b, table)
        assert to_sympy(a * b, table) == sympy.expand(to_sympy(a, table) * to_sympy(b, table))
        assert to_sympy(a ** 2, table) == sympy.expand(to_sympy(a, table) ** 2)


def test_partials_match_cas():
    ctx = ChartContext(2, 1, 2)
    rng = random.Random(61)
    table = make_table(ctx)
    atoms = [base(1), base(2)] + ctx.coords(jet, range(3))
    for _ in range(10):
        e = random_polynomial(ctx, rng, atoms, n_terms=4, degree=3)
        se = to_sympy(e, table)
        for c in atoms:
            got = to_sympy(e.partial(c), table)
            want = sympy.expand(sympy.diff(se, table[ctx.coord_id(c)]))
            assert got == want


def test_formal_derivative_matches_cas_chain_rule():
    # d_i mirrored in sympy: dx_i plus sum over jets of y_{J+i} d/dy_J
    ctx = ChartContext(2, 1, 2, max_order=3)
    rng = random.Random(62)
    table = make_table(ctx)
    atoms = [base(1), base(2)] + ctx.coords(jet, range(3))
    for _ in range(8):
        e = random_polynomial(ctx, rng, atoms, n_terms=4, degree=3)
        se = to_sympy(e, table)
        for i in (1, 2):
            want = sympy.diff(se, table[ctx.coord_id(base(i))])
            for y in ctx.coords(jet, range(3)):
                up = table[ctx.coord_id(jet(y.sigma, mi.merge(y.J, i)))]
                want += up * sympy.diff(se, table[ctx.coord_id(y)])
            got = to_sympy(e.total_derivative(i), table)
            assert got == sympy.expand(want)


def random_quotient(ctx, rng, atoms):
    """Sum of two random N/D^k: two reciprocal atoms, k = 1 or 2."""
    e, want = Expr.const(ctx, 0), []
    for _ in range(2):
        N = random_polynomial(ctx, rng, atoms, n_terms=3, degree=2)
        D = random_polynomial(ctx, rng, atoms, n_terms=2, degree=2, allow_const=False) + 1
        k = rng.randint(1, 2)
        e = e + N * D ** -k
        want.append((N, D, k))
    return e, want


def vanishes(f) -> bool:
    """Rational-function zero test; together() first keeps cancel() fast."""
    return sympy.cancel(sympy.together(f)) == 0


def test_quotient_calculus_matches_cas():
    ctx = ChartContext(1, 1, 2, max_order=3)
    rng = random.Random(63)
    table = make_table(ctx)
    atoms = [base(1)] + ctx.coords(jet, range(3))
    for _ in range(6):
        e, parts = random_quotient(ctx, rng, atoms)
        se = mirror(e, table)
        want = sum(to_sympy(N, table) / to_sympy(D, table) ** k for N, D, k in parts)
        assert vanishes(se - want)
        for c in atoms:
            got = mirror(e.partial(c), table)
            assert vanishes(got - sympy.diff(se, table[ctx.coord_id(c)]))
        want = sympy.diff(se, table[ctx.coord_id(base(1))])
        for y in ctx.coords(jet, range(3)):
            up = table[ctx.coord_id(jet(y.sigma, mi.merge(y.J, 1)))]
            want += up * sympy.diff(se, table[ctx.coord_id(y)])
        assert vanishes(mirror(e.total_derivative(1), table) - want)


def shared_quotient(ctx, rng, coords):
    """A polynomial plus N*R for several reciprocal parts R: powers of 1/D
    with D = 1 + y^2 + x*(random), of 1/sqrt(1 + y(1;1)^2), and their product.
    Each N has at least two terms, so terms share every reciprocal part."""
    x, y = (Expr.coord(ctx, c) for c in coords[:2])
    D = 1 + y ** 2 + x * random_polynomial(ctx, rng, coords, n_terms=2, degree=1)
    S = Expr.func(ctx, "sqrt", 1 + Expr.coord(ctx, jet(1, (1,))) ** 2)
    parts = [D ** -rng.randint(1, 2), S ** -rng.randint(1, 3), D ** -1 * S ** -1]
    e = random_polynomial(ctx, rng, coords, n_terms=2, degree=2)
    for R in parts:
        N = (x + y) * (1 + random_polynomial(ctx, rng, coords, n_terms=2, degree=1,
                                             allow_const=False))
        e = e + N * R
    return e


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_grouped_quotient_text_matches_cas(seed):
    ctx = ChartContext(1, 1, 2)
    coords = [base(1), jet(1), jet(1, (1,)), jet(1, (1, 1))]
    table = make_table(ctx)
    e = shared_quotient(ctx, random.Random(seed), coords)
    text = str(e)
    recips = [a for a in ctx._recip_ids if any(a == b for mono in e.num for b, _ in mono)]
    assert len(recips) == 2
    for aid in recips:
        holders = [mono for mono in e.num if any(a == aid for a, _ in mono)]
        parts = {tuple((a, k) for a, k in mono if a in ctx._recip_ids) for mono in holders}
        shown = text.count(ctx.atom_text(aid) + "^-")
        assert shown == len(parts) < len(holders)
    # Another context interns the coordinates in reverse order, after a
    # function atom: the text parses to the same quotient there.
    fresh = ChartContext(1, 1, 2)
    Expr.func(fresh, "cos", Expr.coord(fresh, base(1)))
    for c in reversed(coords):
        fresh.coord_id(c)
    again = parse_expr(text, fresh)
    assert str(again) == text
    assert sympy.expand(mirror(again, make_table(fresh)) - mirror(e, table)) == 0


_MONOMIAL = st.tuples(st.integers(-9, 9), st.integers(0, 6), st.integers(0, 6))
_EDGE = st.tuples(st.integers(-8, 8), st.integers(1, 8))  # lower and width, in quarters


@settings(max_examples=40, deadline=None)
@given(st.lists(_MONOMIAL, min_size=1, max_size=6), _EDGE, _EDGE)
def test_quadrature_of_polynomials_matches_cas(monomials, edge1, edge2):
    # per-axis degree <= 6 on a dyadic box: the closed form is the exact
    # integral, rounded once
    ctx = ChartContext(2, 1, 1)
    x1, x2 = sympy.symbols("x1 x2")
    box = [(Fraction(lo, 4), Fraction(lo + width, 4)) for lo, width in (edge1, edge2)]
    e = Expr.const(ctx, 0)
    for c, k1, k2 in monomials:
        e = e + c * Expr.coord(ctx, base(1)) ** k1 * Expr.coord(ctx, base(2)) ** k2
    exact = sympy.integrate(sum(c * x1 ** k1 * x2 ** k2 for c, k1, k2 in monomials),
                            (x1, *box[0]), (x2, *box[1]))
    exact = Fraction(int(exact.p), int(exact.q))  # rounded by Python, not by sympy
    dom = N.IntegrationDomain(*zip(*((float(a), float(b)) for a, b in box)), 10)
    assert N.quadrature(e, dom) == float(exact)
