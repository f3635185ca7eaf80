"""Cross-check the expression engine against an external CAS.

Random polynomial expressions are mirrored into sympy symbols; arithmetic,
partial derivatives and formal derivatives must agree after expansion.
Random quotients are mirrored with each reciprocal atom as 1/D; their
derivatives must agree after cancellation. Skipped when sympy is
unavailable.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from jetvar import multiindex as mi
from jetvar.symcore import ChartContext, Expr, base, jet
from conftest import random_polynomial


def mirror(e, table):
    """Mirror an expression into sympy via the atom table; a reciprocal
    atom becomes 1/D."""
    total = sympy.Integer(0)
    for mono, (cn, cd) in e.num.items():
        term = sympy.Rational(cn, cd)
        for aid, exp in mono:
            atom = table[aid] if aid in table else 1 / mirror(e.ctx.atom(aid).arg, table)
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
    for s, J in ctx.jets():
        name = "y" + str(s) + "_" + "".join(map(str, J))
        table[ctx.coord_id(jet(s, J))] = sympy.Symbol(name)
    return table


def test_arithmetic_matches_cas():
    ctx = ChartContext(2, 2, 2)
    rng = random.Random(60)
    table = make_table(ctx)
    atoms = [base(1), base(2)] + [jet(s, J) for s, J in ctx.jets(max_order=2)]
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
    atoms = [base(1), base(2)] + [jet(1, J) for _, J in ctx.jets(max_order=2)]
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
    atoms = [base(1), base(2)] + [jet(1, J) for _, J in ctx.jets(max_order=2)]
    for _ in range(8):
        e = random_polynomial(ctx, rng, atoms, n_terms=4, degree=3)
        se = to_sympy(e, table)
        for i in (1, 2):
            want = sympy.diff(se, table[ctx.coord_id(base(i))])
            for s, J in ctx.jets(max_order=2):
                up = table[ctx.coord_id(jet(s, mi.merge(J, i)))]
                want += up * sympy.diff(se, table[ctx.coord_id(jet(s, J))])
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
    atoms = [base(1)] + [jet(1, J) for _, J in ctx.jets(max_order=2)]
    for _ in range(6):
        e, parts = random_quotient(ctx, rng, atoms)
        se = mirror(e, table)
        want = sum(to_sympy(N, table) / to_sympy(D, table) ** k for N, D, k in parts)
        assert vanishes(se - want)
        for c in atoms:
            got = mirror(e.partial(c), table)
            assert vanishes(got - sympy.diff(se, table[ctx.coord_id(c)]))
        want = sympy.diff(se, table[ctx.coord_id(base(1))])
        for s, J in ctx.jets(max_order=2):
            up = table[ctx.coord_id(jet(s, mi.merge(J, 1)))]
            want += up * sympy.diff(se, table[ctx.coord_id(jet(s, J))])
        assert vanishes(mirror(e.total_derivative(1), table) - want)
