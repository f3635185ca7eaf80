import math
import random

import numpy as np
import pytest

from jetvar import legendre as LG
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.errors import (DegeneracyError, InputError,
                           UnsupportedSymbolicError)
from jetvar.symcore import ChartContext, Expr, base, jet, mom, parse_expr
from conftest import assert_sym_equal


def problem(text, n=1, m=1, r=1):
    ctx = ChartContext(n, m, r)
    return V.LagrangianProblem(ctx, parse_expr(text, ctx))


def full_point(ctx, rng, order=None):
    pt = {base(i): rng.uniform(-1, 1) for i in range(1, ctx.n + 1)}
    for s, J in ctx.jets(max_order=order or ctx.r):
        pt[jet(s, J)] = rng.uniform(-1, 1)
    return pt


# -- regularity --------------------------------------------------------------------

def test_regularity_second_order_top_block():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    pt = full_point(prob.ctx, random.Random(1))
    rep = LG.regularity_report(prob, pt)
    assert rep.blocks[2].numeric.tolist() == [[1.0]]
    assert rep.regular


def test_regularity_linear_top_jet_fails():
    prob = problem("y(1;1,1)*y(1;1)", r=2)
    pt = full_point(prob.ctx, random.Random(2))
    rep = LG.regularity_report(prob, pt)
    assert rep.blocks[2].numeric.tolist() == [[0.0]]
    assert not rep.regular


def test_regularity_laplace_identity_block():
    prob = problem("1/2*(y(1;1)^2 + y(1;2)^2)", n=2)
    pt = full_point(prob.ctx, random.Random(3))
    rep = LG.regularity_report(prob, pt)
    assert np.allclose(rep.blocks[1].numeric, np.eye(2))
    assert rep.regular


def test_blocks_equal_momenta_jacobian_diagonal(corpus):
    for prob in corpus[:12]:
        blocks = LG.regularity_blocks(prob)
        rows, cols, jac = LG.momenta_jacobian(prob)
        ridx = {lab: i for i, lab in enumerate(rows)}
        cidx = {lab: j for j, lab in enumerate(cols)}
        for s, b in blocks.items():
            for bi, rlab in enumerate(b.rows):
                for bj, clab in enumerate(b.cols):
                    got = b.entries[bi][bj]
                    want = jac[ridx[rlab]][cidx[clab]]
                    assert got == want, (prob.L, s, rlab, clab)


# -- definiteness -------------------------------------------------------------------

def test_definiteness_examples():
    rng = random.Random(4)
    p1 = problem("1/2*y(1;1)^2")
    M, pd, _ = LG.hessian_definiteness(p1, full_point(p1.ctx, rng))
    assert M.tolist() == [[1.0]] and pd

    p2 = problem("1/2*(y(1;1)^2 - y(1;2)^2)", n=2)
    M2, pd2, _ = LG.hessian_definiteness(p2, full_point(p2.ctx, rng))
    assert sorted(np.diag(M2).tolist()) == [-1.0, 1.0] and not pd2

    p3 = problem("1/2*y(1;1,1)^2", r=2)
    M3, pd3, _ = LG.hessian_definiteness(p3, full_point(p3.ctx, rng))
    assert M3.tolist() == [[1.0]] and pd3


def test_definiteness_agrees_with_eigenvalue_oracle():
    # random symmetric matrices realized as quadratic densities
    rng = random.Random(8)
    ctx_shapes = [(2, 1, 1), (1, 1, 2), (2, 2, 1)]
    built = 0
    for trial in range(40):
        if built >= 20:
            break
        n, m, r = ctx_shapes[trial % len(ctx_shapes)]
        ctx = ChartContext(n, m, r)
        labels = [(s, A) for s in range(1, m + 1) for A in mi.tuples(n, r)]
        k = len(labels)
        raw = np.array([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        M = (raw + raw.T) / 2
        L = Expr.const(ctx, 0)
        from fractions import Fraction
        for i, (s, A) in enumerate(labels):
            for j, (nu, B) in enumerate(labels):
                if j < i:
                    continue
                q = Fraction(M[i, j]).limit_denominator(4)
                if q == 0:
                    continue
                factor = Fraction(1, 2) if i == j else Fraction(1)
                L = L + Expr.coord(ctx, jet(s, A)) * Expr.coord(ctx, jet(nu, B)) * (q * factor)
        prob = V.LagrangianProblem(ctx, L)
        got, pd, _ = LG.hessian_definiteness(prob, full_point(ctx, rng))
        assert np.allclose(got, M)
        eig_pd = bool(np.all(np.linalg.eigvalsh(M) > 1e-12))
        assert pd == eig_pd
        built += 1
    assert built >= 20


# -- legendre chart ------------------------------------------------------------------

def test_chart_harmonic_oscillator():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    data = LG.legendre_chart(prob)
    assert_sym_equal(data.H, parse_expr("1/2*P(1;1)^2 + 1/2*y(1)^2", prob.ctx))
    # canonical equations exactly y' = P, P' = -y (sign pinning)
    [eq0] = data.equations["fiber0"]
    assert_sym_equal(eq0.algebraic, parse_expr("y(1)", prob.ctx))
    assert eq0.dterms == [(1, mom(1, (1,)), 1)]
    [eqP] = data.equations["momenta"]
    assert_sym_equal(eqP.algebraic, parse_expr("P(1;1)", prob.ctx))
    assert eqP.dterms == [(-1, jet(1, ()), 1)]


def test_chart_second_order_example():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    data = LG.legendre_chart(prob)
    assert_sym_equal(data.H,
                     parse_expr("1/2*P(1;1,1)^2 + P(1;1)*y(1;1)", prob.ctx))
    assert_sym_equal(data.inverse[(1, (1, 1))], parse_expr("P(1;1,1)", prob.ctx))
    assert_sym_equal(data.inverse[(1, (1, 1, 1))], parse_expr("-P(1;1)", prob.ctx))


def test_chart_degenerate_error():
    with pytest.raises(DegeneracyError) as err:
        LG.legendre_chart(problem("y(1;1)"))
    assert err.value.layer == 0


def test_chart_unsupported_for_n2_r2():
    with pytest.raises(UnsupportedSymbolicError):
        LG.legendre_chart(problem("1/2*y(1;1,1)^2", n=2, r=2))


def test_chart_roundtrip_momenta(quadratic_corpus):
    # substituting the inverse relations into the momentum expressions gives
    # back the momentum coordinates, identically
    for prob in quadratic_corpus:
        data = LG.legendre_chart(prob)
        subs = LG.inverse_subs(prob.ctx, data.inverse)
        for (s, K), e in data.table.entries.items():
            back = e.subs(subs)
            assert back.equal_exact(Expr.coord(prob.ctx, mom(s, K))), (prob.L, s, K)


def test_chart_first_order_field_theory():
    # n = 2, r = 1 inversion is a single square layer
    prob = problem("1/2*(y(1;1)^2 + y(1;2)^2) + y(1)*x(1)", n=2)
    data = LG.legendre_chart(prob)
    assert_sym_equal(data.inverse[(1, (1,))], parse_expr("P(1;1)", prob.ctx))
    got = data.H
    want = parse_expr("1/2*(P(1;1)^2 + P(1;2)^2) - y(1)*x(1)", prob.ctx)
    assert_sym_equal(got, want)


# -- canonical-equation residuals ------------------------------------------------------

def test_hdd_residual_oscillator_solution():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    ctx = prob.ctx
    data = LG.legendre_chart(prob)
    comps = {jet(1, ()): parse_expr("sin(x(1))", ctx),
             mom(1, (1,)): parse_expr("cos(x(1))", ctx)}
    summary = LG.hdd_residual(data, comps, N.interval(0.0, 1.0, 60))
    assert summary.global_max <= 1e-12


def test_hdd_residual_cubic_r2():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    ctx = prob.ctx
    data = LG.legendre_chart(prob)
    comps = {jet(1, ()): parse_expr("x(1)^3", ctx),
             jet(1, (1,)): parse_expr("3*x(1)^2", ctx),
             mom(1, (1, 1)): parse_expr("6*x(1)", ctx),
             mom(1, (1,)): parse_expr("-6", ctx)}
    summary = LG.hdd_residual(data, comps, N.interval(0.0, 1.0, 60))
    assert summary.global_max <= 1e-12


def test_hdd_residual_detects_violation():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    ctx = prob.ctx
    data = LG.legendre_chart(prob)
    comps = {jet(1, ()): Expr.const(ctx, 1), mom(1, (1,)): Expr.const(ctx, 1)}
    summary = LG.hdd_residual(data, comps, N.interval(0.0, 1.0, 20))
    assert summary.global_max >= 0.9


# -- canonical-equation integration ------------------------------------------------------

def test_integrate_harmonic_oscillator():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    data = LG.legendre_chart(prob)
    traj = LG.hdd_integrate(data, {jet(1, ()): 0.0, mom(1, (1,)): 1.0},
                            0.0, 1.0, 1e-3)
    assert abs(traj.columns[jet(1, ())][-1] - math.sin(1.0)) <= 1e-6
    assert abs(traj.columns[mom(1, (1,))][-1] - math.cos(1.0)) <= 1e-6
    assert LG.interior_max(*LG.holonomy_residual_column(traj, prob)) <= 1e-6
    assert LG.interior_max(*LG.euler_lagrange_residual_column(traj, prob)) <= 1e-6


def test_integrate_cubic_r2():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    data = LG.legendre_chart(prob)
    init = {jet(1, ()): 0.0, jet(1, (1,)): 0.0,
            mom(1, (1,)): -6.0, mom(1, (1, 1)): 0.0}
    traj = LG.hdd_integrate(data, init, 0.0, 1.0, 1e-3)
    xs = traj.xs
    assert np.max(np.abs(traj.columns[jet(1, ())] - xs ** 3)) <= 1e-6
    assert LG.interior_max(*LG.holonomy_residual_column(traj, prob)) <= 1e-6


def test_integrate_fixed_point():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    data = LG.legendre_chart(prob)
    traj = LG.hdd_integrate(data, {jet(1, ()): 0.0, mom(1, (1,)): 0.0},
                            0.0, 0.5, 1e-2)
    assert np.max(np.abs(traj.columns[jet(1, ())])) == 0.0


def test_integrate_newton_path_matches_symbolic(quadratic_corpus):
    prob = quadratic_corpus[0]
    data = LG.legendre_chart(prob)
    ys, ps = LG._state_coords(prob.ctx)
    init = {c: 0.3 + 0.1 * i for i, c in enumerate(ys + ps)}
    t1 = LG.hdd_integrate(data, init, 0.0, 0.5, 1e-3)
    t2 = LG.hdd_integrate(prob, init, 0.0, 0.5, 1e-3)
    for c in ys + ps:
        assert np.max(np.abs(t1.columns[c] - t2.columns[c])) <= 1e-9


def test_integrate_newton_nonquadratic():
    # quartic kinetic term: momentum relation P = y'^3 is nonlinear
    prob = problem("1/4*y(1;1)^4")
    with pytest.raises(UnsupportedSymbolicError):
        LG.legendre_chart(prob)
    traj = LG.hdd_integrate(prob, {jet(1, ()): 0.0, mom(1, (1,)): 1.0},
                            0.0, 1.0, 1e-3)
    # extremal with P = 1 constant: y' = 1, so y(1) = 1
    assert abs(traj.columns[jet(1, ())][-1] - 1.0) <= 1e-9


def test_integrate_input_validation():
    prob = problem("1/2*y(1;1)^2")
    data = LG.legendre_chart(prob)
    with pytest.raises(InputError):
        LG.hdd_integrate(data, {jet(1, ()): 0.0}, 0.0, 1.0, 1e-2)
    with pytest.raises(InputError):
        LG.hdd_integrate(data, {jet(1, ()): 0.0, mom(1, (1,)): 1.0}, 0.0, 1.0, -1.0)
    p2 = problem("1/2*(y(1;1)^2+y(1;2)^2)", n=2)
    with pytest.raises(InputError):
        LG.hdd_integrate(LG.legendre_chart(p2), {}, 0.0, 1.0, 1e-2)


def test_trajectories_of_regular_problems_are_extremal(quadratic_corpus):
    # correspondence: canonical trajectories satisfy the holonomy relations
    # and project onto Euler-Lagrange solutions
    rng = random.Random(21)
    for prob in quadratic_corpus:
        data = LG.legendre_chart(prob)
        ys, ps = LG._state_coords(prob.ctx)
        init = {c: rng.uniform(-0.5, 0.5) for c in ys + ps}
        traj = LG.hdd_integrate(data, init, 0.0, 1.0, 1e-3)
        assert LG.interior_max(*LG.holonomy_residual_column(traj, prob)) <= 1e-6, prob.L
        assert LG.interior_max(*LG.euler_lagrange_residual_column(traj, prob)) <= 1e-6, prob.L
