import math

import pytest

from jetvar import forms as F
from jetvar import legendre as LG
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.errors import InputError, MissingCoordinateError
from jetvar.symcore import ChartContext, Expr, base, jet, mom, parse_expr


@pytest.fixture
def ctx():
    return ChartContext(1, 1, 1, max_order=4)


def test_prolongation_of_cubic(ctx):
    gamma = N.Section.of_base(ctx, {1: parse_expr("x(1)^3", ctx)})
    pro = N.jet_prolong_section(gamma, 3)
    assert pro.component(1, ()) == parse_expr("x(1)^3", ctx)
    assert pro.component(1, (1,)) == parse_expr("3*x(1)^2", ctx)
    assert pro.component(1, (1, 1)) == parse_expr("6*x(1)", ctx)
    assert pro.component(1, (1, 1, 1)) == parse_expr("6", ctx)


def test_prolongation_of_constant(ctx):
    pro = N.jet_prolong_section(N.Section.of_base(ctx, {1: Expr.const(ctx, 4)}), 2)
    assert pro.component(1, (1,)).is_zero()
    assert pro.component(1, (1, 1)).is_zero()


def test_prolongation_mixed_partials_symmetric():
    c2 = ChartContext(2, 1, 1, max_order=2)
    gamma = N.Section.of_base(c2, {1: parse_expr("x(1)^2*x(2)", c2)})
    pro = N.jet_prolong_section(gamma, 2)
    assert pro.component(1, (1, 2)) == parse_expr("2*x(1)", c2)


def test_section_rejects_fiber_dependence(ctx):
    with pytest.raises(InputError):
        N.Section.of_base(ctx, {1: parse_expr("y(1)", ctx)})


def test_quadrature_linear_exact(ctx):
    dom = N.interval(0.0, 1.0, 10 ** 4)
    assert abs(N.quadrature(parse_expr("x(1)", ctx), dom) - 0.5) <= 1e-8


def test_quadrature_quadratic(ctx):
    dom = N.interval(0.0, 1.0, 10 ** 3)
    assert abs(N.quadrature(parse_expr("x(1)^2", ctx), dom) - 1 / 3) <= 1e-6


def test_quadrature_unit_square():
    c2 = ChartContext(2, 1, 1)
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 31)
    assert N.quadrature(Expr.const(c2, 1), dom) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_halving_step_quarters_error(ctx):
    e = parse_expr("x(1)^2", ctx)
    exact = 1 / 3
    err = []
    for res in (101, 201):
        err.append(abs(N.quadrature(e, N.interval(0.0, 1.0, res)) - exact))
    assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)


def test_boundary_quadrature_interval(ctx):
    form = F.DiffForm.scalar(ctx, parse_expr("x(1)^2 + 1", ctx))
    dom = N.interval(0.0, 2.0, 100)
    assert N.boundary_quadrature(form, dom) == pytest.approx(4.0)


def test_boundary_quadrature_square_face_integral():
    c2 = ChartContext(2, 1, 1)
    # alpha = x1^2 dx1 on the unit square: bottom and top cancel; total 0
    form = F.DiffForm(c2, 1, {(F.d_(base(1)),): parse_expr("x(1)^2", c2)})
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 101)
    assert N.boundary_quadrature(form, dom) == pytest.approx(0.0, abs=1e-12)
    # alpha = x1^2 x2 dx1: bottom contributes 0, top -1/3
    form2 = F.DiffForm(c2, 1, {(F.d_(base(1)),): parse_expr("x(1)^2*x(2)", c2)})
    assert N.boundary_quadrature(form2, dom) == pytest.approx(-1 / 3, abs=1e-4)


def test_boundary_matches_stokes():
    # multilinear coefficients keep the trapezoid rule exact on both sides
    c2 = ChartContext(2, 1, 1)
    form = F.DiffForm(c2, 1, {
        (F.d_(base(1)),): parse_expr("x(1)*x(2) + 2*x(2)", c2),
        (F.d_(base(2)),): parse_expr("3*x(1) - x(1)*x(2)", c2),
    })
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    density = F.horizontal_density(F.ext_d(form))
    interior = N.quadrature(density, dom)
    assert N.boundary_quadrature(form, dom) == pytest.approx(interior, abs=1e-6)


def test_boundary_unsupported_dimension():
    c3 = ChartContext(3, 1, 1)
    dom = N.IntegrationDomain((0.0,) * 3, (1.0,) * 3, 5)
    form = F.DiffForm(c3, 2, {(F.d_(base(1)), F.d_(base(2))): Expr.const(c3, 1)})
    with pytest.raises(InputError):
        N.boundary_quadrature(form, dom)


def test_residual_grid_examples(ctx):
    # sin'' = -sin: residual of y_11 + y closes to zero along the section
    gamma = N.Section.of_base(ctx, {1: parse_expr("sin(x(1))", ctx)})
    pro = N.jet_prolong_section(gamma, 2)
    summary = N.residual_grid({"osc": parse_expr("y(1;1,1) + y(1)", ctx)},
                              pro.subs_map(), N.interval(0.0, 1.0, 50))
    assert summary.global_max <= 1e-12
    zero = N.residual_grid({"z": Expr.const(ctx, 0)}, {}, N.interval(0.0, 1.0, 5))
    assert zero.global_max == 0.0
    with pytest.raises(MissingCoordinateError):
        N.residual_grid({"bad": parse_expr("y(1)", ctx)}, {},
                        N.interval(0.0, 1.0, 5))


def _chart(text):
    ctx = ChartContext(1, 1, 1)
    return LG.legendre_chart(V.LagrangianProblem(ctx, parse_expr(text, ctx)))


def test_rk4_exponential():
    # y'' = y from y = y' = 1: y = e^x
    data = _chart("1/2*y(1;1)^2 + 1/2*y(1)^2")
    traj = LG.hdd_integrate(data, {jet(1): 1.0, mom(1, (1,)): 1.0}, 0.0, 1.0, 1e-3)
    assert abs(traj.columns[jet(1)][-1] - math.e) <= 1e-10


def test_rk4_fixed_point():
    # a state where the right-hand side vanishes stays bit-exact
    ho = _chart("1/2*y(1;1)^2 - 1/2*y(1)^2")
    traj = LG.hdd_integrate(ho, {jet(1): 0.0, mom(1, (1,)): 0.0}, 0.0, 1.0, 0.1)
    assert all(v == 0.0 for c in (jet(1), mom(1, (1,))) for v in traj.columns[c])
    free = _chart("1/2*y(1;1)^2")
    traj = LG.hdd_integrate(free, {jet(1): 2.0, mom(1, (1,)): 0.0}, 0.0, 1.0, 0.1)
    assert all(v == 2.0 for v in traj.columns[jet(1)])
    assert all(v == 0.0 for v in traj.columns[mom(1, (1,))])


def test_rk4_energy_drift():
    data = _chart("1/2*y(1;1)^2 - 1/2*y(1)^2")
    traj = LG.hdd_integrate(data, {jet(1): 0.0, mom(1, (1,)): 1.0},
                            0.0, 2 * math.pi, 1e-3)
    energy = 0.5 * (traj.columns[jet(1)][-1] ** 2 + traj.columns[mom(1, (1,))][-1] ** 2)
    assert abs(energy - 0.5) <= 1e-9


def test_rk4_step_is_classical_rk4():
    # one generated step, against the textbook step on the same right-hand
    # side (H = P^2/2 + y^2/2 - x y: y' = P, P' = x - y), bit for bit
    data = _chart("1/2*y(1;1)^2 - 1/2*y(1)^2 + x(1)*y(1)")

    def f(x, y, p):
        return [p, x - y]

    x, h, state = 0.25, 0.35 - 0.25, [0.3, -0.7]
    k1 = f(x, *state)
    k2 = f(x + h / 2, *[s + h / 2 * k for s, k in zip(state, k1)])
    k3 = f(x + h / 2, *[s + h / 2 * k for s, k in zip(state, k2)])
    k4 = f(x + h, *[s + h * k for s, k in zip(state, k3)])
    want = [s + h / 6 * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
    traj = LG.hdd_integrate(data, {jet(1): 0.3, mom(1, (1,)): -0.7}, 0.25, 0.35, 0.1)
    assert len(traj.xs) == 2
    assert [traj.columns[jet(1)][1], traj.columns[mom(1, (1,))][1]] == want


def test_prolongation_commutes_with_total_derivative(ctx):
    # evaluating d_1 f along the prolonged section equals d/dx of f along it
    f = parse_expr("y(1)*y(1;1) + x(1)", ctx)
    gamma = N.Section.of_base(ctx, {1: parse_expr("x(1)^3 - x(1)", ctx)})
    pro = N.jet_prolong_section(gamma, 3)
    along = f.subs(N.jet_prolong_section(gamma, 1).subs_map())
    lhs = f.total_derivative(1).subs(pro.subs_map())
    rhs = along.partial(base(1))
    for xv in (0.2, 0.7, 1.3):
        assert abs(lhs.eval({base(1): xv}) - rhs.eval({base(1): xv})) <= 1e-9


def test_domain_validation():
    with pytest.raises(InputError):
        N.IntegrationDomain((0.0,), (0.0,), 10)
    with pytest.raises(InputError):
        N.IntegrationDomain((0.0,), (1.0,), 1)
    dom = N.interval(0.0, 1.0, 10)
    for bad in (0, 1):
        with pytest.raises(InputError):
            dom.axes(bad)


def test_residual_grid_ties_resolve_to_first_point():
    c2 = ChartContext(2, 1, 1)
    summary = N.residual_grid({"d": parse_expr("x(1) - x(2)", c2)}, {},
                              N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 3))
    # |x1 - x2| = 1 at (0, 1) and at (1, 0); product order meets (0, 1) first
    assert summary.as_dict() == {"d": {"max_abs": 1.0, "argmax": [0.0, 1.0]}}
