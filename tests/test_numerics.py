import math
from fractions import Fraction

import pytest

from jetvar import forms as F
from jetvar import legendre as LG
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.errors import EvaluationError, InputError, MissingCoordinateError
from jetvar.symcore import ChartContext, Evaluator, Expr, base, jet, mom, parse_expr
from conftest import interval, scalar_form


@pytest.fixture
def ctx():
    return ChartContext(1, 1, 1, max_order=4)


def test_prolongation_of_cubic(ctx):
    pro = N.jet_prolong_section(ctx, {1: parse_expr("x(1)^3", ctx)}, 3)
    assert pro[jet(1)] == parse_expr("x(1)^3", ctx)
    assert pro[jet(1, (1,))] == parse_expr("3*x(1)^2", ctx)
    assert pro[jet(1, (1, 1))] == parse_expr("6*x(1)", ctx)
    assert pro[jet(1, (1, 1, 1))] == parse_expr("6", ctx)


def test_prolongation_of_constant(ctx):
    pro = N.jet_prolong_section(ctx, {1: Expr.const(ctx, 4)}, 2)
    assert pro[jet(1, (1,))].is_zero()
    assert pro[jet(1, (1, 1))].is_zero()


def test_prolongation_mixed_partials_symmetric():
    c2 = ChartContext(2, 1, 1, max_order=2)
    pro = N.jet_prolong_section(c2, {1: parse_expr("x(1)^2*x(2)", c2)}, 2)
    assert pro[jet(1, (2, 1))] == parse_expr("2*x(1)", c2)


def test_section_rejects_fiber_dependence(ctx):
    with pytest.raises(InputError):
        N.jet_prolong_section(ctx, {1: parse_expr("y(1)", ctx)}, 1)


def test_quadrature_linear_exact(ctx):
    dom = interval(0.0, 1.0, 10 ** 4)
    assert abs(N.quadrature(parse_expr("x(1)", ctx), dom) - 0.5) <= 1e-8


def test_quadrature_quadratic(ctx):
    dom = interval(0.0, 1.0, 10 ** 3)
    assert abs(N.quadrature(parse_expr("x(1)^2", ctx), dom) - 1 / 3) <= 1e-6


def test_quadrature_unit_square():
    c2 = ChartContext(2, 1, 1)
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 31)
    assert N.quadrature(Expr.const(c2, 1), dom) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_exact_on_polynomials(ctx):
    # a polynomial integrand is integrated in closed form and rounded once
    for k in range(10):
        got = N.quadrature(parse_expr(f"x(1)^{k}", ctx), interval(-0.5, 1.5, 10))
        assert got == float((Fraction(3, 2) ** (k + 1) - Fraction(-1, 2) ** (k + 1)) / (k + 1))
    c2 = ChartContext(2, 1, 1)
    dom = N.IntegrationDomain((0.0, -1.0), (2.0, 1.0), 10)
    # integral of x1^5 x2^4 over [0, 2] x [-1, 1] is (64/6) * (2/5)
    got = N.quadrature(parse_expr("x(1)^5*x(2)^4", c2), dom)
    assert got == float(Fraction(64, 6) * Fraction(2, 5))


def test_quadrature_composite_order(ctx):
    # a transcendental integrand takes ceil(resolution/5) panels of the
    # 5-point rule, whose error falls as h^10: doubling the panels (2 -> 4)
    # divides it by about 2^10
    e = parse_expr("exp(4*x(1))", ctx)
    exact = (math.exp(4) - 1) / 4
    err = [abs(N.quadrature(e, interval(0.0, 1.0, res)) - exact) for res in (10, 20)]
    assert err[0] / err[1] > 500


def test_quadrature_nodes_stay_within_resolution(ctx, monkeypatch):
    # x1^4001 takes the closed form only from resolution 2001 (4001//2 + 1):
    # at resolution 100 it takes the composite rule's 20 panels of 5 nodes,
    # never more nodes than the resolution
    nodes, weights = N._axis_rule(0.0, 1.0, 100)
    assert len(nodes) == len(weights) == 100
    built = []
    rule = N._axis_rule
    monkeypatch.setattr(N, "_axis_rule", lambda *args: built.append(rule(*args)) or built[-1])
    N.quadrature(parse_expr("x(1)^4001", ctx), interval(0.0, 1.0, 100))
    assert built and max(len(nodes) for nodes, _ in built) <= 100


def test_closed_form_raises_what_the_evaluator_raises():
    c2 = ChartContext(2, 1, 1)
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 10)
    # a boundary coefficient that still holds a fiber coordinate
    form = F.DiffForm(c2, 1, {(F.d_(base(2)),): parse_expr("x(1)*y(1) + x(2)", c2)})
    with pytest.raises(MissingCoordinateError) as closed:
        N.boundary_quadrature(form, dom)
    with pytest.raises(MissingCoordinateError) as evaluated:
        Evaluator([form.coefficient((F.d_(base(2)),))], N.base_coords(2))(0.5, 0.5)
    assert str(closed.value) == str(evaluated.value) == "no value for coordinate y(1)"
    # an integral beyond float range: x1^2 over [0, 1e200]
    c1 = ChartContext(1, 1, 1)
    square = parse_expr("x(1)^2", c1)
    with pytest.raises(EvaluationError) as closed:
        N.quadrature(square, interval(0.0, 1e200, 10))
    with pytest.raises(EvaluationError) as evaluated:
        Evaluator([square], N.base_coords(1))(1e200)
    assert str(closed.value) == str(evaluated.value)


def test_boundary_quadrature_interval(ctx):
    form = scalar_form(ctx, parse_expr("x(1)^2 + 1", ctx))
    dom = interval(0.0, 2.0, 100)
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


BOUNDARY_FORMS = {
    1: {(): "3*x(1) + 2"},
    2: {(1,): "x(1)*x(2) + 2*x(2)", (2,): "3*x(1) - x(1)*x(2)"},
    3: {(2, 3): "x(1)*x(2)*x(3) + 2*x(1)", (1, 3): "x(2)*x(3) - 3*x(1)*x(2)",
        (1, 2): "5*x(1)*x(3) + x(2)"},
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_matches_stokes(n):
    # polynomial coefficients are integrated exactly on both sides
    c = ChartContext(n, 1, 1)
    form = F.DiffForm(c, n - 1, {
        tuple(F.d_(base(i)) for i in covs): parse_expr(text, c)
        for covs, text in BOUNDARY_FORMS[n].items()})
    dom = N.IntegrationDomain((0.0, -1.0, 0.5)[:n], (1.0, 2.0, 2.0)[:n], 21)
    density = F.horizontal_density(F.ext_d(form))
    interior = N.quadrature(density, dom)
    assert N.boundary_quadrature(form, dom) == pytest.approx(interior, abs=1e-6)


def test_boundary_rounds_the_sum_of_its_faces_once():
    # Laplace along gamma = 1/4*(x1^2 - x2^2) + 1/2*x1*x2, varied by
    # 1/2*(x1^2 - x2^2): the boundary term is exactly 1/3. Rounding each face
    # before adding them gave 0.33333333333333337.
    c2 = ChartContext(2, 1, 1)
    prob = V.LagrangianProblem(c2, parse_expr("1/2*(y(1;1)^2 + y(1;2)^2)", c2))
    gamma = {1: parse_expr("1/4*(x(1)^2 - x(2)^2) + 1/2*x(1)*x(2)", c2)}
    xi = {1: parse_expr("1/2*(x(1)^2 - x(2)^2)", c2)}
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    fv = N.first_variation_check(prob, V.poincare_cartan(prob), xi, gamma, dom)
    assert fv.boundary == float(Fraction(1, 3))
    assert fv.lhs == float(Fraction(1, 3))


def test_boundary_rejects_wrong_degree():
    c3 = ChartContext(3, 1, 1)
    dom = N.IntegrationDomain((0.0,) * 3, (1.0,) * 3, 5)
    form = F.DiffForm(c3, 1, {(F.d_(base(1)),): Expr.const(c3, 1)})
    with pytest.raises(InputError):
        N.boundary_quadrature(form, dom)


def test_boundary_rejects_terms_off_the_faces():
    # x1 x2 dx1 + x1 dy1 on the unit square: dy1 is no face term
    c2 = ChartContext(2, 1, 1)
    form = F.DiffForm(c2, 1, {(F.d_(base(1)),): parse_expr("x(1)*x(2)", c2),
                              (F.d_(jet(1)),): parse_expr("x(1)", c2)})
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 11)
    with pytest.raises(InputError, match="dx_1"):
        N.boundary_quadrature(form, dom)


def test_residual_grid_examples(ctx):
    # sin'' = -sin: residual of y_11 + y closes to zero along the section
    pro = N.jet_prolong_section(ctx, {1: parse_expr("sin(x(1))", ctx)}, 2)
    summary = N.residual_grid({"osc": parse_expr("y(1;1,1) + y(1)", ctx)},
                              pro, interval(0.0, 1.0, 50))
    assert summary.global_max <= 1e-12
    zero = N.residual_grid({"z": Expr.const(ctx, 0)}, {}, interval(0.0, 1.0, 5))
    assert zero.global_max == 0.0
    with pytest.raises(MissingCoordinateError):
        N.residual_grid({"bad": parse_expr("y(1)", ctx)}, {},
                        interval(0.0, 1.0, 5))


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
    gamma = {1: parse_expr("x(1)^3 - x(1)", ctx)}
    pro = N.jet_prolong_section(ctx, gamma, 3)
    along = f.subs(N.jet_prolong_section(ctx, gamma, 1))
    lhs = f.total_derivative(1).subs(pro)
    rhs = along.partial(base(1))
    for xv in (0.2, 0.7, 1.3):
        assert abs(lhs.eval({base(1): xv}) - rhs.eval({base(1): xv})) <= 1e-9


def test_domain_validation():
    with pytest.raises(InputError):
        N.IntegrationDomain((0.0,), (0.0,), 10)
    with pytest.raises(InputError):
        N.IntegrationDomain((0.0,), (1.0,), 1)
    dom = interval(0.0, 1.0, 10)
    for bad in (0, 1):
        with pytest.raises(InputError):
            dom.axes(bad)


def test_residual_grid_ties_resolve_to_first_point():
    c2 = ChartContext(2, 1, 1)
    summary = N.residual_grid({"d": parse_expr("x(1) - x(2)", c2)}, {},
                              N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 3))
    # |x1 - x2| = 1 at (0, 1) and at (1, 0); product order meets (0, 1) first
    assert summary.as_dict() == {"d": {"max_abs": 1.0, "argmax": [0.0, 1.0]}}
