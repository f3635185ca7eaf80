import math
import random

import pytest

from jetvar import fields as FL
from jetvar import forms as F
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.cli import DEFAULT_TOLERANCES
from jetvar.errors import InputError, UnsupportedSymbolicError
from jetvar.symcore import ChartContext, Expr, base, jet, parse_expr
from conftest import assert_sym_equal, interval, random_polynomial, scalar_form


def problem(text, n=1, m=1, r=1):
    ctx = ChartContext(n, m, r)
    return V.LagrangianProblem(ctx, parse_expr(text, ctx))


def free_particle():
    prob = problem("1/2*y(1;1)^2")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): Expr.const(prob.ctx, 1)})
    return prob, lep, w


def random_slope_field(prob, rng):
    ctx = prob.ctx
    atoms = [base(i) for i in range(1, ctx.n + 1)]
    atoms += ctx.coords(jet, range(ctx.r))
    comps = {}
    for s in range(1, ctx.m + 1):
        for k in range(ctx.r, 2 * ctx.r):
            for K in mi.tuples(ctx.n, k):
                comps[jet(s, K)] = random_polynomial(ctx, rng, atoms,
                                                     n_terms=2, degree=2)
    return FL.SlopeField(ctx, comps)


# -- slope field validation -----------------------------------------------------------

def test_slope_field_requires_all_components():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    with pytest.raises(InputError):
        FL.SlopeField(prob.ctx, {jet(1, (1, 1)): Expr.const(prob.ctx, 1)})


def test_slope_field_rejects_high_order_dependence():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    with pytest.raises(InputError):
        FL.SlopeField(prob.ctx, {
            jet(1, (1, 1)): parse_expr("y(1;1,1)", prob.ctx),
            jet(1, (1, 1, 1)): Expr.const(prob.ctx, 0),
        })


# -- geodesic condition ----------------------------------------------------------------

def test_constant_field_is_geodesic():
    _, lep, w = free_particle()
    rep = FL.geodesic_check(w, lep)
    assert rep.status == "zero" and rep.is_geodesic


def test_linear_field_is_not_geodesic():
    prob, lep, _ = free_particle()
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): parse_expr("y(1)", prob.ctx)})
    rep = FL.geodesic_check(w, lep)
    assert rep.status == "nonzero"
    # w* d rho = -y dy ^ dx = y dx ^ dy
    coeff = rep.pulled_derivative.coefficient(
        (F.d_(base(1)), F.d_(jet(1, ()))))
    assert_sym_equal(coeff, parse_expr("y(1)", prob.ctx))


def test_zero_lagrangian_any_field_geodesic():
    prob = problem("0")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): parse_expr("y(1)^2", prob.ctx)})
    assert FL.geodesic_check(w, lep).status == "zero"


def test_oscillator_cotangent_field_geodesic():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx,
                      {jet(1, (1,)): parse_expr("y(1)*cos(x(1))/sin(x(1))", prob.ctx)})
    assert FL.geodesic_check(w, lep).is_geodesic


def test_probable_zero_status_for_disguised_constant():
    # 2 sin x cos x - sin(2x) + 1 is the constant 1, but not structurally
    prob, lep, _ = free_particle()
    w = FL.SlopeField(prob.ctx, {
        jet(1, (1,)): parse_expr("2*sin(x(1))*cos(x(1)) - sin(2*x(1)) + 1", prob.ctx)})
    rep = FL.geodesic_check(w, lep)
    assert rep.status == "probable-zero"
    assert rep.is_geodesic


def test_pullback_derivative_commutation(corpus):
    rng = random.Random(31)
    for prob in corpus[:8]:
        lep = V.poincare_cartan(prob)
        w = random_slope_field(prob, rng)
        rho = lep.realize()
        lhs = F.ext_d(F.pullback(rho, w.components))
        rhs = F.pullback(F.ext_d(rho), w.components)
        assert lhs == rhs, prob.L


# -- primitives ---------------------------------------------------------------------------

def test_primitive_free_particle():
    prob, lep, w = free_particle()
    S = FL.hj_primitive(w, lep)
    assert S == scalar_form(prob.ctx,
                                  parse_expr("y(1) - 1/2*x(1)", prob.ctx))


def test_primitive_of_zero_form():
    prob = problem("0")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): parse_expr("x(1)", prob.ctx)})
    assert FL.hj_primitive(w, lep).is_zero()


def test_primitive_rejects_non_closed():
    prob, lep, _ = free_particle()
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): parse_expr("y(1)", prob.ctx)})
    with pytest.raises(InputError):
        FL.hj_primitive(w, lep)


def test_primitive_rejects_transcendental():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx,
                      {jet(1, (1,)): parse_expr("y(1)*cos(x(1))/sin(x(1))", prob.ctx)})
    with pytest.raises(UnsupportedSymbolicError):
        FL.hj_primitive(w, lep)


def test_primitive_differential_identity(quadratic_corpus):
    # whenever the pulled-back form is closed and polynomial, dS reproduces it
    rng = random.Random(37)
    for prob in quadratic_corpus[:2]:
        lep = V.poincare_cartan(prob)
        # constant fields over constant-coefficient densities are geodesic
        # only when the pulled form happens to be closed, so test d(S) = a
        # directly through the homotopy on closed forms d(any 0-form)
        atoms = [base(1), jet(1, ())]
        e = random_polynomial(prob.ctx, rng, atoms, n_terms=3, degree=3)
        a = F.ext_d(scalar_form(prob.ctx, e))
        S = FL._radial_homotopy(a)
        # d(Ka) = a - (pullback to the origin) for exact 1-forms: the origin
        # part vanishes because a = d(e) has no constant term
        assert F.ext_d(S) == a


# -- excess function ------------------------------------------------------------------------

def test_excess_free_particle():
    prob, lep, w = free_particle()
    wd = FL.weierstrass(prob, lep, w)
    assert_sym_equal(wd.excess, parse_expr("1/2*(y(1;1) - 1)^2", prob.ctx))
    assert wd.horizontal_matches


def test_excess_vanishes_on_the_field():
    prob, lep, w = free_particle()
    wd = FL.weierstrass(prob, lep, w)
    assert wd.excess.subs(w.top_subs_map()).is_zero()


def test_excess_second_derivative_matches_hessian():
    prob, lep, w = free_particle()
    wd = FL.weierstrass(prob, lep, w)
    c = jet(1, (1,))
    got = wd.excess.partial(c).partial(c).subs(w.top_subs_map())
    want = prob.L.partial(c).partial(c).subs(w.top_subs_map())
    assert got == want


def test_excess_identities_on_corpus(corpus):
    # excess and all its first partials vanish identically at the field, and
    # the top second partials reproduce the density Hessian there
    rng = random.Random(41)
    for prob in corpus[:8]:
        ctx = prob.ctx
        lep = V.poincare_cartan(prob)
        w = random_slope_field(prob, rng)
        wd = FL.weierstrass(prob, lep, w)
        top = w.top_subs_map()
        assert wd.excess.subs(top).is_zero()
        for i in range(1, ctx.n + 1):
            assert wd.excess.partial(base(i)).subs(top).is_zero()
        for y in ctx.coords(jet, range(ctx.r + 1)):
            assert wd.excess.partial(y).subs(top).is_zero()
        for a in ctx.coords(jet, (ctx.r,)):
            for b in ctx.coords(jet, (ctx.r,)):
                got = wd.excess.partial(a).partial(b).subs(top)
                want = prob.L.partial(a).partial(b).subs(top)
                assert got.equal_exact(want)


def test_excess_density_identity_on_corpus(corpus):
    rng = random.Random(43)
    for prob in corpus[:8]:
        lep = V.poincare_cartan(prob)
        w = random_slope_field(prob, rng)
        assert FL.weierstrass(prob, lep, w).horizontal_matches, prob.L


# -- integrals -------------------------------------------------------------------------------

def test_action_examples():
    osc = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    gamma = {1: parse_expr("sin(x(1))", osc.ctx)}
    val = N.action_value(osc, gamma, interval(0.0, math.pi, 3000))
    assert abs(val) <= 1e-6

    unit = problem("1")
    g2 = {1: Expr.const(unit.ctx, 0)}
    assert N.action_value(unit, g2, interval(0.25, 1.75, 100)) == pytest.approx(1.5)

    free, lep, w = free_particle()
    g3 = {1: parse_expr("x(1)", free.ctx)}
    assert N.action_value(free, g3, interval(0.0, 1.0, 2001)) == pytest.approx(0.5, abs=1e-8)


# -- compatibility and extremality -------------------------------------------------------------

def test_compatibility_residual():
    prob, lep, w = free_particle()
    ctx = prob.ctx
    good = {1: parse_expr("x(1) + 3", ctx)}
    bad = {1: parse_expr("x(1)^2", ctx)}
    dom = interval(0.0, 1.0, 11)
    assert FL.compatibility_residual(w, good, dom) <= 1e-12
    assert FL.compatibility_residual(w, bad, dom) >= 0.5


def test_field_compatible_sections_are_extremal():
    # free particle: any section with slope 1 solves the equations
    prob, lep, w = free_particle()
    ctx = prob.ctx
    dom = interval(0.0, 1.0, 9)
    for shift in ("0", "1", "-1/2"):
        gamma = {1: parse_expr(f"x(1) + {shift}", ctx)}
        assert FL.compatibility_residual(w, gamma, dom) <= 1e-9
        assert FL.extremal_residual_via_field(prob, gamma, dom) <= 1e-8

    # oscillator with the cotangent field: A sin x is compatible and extremal
    osc = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    wt = FL.SlopeField(osc.ctx,
                       {jet(1, (1,)): parse_expr("y(1)*cos(x(1))/sin(x(1))", osc.ctx)})
    dom2 = N.IntegrationDomain((0.3,), (1.3,), 9)
    for amp in ("1", "2"):
        gamma = {1: parse_expr(f"{amp}*sin(x(1))", osc.ctx)}
        assert FL.compatibility_residual(wt, gamma, dom2) <= 1e-9
        assert FL.extremal_residual_via_field(osc, gamma, dom2) <= 1e-8


# -- certificates ----------------------------------------------------------------------------

def certificate(prob, lep, w, gamma, domain):
    """The certificate at the CLI's default tolerances."""
    return FL.minimum_certificate(
        prob, lep, w, FL.weierstrass(prob, lep, w), gamma, domain,
        compat_tol=DEFAULT_TOLERANCES["compatibility"],
        pivot_tol=DEFAULT_TOLERANCES["definiteness_pivot"])


def test_certificate_free_particle_passes():
    prob, lep, w = free_particle()
    gamma = {1: parse_expr("x(1)", prob.ctx)}
    cert = certificate(prob, lep, w, gamma, interval(0.0, 1.0, 9))
    assert all(c.passed for c in cert.conditions)
    assert "not prove" in cert.caveat


def test_certificate_indefinite_density_fails_definiteness():
    prob = problem("1/2*(y(1;1)^2 - y(1;2)^2)", n=2)
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): Expr.const(prob.ctx, 1),
                                 jet(1, (2,)): Expr.const(prob.ctx, 1)})
    gamma = {1: parse_expr("x(1) + x(2)", prob.ctx)}
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 5)
    cert = certificate(prob, lep, w, gamma, dom)
    failed = {c.name for c in cert.conditions if not c.passed}
    assert "hessian-positive-definite" in failed
    assert "excess-nonnegative" in failed


def test_certificate_zero_lagrangian_zero_margin():
    prob = problem("0")
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): Expr.const(prob.ctx, 0)})
    gamma = {1: Expr.const(prob.ctx, 0)}
    cert = certificate(prob, lep, w, gamma, interval(0.0, 1.0, 5))
    by_name = {c.name: c for c in cert.conditions}
    assert by_name["excess-nonnegative"].passed
    assert not by_name["hessian-positive-definite"].passed  # zero matrix


def test_certificate_rejects_incompatible_section():
    prob, lep, w = free_particle()
    gamma = {1: parse_expr("x(1)^2", prob.ctx)}
    with pytest.raises(InputError):
        certificate(prob, lep, w, gamma, interval(0.0, 1.0, 5))


def test_primitive_rejects_quotients():
    prob, lep, _ = free_particle()
    w = FL.SlopeField(prob.ctx, {jet(1, (1,)): parse_expr("1/(y(1)+2)", prob.ctx)})
    with pytest.raises(UnsupportedSymbolicError):
        FL.hj_primitive(w, lep)


def test_second_order_field_with_quotient_components():
    # quartic density: extremals are cubics; the two-parameter family
    # y = a + b x^2 induces the slope field y_11 = y_1/x, y_111 = 0 away
    # from x = 0, with exact rational-function components
    prob = problem("1/2*y(1;1,1)^2", r=2)
    ctx = prob.ctx
    lep = V.poincare_cartan(prob)
    w = FL.SlopeField(ctx, {
        jet(1, (1, 1)): parse_expr("y(1;1)/x(1)", ctx),
        jet(1, (1, 1, 1)): Expr.const(ctx, 0),
    })
    rep = FL.geodesic_check(w, lep)
    assert rep.status == "zero"

    wd = FL.weierstrass(prob, lep, w)
    want = parse_expr("1/2*(y(1;1,1) - y(1;1)/x(1))^2", ctx)
    assert wd.excess.equal_exact(want)
    assert wd.excess.subs(w.top_subs_map()).is_zero()

    dom = N.IntegrationDomain((1.0,), (2.0,), 9)
    for a, b in (("0", "1"), ("2", "-1/2")):
        gamma = {1: parse_expr(f"{a} + {b}*x(1)^2", ctx)}
        assert FL.compatibility_residual(w, gamma, dom) <= 1e-9
        assert FL.extremal_residual_via_field(prob, gamma, dom) <= 1e-8

    # quotient coefficients put the primitive outside the polynomial class
    with pytest.raises(UnsupportedSymbolicError):
        FL.hj_primitive(w, lep)
