import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import forms as F
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.errors import (ContactOrderError, DegreeError, InadmissibleGError,
                           InputError, VerticalityError)
from jetvar.symcore import ChartContext, Expr, base, jet, mom, parse_expr, vel
from conftest import (alternating_sum_euler_lagrange, assert_sym_equal, interval,
                      prolonged_horizontalization, random_polynomial, scalar_form)


def problem(text, n=1, m=1, r=1):
    ctx = ChartContext(n, m, r)
    return V.LagrangianProblem(ctx, parse_expr(text, ctx))


# -- momenta -------------------------------------------------------------------

def test_momenta_second_order_example():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    P = V.momenta(prob)
    assert_sym_equal(P[mom(1, (1, 1))], parse_expr("y(1;1,1)", prob.ctx))
    assert_sym_equal(P[mom(1, (1,))], parse_expr("-y(1;1,1,1)", prob.ctx))


def test_momenta_mechanics_example():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    assert_sym_equal(V.momenta(prob)[mom(1, (1,))], parse_expr("y(1;1)", prob.ctx))


def test_momenta_zero_lagrangian():
    prob = problem("0", r=2)
    assert all(e.is_zero() for e in V.momenta(prob).values())


def test_momenta_order_bound(corpus):
    for prob in corpus:
        for p, e in V.momenta(prob).items():
            assert e.max_jet_order() <= 2 * prob.ctx.r - p.order


def test_momenta_top_level_is_weighted_gradient(corpus):
    for prob in corpus:
        P = V.momenta(prob)
        for s in range(1, prob.ctx.m + 1):
            for K in mi.tuples(prob.ctx.n, prob.ctx.r):
                want = prob.L.partial(jet(s, K)) * Fraction(1, mi.count(K))
                assert P[mom(s, K)] == want


# -- Euler-Lagrange ----------------------------------------------------------------

def test_el_examples():
    p1 = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    assert_sym_equal(V.euler_lagrange(p1)[1], parse_expr("-y(1) - y(1;1,1)", p1.ctx))
    p2 = problem("1/2*y(1;1,1)^2", r=2)
    assert_sym_equal(V.euler_lagrange(p2)[1], parse_expr("y(1;1,1,1,1)", p2.ctx))
    p3 = problem("1/2*(y(1;1)^2 + y(1;2)^2)", n=2)
    assert_sym_equal(V.euler_lagrange(p3)[1],
                     parse_expr("-y(1;1,1) - y(1;2,2)", p3.ctx))


def test_el_equals_alternating_sum_oracle(corpus):
    for prob in corpus:
        got = V.euler_lagrange(prob)
        want = alternating_sum_euler_lagrange(prob)
        for s in got:
            assert got[s] == want[s]


def test_rational_density_el_stays_reduced():
    # each derivative raises the power of one reciprocal atom of 1 + y'^2
    prob = problem("y(1;1,1)^2/(1+y(1;1)^2)^2", r=2)
    ctx = prob.ctx
    el = V.euler_lagrange(prob)[1]
    assert len(el.num) == 4
    recips = {a for mono in el.num for a, _ in mono if not ctx.is_coord(a)}
    assert [str(ctx.atom(a).arg) for a in recips] == ["y(1;1)^2 + 1"]
    reduced = parse_expr(
        "(20*y(1;1)^2*y(1;1,1)^3 - 16*y(1;1)*y(1;1,1)*y(1;1,1,1)"
        " - 16*y(1;1)^3*y(1;1,1)*y(1;1,1,1) - 4*y(1;1,1)^3 + 2*y(1;1,1,1,1)"
        " + 4*y(1;1)^2*y(1;1,1,1,1) + 2*y(1;1)^4*y(1;1,1,1,1))/(1+y(1;1)^2)^4", ctx)
    assert el.equal_exact(reduced)
    assert el.equal_exact(alternating_sum_euler_lagrange(prob)[1])


def test_misplaced_recursion_weight_breaks_el():
    # dividing the formal-derivative term by N(K) as well gives a different,
    # wrong Euler-Lagrange expression once repeated-index momenta matter
    prob = problem("1/2*y(1;1,1,2)^2", n=2, r=3)
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    entries = {}
    for k in range(ctx.r, 0, -1):
        for sigma in range(1, ctx.m + 1):
            for K in mi.tuples(ctx.n, k):
                e = prob.L.partial(jet(sigma, K)) * Fraction(1, mi.count(K))
                if k < ctx.r:
                    for i in range(1, ctx.n + 1):
                        e = e - (entries[(sigma, mi.merge(K, i))].total_derivative(i)
                                 * Fraction(1, mi.count(K)))
                entries[(sigma, K)] = e
    wrong = prob.L.partial(jet(1, ()))
    for i in range(1, ctx.n + 1):
        wrong = wrong - entries[(1, (i,))].total_derivative(i)
    oracle = alternating_sum_euler_lagrange(prob)[1]
    assert V.euler_lagrange(prob)[1] == oracle
    assert not wrong == oracle


# -- canonical equivalent --------------------------------------------------------------

def test_poincare_cartan_mechanics_shape():
    prob = problem("1/2*y(1;1)^2 - y(1)^3")
    lep = V.poincare_cartan(prob)
    ctx = prob.ctx
    p = parse_expr("y(1;1)", ctx)
    want = (F.omega_0(ctx).scaled(prob.L - p * p)
            + F.DiffForm(ctx, 1, {(F.d_(jet(1)),): p}))
    assert lep.realize() == want


def test_poincare_cartan_second_order_coefficients():
    prob = problem("1/2*y(1;1,1)^2", r=2)
    lep = V.poincare_cartan(prob)
    assert_sym_equal(lep.f[vel(1, (), 1)], parse_expr("-y(1;1,1,1)", prob.ctx))
    assert_sym_equal(lep.f[vel(1, (1,), 1)], parse_expr("y(1;1,1)", prob.ctx))


def test_poincare_cartan_zero_lagrangian():
    assert V.poincare_cartan(problem("0", r=2)).realize().is_zero()


def test_coefficients_are_weighted_momenta(corpus):
    for prob in corpus:
        lep = V.poincare_cartan(prob)
        P = V.momenta(prob)
        for v, e in lep.f.items():
            want = P[mom(v.sigma, mi.merge(v.J, v.i))] * mi.count(v.J)
            assert e == want


def test_defect_vanishes_on_corpus(corpus):
    for prob in corpus:
        rep = V.lepagean_defect(V.poincare_cartan(prob).realize(), prob)
        assert rep.is_lepagean, f"defect for L = {prob.L}"


def test_el_via_forms_matches_recursion(corpus):
    for prob in corpus:
        rep = V.lepagean_defect(V.poincare_cartan(prob).realize(), prob)
        el = V.euler_lagrange(prob)
        for s, e in el.items():
            got = rep.euler_lagrange.get(s, Expr.const(prob.ctx, 0))
            assert got.equal_exact(e)


def test_defect_nonzero_for_bare_horizontal_form():
    prob = problem("1/2*y(1;1)^2")
    rho = F.omega_0(prob.ctx).scaled(prob.L)
    rep = V.lepagean_defect(rho, prob)
    assert not rep.is_lepagean
    assert_sym_equal(rep.contact_defect[(1, (1,))], parse_expr("y(1;1)", prob.ctx))


def test_defect_input_validation():
    prob = problem("y(1)")
    with pytest.raises(DegreeError):
        V.lepagean_defect(scalar_form(prob.ctx, prob.L), prob)
    prob2 = problem("y(1)", n=2)
    ctx2 = prob2.ctx
    ctx2.ensure_max_order(2)
    two_contact = F.wedge(F.omega_contact(ctx2, 1, ()),
                          F.omega_contact(ctx2, 1, (1,)))
    with pytest.raises(ContactOrderError):
        V.lepagean_defect(two_contact, prob2)


# -- the g-parametrized family ----------------------------------------------------------

def admissible_g(ctx, expr_text):
    a = parse_expr(expr_text, ctx)
    return V.GSpec({(1, 2, (1,)): a, (1, 1, (2,)): -a})


def test_empty_g_reproduces_canonical_equivalent():
    prob = problem("1/2*y(1;1,1)^2 + y(1;2,2)*y(1)", n=2, r=2)
    lep0 = V.poincare_cartan(prob)
    lep1 = V.lepagean_from_g(prob, V.GSpec())
    assert lep0.f == lep1.f
    assert lep1.correction is None


def test_g_rejected_for_first_order():
    prob = problem("1/2*y(1;1)^2")
    with pytest.raises(InadmissibleGError):
        V.lepagean_from_g(prob, V.GSpec({(1, 1, ()): Expr.const(prob.ctx, 1)}))


def test_g_family_passes_defect():
    prob = problem("1/2*(y(1;1,1)^2 + y(1;2,2)^2) + y(1;1,2)*y(1)", n=2, r=2)
    g = admissible_g(prob.ctx, "y(1)")
    lep = V.lepagean_from_g(prob, g)
    rep = V.lepagean_defect(lep.realize(), prob)
    assert rep.is_lepagean
    assert lep.correction  # nonzero corrections reported


def test_g_symmetrization_violation_rejected():
    prob = problem("1/2*y(1;1,1)^2", n=2, r=2)
    bad = V.GSpec({(1, 2, (1,)): parse_expr("y(1)", prob.ctx)})  # no cancelling partner
    with pytest.raises(InadmissibleGError):
        V.lepagean_from_g(prob, bad)


def test_g_order_bound_rejected():
    prob = problem("1/2*y(1;1,1)^2", n=2, r=2)
    a = parse_expr("y(1;1,2)", prob.ctx)  # order 2 > 2r-1-k = 1
    with pytest.raises(InadmissibleGError):
        V.lepagean_from_g(prob, V.GSpec({(1, 2, (1,)): a, (1, 1, (2,)): -a}))


# -- extended density and the canonical-equation table ------------------------------------

def test_extended_lagrangian_free_particle():
    prob = problem("1/2*y(1;1)^2")
    lt = V.extended_lagrangian(V.poincare_cartan(prob))
    assert_sym_equal(lt, parse_expr("y(1;1)*v(1;|1) - 1/2*y(1;1)^2", prob.ctx))


def _holonomic(ctx):
    """The substitution v(s;J|i) -> y(s;J+i) for every velocity of the chart
    (its images reach order 2r, which the chart may not hold yet)."""
    ctx.ensure_max_order(2 * ctx.r)
    return {vel(y.sigma, y.J, i): Expr.coord(ctx, jet(y.sigma, mi.merge(y.J, i)))
            for y in ctx.coords(jet, range(2 * ctx.r))
            for i in range(1, ctx.n + 1)}


def test_extended_lagrangian_holonomic_substitution(corpus, rational_corpus):
    for prob in corpus + rational_corpus:
        lt = V.extended_lagrangian(V.poincare_cartan(prob))
        assert lt.subs(_holonomic(prob.ctx)) == prob.L


def test_extended_lagrangian_zero():
    assert V.extended_lagrangian(V.poincare_cartan(problem("0", r=2))).is_zero()


def test_hamilton_table_free_particle():
    prob = problem("1/2*y(1;1)^2")
    tab = V.hamilton_form(V.poincare_cartan(prob))
    assert_sym_equal(tab.entries[jet(1)], parse_expr("-v(1;1|1)", prob.ctx))
    assert_sym_equal(tab.entries[jet(1, (1,))], parse_expr("v(1;|1) - y(1;1)", prob.ctx))


def test_hamilton_table_zero_lagrangian():
    tab = V.hamilton_form(V.poincare_cartan(problem("0", r=2)))
    assert all(e.is_zero() for e in tab.entries.values())


def test_hamilton_table_higher_entries_are_holonomy_defects():
    # for L = 1/2 y''^2 the order >= r rows are linear-homogeneous in the
    # velocity defects v - y
    prob = problem("1/2*y(1;1,1)^2", r=2)
    tab = V.hamilton_form(V.poincare_cartan(prob))
    ctx = prob.ctx
    assert_sym_equal(tab.entries[jet(1, (1, 1))], parse_expr("v(1;1|1) - y(1;1,1)", ctx))
    assert_sym_equal(tab.entries[jet(1, (1, 1, 1))], parse_expr("y(1;1) - v(1;|1)", ctx))


def _velocity_degree(e):
    """Largest total degree in velocity atoms over the monomials of ``e``.

    Velocities must appear only as polynomial atoms, not inside a
    reciprocal or a function argument.
    """
    ctx = e.ctx
    vids = set()
    for mono in e.num:
        for a, _ in mono:
            if ctx.is_coord(a):
                if ctx.atom(a).kind == "v":
                    vids.add(a)
            else:
                assert all(ctx.atom(c).kind != "v" for c in ctx.func_coord_support(a))
    return max((sum(k for a, k in mono if a in vids) for mono in e.num), default=0)


def test_hamilton_table_affine_in_velocities(corpus, rational_corpus):
    for prob in corpus + rational_corpus:
        tab = V.hamilton_form(V.poincare_cartan(prob))
        assert all(_velocity_degree(e) <= 1 for e in tab.entries.values())


def test_hamilton_table_holonomic_restriction(corpus, rational_corpus):
    # on holonomic velocities, v(s;J|i) -> y(s;J+i), the entry H(s) is the
    # Euler-Lagrange expression of fiber s and every other entry is 0
    for prob in corpus + rational_corpus:
        ctx = prob.ctx
        el = V.euler_lagrange(prob)
        hol = _holonomic(ctx)
        for c, e in V.hamilton_form(V.poincare_cartan(prob)).entries.items():
            want = Expr.const(ctx, 0) if c.J else el[c.sigma]
            assert e.subs(hol).equal_exact(want), (str(prob.L), c.text())


def test_hamilton_defining_property(corpus):
    # contract the table against a random vertical field and compare with
    # the velocity-horizontalized contraction of d rho, at random points
    rng = random.Random(99)
    for prob in corpus:
        ctx = prob.ctx
        lep = V.poincare_cartan(prob)
        tab = V.hamilton_form(lep)
        drho = F.ext_d(lep.realize())
        comps = {s: Expr.coord(ctx, jet(s, ())) ** 2 + Expr.const(ctx, s)
                 for s in range(1, ctx.m + 1)}
        pro = V.prolong_vector_field(ctx, comps, 2 * ctx.r - 1)
        rhs_expr = F.horizontal_density(
            prolonged_horizontalization(F.interior_product(pro, drho)))
        for _ in range(10):
            point = {base(i): rng.uniform(-1, 1) for i in range(1, ctx.n + 1)}
            for y in ctx.coords(jet, range(2 * ctx.r)):
                point[y] = rng.uniform(-1, 1)
                for p in range(1, ctx.n + 1):
                    point[vel(y.sigma, y.J, p)] = rng.uniform(-1, 1)
            lhs = sum(pro[key].eval(point) * tab.entries[key].eval(point)
                      for key in tab.entries)
            assert abs(lhs - rhs_expr.eval(point)) <= 1e-9


def _table_along(tab, section):
    """Each Hamilton-table entry, exactly, with the jets bound to the
    section's components ``{jet(s, J): Expr}`` and v(s;J|p) to their
    x(p)-partials."""
    binding = {}
    for y, comp in section.items():
        binding[y] = comp
        for p in range(1, comp.ctx.n + 1):
            binding[vel(y.sigma, y.J, p)] = comp.partial(base(p))
    return {key: e.subs(binding) for key, e in tab.entries.items()}


def test_hamilton_extremal_residual_examples():
    # every entry is structurally 0 along a prolonged extremal
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    ctx = prob.ctx
    tab = V.hamilton_form(V.poincare_cartan(prob))
    sine = N.jet_prolong_section(ctx, {1: parse_expr("sin(x(1))", ctx)}, 1)
    assert _table_along(tab, sine) == {jet(1): 0, jet(1, (1,)): 0}

    # a section that is not holonomic: v(1;|1) - y(1;1) = 1 - 2
    free = problem("1/2*y(1;1)^2")
    tabf = V.hamilton_form(V.poincare_cartan(free))
    broken = {jet(1): parse_expr("x(1)", free.ctx), jet(1, (1,)): parse_expr("2", free.ctx)}
    assert _table_along(tabf, broken) == {jet(1): 0, jet(1, (1,)): -1}

    zero = problem("0")
    tz = V.hamilton_form(V.poincare_cartan(zero))
    square = N.jet_prolong_section(zero.ctx, {1: parse_expr("x(1)^2", zero.ctx)}, 1)
    assert _table_along(tz, square) == {jet(1): 0, jet(1, (1,)): 0}


# -- vector field prolongation --------------------------------------------------------

def test_prolong_vector_field_examples():
    ctx = ChartContext(1, 1, 2)
    const = V.prolong_vector_field(ctx, {1: Expr.const(ctx, 1)}, 3)
    assert all(e.is_zero() for y, e in const.items() if y.J)
    lin = V.prolong_vector_field(ctx, {1: parse_expr("y(1)", ctx)}, 2)
    assert_sym_equal(lin[jet(1, (1,))], parse_expr("y(1;1)", ctx))
    xfield = V.prolong_vector_field(ctx, {1: parse_expr("x(1)", ctx)}, 1)
    assert_sym_equal(xfield[jet(1, (1,))], Expr.const(ctx, 1))


def test_prolong_vector_field_rejects_nonvertical():
    ctx = ChartContext(1, 1, 2)
    with pytest.raises(VerticalityError):
        V.prolong_vector_field(ctx, {1: parse_expr("y(1;1)", ctx)}, 2)


# -- first variation --------------------------------------------------------------------

def test_first_variation_harmonic_oscillator():
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    ctx = prob.ctx
    gamma = {1: parse_expr("sin(x(1))", ctx)}
    fv = N.first_variation_check(prob, V.poincare_cartan(prob),
                                 {1: Expr.const(ctx, 1)}, gamma,
                                 interval(0.0, 1.0, 10 ** 4))
    assert abs(fv.lhs - fv.rhs) <= 1e-4


def test_first_variation_extremal_with_compact_variation():
    # variation vanishing at the boundary: both terms nearly cancel on an extremal
    prob = problem("1/2*y(1;1)^2 - 1/2*y(1)^2")
    ctx = prob.ctx
    gamma = {1: parse_expr("sin(x(1))", ctx)}
    xi = {1: parse_expr("(x(1)*(1-x(1)))^3", ctx)}
    fv = N.first_variation_check(prob, V.poincare_cartan(prob), xi, gamma,
                                 interval(0.0, 1.0, 4000))
    assert abs(fv.interior + fv.boundary) <= 1e-6
    assert abs(fv.lhs) <= 1e-6


def test_first_variation_zero_lagrangian():
    prob = problem("0")
    ctx = prob.ctx
    gamma = {1: parse_expr("x(1)^2", ctx)}
    fv = N.first_variation_check(prob, V.poincare_cartan(prob),
                                 {1: Expr.const(ctx, 1)}, gamma,
                                 interval(0.0, 1.0, 100))
    assert fv.lhs == 0.0 and fv.rhs == 0.0


def test_first_variation_exact_beyond_quadratic_densities():
    # the action along x(1) + t x(1) is (1+t)^4/4: a central difference in t
    # carries its t^2 truncation, the chain-rule left side does not
    prob = problem("1/4*y(1;1)^4")
    ctx = prob.ctx
    gamma = {1: parse_expr("x(1)", ctx)}
    fv = N.first_variation_check(prob, V.poincare_cartan(prob),
                                 {1: parse_expr("x(1)", ctx)}, gamma,
                                 interval(0.0, 1.0, 11))
    assert abs(fv.lhs - 1.0) <= 1e-13


def test_lagrangian_validation():
    ctx = ChartContext(1, 1, 1, max_order=2)
    with pytest.raises(InputError):
        V.LagrangianProblem(ctx, parse_expr("y(1;1,1)", ctx))
    with pytest.raises(InputError):
        V.LagrangianProblem(ctx, parse_expr("v(1;|1)", ctx))

def test_defect_of_zero_lagrangian_equivalent():
    prob = problem("0", r=2)
    rep = V.lepagean_defect(V.poincare_cartan(prob).realize(), prob)
    assert rep.is_lepagean
    assert not rep.euler_lagrange


def test_g_rejects_momentum_dependence():
    prob = problem("1/2*y(1;1,1)^2", n=2, r=2)
    a = parse_expr("P(1;1)", prob.ctx)
    with pytest.raises(InadmissibleGError):
        V.lepagean_from_g(prob, V.GSpec({(1, 2, (1,)): a, (1, 1, (2,)): -a}))


def test_defect_vanishes_with_transcendental_coefficients():
    # x-dependent transcendental factors stay structural: no identities needed
    prob = problem("sin(x(1))*y(1;1,1)^2 + exp(x(1))*y(1)*y(1;1)", r=2)
    lep = V.poincare_cartan(prob)
    rep = V.lepagean_defect(lep.realize(), prob)
    assert rep.is_lepagean
    want = alternating_sum_euler_lagrange(prob)[1]
    assert rep.euler_lagrange[1].equal_exact(want)


def test_first_variation_two_base_dimensions():
    # harmonic section of the two-dimensional first-order problem; the
    # boundary term carries the whole variation
    prob = problem("1/2*(y(1;1)^2 + y(1;2)^2)", n=2)
    ctx = prob.ctx
    gamma = {1: parse_expr("x(1)^2 - x(2)^2", ctx)}
    xi = {1: parse_expr("x(1)", ctx)}
    dom = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    fv = N.first_variation_check(prob, V.poincare_cartan(prob), xi, gamma, dom)
    # d/dt of the action along gamma + t x1 is the integral of d1(gamma),
    # which is 1 on the unit square
    assert abs(fv.lhs - 1.0) <= 1e-4
    assert abs(fv.interior) <= 1e-9  # extremal
    assert abs(fv.lhs - fv.rhs) <= 1e-4


# -- null Lagrangians ----------------------------------------------------------------

def _random_rational(ctx, rng, order):
    """A polynomial plus a polynomial over 1 + u^2, in the base coordinates
    and the jets of order at most ``order``."""
    coords = [base(i) for i in range(1, ctx.n + 1)]
    coords += [jet(s, J) for s in range(1, ctx.m + 1)
               for k in range(order + 1) for J in mi.tuples(ctx.n, k)]
    u = random_polynomial(ctx, rng, coords, n_terms=2, degree=1, allow_const=False)
    num = random_polynomial(ctx, rng, coords, n_terms=2, degree=2)
    return random_polynomial(ctx, rng, coords, n_terms=2, degree=2) + num / (1 + u * u)


def _assert_null_lagrangian(L, F_):
    """EL(d_1 F) = 0, EL(L + d_1 F) = EL(L), and the canonical equivalent of
    L + d_1 F passes the defect check."""
    ctx = L.ctx
    div = F_.total_derivative(1)
    assert all(e.is_zero() for e in V.euler_lagrange(V.LagrangianProblem(ctx, div)).values())
    prob = V.LagrangianProblem(ctx, L + div)
    el = V.euler_lagrange(prob)
    el_ref = V.euler_lagrange(V.LagrangianProblem(ctx, L))
    assert all(el[s].equal_exact(el_ref[s]) for s in el_ref)
    assert V.lepagean_defect(V.poincare_cartan(prob).realize(), prob).is_lepagean


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 2), st.integers(1, 2))
def test_total_divergence_is_null_lagrangian(seed, n, r):
    rng = random.Random(seed)
    ctx = ChartContext(n, 1, r)
    _assert_null_lagrangian(_random_rational(ctx, rng, r), _random_rational(ctx, rng, r - 1))


def test_transcendental_total_divergence_is_null_lagrangian():
    ctx = ChartContext(2, 1, 1)
    _assert_null_lagrangian(parse_expr("y(1;1)^2/(1 + y(1)^2) + y(1;2)^2", ctx),
                            parse_expr("sqrt(1 + y(1)^2)*x(2)", ctx))
