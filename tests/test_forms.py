import random

import pytest

from jetvar import forms as F
from jetvar import numerics as N
from jetvar.errors import DegreeError, InputError
from jetvar.symcore import ChartContext, Expr, base, jet, parse_expr
from conftest import random_polynomial


@pytest.fixture
def ctx():
    return ChartContext(2, 1, 1, max_order=3)


def dx(ctx, i):
    return F.DiffForm(ctx, 1, {(F.d_(base(i)),): Expr.const(ctx, 1)})


def dy(ctx, sigma, J=()):
    return F.DiffForm(ctx, 1, {(F.d_(jet(sigma, J)),): Expr.const(ctx, 1)})


def random_form(ctx, rng, degree):
    covs = [F.d_(base(i)) for i in range(1, ctx.n + 1)]
    covs += [F.d_(jet(1, J)) for J in [(), (1,), (2,)]]
    atoms = [base(1), base(2), jet(1), jet(1, (1,)), jet(1, (2,))]
    form = F.DiffForm(ctx, degree)
    for _ in range(3):
        picked = tuple(rng.sample(covs, degree))
        form._accumulate(picked, random_polynomial(ctx, rng, atoms, n_terms=2, degree=2))
    return form


# -- wedge ---------------------------------------------------------------------

def test_wedge_antisymmetry(ctx):
    assert F.wedge(dx(ctx, 1), dx(ctx, 1)).is_zero()
    assert F.wedge(dx(ctx, 1), dx(ctx, 2)) == -F.wedge(dx(ctx, 2), dx(ctx, 1))


def test_wedge_bilinearity(ctx):
    y = parse_expr("y(1)", ctx)
    got = F.wedge(dx(ctx, 1).scaled(y), dy(ctx, 1))
    want = F.wedge(dx(ctx, 1), dy(ctx, 1)).scaled(y)
    assert got == want


def test_wedge_graded_commutation(ctx):
    rng = random.Random(2)
    a = random_form(ctx, rng, 1)
    b = random_form(ctx, rng, 2)
    assert F.wedge(a, b) == F.wedge(b, a).scaled(Expr.const(ctx, (-1) ** (1 * 2)))


# -- chart basis ------------------------------------------------------------------

def test_omega_basis_degenerate_n1():
    c1 = ChartContext(1, 1, 1, max_order=2)
    om1 = F.omega_i(c1, 1)
    assert om1.degree == 0 and om1.coefficient(()).is_one()
    assert F.omega_0(c1) == dx(c1, 1)


def test_omega_i_sign(ctx):
    om2 = F.omega_i(ctx, 2)
    assert om2 == -dx(ctx, 1)


def test_contact_form_n1():
    c1 = ChartContext(1, 1, 1, max_order=2)
    w = F.omega_contact(c1, 1, ())
    want = dy(c1, 1) - dx(c1, 1).scaled(parse_expr("y(1;1)", c1))
    assert w == want


def test_dx_wedge_omega_i_is_kronecker(ctx):
    om0 = F.omega_0(ctx)
    for i in (1, 2):
        for l in (1, 2):
            got = F.wedge(dx(ctx, l), F.omega_i(ctx, i))
            assert got == (om0 if l == i else F.DiffForm(ctx, ctx.n))


# -- exterior derivative -------------------------------------------------------------

def test_ext_d_example(ctx):
    a = dx(ctx, 1).scaled(parse_expr("y(1)", ctx))
    got = F.ext_d(a)
    want = F.wedge(dy(ctx, 1), dx(ctx, 1))
    assert got == want


def test_d_squared_zero_on_corpus(ctx):
    rng = random.Random(4)
    for degree in (0, 1, 2):
        for _ in range(8):
            a = random_form(ctx, rng, degree) if degree else F.DiffForm.scalar(
                ctx, random_polynomial(ctx, rng,
                                       [base(1), jet(1), jet(1, (1,))]))
            assert F.ext_d(F.ext_d(a)).is_zero()


def test_d_top_degree_constant_coefficient(ctx):
    assert F.ext_d(F.omega_0(ctx).scaled(Expr.const(ctx, 5))).is_zero()


def test_d_leibniz_over_wedge(ctx):
    rng = random.Random(6)
    for p in (0, 1):
        a = random_form(ctx, rng, p) if p else F.DiffForm.scalar(
            ctx, random_polynomial(ctx, rng, [jet(1), base(1)]))
        b = random_form(ctx, rng, 1)
        lhs = F.ext_d(F.wedge(a, b))
        rhs = F.wedge(F.ext_d(a), b) + F.wedge(a, F.ext_d(b)).scaled(
            Expr.const(ctx, (-1) ** p))
        assert lhs == rhs


# -- contact decomposition ------------------------------------------------------------

def test_contact_split_of_dy():
    c1 = ChartContext(1, 1, 1, max_order=2)
    dec = F.contact_decompose(dy(c1, 1))
    assert dec.horizontal == dx(c1, 1).scaled(parse_expr("y(1;1)", c1))
    assert dec.part(1) == F.DiffForm(c1, 1, {(F.w_(1, ()),): Expr.const(c1, 1)})


def test_horizontal_form_untouched(ctx):
    L = parse_expr("y(1;1)^2 + x(2)", ctx)
    lw = F.omega_0(ctx).scaled(L)
    dec = F.contact_decompose(lw)
    assert dec.horizontal == lw
    assert all(p.is_zero() for p in dec.contact_parts)


def test_first_order_expansion_matches_hand_computation():
    # For rho = L dx + f om with n = 1, the 1-contact part of d rho carries
    # (dL/dy - d_1 f) on om^1 ^ dx and (dL/dy_1 - f) on om^1_(1) ^ dx.
    c1 = ChartContext(1, 1, 1, max_order=3)
    L = parse_expr("1/2*y(1;1)^2 - y(1)^3", c1)
    f = parse_expr("y(1;1) + y(1)", c1)
    rho = F.omega_0(c1).scaled(L) + F.omega_contact(c1, 1, ()).scaled(f)
    p1 = F.contact_decompose(F.ext_d(rho)).part(1)
    dxc = F.d_(base(1))
    got0 = p1.coefficient((F.w_(1, ()), dxc))
    got1 = p1.coefficient((F.w_(1, (1,)), dxc))
    want0 = L.partial(jet(1)) - f.total_derivative(1)
    want1 = L.partial(jet(1, (1,))) - f
    assert got0.equal_exact(want0)
    assert got1.equal_exact(want1)


def test_reconstruction_roundtrip(ctx):
    rng = random.Random(8)
    for degree in (1, 2, 3):
        for _ in range(6):
            a = random_form(ctx, rng, degree)
            assert F.contact_decompose(a).reconstruct() == a


# -- pullback ------------------------------------------------------------------------

def test_pullback_examples(ctx):
    got = F.pullback(dy(ctx, 1), {jet(1): parse_expr("x(1)^2", ctx)})
    assert got == dx(ctx, 1).scaled(parse_expr("2*x(1)", ctx))
    a = random_form(ctx, random.Random(1), 2)
    assert F.pullback(a, {}) == a
    assert F.pullback(dx(ctx, 1), {jet(1): parse_expr("x(2)", ctx)}) == dx(ctx, 1)


def test_pullback_commutes_with_d(ctx):
    rng = random.Random(10)
    subst = {jet(1): parse_expr("x(1)*x(2)", ctx),
             jet(1, (1,)): parse_expr("x(2)^2 + y(1)", ctx)}
    for degree in (0, 1, 2):
        for _ in range(6):
            a = random_form(ctx, rng, degree) if degree else F.DiffForm.scalar(
                ctx, random_polynomial(ctx, rng, [jet(1), jet(1, (1,)), base(2)]))
            assert F.pullback(F.ext_d(a), subst) == F.ext_d(F.pullback(a, subst))


def test_pullback_rejects_base_substitution(ctx):
    with pytest.raises(InputError):
        F.pullback(dx(ctx, 1), {base(1): parse_expr("y(1)", ctx)})


# -- interior product -------------------------------------------------------------------

def test_interior_product_examples(ctx):
    a = F.wedge(dy(ctx, 1), dx(ctx, 1))
    v = {jet(1): Expr.const(ctx, 1)}
    assert F.interior_product(v, a) == dx(ctx, 1)
    assert F.interior_product(v, dx(ctx, 1)).is_zero()
    b = random_form(ctx, random.Random(12), 2)
    vv = {jet(1): parse_expr("y(1)", ctx), base(1): Expr.const(ctx, 2)}
    assert F.interior_product(vv, F.interior_product(vv, b)).is_zero()


def test_interior_product_degree_zero_rejected(ctx):
    with pytest.raises(DegreeError):
        F.interior_product({}, F.DiffForm.scalar(ctx, Expr.const(ctx, 1)))


# -- section pullback identity -----------------------------------------------------------

def test_horizontalization_agrees_with_section_pullback():
    # integrands of gamma* a and (prolonged gamma)* h(a) coincide
    c1 = ChartContext(1, 1, 2, max_order=4)
    rng = random.Random(14)
    gamma = N.Section.of_base(c1, {1: parse_expr("x(1)^3 - 2*x(1)", c1)})
    for _ in range(5):
        coeff = random_polynomial(c1, rng, [base(1), jet(1), jet(1, (1,))],
                                  n_terms=3, degree=2)
        a = dy(c1, 1, (1,)).scaled(coeff)  # n-form for n = 1
        h = F.horizontalization(a)
        pro = N.jet_prolong_section(gamma, 3)
        lhs = F.horizontal_density(N.pullback_along(a, pro))
        rhs = F.horizontal_density(N.pullback_along(h, pro))
        for xval in (0.1, 0.5, 0.9):
            assert abs(lhs.eval({base(1): xval}) - rhs.eval({base(1): xval})) <= 1e-10


def test_omega_basis_bundle():
    c1 = ChartContext(1, 1, 2, max_order=2)
    om0, omis, contact = F.omega_basis(c1)
    assert om0 == F.omega_0(c1)
    assert set(omis) == {1}
    # contact forms provided for every jet one order below the bound
    assert set(contact) == {(1, ()), (1, (1,))}
    assert contact[(1, ())] == F.omega_contact(c1, 1, ())
