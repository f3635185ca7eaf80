import random
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from jetvar import forms as F
from jetvar import numerics as N
from jetvar.errors import DegreeError, InputError
from jetvar.symcore import ChartContext, Expr, base, jet, parse_expr
from conftest import random_polynomial, reconstruct, scalar_form


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
    terms = []
    for _ in range(3):
        picked = tuple(rng.sample(covs, degree))
        terms.append(F.DiffForm(ctx, degree, {picked: random_polynomial(
            ctx, rng, atoms, n_terms=2, degree=2)}))
    return F.form_sum(terms)


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
            a = random_form(ctx, rng, degree) if degree else scalar_form(
                ctx, random_polynomial(ctx, rng,
                                       [base(1), jet(1), jet(1, (1,))]))
            assert F.ext_d(F.ext_d(a)).is_zero()


def test_d_top_degree_constant_coefficient(ctx):
    assert F.ext_d(F.omega_0(ctx).scaled(Expr.const(ctx, 5))).is_zero()


def test_d_leibniz_over_wedge(ctx):
    rng = random.Random(6)
    for p in (0, 1):
        a = random_form(ctx, rng, p) if p else scalar_form(
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
    assert dec[0] == dx(c1, 1).scaled(parse_expr("y(1;1)", c1))
    assert dec[1:] == [F.DiffForm(c1, 1, {(F.w_(1, ()),): Expr.const(c1, 1)})]


def test_horizontal_form_untouched(ctx):
    L = parse_expr("y(1;1)^2 + x(2)", ctx)
    lw = F.omega_0(ctx).scaled(L)
    dec = F.contact_decompose(lw)
    assert dec[0] == lw
    assert all(p.is_zero() for p in dec[1:])


def test_first_order_expansion_matches_hand_computation():
    # For rho = L dx + f om with n = 1, the 1-contact part of d rho carries
    # (dL/dy - d_1 f) on om^1 ^ dx and (dL/dy_1 - f) on om^1_(1) ^ dx.
    c1 = ChartContext(1, 1, 1, max_order=3)
    L = parse_expr("1/2*y(1;1)^2 - y(1)^3", c1)
    f = parse_expr("y(1;1) + y(1)", c1)
    rho = F.omega_0(c1).scaled(L) + F.omega_contact(c1, 1, ()).scaled(f)
    p1 = F.contact_decompose(F.ext_d(rho))[1]
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
            assert reconstruct(F.contact_decompose(a)) == a


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
            a = random_form(ctx, rng, degree) if degree else scalar_form(
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
        F.interior_product({}, scalar_form(ctx, Expr.const(ctx, 1)))


# -- section pullback identity -----------------------------------------------------------

def test_horizontalization_agrees_with_section_pullback():
    # integrands of gamma* a and (prolonged gamma)* h(a) coincide
    c1 = ChartContext(1, 1, 2, max_order=4)
    rng = random.Random(14)
    pro = N.jet_prolong_section(c1, {1: parse_expr("x(1)^3 - 2*x(1)", c1)}, 3)
    for _ in range(5):
        coeff = random_polynomial(c1, rng, [base(1), jet(1), jet(1, (1,))],
                                  n_terms=3, degree=2)
        a = dy(c1, 1, (1,)).scaled(coeff)  # n-form for n = 1
        h = F.contact_decompose(a, 0)[0]
        lhs = F.horizontal_density(F.pullback(a, pro))
        rhs = F.horizontal_density(F.pullback(h, pro))
        for xval in (0.1, 0.5, 0.9):
            assert abs(lhs.eval({base(1): xval}) - rhs.eval({base(1): xval})) <= 1e-10


# -- one-pass collector against per-term accumulation ------------------------------

def _ref_sort(covs):
    """Sorted factors and the sign of the permutation, or (None, 0)."""
    lst = [(c.key, c) for c in covs]
    sign = 1
    for i in range(1, len(lst)):
        item = lst[i]
        j = i - 1
        while j >= 0 and lst[j][0] > item[0]:
            lst[j + 1] = lst[j]
            j -= 1
            sign = -sign
        lst[j + 1] = item
    for a, b in zip(lst, lst[1:]):
        if a[0] == b[0]:
            return None, 0
    return tuple(c for _, c in lst), sign


def _ref_collect(degree, pairs) -> dict:
    """Terms built one pair at a time: zero test, sort, then add the
    coefficient to the running sum and zero-test that sum."""
    terms = {}
    for covs, coeff in pairs:
        if coeff.is_zero():
            continue
        if len(covs) != degree:
            raise DegreeError("wrong degree")
        key, sign = _ref_sort(covs)
        if key is None:
            continue
        if sign < 0:
            coeff = -coeff
        prev = terms.get(key)
        total = coeff if prev is None else prev + coeff
        if prev is not None and total.is_zero():
            del terms[key]
        else:
            terms[key] = total
    return terms


def _ref_expand(a, image) -> list:
    """Every product of replacing each covector by ``image(cov)`` (None keeps
    it), dead ones included."""
    pairs = []
    images = {}
    for covs, c in a.terms.items():
        combos = [((), c)]
        for cov in covs:
            if cov not in images:
                images[cov] = image(cov)
            img = images[cov]
            if img is None:
                combos = [(picked + (cov,), e) for picked, e in combos]
            else:
                combos = [(picked + icovs, e * ie) for picked, e in combos
                          for icovs, ie in img.terms.items()]
        pairs += combos
    return pairs


def _ref_form(degree, pairs):
    return SimpleNamespace(degree=degree, terms=_ref_collect(degree, pairs))


def _assert_same(got, want):
    """Same keys in the same order, same coefficients term by term in order."""
    assert list(got.terms) == list(want.terms)
    for key, e in want.terms.items():
        assert list(got.terms[key].num.items()) == list(e.num.items())


_COVS = [F.d_(base(1)), F.d_(base(2)), F.d_(jet(1)), F.d_(jet(1, (1,))), F.d_(jet(1, (2,)))]


def _random_coefficient(ctx, rng):
    """A polynomial in coordinates, a quotient atom and a square-root atom."""
    coords = [Expr.coord(ctx, c) for c in (base(1), base(2), jet(1), jet(1, (1,)),
                                           jet(1, (2,)))]
    u = rng.choice(coords) + rng.choice(coords) * rng.randint(1, 3)
    atoms = coords + [1 / (1 + u * u), Expr.func(ctx, "sqrt", 1 + u * u)]
    return random_polynomial(ctx, rng, atoms, n_terms=rng.randint(1, 3), degree=2)


def _random_pairs(ctx, rng, degree):
    """Products with repeated keys: some add to an earlier key in another
    factor order, some cancel an earlier product exactly."""
    pairs = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if pairs and roll < 0.25:
            covs, coeff = rng.choice(pairs)
            pairs.append((covs, -coeff))
        elif pairs and roll < 0.5:
            covs, _ = rng.choice(pairs)
            pairs.append((tuple(rng.sample(covs, degree)), _random_coefficient(ctx, rng)))
        else:
            pairs.append((tuple(rng.sample(_COVS, degree)), _random_coefficient(ctx, rng)))
    return pairs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(0, 3), st.integers(0, 2))
def test_form_operations_match_per_term_accumulation(seed, p, q):
    ctx = ChartContext(2, 1, 1, max_order=3)
    rng = random.Random(seed)
    pairs = _random_pairs(ctx, rng, p)
    a = F.form_sum([F.DiffForm(ctx, p, {covs: e}) for covs, e in pairs])
    _assert_same(a, _ref_form(p, pairs))
    unique = dict(pairs)
    _assert_same(F.DiffForm(ctx, p, unique), _ref_form(p, unique.items()))
    b = F.form_sum([F.DiffForm(ctx, p, {covs: e}) for covs, e in _random_pairs(ctx, rng, p)])
    _assert_same(a + b, _ref_form(p, chain(a.terms.items(), b.terms.items())))
    _assert_same(a - b, _ref_form(p, chain(a.terms.items(),
                                           ((k, -e) for k, e in b.terms.items()))))
    e = _random_coefficient(ctx, rng)
    _assert_same(a.scaled(e), _ref_form(p, ((k, c * e) for k, c in a.terms.items())))
    c = F.form_sum([F.DiffForm(ctx, q, {covs: e}) for covs, e in _random_pairs(ctx, rng, q)])
    _assert_same(F.wedge(a, c), _ref_form(p + q, (
        (k1 + k2, e1 * e2) for k1, e1 in a.terms.items() for k2, e2 in c.terms.items())))

    d_pairs = []
    for covs, coeff in a.terms.items():
        for co in coeff.coords():
            dc = coeff.partial(co)
            if not dc.is_zero():
                d_pairs.append(((F.d_(co),) + covs, dc))
    _assert_same(F.ext_d(a), _ref_form(p + 1, d_pairs))

    if p:
        v = {cov.coord: _random_coefficient(ctx, rng) for cov in rng.sample(_COVS, 3)}
        i_pairs = []
        for covs, coeff in a.terms.items():
            for s, cov in enumerate(covs):
                if cov.coord in v:
                    term = coeff * v[cov.coord]
                    i_pairs.append((covs[:s] + covs[s + 1:], -term if s % 2 else term))
        _assert_same(F.interior_product(v, a), _ref_form(p - 1, i_pairs))

    def split(cov):
        co = cov.coord
        if co.kind == "x":
            return None
        return SimpleNamespace(terms={(F.w_(co.sigma, co.J),): Expr.const(ctx, 1), **{
            (F.d_(base(l)),): Expr.coord(ctx, jet(co.sigma, co.J + (l,))) for l in (1, 2)}})

    expanded = _ref_form(p, _ref_expand(a, split))
    parts = [_ref_form(p, ((k, e) for k, e in expanded.terms.items()
                           if sum(cv.kind == "w" for cv in k) == j)) for j in range(p + 1)]
    dec = F.contact_decompose(a)
    assert len(dec) == p + 1
    for got, want in zip(dec, parts):
        _assert_same(got, want)
    for k in range(p + 2):
        got = F.contact_decompose(a, k)
        assert len(got) == k + 1
        for j in range(k + 1):
            _assert_same(got[j], parts[j] if j <= p else _ref_form(p, ()))

    def unsplit(cov):
        co = cov.coord
        if cov.kind != "w":
            return None
        return SimpleNamespace(terms={(F.d_(co),): Expr.const(ctx, 1), **{
            (F.d_(base(l)),): -Expr.coord(ctx, jet(co.sigma, co.J + (l,))) for l in (1, 2)}})

    rebuilt = parts[0]
    for part in parts[1:]:
        rebuilt = _ref_form(p, chain(rebuilt.terms.items(),
                                     _ref_form(p, _ref_expand(part, unsplit)).terms.items()))
    got = reconstruct(dec)
    _assert_same(got, rebuilt)
    assert got == a

    subst = {jet(1): _random_coefficient(ctx, rng), jet(1, (1,)): parse_expr("x(1)*x(2)", ctx)}

    def image(cov):
        img = subst.get(cov.coord)
        if img is None:
            return None
        return _ref_form(1, (((F.d_(co),), img.partial(co)) for co in img.coords()))

    moved = _ref_form(p, ((k, e.subs(subst)) for k, e in a.terms.items()))
    _assert_same(F.pullback(a, subst), _ref_form(p, _ref_expand(moved, image)))


def test_form_sum_adds_repeated_keys(ctx):
    one = Expr.const(ctx, 1)
    dx1, dx2 = F.d_(base(1)), F.d_(base(2))
    got = F.form_sum([F.DiffForm(ctx, 2, {(dx1, dx2): one}),
                      F.DiffForm(ctx, 2, {(dx2, dx1): one * 3})])
    assert got == F.DiffForm(ctx, 2, {(dx1, dx2): Expr.const(ctx, -2)})
    assert F.form_sum([got, -got]).is_zero()
    with pytest.raises(DegreeError):
        F.form_sum([got, F.DiffForm(ctx, 1)])
