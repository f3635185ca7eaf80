"""Exterior algebra of differential forms with expression coefficients.

A :class:`DiffForm` stores a sparse mapping from strictly increasing tuples
of covector symbols to coefficients. Covector symbols are differentials
``d<coordinate>`` or contact symbols ``om(s;J)``; the total order is: dx by
base index, then jet differentials by (sigma, order, index tuple), then
velocity and momentum differentials, then contact symbols. Antisymmetry is
normalized on construction, so zero coefficients and repeated factors never
survive. A covector computes its sort key and hash once.

Every operation (construction, sums, scaling, wedge, exterior derivative,
interior product, substitution) builds its result in one pass through one
collector, :func:`_collect`. It takes the (covectors, coefficient) products
in the order the operation makes them and sorts each product's factors once:
a repeated factor drops the product, an odd permutation negates it. It sums
the polynomials of one key in place with the kernel's one addition
(:func:`jetvar._poly.poly_add_into`), in the order given, drops a key whose
sum empties, and tests each final coefficient for zero once. A key hit k
times thus costs k additions, not k copies of the running sum, and each
coefficient lists its terms as adding the products one at a time would, so
float evaluation, which sums terms in that order, gives the same numbers.

The contact decomposition is a change of 1-form basis: each jet
differential splits as dy^s_J = om^s_J + y^s_{J+l} dx^l, and collecting
terms by the number of contact factors gives the horizontal part and the
k-contact parts. Re-expanding reproduces the input exactly. Asked for the
parts up to some k, :func:`contact_decompose` stops expanding a product
once it holds more than k contact factors.
"""

from __future__ import annotations

from itertools import chain

from ._poly import poly_add_into
from .errors import DegreeError, InputError
from .symcore import ChartContext, Coord, Expr, base, jet


class Cov:
    """A covector symbol: kind "d" (coordinate differential) or "w" (contact).

    The sort key tells covectors apart, so it serves as the identity; it and
    the hash are computed once, at construction."""

    __slots__ = ("kind", "coord", "key", "_hash")

    def __init__(self, kind: str, coord: Coord):
        self.kind = kind
        self.coord = coord
        self.key = (4, coord.sigma, len(coord.J), coord.J) if kind == "w" else coord.sort_key()
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Cov) and self.key == other.key

    def __hash__(self):
        return self._hash

    def text(self) -> str:
        if self.kind == "w":
            J = ",".join(str(j) for j in self.coord.J)
            return f"om({self.coord.sigma};{J})" if J else f"om({self.coord.sigma})"
        return "d" + self.coord.text()

    def __repr__(self):
        return self.text()


def d_(c: Coord) -> Cov:
    return Cov("d", c)


def w_(sigma: int, J=()) -> Cov:
    return Cov("w", jet(sigma, J))


def _sort_covs(covs: tuple):
    """Sort covector factors, returning (sorted tuple, sign) or (None, 0)."""
    if len(covs) < 2:
        return covs, 1
    lst = list(covs)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(lst)):
        item = lst[i]
        key = item.key
        j = i - 1
        while j >= 0 and lst[j].key > key:
            lst[j + 1] = lst[j]
            j -= 1
            sign = -sign
        lst[j + 1] = item
    for a, b in zip(lst, lst[1:]):
        if a.key == b.key:
            return None, 0
    return tuple(lst), sign


def _collect(ctx: ChartContext, degree: int, pairs) -> "DiffForm":
    """The degree-``degree`` form summing the ``(covectors, coefficient)``
    pairs, built in one pass.

    Each pair's factors are sorted once. The polynomials of one key are
    summed in place in the order given; a key whose sum empties is dropped
    (hit again, it starts afresh at the end), and each final coefficient is
    tested for zero once.
    """
    acc = {}  # key -> (coefficient, sign) while hit once, then the running polynomial
    for covs, e in pairs:
        num = e.num
        if not num:
            continue
        if len(covs) != degree:
            raise DegreeError(f"term with {len(covs)} factors in a degree-{degree} form")
        key, sign = _sort_covs(covs)
        if key is None:
            continue
        total = acc.get(key)
        if total is None:
            acc[key] = (e, sign)
            continue
        if type(total) is tuple:
            first, first_sign = total
            total = acc[key] = poly_add_into({}, first.num, first_sign < 0)
        if not poly_add_into(total, num, sign < 0):
            del acc[key]
    terms = {}
    for key, total in acc.items():
        if type(total) is tuple:
            e, sign = total
            if sign < 0:
                e = -e
        else:
            e = Expr(ctx, total)
        if not e.is_zero():
            terms[key] = e
    return DiffForm._normalized(ctx, degree, terms)


class DiffForm:
    """Exterior p-form; immutable by convention after construction."""

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: ChartContext, degree: int, terms: dict | None = None):
        self.ctx = ctx
        self.degree = degree
        self.terms = _collect(ctx, degree, terms.items()).terms if terms else {}

    @classmethod
    def _normalized(cls, ctx: ChartContext, degree: int, terms: dict) -> "DiffForm":
        """A form over terms that are already normalized: sorted factors,
        nonzero coefficients."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.degree = degree
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.ctx is other.ctx
                and self.degree == other.degree and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        return _collect(self.ctx, self.degree, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "DiffForm":
        return DiffForm._normalized(self.ctx, self.degree,
                                    {covs: -c for covs, c in self.terms.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scaled(self, e) -> "DiffForm":
        if not isinstance(e, Expr):
            e = Expr.const(self.ctx, e)
        return _collect(self.ctx, self.degree,
                        ((covs, c * e) for covs, c in self.terms.items()))

    def coefficient(self, covs) -> Expr:
        """Signed coefficient with respect to the given factor order."""
        sorted_covs, sign = _sort_covs(tuple(covs))
        if sorted_covs is None:
            raise InputError("repeated covector in coefficient request")
        c = self.terms.get(sorted_covs)
        if c is None:
            return Expr.const(self.ctx, 0)
        return c if sign > 0 else -c

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: tuple(c.key for c in kv[0]))

    def __repr__(self):
        if not self.terms:
            return f"DiffForm<{self.degree}>(0)"
        bits = []
        for covs, c in self.items_sorted():
            basis = "^".join(cv.text() for cv in covs) or "1"
            bits.append(f"({c}) {basis}")
        return f"DiffForm<{self.degree}>[" + " + ".join(bits) + "]"


def form_sum(forms) -> DiffForm:
    """The sum of forms of one degree in one pass; each coefficient is what
    adding the forms one after another gives."""
    forms = list(forms)
    if not forms:
        raise InputError("form_sum needs at least one form")
    first = forms[0]
    if any(f.degree != first.degree for f in forms):
        raise DegreeError("cannot add forms of different degree")
    return _collect(first.ctx, first.degree, chain.from_iterable(f.terms.items() for f in forms))


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Graded antisymmetric product."""
    if a.ctx is not b.ctx:
        raise InputError("forms belong to different chart contexts")
    return _collect(a.ctx, a.degree + b.degree,
                    ((c1 + c2, e1 * e2) for c1, e1 in a.terms.items()
                     for c2, e2 in b.terms.items() if not any(c in c1 for c in c2)))


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative, acting coordinate-wise on coefficients."""
    pairs = []
    for covs, coeff in a.terms.items():
        for c in coeff.coords():
            dc = d_(c)
            if dc not in covs:
                pairs.append(((dc,) + covs, coeff.partial(c)))
    return _collect(a.ctx, a.degree + 1, pairs)


def interior_product(v: dict, a: DiffForm) -> DiffForm:
    """Contraction with the vector field sum_c v[c] d/dc (zero default)."""
    if a.degree == 0:
        raise DegreeError("interior product of a degree-0 form")
    comp = {}
    for c, e in v.items():
        if not isinstance(e, Expr):
            e = Expr.const(a.ctx, e)
        if not e.is_zero():
            comp[c] = e
    pairs = []
    for covs, coeff in a.terms.items():
        for s, cov in enumerate(covs):
            if cov.kind == "w":
                raise InputError("interior product needs the differential basis")
            e = comp.get(cov.coord)
            if e is None:
                continue
            term = coeff * e
            if s % 2:
                term = -term
            pairs.append((covs[:s] + covs[s + 1:], term))
    return _collect(a.ctx, a.degree - 1, pairs)


# -- chart basis -------------------------------------------------------------

def omega_0(ctx: ChartContext) -> DiffForm:
    covs = tuple(d_(base(i)) for i in range(1, ctx.n + 1))
    return DiffForm._normalized(ctx, ctx.n, {covs: Expr.const(ctx, 1)})


def omega_i(ctx: ChartContext, i: int) -> DiffForm:
    covs = tuple(d_(base(l)) for l in range(1, ctx.n + 1) if l != i)
    sign = 1 if i % 2 == 1 else -1
    return DiffForm._normalized(ctx, ctx.n - 1, {covs: Expr.const(ctx, sign)})


def omega_contact(ctx: ChartContext, sigma: int, J=()) -> DiffForm:
    """The contact 1-form dy^s_J - y^s_{J+l} dx^l in the differential basis."""
    J = tuple(sorted(J))
    terms = {(d_(jet(sigma, J)),): Expr.const(ctx, 1)}
    for l in range(1, ctx.n + 1):
        terms[(d_(base(l)),)] = -Expr.coord(ctx, jet(sigma, J + (l,)))
    return DiffForm._normalized(ctx, 1, terms)


# -- contact decomposition ----------------------------------------------------

def _products(a: DiffForm, image, most=None):
    """The products of expanding each term of ``a`` with every covector
    replaced by a 1-form, in order, as ``(covectors, coefficient, number of
    contact factors)``.

    ``image(cov)`` gives the 1-form (degree-1 :class:`DiffForm`) replacing a
    covector, or None to keep it; it is asked once per covector. A product
    whose covectors repeat is skipped, since antisymmetry kills it, and so,
    when ``most`` is given, is one holding more than ``most`` contact
    factors: later factors never remove one.
    """
    images = {}
    for covs, c in a.terms.items():
        combos = [((), c, 0)]
        for cov in covs:
            if cov not in images:  # (covector, factor or None for 1) per image term
                img = image(cov)
                images[cov] = ([(cov, None)] if img is None else
                               [(icovs[0], None if ie.is_one() else ie)
                                for icovs, ie in img.terms.items()])
            img = images[cov]
            nxt = []
            for picked, e, k in combos:
                for icov, ie in img:
                    kw = k + (icov.kind == "w")
                    if icov in picked or (most is not None and kw > most):
                        continue
                    nxt.append((picked + (icov,), e if ie is None else e * ie, kw))
            combos = nxt
        yield from combos


def _substitute(a: DiffForm, image) -> DiffForm:
    """Replace each covector by ``image(cov)`` (see :func:`_products`) and
    expand the wedge products."""
    return _collect(a.ctx, a.degree, ((covs, e) for covs, e, _ in _products(a, image)))


def _contact_split(a: DiffForm):
    """The image dy^s_J -> om^s_J + y^s_{J+l} dx^l (dx and om are kept).

    Needs jets one order above the differentials present, so it raises on
    order overflow, and raises on covectors other than dx, dy and om."""
    ctx = a.ctx
    bad = {cov.coord.kind for covs in a.terms for cov in covs if cov.kind != "w"} - {"x", "y"}
    if bad:
        raise InputError(f"contact decomposition undefined for {sorted(bad)} covectors")

    def split(cov):
        c = cov.coord
        if cov.kind == "w" or c.kind == "x":
            return None
        terms = {(w_(c.sigma, c.J),): Expr.const(ctx, 1)}
        for l in range(1, ctx.n + 1):
            terms[(d_(base(l)),)] = Expr.coord(ctx, jet(c.sigma, c.J + (l,)))
        return DiffForm._normalized(ctx, 1, terms)

    return split


def contact_decompose(a: DiffForm, most: int | None = None) -> list:
    """The k-contact parts of a form for k = 0..``most`` (default: its
    degree), by substituting dy^s_J = om^s_J + y^s_{J+l} dx^l; part 0 is
    the horizontal part h(a). Products with more than ``most`` contact
    factors are never expanded."""
    if most is None:
        most = a.degree
    buckets = [[] for _ in range(most + 1)]
    for covs, e, k in _products(a, _contact_split(a), most):
        buckets[k].append((covs, e))
    return [_collect(a.ctx, a.degree, pairs) for pairs in buckets]


def pullback(a: DiffForm, subst: dict) -> DiffForm:
    """Pull back by the substitution coordinate -> expression.

    Unassigned coordinates map to themselves; base coordinates are fixed.
    Coefficients are substituted and each substituted differential is
    expanded as the total differential of its image.
    """
    ctx = a.ctx
    clean = {}
    for c, e in subst.items():
        if c.kind == "x":
            raise InputError("base coordinates cannot be substituted")
        clean[c] = e if isinstance(e, Expr) else Expr.const(ctx, e)

    def image(cov):
        if cov.kind == "w":
            raise InputError("pull back the differential-basis realization")
        img = clean.get(cov.coord)
        if img is None:
            return None
        return DiffForm(ctx, 1, {(d_(c),): img.partial(c) for c in img.coords()})

    substituted = DiffForm(ctx, a.degree,
                           {covs: c.subs(clean) for covs, c in a.terms.items()})
    return _substitute(substituted, image)


def horizontal_density(a: DiffForm) -> Expr:
    """Coefficient of dx^1 ^ ... ^ dx^n for a purely horizontal n-form."""
    ctx = a.ctx
    if a.degree != ctx.n:
        raise DegreeError("density defined for forms of top horizontal degree")
    target = tuple(d_(base(i)) for i in range(1, ctx.n + 1))
    for covs in a.terms:
        if covs != target:
            raise InputError("form has non-horizontal terms")
    return a.coefficient(target)
