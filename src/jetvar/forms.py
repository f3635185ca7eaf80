"""Exterior algebra of differential forms with expression coefficients.

A :class:`DiffForm` stores a sparse mapping from strictly increasing tuples
of covector symbols to coefficients. Covector symbols are differentials
``d<coordinate>`` or contact symbols ``om(s;J)``; the total order is: dx by
base index, then jet differentials by (sigma, order, index tuple), then
velocity and momentum differentials, then contact symbols. Antisymmetry is
normalized at insertion, so zero coefficients and repeated factors never
survive.

The contact decomposition is a change of 1-form basis: each jet
differential splits as dy^s_J = om^s_J + y^s_{J+l} dx^l, and collecting
terms by the number of contact factors gives the horizontal part and the
k-contact parts. Re-expanding reproduces the input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeError, InputError
from .symcore import ChartContext, Coord, Expr, base, jet, vel


@dataclass(frozen=True)
class Cov:
    """A covector symbol: kind "d" (coordinate differential) or "w" (contact)."""

    kind: str
    coord: Coord

    def sort_key(self):
        c = self.coord
        if self.kind == "w":
            return (4, c.sigma, len(c.J), c.J)
        return c.sort_key()

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


def _sort_covs(covs):
    """Sort covector factors, returning (sorted tuple, sign) or (None, 0)."""
    lst = [(c.sort_key(), c) for c in covs]
    sign = 1
    # insertion sort, counting transpositions
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


class DiffForm:
    """Exterior p-form; immutable by convention after construction."""

    __slots__ = ("ctx", "degree", "terms")

    def __init__(self, ctx: ChartContext, degree: int, terms: dict | None = None):
        self.ctx = ctx
        self.degree = degree
        self.terms = {}
        if terms:
            for covs, coeff in terms.items():
                self._accumulate(covs, coeff)

    @classmethod
    def scalar(cls, ctx, e: Expr) -> "DiffForm":
        return cls(ctx, 0, {(): e})

    def _accumulate(self, covs, coeff: Expr) -> None:
        if coeff.is_zero():
            return
        if len(covs) != self.degree:
            raise DegreeError(
                f"term with {len(covs)} factors in a degree-{self.degree} form")
        sorted_covs, sign = _sort_covs(covs)
        if sorted_covs is None:
            return
        if sign < 0:
            coeff = -coeff
        prev = self.terms.get(sorted_covs)
        total = coeff if prev is None else prev + coeff
        if total.is_zero():
            self.terms.pop(sorted_covs, None)
        else:
            self.terms[sorted_covs] = total

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.ctx is other.ctx
                and self.degree == other.degree and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degree")
        out = DiffForm(self.ctx, self.degree, self.terms)
        for covs, c in other.terms.items():
            out._accumulate(covs, c)
        return out

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.ctx, self.degree,
                        {covs: -c for covs, c in self.terms.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scaled(self, e) -> "DiffForm":
        if not isinstance(e, Expr):
            e = Expr.const(self.ctx, e)
        out = DiffForm(self.ctx, self.degree)
        for covs, c in self.terms.items():
            out._accumulate(covs, c * e)
        return out

    def coefficient(self, covs) -> Expr:
        """Signed coefficient with respect to the given factor order."""
        sorted_covs, sign = _sort_covs(tuple(covs))
        if sorted_covs is None:
            raise InputError("repeated covector in coefficient request")
        c = self.terms.get(sorted_covs)
        if c is None:
            return Expr.const(self.ctx, 0)
        return c if sign > 0 else -c

    def cov_kinds(self) -> set:
        kinds = set()
        for covs in self.terms:
            for cov in covs:
                kinds.add(cov.kind if cov.kind == "w" else cov.coord.kind)
        return kinds

    def items_sorted(self):
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(c.sort_key() for c in kv[0]))

    def __repr__(self):
        if not self.terms:
            return f"DiffForm<{self.degree}>(0)"
        bits = []
        for covs, c in self.items_sorted():
            basis = "^".join(cv.text() for cv in covs) or "1"
            bits.append(f"({c}) {basis}")
        return f"DiffForm<{self.degree}>[" + " + ".join(bits) + "]"


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Graded antisymmetric product."""
    if a.ctx is not b.ctx:
        raise InputError("forms belong to different chart contexts")
    out = DiffForm(a.ctx, a.degree + b.degree)
    for c1, e1 in a.terms.items():
        for c2, e2 in b.terms.items():
            out._accumulate(c1 + c2, e1 * e2)
    return out


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative, acting coordinate-wise on coefficients."""
    out = DiffForm(a.ctx, a.degree + 1)
    for covs, coeff in a.terms.items():
        for c in coeff.coords():
            dc = coeff.partial(c)
            if dc.is_zero():
                continue
            out._accumulate((d_(c),) + covs, dc)
    return out


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
    out = DiffForm(a.ctx, a.degree - 1)
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
            out._accumulate(covs[:s] + covs[s + 1:], term)
    return out


# -- chart basis -------------------------------------------------------------

def omega_0(ctx: ChartContext) -> DiffForm:
    covs = tuple(d_(base(i)) for i in range(1, ctx.n + 1))
    return DiffForm(ctx, ctx.n, {covs: Expr.const(ctx, 1)})


def omega_i(ctx: ChartContext, i: int) -> DiffForm:
    covs = tuple(d_(base(l)) for l in range(1, ctx.n + 1) if l != i)
    sign = 1 if i % 2 == 1 else -1
    return DiffForm(ctx, ctx.n - 1, {covs: Expr.const(ctx, sign)})


def omega_contact(ctx: ChartContext, sigma: int, J=()) -> DiffForm:
    """The contact 1-form dy^s_J - y^s_{J+l} dx^l in the differential basis."""
    J = tuple(sorted(J))
    terms = {(d_(jet(sigma, J)),): Expr.const(ctx, 1)}
    for l in range(1, ctx.n + 1):
        terms[(d_(base(l)),)] = -Expr.coord(ctx, jet(sigma, J + (l,)))
    return DiffForm(ctx, 1, terms)


def omega_basis(ctx: ChartContext):
    """The chart volume form, its contractions, and the contact 1-forms."""
    contact = {}
    for sigma, J in ctx.jets(max_order=ctx.max_order - 1):
        contact[(sigma, J)] = omega_contact(ctx, sigma, J)
    return omega_0(ctx), {i: omega_i(ctx, i) for i in range(1, ctx.n + 1)}, contact


# -- contact decomposition ----------------------------------------------------

@dataclass
class ContactDecomposition:
    """Horizontal part plus the k-contact parts of a form."""

    source: DiffForm
    horizontal: DiffForm
    contact_parts: list  # index k-1 holds the k-contact part

    def part(self, k: int) -> DiffForm:
        if k == 0:
            return self.horizontal
        return self.contact_parts[k - 1]

    def contact_order(self) -> int:
        order = 0
        for k, p in enumerate(self.contact_parts, start=1):
            if not p.is_zero():
                order = k
        return order

    def reconstruct(self) -> DiffForm:
        """Re-expand contact symbols; equals the source form."""
        out = DiffForm(self.source.ctx, self.source.degree, self.horizontal.terms)
        for p in self.contact_parts:
            out = out + _expand_contact(p)
        return out


def _substitute(a: DiffForm, image) -> DiffForm:
    """Replace each covector by a 1-form and expand the wedge products.

    ``image(cov)`` gives the 1-form (degree-1 :class:`DiffForm`) replacing a
    covector, or None to keep it; it is asked once per covector.
    """
    images = {}
    out = DiffForm(a.ctx, a.degree)
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
        for picked, e in combos:
            out._accumulate(picked, e)
    return out


def _expand_contact(a: DiffForm) -> DiffForm:
    """om^s_J -> dy^s_J - y^s_{J+l} dx^l."""
    return _substitute(a, lambda cov: (omega_contact(a.ctx, cov.coord.sigma, cov.coord.J)
                                       if cov.kind == "w" else None))


def contact_decompose(a: DiffForm) -> ContactDecomposition:
    """Split a form into horizontal and k-contact parts.

    Substitutes dy^s_J = om^s_J + y^s_{J+l} dx^l; needs jets one order above
    the differentials present, so it raises on order overflow.
    """
    ctx = a.ctx
    bad = a.cov_kinds() - {"x", "y", "w"}
    if bad:
        raise InputError(f"contact decomposition undefined for {sorted(bad)} covectors")

    def split(cov):
        c = cov.coord
        if cov.kind == "w" or c.kind == "x":
            return None
        terms = {(w_(c.sigma, c.J),): Expr.const(ctx, 1)}
        for l in range(1, ctx.n + 1):
            terms[(d_(base(l)),)] = Expr.coord(ctx, jet(c.sigma, c.J + (l,)))
        return DiffForm(ctx, 1, terms)

    buckets = [DiffForm(ctx, a.degree) for _ in range(a.degree + 1)]
    for covs, coeff in _substitute(a, split).terms.items():
        buckets[sum(1 for cv in covs if cv.kind == "w")]._accumulate(covs, coeff)
    return ContactDecomposition(a, buckets[0], buckets[1:])


def horizontalization(a: DiffForm) -> DiffForm:
    """h(a): substitute dy^s_J by y^s_{J+l} dx^l throughout."""
    return contact_decompose(a).horizontal


def prolonged_horizontalization(a: DiffForm) -> DiffForm:
    """Horizontalization on the once-prolonged space.

    Jet differentials become velocity-weighted base differentials:
    dy^s_J -> v(s;J|l) dx^l. Used for forms that live on the unprolonged
    space but are evaluated against first-order prolongations.
    """
    ctx = a.ctx

    def image(cov):
        if cov.kind == "w":
            raise InputError("expand contact symbols before horizontalizing")
        c = cov.coord
        if c.kind == "x":
            return None
        if c.kind != "y":
            raise InputError(f"cannot horizontalize d{c.text()}")
        return DiffForm(ctx, 1, {(d_(base(l)),): Expr.coord(ctx, vel(c.sigma, c.J, l))
                                 for l in range(1, ctx.n + 1)})

    return _substitute(a, image)


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
