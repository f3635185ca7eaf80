"""Momenta, Euler-Lagrange expressions and Cartan-type equivalents.

Everything here comes from one descending recursion. For a Lagrangian
density L of order r and a free coefficient table g (see :class:`GSpec`),

    P_g^K = (1/N(K)) dL/dy^s_K                                      for |K| = r,
    P_g^K = (1/N(K)) dL/dy^s_K - sum_i d_i (P_g^{K+i} + g(s;i|K))   for |K| < r,

where N(K) is the multinomial weight of the canonical multi-index K. The
formal-derivative term must sit *outside* the 1/N(K) weight: moving it
inside breaks the equivalence with the alternating-sum Euler-Lagrange form
as soon as n >= 2 (exercised by the weight-placement test).

With g = 0 the P^K are the conjugate momenta. The equivalent of a table g
carries the coefficients f^{i,J} = N(J) (P_g^{merge(J, i)} + g(s;i|J)) on
om^s_J ^ om_i; it is horizontal-equivalent to L om_0 and the 1-contact part
of its exterior derivative collapses onto om^s ^ om_0 with the
Euler-Lagrange coefficient. g = 0 gives the canonical equivalent; the
admissible tables (weighted symmetrization zero) parametrize the family.

Everything here is exact and needs no numeric library; the checks that
evaluate these objects on grids (action, first variation, the residual of
the canonical table along a section) are in :mod:`jetvar.numerics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import forms
from . import multiindex as mi
from .errors import (ContactOrderError, DegreeError, InadmissibleGError,
                     InputError, VerticalityError)
from .forms import DiffForm
from .symcore import ChartContext, Expr, base, jet, vel


@dataclass(frozen=True)
class LagrangianProblem:
    """A Lagrangian density of order at most r on the chart."""

    ctx: ChartContext
    L: Expr

    def __post_init__(self):
        for c in self.L.coords():
            if c.kind not in ("x", "y"):
                raise InputError(f"Lagrangian may not contain {c.text()}")
            if c.kind == "y" and c.order > self.ctx.r:
                raise InputError(
                    f"Lagrangian of order {c.order} exceeds declared order {self.ctx.r}")

    @cached_property
    def _momenta(self) -> dict:
        """The g = 0 recursion, run once per problem: momenta, Euler-Lagrange
        expressions and the canonical equivalent all read it."""
        return _recursion(self, GSpec())


@dataclass
class MomentaTable:
    """Conjugate momentum expressions keyed by (sigma, K), 1 <= |K| <= r."""

    prob: LagrangianProblem
    entries: dict

    def __getitem__(self, key):
        sigma, K = key
        return self.entries[(sigma, tuple(sorted(K)))]

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))


def momenta(prob: LagrangianProblem) -> MomentaTable:
    """Descending momentum recursion."""
    return MomentaTable(prob, prob._momenta)


def _recursion(prob: LagrangianProblem, g: GSpec) -> dict:
    """P_g^K = (1/N(K)) dL/dy^s_K - sum_i d_i (P_g^{K+i} + g(s;i|K)), keyed by
    (sigma, K) and computed once per K from |K| = r down to 1."""
    ctx = prob.ctx
    r = ctx.r
    entries = {}
    for k in range(r, 0, -1):
        for sigma in range(1, ctx.m + 1):
            for K in mi.tuples(ctx.n, k):
                e = prob.L.partial(jet(sigma, K)) * Fraction(1, mi.count(K))
                if k < r:
                    for i in range(1, ctx.n + 1):
                        e = e - _shifted(entries, g, sigma, i, K).total_derivative(i)
                entries[(sigma, K)] = e
    return entries


def _shifted(P: dict, g: GSpec, sigma: int, i: int, J) -> Expr:
    """P_g^{merge(J,i)} + g(s;i|J)."""
    e = P[(sigma, mi.merge(J, i))]
    q = g.entries.get((sigma, i, J))
    return e if q is None else e + q


def euler_lagrange(prob: LagrangianProblem) -> dict:
    """Euler-Lagrange expressions dL/dy^s - sum_i d_i P^(i), order <= 2r."""
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    P = momenta(prob)
    out = {}
    for sigma in range(1, ctx.m + 1):
        e = prob.L.partial(jet(sigma, ()))
        for i in range(1, ctx.n + 1):
            e = e - P[(sigma, (i,))].total_derivative(i)
        out[sigma] = e
    return out


@dataclass
class GSpec:
    """Free coefficient table g^(s; j_k | j_1..j_{k-1}) for 2 <= k <= r.

    Entries of level k may depend on jets of order at most 2r - 1 - k, and
    the weighted symmetrization over the full index multiset must vanish:
    for every canonical K, sum over (J, i) with merge(J, i) = K of
    N(J) g^(s; i | J) = 0.
    """

    entries: dict = field(default_factory=dict)  # (sigma, i, canonical J) -> Expr

    def get(self, sigma, i, J, ctx) -> Expr:
        e = self.entries.get((sigma, i, J))
        return e if e is not None else Expr.const(ctx, 0)

    def validate(self, prob: LagrangianProblem) -> None:
        ctx = prob.ctx
        r = ctx.r
        if not self.entries:
            return
        if r == 1:
            raise InadmissibleGError(
                "no free coefficients exist for first-order problems")
        for (sigma, i, J), e in self.entries.items():
            k = len(J) + 1
            if not 2 <= k <= r:
                raise InadmissibleGError(
                    f"entry level {k} outside 2..{r} for key ({sigma},{i},{J})")
            if not 1 <= i <= ctx.n or not 1 <= sigma <= ctx.m:
                raise InadmissibleGError(f"index out of range in ({sigma},{i},{J})")
            for c in e.coords():
                if c.kind not in ("x", "y"):
                    raise InadmissibleGError(
                        f"entry ({sigma},{i},{J}) depends on {c.text()}")
            if e.max_jet_order() > 2 * r - 1 - k:
                raise InadmissibleGError(
                    f"entry ({sigma},{i},{J}) has jet order {e.max_jet_order()} "
                    f"> {2 * r - 1 - k}")
        for sigma in range(1, ctx.m + 1):
            for k in range(2, r + 1):
                for K in mi.tuples(ctx.n, k):
                    total = Expr.const(ctx, 0)
                    for J, i in mi.parent_pairs(K):
                        total = total + self.get(sigma, i, J, ctx) * mi.count(J)
                    if not total.is_zero():
                        raise InadmissibleGError(
                            f"weighted symmetrization nonzero at sigma={sigma}, K={K}: "
                            f"{total}")


@dataclass
class LepageanForm:
    """An n-form equivalent of the Lagrangian, of contact order <= 1.

    ``f`` maps (sigma, i, J) with 0 <= |J| <= r-1 to the coefficient of
    om^s_J ^ om_i; ``correction`` holds f(g) - f(0) when the form was built
    from a nonzero free table.
    """

    prob: LagrangianProblem
    f: dict
    correction: dict | None = None
    _realized: DiffForm | None = None

    @property
    def ctx(self) -> ChartContext:
        return self.prob.ctx

    def coefficient(self, sigma, i, J) -> Expr:
        e = self.f.get((sigma, i, tuple(sorted(J))))
        return e if e is not None else Expr.const(self.ctx, 0)

    def realize(self) -> DiffForm:
        """The form L om_0 + sum f^{iJ} om^s_J ^ om_i in the differential basis."""
        if self._realized is None:
            ctx = self.ctx
            rho = forms.omega_0(ctx).scaled(self.prob.L)
            for (sigma, i, J), e in self.f.items():
                if e.is_zero():
                    continue
                piece = forms.wedge(forms.omega_contact(ctx, sigma, J),
                                    forms.omega_i(ctx, i))
                rho = rho + piece.scaled(e)
            self._realized = rho
        return self._realized

    def items_sorted(self):
        return sorted(self.f.items(), key=lambda kv: (kv[0][0], len(kv[0][2]), kv[0][2], kv[0][1]))


def _coefficients(prob: LagrangianProblem, g: GSpec) -> dict:
    """f(s;i|J) = N(J) (P_g^{merge(J,i)} + g(s;i|J)), 0 <= |J| <= r-1."""
    ctx = prob.ctx
    P = _recursion(prob, g) if g.entries else prob._momenta
    f: dict = {}
    for k in range(ctx.r, 0, -1):
        for sigma in range(1, ctx.m + 1):
            for J in mi.tuples(ctx.n, k - 1):
                for i in range(1, ctx.n + 1):
                    f[(sigma, i, J)] = _shifted(P, g, sigma, i, J) * mi.count(J)
    return f


def poincare_cartan(prob: LagrangianProblem) -> LepageanForm:
    """The canonical equivalent with coefficients N(J) P^{merge(J,i)}."""
    return LepageanForm(prob, _coefficients(prob, GSpec()))


def lepagean_from_g(prob: LagrangianProblem, g: GSpec) -> LepageanForm:
    """Equivalent of the family parametrized by an admissible free table."""
    g.validate(prob)
    f = _coefficients(prob, g)
    if g.entries:
        base_f = _coefficients(prob, GSpec())
        correction = {}
        for key, e in f.items():
            q = e - base_f[key]
            if not q.is_zero():
                correction[key] = q
    else:
        correction = None
    return LepageanForm(prob, f, correction)


@dataclass
class DefectReport:
    """Outcome of testing a candidate n-form for horizontal equivalence.

    ``contact_defect`` holds the nonzero coefficients of om^s_J ^ om_0 with
    |J| >= 1 in the 1-contact part of the exterior derivative (all of them
    must vanish); the |J| = 0 coefficients are the Euler-Lagrange
    expressions and are reported separately.
    """

    horizontal_mismatch: Expr
    euler_lagrange: dict
    contact_defect: dict

    @property
    def is_lepagean(self) -> bool:
        return self.horizontal_mismatch.is_zero() and not self.contact_defect


def lepagean_defect(rho: DiffForm, prob: LagrangianProblem) -> DefectReport:
    ctx = prob.ctx
    if rho.degree != ctx.n:
        raise DegreeError(f"expected an n-form, got degree {rho.degree}")
    max_support = 0
    for covs, c in rho.terms.items():
        max_support = max(max_support, c.max_jet_order(),
                          *(cov.coord.order for cov in covs if cov.coord.kind == "y"),
                          0)
    ctx.ensure_max_order(max(max_support + 2, 2 * ctx.r))
    dec = forms.contact_decompose(rho)
    if dec.contact_order() > 1:
        raise ContactOrderError(
            f"form has contact order {dec.contact_order()} > 1")
    mismatch = forms.horizontal_density(dec.horizontal) - prob.L
    p1 = forms.contact_decompose(forms.ext_d(rho)).part(1)
    dx_block = tuple(forms.d_(base(i)) for i in range(1, ctx.n + 1))
    el = {}
    defect = {}
    seen = set()
    for covs in p1.terms:
        wc = [cv for cv in covs if cv.kind == "w"]
        if len(wc) != 1:
            continue
        key = (wc[0].coord.sigma, wc[0].coord.J)
        if key in seen:
            continue
        seen.add(key)
        coeff = p1.coefficient((wc[0],) + dx_block)
        if coeff.is_zero():
            continue
        if key[1]:
            defect[key] = coeff
        else:
            el[key[0]] = coeff
    return DefectReport(mismatch, el, defect)


def extended_lagrangian(lep: LepageanForm) -> Expr:
    """First-order density on the prolonged space generating the same dynamics.

    Affine in the velocities; substituting v(s;J|i) -> y^s_{J+i} recovers L.
    """
    ctx = lep.ctx
    terms = [lep.prob.L]
    for (sigma, i, J), e in lep.f.items():
        if e.is_zero():
            continue
        gap = Expr.coord(ctx, vel(sigma, J, i)) - Expr.coord(ctx, jet(sigma, mi.merge(J, i)))
        terms.append(e * gap)
    return Expr.sum(ctx, terms)


@dataclass
class HamiltonFormTable:
    """Coefficients of the canonical-equation form on the prolonged space.

    Entry (nu, P) is the coefficient of dy^nu_P ^ om_0; a prolonged section
    annihilates the form iff every entry vanishes along it. Entries are
    affine in the velocity atoms.
    """

    lep: LepageanForm
    entries: dict
    extended: Expr

    def __getitem__(self, key):
        nu, P = key
        return self.entries[(nu, tuple(sorted(P)))]

    def items_sorted(self):
        return sorted(self.entries.items(), key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))


def hamilton_form(lep: LepageanForm) -> HamiltonFormTable:
    """First-order Euler-Lagrange table of the extended density."""
    ctx = lep.ctx
    Lt = extended_lagrangian(lep)
    entries = {}
    for nu in range(1, ctx.m + 1):
        for k in range(0, 2 * ctx.r):
            for P in mi.tuples(ctx.n, k):
                e = Lt.partial(jet(nu, P))
                for q in range(1, ctx.n + 1):
                    dv = Lt.partial(vel(nu, P, q))
                    if dv.is_zero():
                        continue
                    e = e - dv.prolonged_total_derivative(q)
                entries[(nu, P)] = e
    return HamiltonFormTable(lep, entries, Lt)


def prolong_vector_field(ctx: ChartContext, xi: dict, order: int) -> dict:
    """Components of the jet prolongation of a vertical field.

    ``xi`` maps sigma to a component in (x, y); the component at (sigma, J)
    is the iterated formal derivative d_J xi^sigma.
    """
    comps = {}
    for sigma, e in xi.items():
        if not isinstance(e, Expr):
            e = Expr.const(ctx, e)
        for c in e.coords():
            if c.kind == "x" or (c.kind == "y" and c.order == 0):
                continue
            raise VerticalityError(
                f"field component contains {c.text()}; only base and order-0 "
                "fiber coordinates are allowed")
        comps[(sigma, ())] = e
    for k in range(1, order + 1):
        for sigma in xi:
            for J in mi.tuples(ctx.n, k):
                comps[(sigma, J)] = comps[(sigma, J[:-1])].total_derivative(J[-1])
    return comps
