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

Every table is keyed by the coordinate it describes: momenta by
``mom(s, K)``, the equivalent's coefficients by the velocity
``vel(s, J, i)`` that they multiply in :func:`extended_lagrangian`, the
Hamilton table and prolonged vector fields by ``jet(s, J)``. Only the free
table :class:`GSpec` keeps the ``(s, i, J)`` keys of its input.

Everything here is exact and needs no numeric library; the checks that
evaluate these objects on grids (action, first variation) are in
:mod:`jetvar.numerics`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import forms
from . import multiindex as mi
from .errors import (ContactOrderError, DegreeError, InadmissibleGError,
                     InputError, VerticalityError)
from .forms import DiffForm
from .symcore import ChartContext, Expr, jet, mom, vel


class LagrangianProblem:
    """A Lagrangian density of order at most r on the chart."""

    def __init__(self, ctx: ChartContext, L: Expr):
        self.ctx = ctx
        self.L = L
        for c in self.L.coords():
            if c.kind not in ("x", "y"):
                raise InputError(f"Lagrangian may not contain {c.text()}")
            if c.kind == "y" and c.order > self.ctx.r:
                raise InputError(
                    f"Lagrangian of declared order {self.ctx.r} contains {c.text()}")

    @cached_property
    def _momenta(self) -> dict:
        """The g = 0 recursion, run once per problem: momenta, Euler-Lagrange
        expressions and the canonical equivalent all read it."""
        return _recursion(self, GSpec())


def momenta(prob: LagrangianProblem) -> dict:
    """Descending momentum recursion: ``{mom(s, K): P^K_s}``, 1 <= |K| <= r."""
    return prob._momenta


def _recursion(prob: LagrangianProblem, g: GSpec) -> dict:
    """P_g^K = (1/N(K)) dL/dy^s_K - sum_i d_i (P_g^{K+i} + g(s;i|K)), keyed by
    mom(sigma, K) and computed once per K from |K| = r down to 1."""
    ctx = prob.ctx
    r = ctx.r
    entries = {}
    for k in range(r, 0, -1):
        for p in ctx.coords(mom, (k,)):
            e = prob.L.partial(jet(p.sigma, p.J)) * Fraction(1, mi.count(p.J))
            if k < r:
                e = Expr.sum(ctx, [e], [_shifted(entries, g, p.sigma, i, p.J).total_derivative(i)
                                        for i in range(1, ctx.n + 1)])
            entries[p] = e
    return entries


def _shifted(P: dict, g: GSpec, sigma: int, i: int, J) -> Expr:
    """P_g^{merge(J,i)} + g(s;i|J)."""
    e = P[mom(sigma, mi.merge(J, i))]
    q = g.entries.get((sigma, i, J))
    return e if q is None else e + q


def euler_lagrange(prob: LagrangianProblem) -> dict:
    """Euler-Lagrange expressions dL/dy^s - sum_i d_i P^(i), order <= 2r."""
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    P = momenta(prob)
    out = {}
    for sigma in range(1, ctx.m + 1):
        out[sigma] = Expr.sum(ctx, [prob.L.partial(jet(sigma, ()))],
                              [P[mom(sigma, (i,))].total_derivative(i)
                               for i in range(1, ctx.n + 1)])
    return out


class GSpec:
    """Free coefficient table g^(s; j_k | j_1..j_{k-1}) for 2 <= k <= r.

    Entries of level k may depend on jets of order at most 2r - 1 - k, and
    the weighted symmetrization over the full index multiset must vanish:
    for every canonical K, sum over (J, i) with merge(J, i) = K of
    N(J) g^(s; i | J) = 0.
    """

    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries  # (sigma, i, canonical J) -> Expr

    def validate(self, prob: LagrangianProblem) -> None:
        ctx = prob.ctx
        r = ctx.r
        if not self.entries:
            return
        if r == 1:
            raise InadmissibleGError(
                "no free coefficients exist for first-order problems")
        for (sigma, i, J), e in self.entries.items():
            key = _g_text(sigma, i, J)
            k = len(J) + 1
            if not 2 <= k <= r:
                raise InadmissibleGError(f"entry level {k} outside 2..{r} for {key}")
            if not 1 <= i <= ctx.n or not 1 <= sigma <= ctx.m:
                raise InadmissibleGError(f"index out of range in {key}")
            for c in e.coords():
                if c.kind not in ("x", "y"):
                    raise InadmissibleGError(f"entry {key} depends on {c.text()}")
            if e.max_jet_order() > 2 * r - 1 - k:
                raise InadmissibleGError(
                    f"entry {key} has jet order {e.max_jet_order()} > {2 * r - 1 - k}")
        for y in ctx.coords(jet, range(2, r + 1)):
            total = Expr.sum(ctx, (self.entries[y.sigma, i, J] * mi.count(J)
                                   for J, i in mi.parent_pairs(y.J)
                                   if (y.sigma, i, J) in self.entries))
            if not total.is_zero():
                raise InadmissibleGError(
                    f"weighted symmetrization of the entries g({y.sigma};i|J) with "
                    f"J+i = {','.join(map(str, y.J))} is nonzero: {total}")


def _g_text(sigma: int, i: int, J) -> str:
    """A free-table key as the user writes it: ``g(1;2|1,1)``."""
    return f"g({sigma};{i}|{','.join(map(str, J))})"


class LepageanForm:
    """An n-form equivalent of the Lagrangian, of contact order <= 1.

    ``f`` maps the velocity vel(sigma, J, i), 0 <= |J| <= r-1, to the
    coefficient f(s;i|J) of om^s_J ^ om_i, the coefficient that multiplies
    that velocity in :func:`extended_lagrangian`; ``correction`` holds
    f(g) - f(0) under the same keys when the form was built from a nonzero
    free table.
    """

    def __init__(self, prob: LagrangianProblem, f: dict, correction: dict | None = None):
        self.prob = prob
        self.f = f
        self.correction = correction
        self._realized: DiffForm | None = None

    @property
    def ctx(self) -> ChartContext:
        return self.prob.ctx

    def realize(self) -> DiffForm:
        """The form L om_0 + sum f^{iJ} om^s_J ^ om_i in the differential basis."""
        if self._realized is None:
            ctx = self.ctx
            pieces = [forms.omega_0(ctx).scaled(self.prob.L)]
            for c, e in self.f.items():
                if e.is_zero():
                    continue
                piece = forms.wedge(forms.omega_contact(ctx, c.sigma, c.J),
                                    forms.omega_i(ctx, c.i))
                pieces.append(piece.scaled(e))
            self._realized = forms.form_sum(pieces)
        return self._realized


def _coefficients(prob: LagrangianProblem, g: GSpec) -> dict:
    """f(s;i|J) = N(J) (P_g^{merge(J,i)} + g(s;i|J)), 0 <= |J| <= r-1."""
    ctx = prob.ctx
    P = _recursion(prob, g) if g.entries else prob._momenta
    f: dict = {}
    for k in range(ctx.r, 0, -1):
        for y in ctx.coords(jet, (k - 1,)):
            for i in range(1, ctx.n + 1):
                f[vel(y.sigma, y.J, i)] = _shifted(P, g, y.sigma, i, y.J) * mi.count(y.J)
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


class DefectReport:
    """Outcome of testing a candidate n-form for horizontal equivalence.

    ``contact_defect`` holds the nonzero coefficients of om^s_J ^ om_0 with
    |J| >= 1 in the 1-contact part of the exterior derivative (all of them
    must vanish); the |J| = 0 coefficients are the Euler-Lagrange
    expressions and are reported separately.
    """

    def __init__(self, horizontal_mismatch: Expr, euler_lagrange: dict, contact_defect: dict):
        self.horizontal_mismatch = horizontal_mismatch
        self.euler_lagrange = euler_lagrange
        self.contact_defect = contact_defect

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
    parts = forms.contact_decompose(rho)
    order = max((k for k, part in enumerate(parts) if not part.is_zero()), default=0)
    if order > 1:
        raise ContactOrderError(f"form has contact order {order} > 1")
    mismatch = forms.horizontal_density(parts[0]) - prob.L
    # Each term of the 1-contact part is dx_1^..^dx_n^om(s;J), one per (s, J),
    # with a nonzero coefficient; om^dx_1^..^dx_n takes the sign (-1)^n.
    el = {}
    defect = {}
    for covs, coeff in forms.contact_decompose(forms.ext_d(rho), 1)[1].terms.items():
        om = covs[-1].coord
        if ctx.n % 2:
            coeff = -coeff
        if om.J:
            defect[(om.sigma, om.J)] = coeff
        else:
            el[om.sigma] = coeff
    return DefectReport(mismatch, el, defect)


def extended_lagrangian(lep: LepageanForm) -> Expr:
    """First-order density on the prolonged space generating the same dynamics.

    Affine in the velocities; substituting v(s;J|i) -> y^s_{J+i} recovers L.
    """
    ctx = lep.ctx
    terms = [lep.prob.L]
    for c, e in lep.f.items():
        if e.is_zero():
            continue
        gap = Expr.coord(ctx, c) - Expr.coord(ctx, jet(c.sigma, mi.merge(c.J, c.i)))
        terms.append(e * gap)
    return Expr.sum(ctx, terms)


class HamiltonFormTable:
    """Coefficients of the canonical-equation form on the prolonged space.

    Entry jet(nu, P) is the coefficient of dy^nu_P ^ om_0; a prolonged
    section annihilates the form iff every entry vanishes along it. Entries
    are affine in the velocity atoms.
    """

    def __init__(self, entries: dict, extended: Expr):
        self.entries = entries
        self.extended = extended


def hamilton_form(lep: LepageanForm) -> HamiltonFormTable:
    """First-order Euler-Lagrange table of the extended density."""
    ctx = lep.ctx
    Lt = extended_lagrangian(lep)
    entries = {}
    for c in ctx.coords(jet, range(2 * ctx.r)):
        minus = []
        for q in range(1, ctx.n + 1):
            dv = lep.f.get(vel(c.sigma, c.J, q))  # dLt/dv: neither L nor f holds a v
            if dv is not None and not dv.is_zero():
                minus.append(dv.prolonged_total_derivative(q))
        entries[c] = Expr.sum(ctx, [Lt.partial(c)], minus)
    return HamiltonFormTable(entries, Lt)


def prolong_vector_field(ctx: ChartContext, xi: dict, order: int) -> dict:
    """Components ``{jet(s, J): d_J xi^s}``, |J| <= order, of the jet
    prolongation of a vertical field, in :meth:`ChartContext.coords` order.

    ``xi`` maps sigma to a component in (x, y). The component at J is one
    formal derivative of the one at its parent J[:-1].
    """
    xi = {s: e if isinstance(e, Expr) else Expr.const(ctx, e) for s, e in sorted(xi.items())}
    for e in xi.values():
        for c in e.coords():
            if c.kind == "x" or (c.kind == "y" and c.order == 0):
                continue
            raise VerticalityError(
                f"field component contains {c.text()}; only base and order-0 "
                "fiber coordinates are allowed")
    comps, by_J = {}, {}
    for y in ctx.coords(jet, range(order + 1)):
        if y.sigma in xi:
            e = by_J[y.sigma, y.J[:-1]].total_derivative(y.J[-1]) if y.J else xi[y.sigma]
            comps[y] = by_J[y.sigma, y.J] = e
    return comps
