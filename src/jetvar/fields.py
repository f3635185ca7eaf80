"""Slope fields, the geodesic condition, primitives and the excess function.

A slope field assigns to every jet coordinate of order r .. 2r-1 an
expression in the base coordinates and the jets of order < r. Pulling the
canonical equivalent back through a field and asking the result to be
closed generalizes the classical geodesic-field condition; a primitive of
the pulled-back form (when the coefficients are polynomial, built by the
radial homotopy on the star-shaped chart) plays the role of the
Hamilton-Jacobi eikonal. The horizontal density of (Lagrangian density
minus pulled-back equivalent) is the excess function whose sign certifies
minimality; the certificates here sample it and say so explicitly.

A field's components are keyed by the jet they assign, ``jet(s, K)``, so
they pull forms back as they are; sections are the base sections
``{s: gamma^s(x)}`` of :mod:`jetvar.numerics`.
"""

from __future__ import annotations

from functools import cached_property

from . import forms
from . import numerics
from .errors import InputError, UnsupportedSymbolicError
from .forms import DiffForm
from .legendre import hessian_entries, positive_definite
from .numerics import IntegrationDomain
from .symcore import ChartContext, Evaluator, Expr, base, jet
from .varcalc import LagrangianProblem, LepageanForm, euler_lagrange


class SlopeField:
    """Components ``{jet(s, K): w^s_K(x, y_<r)}`` for every r <= |K| <= 2r-1.

    The components are the substitution that pulls a form on the full jet
    space back through the field.
    """

    def __init__(self, ctx: ChartContext, components: dict):
        self.ctx = ctx
        self.components = components
        r = ctx.r
        for y, e in self.components.items():
            if not r <= y.order <= 2 * r - 1:
                raise InputError(f"slope component {y.text()} has order {y.order} "
                                 f"outside {r}..{2 * r - 1}")
            for c in e.coords():
                if c.kind == "x" or (c.kind == "y" and c.order <= r - 1):
                    continue
                raise InputError(f"slope component for {y.text()} depends on {c.text()}")
        for y in ctx.coords(jet, range(r, 2 * r)):
            if y not in self.components:
                raise InputError(f"slope field misses component {y.text()}")

    def top_subs_map(self) -> dict:
        """Only the order-r components (composition into order-r functions)."""
        r = self.ctx.r
        return {y: e for y, e in self.components.items() if y.order == r}


class GeodesicReport:
    def __init__(self, pulled_derivative: DiffForm, status: str):
        self.pulled_derivative = pulled_derivative
        self.status = status  # "zero" | "probable-zero" | "nonzero"

    @property
    def is_geodesic(self) -> bool:
        return self.status in ("zero", "probable-zero")


def geodesic_check(w: SlopeField, lep: LepageanForm) -> GeodesicReport:
    """Pull the exterior derivative of the equivalent through the field.

    The flag is exact for rational coefficients; with transcendental atoms
    a sampled zero is reported as probable only.
    """
    wd = forms.pullback(forms.ext_d(lep.realize()), w.components)
    if wd.is_zero():
        return GeodesicReport(wd, "zero")
    # Terms never hold a zero coefficient, so a rational term is a nonzero one.
    if not all(c.has_transcendental() for c in wd.terms.values()):
        return GeodesicReport(wd, "nonzero")
    if all(c.probably_zero() for c in wd.terms.values()):
        return GeodesicReport(wd, "probable-zero")
    return GeodesicReport(wd, "nonzero")


def hj_primitive(w: SlopeField, lep: LepageanForm) -> DiffForm:
    """A primitive S with dS equal to the pulled-back equivalent.

    Needs the pulled-back form to be closed (checked exactly) and its
    coefficients polynomial, so the radial homotopy integral on the
    star-shaped chart is exact. The identity dS = w-pullback is verified
    before returning.
    """
    wr = forms.pullback(lep.realize(), w.components)
    for c in wr.terms.values():
        if not c.is_polynomial():
            raise UnsupportedSymbolicError(
                "primitive construction needs polynomial coefficients")
    closure = forms.ext_d(wr)
    if not closure.is_zero():
        raise InputError("pulled-back form is not closed; no primitive exists")
    S = _radial_homotopy(wr)
    if not (forms.ext_d(S) - wr).is_zero():
        raise UnsupportedSymbolicError("homotopy failed to invert d (non-polynomial input?)")
    return S


def _radial_homotopy(a: DiffForm) -> DiffForm:
    """Radial (star-shaped chart) homotopy: d(K a) + K(d a) = a for p >= 1,
    on polynomial coefficients (checked by :func:`hj_primitive`).

    For a monomial coefficient of total degree d in a p-form term, the
    parameter integral contributes the factor 1/(p + d).
    """
    from . import _poly as K
    ctx = a.ctx
    p = a.degree
    pairs = []
    for covs, coeff in a.terms.items():
        scaled = Expr(ctx, K.poly_radial_scale(coeff.num, p))
        for s, cov in enumerate(covs):
            factor = Expr.coord(ctx, cov.coord) * scaled
            if s % 2:
                factor = -factor
            pairs.append((covs[:s] + covs[s + 1:], factor))
    return forms._collect(ctx, p - 1, pairs)


class WeierstrassData:
    """Excess form and excess function of a field."""

    def __init__(self, form: DiffForm, excess: Expr):
        self.form = form      # density form on the order-r jet space
        self.excess = excess  # function of the order-r jets and the field composites

    @cached_property
    def horizontal_matches(self) -> bool:
        """Does the horizontal density of the form equal the excess function?"""
        density = forms.horizontal_density(forms.contact_decompose(self.form, 0)[0])
        return density.equal_exact(self.excess)


def weierstrass(prob: LagrangianProblem, lep: LepageanForm, w: SlopeField) -> WeierstrassData:
    """Excess form L om_0 - (pullback through w) and the excess function.

    The excess function is L minus its field composite minus the linear
    top-jet correction with field-composite slopes; its horizontal-density
    identity with the form is exercised by tests and the CLI.
    """
    ctx = prob.ctx
    E = forms.omega_0(ctx).scaled(prob.L) - forms.pullback(lep.realize(), w.components)
    top = w.top_subs_map()
    excess = prob.L - prob.L.subs(top)
    for y in ctx.coords(jet, (ctx.r,)):
        slope = prob.L.partial(y).subs(top)
        if slope.is_zero():
            continue
        excess = excess - slope * (Expr.coord(ctx, y) - top[y])
    return WeierstrassData(E, excess)


def compatibility_residual(w: SlopeField, gamma: dict,
                           domain: IntegrationDomain) -> float:
    """Max |w^s_A o j^{r-1}gamma - d_A gamma^s| over the grid, |A| = r."""
    r = w.ctx.r
    pro = numerics.jet_prolong_section(w.ctx, gamma, r)
    lower = {y: e for y, e in pro.items() if y.order < r}
    diffs = {y: w.components[y].subs(lower) - e for y, e in pro.items() if y.order == r}
    return numerics.residual_grid(diffs, {}, domain).global_max


class CertificateCondition:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = passed
        self.detail = detail


class CertificateReport:
    def __init__(self, conditions: list | None = None,
                 caveat: str = ("sampling certificate: conditions were checked on finitely "
                                "many points, which supports but does not prove minimality")):
        self.conditions = [] if conditions is None else conditions
        self.caveat = caveat

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.conditions.append(CertificateCondition(name, passed, detail))


def minimum_certificate(prob: LagrangianProblem, lep: LepageanForm, w: SlopeField,
                        wd: WeierstrassData, gamma0: dict, domain: IntegrationDomain,
                        *, compat_tol: float, pivot_tol: float) -> CertificateReport:
    """Sample the minimality conditions around a field-compatible section.

    ``wd`` is :func:`weierstrass` of the same problem, equivalent and field.
    Checks, in order: compatibility of the section with the field, the
    geodesic condition, nonnegativity of the excess function on a sampled
    neighborhood (strong-minimum route), positive definiteness of the
    top-order Hessian along the field (pivots above ``pivot_tol``) plus the
    vanishing identities of the excess at the field (weak-minimum route).
    """
    import numpy as np
    ctx = prob.ctx
    report = CertificateReport()

    compat = compatibility_residual(w, gamma0, IntegrationDomain(domain.lower, domain.upper, 5))
    if compat > compat_tol:
        raise InputError(
            f"section incompatible with the field: residual {compat:.3e} > {compat_tol}")
    report.add("compatibility", True, f"max residual {compat:.3e}")

    geo = geodesic_check(w, lep)
    report.add("geodesic", geo.is_geodesic, f"status {geo.status}")

    report.add("excess-form-density", wd.horizontal_matches,
               "horizontal density equals excess function")

    lower_pro = numerics.jet_prolong_section(ctx, gamma0, ctx.r - 1)
    offs = np.linspace(-1.0, 1.0, 3)  # samples per perturbed axis

    def spread(idx, count):
        # distinct deterministic scale per coordinate, in (1/2, 1]
        return 0.5 + 0.5 * (idx + 1) / count

    def perturbed(vals, coords, radius):
        # one new trailing axis: the offsets, scaled per coordinate in sort order
        ranked = sorted(range(len(coords)), key=lambda k: coords[k].sort_key())
        out = list(vals)
        for idx, k in enumerate(ranked):
            out[k] = vals[k][..., None] + radius * offs * spread(idx, len(ranked))
        return out

    # Field points over the base grid: the order < r jets of the section and
    # the field's order-r slopes there.
    xs = numerics.base_coords(domain.dim)
    lower = list(lower_pro)
    top = w.top_subs_map()
    tops = list(top)
    lower_ev = Evaluator(lower_pro.values(), xs)
    top_ev = Evaluator(top.values(), xs + lower)
    excess_ev = Evaluator([wd.excess], xs + lower + tops)

    # Sampled neighbourhood: per grid point, offsets of the lower jets, then
    # per lower sample, offsets of the field slopes there.
    # Radii: 0.5 for the jets of order < r, 1.0 for the top jets.
    axes, grids = domain.mesh(offs.size + 2)
    xg = [g[..., None] for g in grids]
    lower_vals = perturbed(numerics.grid(lower_ev, *grids), lower, 0.5)
    top_vals = perturbed(numerics.grid(top_ev, *xg, *lower_vals), tops, 1.0)
    vals = numerics.grid(excess_ev, *(g[..., None] for g in xg),
                         *(v[..., None] for v in lower_vals), *top_vals)[0].ravel()
    min_excess = float("inf")
    argmin = None
    if (vals < np.inf).any():
        k = int(np.nanargmin(vals))
        min_excess = float(vals[k])
        point = np.unravel_index(k // offs.size ** 2, grids[0].shape)
        argmin = tuple(ax[i] for ax, i in zip(axes, point))
    report.add("excess-nonnegative", min_excess >= -1e-12,
               f"sampled minimum {min_excess:.3e} at x={argmin}")

    at_field = wd.excess.subs(top)
    identities_ok = at_field.is_zero()
    for i in range(1, ctx.n + 1):
        identities_ok &= wd.excess.partial(base(i)).subs(top).is_zero()
    for y in ctx.coords(jet, range(ctx.r + 1)):
        identities_ok &= wd.excess.partial(y).subs(top).is_zero()
    report.add("excess-vanishing-identities", bool(identities_ok),
               "excess and its first partials vanish at the field")

    pd_ok = True
    pd_detail = []
    axes, grids = domain.mesh(3)
    lower_vals = numerics.grid(lower_ev, *grids)
    top_vals = numerics.grid(top_ev, *grids, *lower_vals)
    _, hessian = hessian_entries(prob)
    k = len(hessian)
    hessian_ev = Evaluator([e for row in hessian for e in row], xs + lower + tops)
    for idx in np.ndindex(grids[0].shape):
        vals = hessian_ev(*(ax[i] for ax, i in zip(axes, idx)),
                          *(float(v[idx]) for v in lower_vals + top_vals))
        pd = positive_definite(np.array(vals, dtype=float).reshape(k, k), pivot_tol)
        pd_ok &= pd
        pd_detail.append(pd)
    report.add("hessian-positive-definite", bool(pd_ok),
               f"{sum(pd_detail)}/{len(pd_detail)} sampled field points definite")
    return report


def extremal_residual_via_field(prob: LagrangianProblem, gamma: dict,
                                domain: IntegrationDomain) -> float:
    """Max Euler-Lagrange residual of a section at sampled base points."""
    sub = numerics.jet_prolong_section(prob.ctx, gamma, 2 * prob.ctx.r)
    return numerics.residual_grid(euler_lagrange(prob), sub, domain).global_max
