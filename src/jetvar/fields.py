"""Slope fields, the geodesic condition, Hilbert integral and excess function.

A slope field assigns to every jet coordinate of order r .. 2r-1 an
expression in the base coordinates and the jets of order < r. Pulling the
canonical equivalent back through a field and asking the result to be
closed generalizes the classical geodesic-field condition; a primitive of
the pulled-back form (when the coefficients are polynomial, built by the
radial homotopy on the star-shaped chart) plays the role of the
Hamilton-Jacobi eikonal. The horizontal density of (Lagrangian density
minus pulled-back equivalent) is the excess function whose sign certifies
minimality; the certificates here sample it and say so explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import forms
from . import multiindex as mi
from . import numerics
from .errors import InputError, UnsupportedSymbolicError
from .forms import DiffForm
from .legendre import hessian_definiteness
from .numerics import IntegrationDomain, Section
from .symcore import ChartContext, Evaluator, Expr, base, jet
from .varcalc import LagrangianProblem, LepageanForm, euler_lagrange


@dataclass
class SlopeField:
    """Components w^s_K(x, y_<r) for every r <= |K| <= 2r-1."""

    ctx: ChartContext
    components: dict  # (sigma, K) -> Expr

    def __post_init__(self):
        ctx = self.ctx
        r = ctx.r
        comps = {}
        for (sigma, K), e in self.components.items():
            K = tuple(sorted(K))
            if not r <= len(K) <= 2 * r - 1:
                raise InputError(f"slope component order {len(K)} outside {r}..{2 * r - 1}")
            for c in e.coords():
                if c.kind == "x" or (c.kind == "y" and c.order <= r - 1):
                    continue
                raise InputError(
                    f"slope component for ({sigma},{K}) depends on {c.text()}")
            comps[(sigma, K)] = e
        for sigma in range(1, ctx.m + 1):
            for k in range(r, 2 * r):
                for K in mi.tuples(ctx.n, k):
                    if (sigma, K) not in comps:
                        raise InputError(f"slope field misses component ({sigma},{K})")
        self.components = comps

    def subs_map(self) -> dict:
        return {jet(s, K): e for (s, K), e in self.components.items()}

    def top_subs_map(self) -> dict:
        """Only the order-r components (composition into order-r functions)."""
        r = self.ctx.r
        return {jet(s, K): e for (s, K), e in self.components.items() if len(K) == r}


def pull_through(form: DiffForm, w: SlopeField) -> DiffForm:
    """Pull a form on the full jet space back through the field."""
    return forms.pullback(form, w.subs_map())


@dataclass
class GeodesicReport:
    pulled_derivative: DiffForm
    status: str  # "zero" | "probable-zero" | "nonzero"

    @property
    def is_geodesic(self) -> bool:
        return self.status in ("zero", "probable-zero")


def geodesic_check(w: SlopeField, lep: LepageanForm) -> GeodesicReport:
    """Pull the exterior derivative of the equivalent through the field.

    The flag is exact for rational coefficients; with transcendental atoms
    a sampled zero is reported as probable only.
    """
    wd = pull_through(forms.ext_d(lep.realize()), w)
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
    ctx = lep.ctx
    wr = pull_through(lep.realize(), w)
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
    """Radial (star-shaped chart) homotopy: d(K a) + K(d a) = a for p >= 1.

    For a monomial coefficient of total degree d in a p-form term, the
    parameter integral contributes the factor 1/(p + d).
    """
    from . import _poly as K
    ctx = a.ctx
    p = a.degree
    out = DiffForm(ctx, p - 1)
    for covs, coeff in a.terms.items():
        if not coeff.is_polynomial():
            raise UnsupportedSymbolicError(
                "radial homotopy needs polynomial coefficients")
        scaled = Expr(ctx, K.poly_radial_scale(coeff.num, p))
        for s, cov in enumerate(covs):
            factor = Expr.coord(ctx, cov.coord) * scaled
            if s % 2:
                factor = -factor
            out._accumulate(covs[:s] + covs[s + 1:], factor)
    return out


@dataclass
class WeierstrassData:
    """Excess form and excess function of a field."""

    form: DiffForm       # density form on the order-r jet space
    excess: Expr         # function of the order-r jets and the field composites

    def horizontal_matches(self) -> bool:
        """Does the horizontal density of the form equal the excess function?"""
        density = forms.horizontal_density(forms.horizontalization(self.form))
        return density.equal_exact(self.excess)


def weierstrass(prob: LagrangianProblem, lep: LepageanForm, w: SlopeField) -> WeierstrassData:
    """Excess form L om_0 - (pullback through w) and the excess function.

    The excess function is L minus its field composite minus the linear
    top-jet correction with field-composite slopes; its horizontal-density
    identity with the form is exercised by tests and the CLI.
    """
    ctx = prob.ctx
    E = forms.omega_0(ctx).scaled(prob.L) - pull_through(lep.realize(), w)
    top = w.top_subs_map()
    excess = prob.L - prob.L.subs(top)
    for sigma in range(1, ctx.m + 1):
        for A in mi.tuples(ctx.n, ctx.r):
            slope = prob.L.partial(jet(sigma, A)).subs(top)
            if slope.is_zero():
                continue
            excess = excess - slope * (Expr.coord(ctx, jet(sigma, A)) - top[jet(sigma, A)])
    return WeierstrassData(E, excess)


def hilbert_integral(w: SlopeField, lep: LepageanForm, gamma: Section,
                     domain: IntegrationDomain) -> float:
    """Quadrature of the field-pulled equivalent along the prolonged section."""
    ctx = lep.ctx
    wr = pull_through(lep.realize(), w)
    pro = numerics.jet_prolong_section(gamma, max(ctx.r - 1, 0))
    density = forms.horizontal_density(
        forms.horizontalization(numerics.pullback_along(wr, pro)))
    return numerics.quadrature(density, domain)


def compatibility_residual(w: SlopeField, gamma: Section,
                           domain: IntegrationDomain) -> float:
    """Max |w^s_A o j^{r-1}gamma - d_A gamma^s| over the grid, |A| = r."""
    ctx = w.ctx
    pro = numerics.jet_prolong_section(gamma, ctx.r)
    sub = numerics.jet_prolong_section(gamma, ctx.r - 1).subs_map()
    pairs = []
    for sigma in range(1, ctx.m + 1):
        for A in mi.tuples(ctx.n, ctx.r):
            pairs += [w.components[(sigma, A)].subs(sub), pro.component(sigma, A)]
    _, grids = domain.mesh()
    vals = numerics.grid(Evaluator(pairs, numerics.base_coords(domain.dim)), *grids)
    return numerics.max_abs(*(f - j for f, j in zip(vals[::2], vals[1::2])))


@dataclass
class CertificateCondition:
    name: str
    passed: bool
    detail: str


@dataclass
class CertificateReport:
    conditions: list = field(default_factory=list)
    caveat: str = ("sampling certificate: conditions were checked on finitely "
                   "many points, which supports but does not prove minimality")

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.conditions.append(CertificateCondition(name, passed, detail))


def minimum_certificate(prob: LagrangianProblem, lep: LepageanForm, w: SlopeField,
                        gamma0: Section, domain: IntegrationDomain,
                        compat_tol: float = 1e-9) -> CertificateReport:
    """Sample the minimality conditions around a field-compatible section.

    Checks, in order: compatibility of the section with the field, the
    geodesic condition, nonnegativity of the excess function on a sampled
    neighborhood (strong-minimum route), positive definiteness of the
    top-order Hessian along the field plus the vanishing identities of the
    excess at the field (weak-minimum route).
    """
    ctx = prob.ctx
    report = CertificateReport()

    compat = compatibility_residual(w, gamma0, replace(domain, resolution=5))
    if compat > compat_tol:
        raise InputError(
            f"section incompatible with the field: residual {compat:.3e} > {compat_tol}")
    report.add("compatibility", True, f"max residual {compat:.3e}")

    geo = geodesic_check(w, lep)
    report.add("geodesic", geo.is_geodesic, f"status {geo.status}")

    wd = weierstrass(prob, lep, w)
    report.add("excess-form-density", wd.horizontal_matches(),
               "horizontal density equals excess function")

    lower_pro = numerics.jet_prolong_section(gamma0, ctx.r - 1)
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
    lower = [jet(s, J) for s, J in ctx.jets(max_order=ctx.r - 1)]
    top = w.top_subs_map()
    tops = list(top)
    lower_ev = Evaluator([lower_pro.component(c.sigma, c.J) for c in lower], xs)
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
    for s, J in ctx.jets(max_order=ctx.r):
        identities_ok &= wd.excess.partial(jet(s, J)).subs(top).is_zero()
    report.add("excess-vanishing-identities", bool(identities_ok),
               "excess and its first partials vanish at the field")

    pd_ok = True
    pd_detail = []
    axes, grids = domain.mesh(3)
    lower_vals = numerics.grid(lower_ev, *grids)
    top_vals = numerics.grid(top_ev, *grids, *lower_vals)
    for idx in np.ndindex(grids[0].shape):
        pt = {x: ax[i] for x, ax, i in zip(xs, axes, idx)}
        pt.update((c, float(v[idx])) for c, v in zip(lower + tops, lower_vals + top_vals))
        _, pd, _ = hessian_definiteness(prob, pt)
        pd_ok &= pd
        pd_detail.append(pd)
    report.add("hessian-positive-definite", bool(pd_ok),
               f"{sum(pd_detail)}/{len(pd_detail)} sampled field points definite")
    return report


def extremal_residual_via_field(prob: LagrangianProblem, gamma: Section,
                                domain: IntegrationDomain) -> float:
    """Max Euler-Lagrange residual of a section at sampled base points."""
    ctx = prob.ctx
    el = euler_lagrange(prob)
    sub = numerics.jet_prolong_section(gamma, 2 * ctx.r).subs_map()
    closed = [e.subs(sub) for e in el.values()]
    _, grids = domain.mesh()
    return numerics.max_abs(
        *numerics.grid(Evaluator(closed, numerics.base_coords(domain.dim)), *grids))
