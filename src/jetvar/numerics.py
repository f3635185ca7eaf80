"""Numeric services: sections, grids, quadrature, residual maxima.

This is where arrays live. :func:`grid` runs an evaluator's generated code
on numpy arrays; quadrature, residual grids and the variational checks built
on them (action, first variation, the canonical-table residual) evaluate
whole grids at once. Trajectories are integrated on Python floats by the
generated RK4 steps of :mod:`jetvar.legendre`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EvaluationError, InputError, MissingCoordinateError
from .symcore import ChartContext, Evaluator, Expr, base, jet, vel
from . import forms
from . import multiindex as mi
from .varcalc import (HamiltonFormTable, LagrangianProblem, LepageanForm,
                      prolong_vector_field)


@dataclass(frozen=True)
class IntegrationDomain:
    """Axis-aligned box with a fixed positive orientation."""

    lower: tuple
    upper: tuple
    resolution: int = 100  # points per axis

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InputError("domain bounds have mismatched dimensions")
        if not all(math.isfinite(v) for v in (*self.lower, *self.upper)):
            raise InputError("domain bounds must be finite")
        if any(a >= b for a, b in zip(self.lower, self.upper)):
            raise InputError("domain needs lower < upper componentwise")
        if self.resolution < 2:
            raise InputError("resolution must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self, resolution: int | None = None):
        """Sample points per axis; ``resolution`` overrides the domain's."""
        res = self.resolution if resolution is None else resolution
        if res < 2:
            raise InputError(f"resolution must be at least 2, got {res}")
        return [np.linspace(a, b, res) for a, b in zip(self.lower, self.upper)]

    def mesh(self, resolution: int | None = None):
        """The axes and their ``ij`` meshgrid (row-major = product order)."""
        axes = self.axes(resolution)
        return axes, np.meshgrid(*axes, indexing="ij")


def interval(a: float, b: float, resolution: int = 100) -> IntegrationDomain:
    return IntegrationDomain((a,), (b,), resolution)


@dataclass
class Section:
    """Symbolic section: components y^s_J(x) keyed by (sigma, J).

    A section of the base fibration has only (sigma, ()) entries; sections
    of higher jet fibrations carry entries for every order up to their
    declared order, not necessarily holonomic.
    """

    ctx: ChartContext
    components: dict
    order: int = 0

    def __post_init__(self):
        comps = {}
        for key, e in self.components.items():
            sigma, J = key
            comps[(sigma, tuple(sorted(J)))] = e
            for c in e.coords():
                if c.kind != "x":
                    raise InputError(
                        f"section components must depend on base coordinates only, "
                        f"found {c.text()}")
        self.components = comps
        self.order = max((len(J) for _, J in comps), default=0)

    @classmethod
    def of_base(cls, ctx, by_sigma: dict) -> "Section":
        return cls(ctx, {(s, ()): e for s, e in by_sigma.items()})

    def component(self, sigma: int, J=()) -> Expr:
        key = (sigma, tuple(sorted(J)))
        if key not in self.components:
            raise MissingCoordinateError(f"section has no component y({sigma};{key[1]})")
        return self.components[key]

    def subs_map(self) -> dict:
        """Substitution jet coordinate -> component expression."""
        return {jet(s, J): e for (s, J), e in self.components.items()}


def jet_prolong_section(gamma: Section, order: int) -> Section:
    """Prolong a base section: component at (s, J) is the J-fold x-partial."""
    ctx = gamma.ctx
    comps = {}
    for sigma in {s for (s, _) in gamma.components}:
        e0 = gamma.component(sigma, ())
        for J in mi.up_to(ctx.n, order):
            e = e0
            for i in J:
                e = e.partial(base(i))
            comps[(sigma, J)] = e
    return Section(ctx, comps)


def pullback_along(form: forms.DiffForm, section: Section) -> forms.DiffForm:
    """Pull a form back along a (prolonged) section of the jet fibration."""
    return forms.pullback(form, section.subs_map())


def base_coords(n: int) -> list:
    """x(1) .. x(n), the inputs of an evaluator on a domain's grid."""
    return [base(i + 1) for i in range(n)]


class _GridOps:
    """Array namespace of the generated code: checks record a mask."""

    sin = np.sin
    cos = np.cos
    exp = np.exp
    log = np.log
    sqrt = np.sqrt

    def __init__(self):
        self.flags = []

    def recip_arg(self, v):
        self.flags.append(v == 0)

    def ln_arg(self, v):
        self.flags.append(v <= 0)

    def sqrt_arg(self, v):
        self.flags.append(v < 0)


def grid(ev: Evaluator, *arrays) -> list:
    """Values of all of ``ev``'s expressions on broadcast arrays, one array each.

    A grid with a failing point re-runs the float path at the first flagged
    point in row-major order, so the exception type and message are those
    of a point-by-point loop.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    shape = arrays[0].shape if arrays else ()
    ops = _GridOps()
    with np.errstate(all="ignore"):
        out = [v if isinstance(v, np.ndarray) and v.shape == shape
               else np.full(shape, v, dtype=float)
               for v in ev.fn(ops, *arrays)]
    bad = np.zeros(shape, dtype=bool)
    for flag in ops.flags:
        bad |= flag
    finite_in = np.ones(shape, dtype=bool)
    for a in arrays:
        finite_in &= np.isfinite(a)
    for v in out:
        bad |= finite_in & ~np.isfinite(v)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        point = [float(a.flat[idx]) for a in arrays]
        ev(*point)  # raises the error of a point-by-point loop
        raise EvaluationError(f"evaluation failed at {point}")
    return out


def quadrature(integrand: Expr, domain: IntegrationDomain) -> float:
    """Tensor-product trapezoid rule over the box."""
    for c in integrand.coords():
        if c.kind != "x":
            raise InputError(f"integrand must be a base function, found {c.text()}")
    axes, grids = domain.mesh()
    vals = grid(Evaluator([integrand], base_coords(domain.dim)), *grids)[0]
    for axis, ax in enumerate(axes):
        vals = np.trapezoid(vals, ax, axis=0)
    return float(vals)


def boundary_quadrature(form: forms.DiffForm, domain: IntegrationDomain) -> float:
    """Integral over the oriented boundary of the box (n <= 2).

    For n = 1 the form is a 0-form and the integral is the endpoint
    difference; for n = 2 the four faces carry the induced (counterclockwise)
    orientation.
    """
    n = domain.dim
    if form.degree != n - 1:
        raise InputError("boundary integrand must have degree n-1")
    if n == 1:
        f = Evaluator([form.coefficient(())], [base(1)])
        return f(domain.upper[0])[0] - f(domain.lower[0])[0]
    if n != 2:
        raise InputError("boundary quadrature supports n <= 2 only")
    f1 = Evaluator([form.coefficient((forms.d_(base(1)),))], [base(1), base(2)])
    f2 = Evaluator([form.coefficient((forms.d_(base(2)),))], [base(1), base(2)])
    (a1, a2), (b1, b2) = domain.lower, domain.upper
    xs, ys = domain.axes()

    def line(f, x1, x2, ts):
        return float(np.trapezoid(grid(f, x1, x2)[0], ts))

    total = line(f1, xs, a2, xs)       # bottom, +x1
    total += line(f2, b1, ys, ys)      # right, +x2
    total -= line(f1, xs, b2, xs)      # top, -x1
    total -= line(f2, a1, ys, ys)      # left, -x2
    return total


@dataclass
class ResidualSummary:
    """Max-absolute-value summary for a family of residual expressions."""

    entries: dict = field(default_factory=dict)  # name -> (max_abs, argmax point)

    @property
    def global_max(self) -> float:
        return max((v for v, _ in self.entries.values()), default=0.0)

    def as_dict(self) -> dict:
        return {str(k): {"max_abs": v, "argmax": list(p)}
                for k, (v, p) in self.entries.items()}


def residual_grid(exprs: dict, binding: dict, domain: IntegrationDomain) -> ResidualSummary:
    """Close the expressions over base functions and take grid maxima.

    ``binding`` maps every non-base coordinate of the expressions to an
    expression in base coordinates; missing bindings raise.
    """
    closed = {}
    for name, e in exprs.items():
        ce = e.subs(binding)
        for c in ce.coords():
            if c.kind != "x":
                raise MissingCoordinateError(
                    f"binding does not close coordinate {c.text()}")
        closed[name] = ce
    axes, grids = domain.mesh()
    names = list(closed)
    values = grid(Evaluator(closed.values(), base_coords(domain.dim)), *grids)
    summary = ResidualSummary()
    for name, v in zip(names, values):
        idx = _first_max_index(np.abs(v).ravel())
        point = np.unravel_index(idx, v.shape)
        summary.entries[name] = (float(abs(v.flat[idx])),
                                 tuple(ax[k] for ax, k in zip(axes, point)))
    return summary


def _first_max_index(a: np.ndarray) -> int:
    """Index where a running strict-greater maximum over ``a`` ends.

    That is the first maximum in order; NaN entries are skipped, except a
    NaN first entry, which no later comparison replaces.
    """
    return 0 if np.isnan(a[0]) else int(np.nanargmax(a))


def max_abs(*values) -> float:
    """Largest absolute entry over arrays, ignoring NaN; 0.0 when empty."""
    return float(max((np.fmax.reduce(np.abs(v), axis=None, initial=0.0)
                      for v in values), default=0.0))


# -- variational checks on grids ---------------------------------------------------

def section_prolongation_binding(delta: Section) -> dict:
    """Coordinate binding for evaluation along the prolongation of a section.

    Jet coordinates bind to the section components, velocity coordinates to
    their base-direction partials.
    """
    ctx = delta.ctx
    binding = {}
    for (sigma, J), comp in delta.components.items():
        binding[jet(sigma, J)] = comp
        for p in range(1, ctx.n + 1):
            binding[vel(sigma, J, p)] = comp.partial(base(p))
    return binding


def hamilton_extremal_residual(table: HamiltonFormTable, delta: Section,
                               domain: IntegrationDomain) -> ResidualSummary:
    """Max |entry| along the prolonged section over sample points."""
    binding = section_prolongation_binding(delta)
    exprs = {key: e for key, e in table.entries.items()}
    return residual_grid(exprs, binding, domain)


def action_value(prob: LagrangianProblem, gamma: Section,
                 domain: IntegrationDomain) -> float:
    """Quadrature of the Lagrangian density along the prolonged section."""
    pro = jet_prolong_section(gamma, prob.ctx.r)
    integrand = prob.L.subs(pro.subs_map())
    return quadrature(integrand, domain)


@dataclass
class FirstVariation:
    """Both sides of the first variation identity."""

    lhs: float
    interior: float
    boundary: float

    @property
    def rhs(self) -> float:
        return self.interior + self.boundary


def first_variation_check(prob: LagrangianProblem, lep: LepageanForm, xi: dict,
                          gamma: Section, domain: IntegrationDomain,
                          eps: float = 1e-5) -> FirstVariation:
    """Compare the variation of the action with interior + boundary terms.

    The left side is a central finite difference in the variation parameter
    along the straight path gamma + t (xi o gamma); only the generator
    enters a first variation, so the straight path gives the same derivative
    as any flow with that generator. The right side contracts the exterior
    derivative of the equivalent (interior term) and the equivalent itself
    (boundary term) with the prolonged field along the prolonged section.
    """
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    order = 2 * ctx.r - 1
    gamma_sub = gamma.subs_map()
    direction = {}
    for sigma, e in xi.items():
        if not isinstance(e, Expr):
            e = Expr.const(ctx, e)
        direction[sigma] = e.subs(gamma_sub)

    def flowed(t: float) -> Section:
        frac = Fraction(t).limit_denominator(10 ** 12)
        return Section(ctx, {
            (sigma, ()): gamma.component(sigma, ()) + direction[sigma] * frac
            for sigma in direction
        })

    lhs = (action_value(prob, flowed(eps), domain)
           - action_value(prob, flowed(-eps), domain)) / (2 * eps)

    rho = lep.realize()
    xi_pro = prolong_vector_field(ctx, xi, order)
    vec = {jet(sigma, J): e for (sigma, J), e in xi_pro.items()}
    gamma_pro = jet_prolong_section(gamma, order)

    inner = forms.interior_product(vec, forms.ext_d(rho))
    inner_density = forms.horizontal_density(pullback_along(inner, gamma_pro))
    interior = quadrature(inner_density, domain)

    boundary_form = pullback_along(forms.interior_product(vec, rho), gamma_pro)
    boundary = boundary_quadrature(boundary_form, domain)
    return FirstVariation(lhs, interior, boundary)
