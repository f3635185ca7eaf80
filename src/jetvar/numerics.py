"""Numeric services: sections, grids, quadrature, residual maxima.

A base section is ``{s: gamma^s(x)}``; its prolongation
(:func:`jet_prolong_section`) and every binding of jet coordinates are
``{jet(s, J): Expr}`` maps, which substitute and pull back as they are.

This is where arrays live. :func:`grid` runs an evaluator's generated code
on numpy arrays; quadrature over the box and over its 2n faces, residual
grids and the variational checks built on them (action, first variation)
evaluate whole grids at once, in any base dimension. Quadrature integrates
a polynomial integrand in closed form: the box's float bounds are exact
rationals, so is the integral, and it is rounded once, with no evaluator
and no array. Any other integrand takes about ``resolution`` nodes per axis
in panels of the 5-point Gauss-Legendre rule. Residual grids sample
``resolution`` uniform points per axis, the box's faces included.
Trajectories are integrated on Python floats by the generated RK4 steps of
:mod:`jetvar.legendre`.

numpy is imported inside the functions that use it, here and in
:mod:`jetvar.legendre` and :mod:`jetvar.fields`, so importing the CLI loads
none and a symbolic command such as ``derive`` never pays its start-up.
"""

from __future__ import annotations

import math

from .errors import EvaluationError, InputError, MissingCoordinateError
from .symcore import ChartContext, Evaluator, Expr, base
from .symcore.evaluator import _OVERFLOW
from . import forms
from .varcalc import LagrangianProblem, LepageanForm, prolong_vector_field

_MAX_POINTS = 10 ** 7  # grid-point budget of one domain (resolution ** n)


class IntegrationDomain:
    """Axis-aligned box with a fixed positive orientation."""

    def __init__(self, lower: tuple, upper: tuple, resolution: int = 100):
        self.lower = lower
        self.upper = upper
        self.resolution = resolution  # points per axis of a residual grid; see quadrature
        if len(self.lower) != len(self.upper):
            raise InputError("domain bounds have mismatched dimensions")
        if not all(math.isfinite(v) for v in (*self.lower, *self.upper)):
            raise InputError("domain bounds must be finite")
        if any(a >= b for a, b in zip(self.lower, self.upper)):
            raise InputError("domain needs lower < upper componentwise")
        if self.resolution < 2:
            raise InputError("resolution must be at least 2")
        n = len(self.lower)
        points = self.resolution ** n
        if points > _MAX_POINTS:
            raise InputError(f"resolution {self.resolution} on n = {n} axes gives {points} "
                             f"grid points, more than {_MAX_POINTS}: lower the resolution")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self, resolution: int | None = None):
        """Sample points per axis; ``resolution`` overrides the domain's."""
        import numpy as np
        res = self.resolution if resolution is None else resolution
        if res < 2:
            raise InputError(f"resolution must be at least 2, got {res}")
        return [np.linspace(a, b, res) for a, b in zip(self.lower, self.upper)]

    def mesh(self, resolution: int | None = None):
        """The axes and their ``ij`` meshgrid (row-major = product order)."""
        import numpy as np
        axes = self.axes(resolution)
        return axes, np.meshgrid(*axes, indexing="ij")


def jet_prolong_section(ctx: ChartContext, gamma: dict, order: int) -> dict:
    """Prolong a base section ``{s: gamma^s(x)}`` to ``{jet(s, J): d_J gamma^s}``,
    |J| <= order.

    A base section depends on the base coordinates only, so it is a vertical
    field whose formal derivatives are its partials: the prolongation is
    :func:`jetvar.varcalc.prolong_vector_field`'s.
    """
    for e in gamma.values():
        for c in e.coords():
            if c.kind != "x":
                raise InputError(
                    f"section components must depend on base coordinates only, "
                    f"found {c.text()}")
    return prolong_vector_field(ctx, gamma, order)


def base_coords(n: int) -> list:
    """x(1) .. x(n), the inputs of an evaluator on a domain's grid."""
    return [base(i + 1) for i in range(n)]


class _GridOps:
    """Array namespace of the generated code: checks record a mask."""

    def __init__(self):
        import numpy as np
        self.sin, self.cos, self.exp, self.log, self.sqrt = (
            np.sin, np.cos, np.exp, np.log, np.sqrt)
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
    import numpy as np
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


# The 5-point Gauss-Legendre rule on [-1, 1], in closed form: the nodes are
# 0 and +-1/3 sqrt(5 -+ 2 sqrt(10/7)), the weights 128/225 and (322 +- 13 sqrt(70))/900.
_INNER, _OUTER = (math.sqrt(5 - 2 * math.sqrt(10 / 7)) / 3,
                  math.sqrt(5 + 2 * math.sqrt(10 / 7)) / 3)
_NODES = (-_OUTER, -_INNER, 0.0, _INNER, _OUTER)
_W_INNER, _W_OUTER = (322 + 13 * math.sqrt(70)) / 900, (322 - 13 * math.sqrt(70)) / 900
_WEIGHTS = (_W_OUTER, _W_INNER, 128 / 225, _W_INNER, _W_OUTER)


def _axis_rule(a: float, b: float, resolution: int):
    """Nodes and weights of ``ceil(resolution/5)`` equal panels of the 5-point
    Gauss-Legendre rule on [a, b]: about ``resolution`` nodes."""
    import numpy as np
    panels = -(-resolution // len(_NODES))
    h = (b - a) / panels
    mid = a + h * (np.arange(panels) + 0.5)
    return ((mid[:, None] + h / 2 * np.array(_NODES)).ravel(),
            np.tile(h / 2 * np.array(_WEIGHTS), panels))


def _closed_form(integrand: Expr, coords: list, domain: IntegrationDomain,
                 face: int | None) -> bool:
    """Is ``integrand`` a polynomial whose largest exponent ``d_i`` of x_i has
    ``d_i//2 + 1 <= resolution`` on every axis but ``face``?"""
    degrees = integrand.degrees(coords)
    return degrees is not None and all(d // 2 + 1 <= domain.resolution
                                       for i, d in enumerate(degrees) if i != face)


def _integral(integrand: Expr, domain: IntegrationDomain, face: int | None = None) -> float:
    """Integral of a base function over the box; on axis ``face``, the value
    at the upper bound minus the value at the lower bound instead.

    An integrand that :func:`_closed_form` admits is integrated exactly
    (:func:`_polynomial_terms`) and rounded once. Any other integrand is
    evaluated on the tensor product of :func:`_axis_rule`'s panels, whose
    weights are contracted one axis at a time, the last axis first.
    """
    coords = base_coords(domain.dim)
    if _closed_form(integrand, coords, domain, face):
        return _rounded_sum(_polynomial_terms(integrand, coords, domain, face))
    import numpy as np
    rules = [(np.array([b, a]), np.array([1.0, -1.0])) if i == face
             else _axis_rule(a, b, domain.resolution)
             for i, (a, b) in enumerate(zip(domain.lower, domain.upper))]
    points = np.meshgrid(*(nodes for nodes, _ in rules), indexing="ij", sparse=True)
    vals = grid(Evaluator([integrand], coords), *points)[0]
    for _, weights in reversed(rules):
        vals = (vals * weights).sum(axis=-1)
    return float(vals)


def _polynomial_terms(poly: Expr, coords: list, domain: IntegrationDomain,
                      face: int | None) -> list:
    """The exact integral of a polynomial as integer ratios ``(num, den)``,
    one per term.

    Each term c * prod x_i^e_i contributes c times the product of its axes'
    moments, (b_i^(e_i+1) - a_i^(e_i+1)) / (e_i+1), or b_i^e_i - a_i^e_i on
    axis ``face``. A float bound is an integer over a power of two, so each
    term is an integer ratio. Raises what an evaluator on the box would: a
    coordinate other than x(1)..x(n) has no value. ``coords`` are
    x(1)..x(n).
    """
    ctx = poly.ctx
    axis = {ctx.coord_id(c): i for i, c in enumerate(coords)}
    bounds = []  # (A, B, s): a = A/s and b = B/s, s a power of two
    for a, b in zip(domain.lower, domain.upper):
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        s = max(ad, bd)
        bounds.append((an * (s // ad), bn * (s // bd), s))
    moments: dict = {}

    def moment(i: int, e: int) -> tuple:
        m = moments.get((i, e))
        if m is None:
            A, B, s = bounds[i]
            m = moments[i, e] = ((B ** e - A ** e, s ** e) if i == face
                                 else (B ** (e + 1) - A ** (e + 1), (e + 1) * s ** (e + 1)))
        return m

    terms = []
    for mono, (num, den) in poly.num.items():
        exps = [0] * len(bounds)
        for aid, e in mono:
            i = axis.get(aid)
            if i is None:
                raise MissingCoordinateError(f"no value for coordinate {ctx.atom(aid).text()}")
            exps[i] = e
        for i, e in enumerate(exps):
            mn, md = moment(i, e)
            num *= mn
            den *= md
        terms.append((num, den))
    return terms


def _rounded_sum(terms: list) -> float:
    """The sum of integer ratios ``(num, den)`` rounded once to the nearest
    float: the numerators are added over a common denominator, which divides
    them once (int / int rounds correctly). A sum beyond float range raises
    the evaluator's overflow error."""
    common = math.lcm(*(d for _, d in terms))
    try:
        return sum(n * (common // d) for n, d in terms) / common
    except OverflowError as exc:
        raise EvaluationError(_OVERFLOW) from exc


def quadrature(integrand: Expr, domain: IntegrationDomain) -> float:
    """Integral of a base function over the box.

    A polynomial integrand with largest exponent ``d_i`` of x_i and
    ``d_i//2 + 1 <= domain.resolution`` on every axis is integrated exactly
    and rounded once; any other takes ``ceil(resolution/5)`` panels of the
    5-point Gauss-Legendre rule per axis (see :func:`_integral`).
    """
    for c in integrand.coords():
        if c.kind != "x":
            raise InputError(f"integrand must be a base function, found {c.text()}")
    return _integral(integrand, domain)


def boundary_quadrature(form: forms.DiffForm, domain: IntegrationDomain) -> float:
    """Integral of an (n-1)-form over the oriented boundary of the box.

    With f_i the coefficient of dx_1..^i..dx_n (dx_i left out), the integral
    is the sum over i of (-1)^(i-1) [f_i on the face x_i = b_i minus f_i on
    the face x_i = a_i], each face integrated over the other axes by the
    rules of :func:`quadrature`. For n = 1 the faces are the two endpoints
    and the integral is the endpoint difference of the 0-form. Any other
    term raises. When every face is integrated in closed form, the faces'
    exact terms are added before the one rounding, so the result is the
    correctly rounded boundary integral.
    """
    n = domain.dim
    if form.degree != n - 1:
        raise InputError("boundary integrand must have degree n-1")
    coords = base_coords(n)
    faces = [tuple(forms.d_(c) for c in coords[:i] + coords[i + 1:]) for i in range(n)]
    if any(covs not in faces for covs in form.terms):
        raise InputError("boundary integrand must be a combination of dx_1..^i..dx_n")
    coeffs = [form.coefficient(covs) for covs in faces]
    if all(_closed_form(f, coords, domain, i) for i, f in enumerate(coeffs)):
        return _rounded_sum([(-num if i % 2 else num, den) for i, f in enumerate(coeffs)
                             for num, den in _polynomial_terms(f, coords, domain, i)])
    return sum((-1) ** i * _integral(f, domain, i) for i, f in enumerate(coeffs))


class ResidualSummary:
    """Max-absolute-value summary for a family of residual expressions."""

    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries  # name -> (max_abs, argmax point)

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
    import numpy as np
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
        idx = int(np.argmax(np.abs(v)))  # the first maximum in row-major order
        point = np.unravel_index(idx, v.shape)
        summary.entries[name] = (float(abs(v.flat[idx])),
                                 tuple(ax[k] for ax, k in zip(axes, point)))
    return summary


# -- variational checks on grids ---------------------------------------------------

def action_value(prob: LagrangianProblem, gamma: dict,
                 domain: IntegrationDomain) -> float:
    """Quadrature of the Lagrangian density along the prolonged section."""
    integrand = prob.L.subs(jet_prolong_section(prob.ctx, gamma, prob.ctx.r))
    return quadrature(integrand, domain)


class FirstVariation:
    """Both sides of the first variation identity."""

    def __init__(self, lhs: float, interior: float, boundary: float):
        self.lhs = lhs
        self.interior = interior
        self.boundary = boundary

    @property
    def rhs(self) -> float:
        return self.interior + self.boundary


def first_variation_check(prob: LagrangianProblem, lep: LepageanForm, xi: dict,
                          gamma: dict, domain: IntegrationDomain) -> FirstVariation:
    """Compare the variation of the action with interior + boundary terms.

    The left side is the exact derivative of the action along any variation
    with generator xi: one quadrature of the sum over s and |J| <= r of
    (dL/dy^s_J o j^r gamma) * d_J(xi^s o gamma), the chain rule in L. The
    right side contracts the exterior derivative of the equivalent (interior
    term) and the equivalent itself (boundary term) with the prolonged field
    along the prolonged section: Stokes on the equivalent.
    """
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    order = 2 * ctx.r - 1
    along = jet_prolong_section(ctx, gamma, order)
    direction = {}
    for sigma, e in xi.items():
        if not isinstance(e, Expr):
            e = Expr.const(ctx, e)
        direction[sigma] = e.subs(along)
    # Terms in prolongation order (ChartContext.coords: sigma, |J|, then J):
    # their order sets the summation order of the integrand's floats.
    lhs = quadrature(Expr.sum(ctx, (
        prob.L.partial(c).subs(along) * e
        for c, e in jet_prolong_section(ctx, direction, ctx.r).items())), domain)

    rho = lep.realize()
    vec = prolong_vector_field(ctx, xi, order)

    inner = forms.interior_product(vec, forms.ext_d(rho))
    inner_density = forms.horizontal_density(forms.pullback(inner, along))
    interior = quadrature(inner_density, domain)

    boundary_form = forms.pullback(forms.interior_product(vec, rho), along)
    boundary = boundary_quadrature(boundary_form, domain)
    return FirstVariation(lhs, interior, boundary)
