"""Shared numeric services: section prolongation, grids, quadrature, RK4."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, MissingCoordinateError
from .symcore import ChartContext, Expr, base, jet
from . import forms
from . import multiindex as mi


@dataclass(frozen=True)
class IntegrationDomain:
    """Axis-aligned box with a fixed positive orientation."""

    lower: tuple
    upper: tuple
    resolution: int = 100  # points per axis

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InputError("domain bounds have mismatched dimensions")
        if any(a >= b for a, b in zip(self.lower, self.upper)):
            raise InputError("domain needs lower < upper componentwise")
        if self.resolution < 2:
            raise InputError("resolution must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self, resolution: int | None = None):
        res = resolution or self.resolution
        return [np.linspace(a, b, res) for a, b in zip(self.lower, self.upper)]

    def grid_points(self, resolution: int | None = None):
        for xs in itertools.product(*self.axes(resolution)):
            yield xs


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


def quadrature(integrand: Expr, domain: IntegrationDomain,
               resolution: int | None = None) -> float:
    """Tensor-product trapezoid rule over the box."""
    for c in integrand.coords():
        if c.kind != "x":
            raise InputError(f"integrand must be a base function, found {c.text()}")
    axes = domain.axes(resolution)
    grids = np.meshgrid(*axes, indexing="ij")
    flat_points = np.stack([g.ravel() for g in grids], axis=-1)
    vals = np.array([
        integrand.eval({base(i + 1): x for i, x in enumerate(p)})
        for p in flat_points
    ]).reshape(grids[0].shape)
    for axis, ax in enumerate(axes):
        vals = np.trapezoid(vals, ax, axis=0)
    return float(vals)


def boundary_quadrature(form: forms.DiffForm, domain: IntegrationDomain,
                        resolution: int | None = None) -> float:
    """Integral over the oriented boundary of the box (n <= 2).

    For n = 1 the form is a 0-form and the integral is the endpoint
    difference; for n = 2 the four faces carry the induced (counterclockwise)
    orientation.
    """
    ctx = form.ctx
    n = domain.dim
    if form.degree != n - 1:
        raise InputError("boundary integrand must have degree n-1")
    if n == 1:
        f = form.coefficient(())
        return (f.eval({base(1): domain.upper[0]})
                - f.eval({base(1): domain.lower[0]}))
    if n != 2:
        raise InputError("boundary quadrature supports n <= 2 only")
    f1 = form.coefficient((forms.d_(base(1)),))
    f2 = form.coefficient((forms.d_(base(2)),))
    (a1, a2), (b1, b2) = domain.lower, domain.upper
    res = resolution or domain.resolution
    xs = np.linspace(a1, b1, res)
    ys = np.linspace(a2, b2, res)

    def line(e, fixed_coord, fixed_value, var_coord, ts):
        vals = [e.eval({fixed_coord: fixed_value, var_coord: t}) for t in ts]
        return float(np.trapezoid(vals, ts))

    total = line(f1, base(2), a2, base(1), xs)       # bottom, +x1
    total += line(f2, base(1), b1, base(2), ys)      # right, +x2
    total -= line(f1, base(2), b2, base(1), xs)      # top, -x1
    total -= line(f2, base(1), a1, base(2), ys)      # left, -x2
    return total


@dataclass
class ResidualSummary:
    """Max-absolute-value summary for a family of residual expressions."""

    entries: dict = field(default_factory=dict)  # name -> (max_abs, argmax point)

    def record(self, name, value: float, point) -> None:
        prev = self.entries.get(name)
        if prev is None or abs(value) > prev[0]:
            self.entries[name] = (abs(value), tuple(point))

    @property
    def global_max(self) -> float:
        return max((v for v, _ in self.entries.values()), default=0.0)

    def as_dict(self) -> dict:
        return {str(k): {"max_abs": v, "argmax": list(p)}
                for k, (v, p) in self.entries.items()}


def residual_grid(exprs: dict, binding: dict, domain: IntegrationDomain,
                  resolution: int | None = None) -> ResidualSummary:
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
    summary = ResidualSummary()
    for xs in domain.grid_points(resolution):
        pt = {base(i + 1): x for i, x in enumerate(xs)}
        for name, ce in closed.items():
            summary.record(name, ce.eval(pt), xs)
    return summary


def rk4_step(f, x: float, state: np.ndarray, h: float) -> np.ndarray:
    """One classical fourth-order step of state' = f(x, state)."""
    k1 = f(x, state)
    k2 = f(x + h / 2, state + (h / 2) * k1)
    k3 = f(x + h / 2, state + (h / 2) * k2)
    k4 = f(x + h, state + h * k3)
    return state + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
