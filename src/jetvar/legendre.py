"""Regularity tests, Legendre coordinates and the canonical equations.

Regularity of a Lagrangian is rank-maximality of the diagonal blocks of the
momenta Jacobian d P^K / d y^nu_P (the full matrix is block-triangular):
block s relates the momentum functions of multi-index length 2r-s to the
jets of order s, for r <= s <= 2r-1. :func:`momenta_block` builds one block;
the regularity report, the Legendre chart and the Newton solve all read the
Jacobian through it.

When every elimination layer is affine-linear in its unknown jets (true for
Lagrangians quadratic in the jets of order >= 1), the momenta relations can
be inverted symbolically layer by layer, producing the Legendre chart
(x, y up to order r-1, P), the function H on it, and the canonical
equations. The layered inversion is square only when n = 1 or r = 1; for
n >= 2 with r >= 2 the deeper layers are underdetermined and the symbolic
chart is refused.

For n = 1, :func:`hdd_integrate` runs classical RK4 as one generated float
function over all steps. Each sample's top jets are those of the first stage
of the step taken from it. With a chart the stages evaluate the gradient of
H and the samples the inverse inline; without one each stage calls a
generated Newton solve of the first layer of the top momentum relations,
restarts and warm start included, and evaluates dL/dy inline, and each
sample solves the other layers.
"""

from __future__ import annotations

import math

from fractions import Fraction

from . import multiindex as mi
from . import numerics
from .errors import (DegeneracyError, InputError, JetvarError, NewtonError,
                     UnsupportedSymbolicError)
from .numerics import IntegrationDomain, ResidualSummary
from .symcore import ChartContext, Coord, Evaluator, Expr, base, jet, mom
from .symcore.evaluator import FloatOps, check_line, compile_float, emitter
from .varcalc import LagrangianProblem, momenta


# -- regularity ---------------------------------------------------------------

class RegularityBlock:
    def __init__(self, s: int, rows: list, cols: list, entries: list,
                 numeric: np.ndarray | None = None, rank: int | None = None):
        self.s = s
        self.rows = rows        # jet(nu, P) with |P| = s
        self.cols = cols        # mom(sigma, K) with |K| = 2r - s
        self.entries = entries  # entries[i][j] : Expr
        self.numeric = numeric
        self.rank = rank

    @property
    def max_rank(self) -> bool:
        return self.rank == min(len(self.rows), len(self.cols))


class RegularityReport:
    def __init__(self, blocks: dict):
        self.blocks = blocks  # s -> RegularityBlock

    @property
    def regular(self) -> bool:
        return all(b.max_rank for b in self.blocks.values())


def momenta_block(prob: LagrangianProblem, s: int):
    """Block s of the momenta Jacobian as ``(rows, cols, entries)``.

    Rows are the jets jet(nu, P) with |P| = s, columns the momenta
    mom(sigma, K) with |K| = 2r - s, and entries[i][j] = d P^K_sigma / d y^nu_P
    for row i and column j.
    """
    ctx = prob.ctx
    P = momenta(prob)
    rows = ctx.coords(jet, (s,))
    cols = ctx.coords(mom, (2 * ctx.r - s,))
    return rows, cols, [[P[c].partial(row) for c in cols] for row in rows]


def _eval_matrix(entries, point) -> np.ndarray:
    """All entries at one point, through one evaluator over the point's keys."""
    import numpy as np
    coords = [c for c in point if isinstance(c, Coord)]
    flat = [e for row in entries for e in row]
    vals = Evaluator(flat, coords)(*[point[c] for c in coords])
    return np.array(vals, dtype=float).reshape(len(entries), len(entries[0]) if entries else 0)


def matrix_rank(M: np.ndarray, rel_tol: float) -> int:
    """Rank by singular values above rel_tol times the largest one."""
    import numpy as np
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def regularity_report(prob: LagrangianProblem, point: dict,
                      rel_tol: float) -> RegularityReport:
    blocks = {}
    for s in range(prob.ctx.r, 2 * prob.ctx.r):
        b = blocks[s] = RegularityBlock(s, *momenta_block(prob, s))
        b.numeric = _eval_matrix(b.entries, point)
        b.rank = matrix_rank(b.numeric, rel_tol)
    return RegularityReport(blocks)


def hessian_entries(prob: LagrangianProblem):
    """The jets of order r and the top-order Hessian d2L/dy^s_A dy^nu_B
    between them, row by row."""
    labels = prob.ctx.coords(jet, (prob.ctx.r,))
    return labels, [[prob.L.partial(a).partial(b) for b in labels] for a in labels]


def hessian_definiteness(prob: LagrangianProblem, point: dict, pivot_tol: float):
    """Top-order Hessian at a point, its positive definiteness and its labels."""
    labels, entries = hessian_entries(prob)
    M = _eval_matrix(entries, point)
    return M, positive_definite(M, pivot_tol), labels


def positive_definite(M: np.ndarray, pivot_tol: float) -> bool:
    """Definiteness of a symmetric matrix by a plain symmetric triangular
    factorization; a pivot at or below the tolerance fails the test."""
    import numpy as np
    if M.size and np.max(np.abs(M - M.T)) > 1e-9:
        raise JetvarError("definiteness matrix unexpectedly asymmetric")
    k = M.shape[0]
    L = np.zeros_like(M)
    for j in range(k):
        pivot = M[j, j] - np.dot(L[j, :j], L[j, :j])
        if pivot <= pivot_tol:
            return False
        L[j, j] = np.sqrt(pivot)
        for i in range(j + 1, k):
            L[i, j] = (M[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return True


# -- symbolic linear algebra ---------------------------------------------------

def solve_linear_system(A: list, b: list, layer: int | None = None) -> list:
    """Exact Gauss-Jordan solve of a square system with expression entries.

    Pivots are chosen structurally nonzero; the inversion is generic (valid
    away from the vanishing locus of the pivots).
    """
    k = len(A)
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    for col in range(k):
        piv = next((row for row in range(col, k) if not M[row][col].is_zero()), None)
        if piv is None:
            raise DegeneracyError(
                f"singular linear layer (column {col})", layer=layer)
        M[col], M[piv] = M[piv], M[col]
        pe = M[col][col]
        M[col] = [e / pe for e in M[col]]
        for row in range(k):
            if row == col:
                continue
            f = M[row][col]
            if f.is_zero():
                continue
            M[row] = [M[row][j] - f * M[col][j] for j in range(k + 1)]
    return [M[row][k] for row in range(k)]


# -- Legendre chart -------------------------------------------------------------

class HddEquation:
    """One canonical equation: algebraic(delta) + sum c d(comp o delta)/dx^i = 0."""

    def __init__(self, label: str, algebraic: Expr, dterms: list):
        self.label = label
        self.algebraic = algebraic
        self.dterms = dterms  # (Fraction coefficient, component Coord, base direction)


class LegendreChartData:
    def __init__(self, prob: LagrangianProblem, inverse: dict, H: Expr, equations: dict):
        self.prob = prob
        self.inverse = inverse      # jet(sigma, A) -> Expr for r <= |A| <= 2r-1
        self.H = H
        self.equations = equations  # group name -> list[HddEquation]


def legendre_chart(prob: LagrangianProblem) -> LegendreChartData:
    ctx = prob.ctx
    r = ctx.r
    if ctx.n > 1 and r > 1:
        raise UnsupportedSymbolicError(
            "layered momentum inversion is square only for n = 1 or r = 1")
    P = momenta(prob)
    inverse: dict = {}  # keyed by jet: its own substitution map
    for layer in range(r):
        # block r + layer, transposed: one row per momentum relation
        unknowns, relations, block = momenta_block(prob, r + layer)
        zero_top = {c: Expr.const(ctx, 0) for c in unknowns}
        A = []
        rhs = []
        for p, coeffs in zip(relations, zip(*block)):
            if any(c.max_jet_order() >= r + layer for c in coeffs):
                raise UnsupportedSymbolicError(
                    f"momentum relation for {p.text()} is not affine in "
                    f"order-{r + layer} jets")
            A.append([c.subs(inverse) for c in coeffs])
            base_part = P[p].subs(zero_top).subs(inverse)
            rhs.append(Expr.coord(ctx, p) - base_part)
        inverse.update(zip(unknowns, solve_linear_system(A, rhs, layer=layer)))
    H = -prob.L.subs(inverse)
    for p in ctx.coords(mom, range(1, r + 1)):
        y = jet(p.sigma, p.J)
        yK = Expr.coord(ctx, y) if p.order < r else inverse[y]
        H = H + Expr.coord(ctx, p) * yK * mi.count(p.J)
    return LegendreChartData(prob, inverse, H, _canonical_equations(ctx, H))


def _canonical_equations(ctx: ChartContext, H: Expr) -> dict:
    groups: dict = {"fiber0": [], "fiber": [], "momenta": []}
    for y in ctx.coords(jet, range(ctx.r)):
        NJ = Fraction(mi.count(y.J))
        dterms = [(NJ, mom(y.sigma, mi.merge(y.J, i)), i) for i in range(1, ctx.n + 1)]
        groups["fiber" if y.J else "fiber0"].append(HddEquation(
            f"dH/dy({y.sigma};{','.join(map(str, y.J))})", H.partial(y), dterms))
    for p in ctx.coords(mom, range(1, ctx.r + 1)):
        dterms = [(-Fraction(mi.count(J)), jet(p.sigma, J), i)
                  for J, i in mi.parent_pairs(p.J)]
        groups["momenta"].append(HddEquation(
            f"dH/dP({p.sigma};{','.join(map(str, p.J))})", H.partial(p), dterms))
    return groups


def hdd_residual(data: LegendreChartData, components: dict,
                 domain: IntegrationDomain) -> ResidualSummary:
    """Max residual of each canonical equation along closed-form components.

    ``components`` maps every chart fiber coordinate (jets of order < r and
    momenta) to an expression in the base coordinates.
    """
    exprs = {}
    for group, eqs in data.equations.items():
        for eq in eqs:
            res = eq.algebraic.subs(components)
            for coeff, comp, i in eq.dterms:
                if comp not in components:
                    raise InputError(f"missing component for {comp.text()}")
                res = res + components[comp].partial(base(i)) * coeff
            exprs[f"{group}:{eq.label}"] = res
    return numerics.residual_grid(exprs, {}, domain)


# -- canonical-equation integration (n = 1) --------------------------------------

_MAX_STEPS = 10 ** 6   # RK4 step budget of one trajectory
_NEWTON_TOL = 1e-12    # max |relation residual| accepted by the Newton recovery
_NEWTON_MAX = 50       # Newton iterations per start point


class Trajectory:
    def __init__(self, xs: np.ndarray, h: float, columns: dict):
        self.xs = xs
        self.h = h              # the equal RK4 step between samples
        self.columns = columns  # Coord -> np.ndarray


def _state_coords(ctx: ChartContext):
    return ctx.coords(jet, range(ctx.r)), ctx.coords(mom, range(1, ctx.r + 1))


def _top_coords(ctx: ChartContext):
    """Jets of order r .. 2r-1 that a trajectory reconstructs, per fiber."""
    return ctx.coords(jet, range(ctx.r, 2 * ctx.r))


def hdd_integrate(source, init: dict, x0: float, x1: float, step: float) -> Trajectory:
    """Integrate the canonical first-order system (n = 1) with classical RK4.

    ``source`` is either a :class:`LegendreChartData` (symbolic gradient of
    H drives the flow) or a :class:`LagrangianProblem` (top jets are
    recovered per stage by a Newton solve on the top momentum relations).
    Trajectories carry the state columns plus the reconstructed jets of
    order r .. 2r-1. The whole run is one generated float function; each
    sample's jets are those of the first stage of the step taken from it,
    the ones the integration followed, and only the last sample has its own.
    """
    import numpy as np
    chart = source if isinstance(source, LegendreChartData) else None
    prob = source if chart is None else chart.prob
    if not isinstance(prob, LagrangianProblem):
        raise InputError("source must be chart data or a Lagrangian problem")
    ctx = prob.ctx
    if ctx.n != 1:
        raise InputError("canonical integration is restricted to n = 1")
    if not all(math.isfinite(v) for v in (x0, x1, step)):
        raise InputError("x0, x1 and step must be finite")
    if step <= 0 or x1 <= x0:
        raise InputError("need step > 0 and x1 > x0")
    if (x1 - x0) / step > _MAX_STEPS:
        raise InputError(f"step {step!r} needs more than {_MAX_STEPS} RK4 steps "
                         f"on [{x0!r}, {x1!r}]: increase the step (--step)")

    ys, ps = _state_coords(ctx)
    state_coords = ys + ps
    for c in state_coords:
        if c not in init:
            raise InputError(f"initial data missing {c.text()}")

    if chart is not None:
        point, names = _chart_flow(ctx, chart), {}
    else:
        point, names = _newton_flow(prob)
    run = _trajectory(len(state_coords), point, **names)
    # Equal steps, never above the requested one; the derivative checks use
    # this step in their five-point stencil.
    steps = max(1, int(math.ceil((x1 - x0) / step - 1e-12)))
    h = (x1 - x0) / steps
    flat = run(FloatOps, x0, h, steps, *(float(init[c]) for c in state_coords))
    rows = np.fromiter(flat, float, len(flat)).reshape(steps + 1, -1)
    return Trajectory(rows[:, 0], h, dict(zip(state_coords + _top_coords(ctx), rows[:, 1:].T)))


def _trajectory(n: int, point, **names):
    """Generated ``_run(_m, x, h, steps, s0, ..)``: ``steps`` textbook RK4 steps
    from x with the state in locals, returning the rows (x, state, top jets) of
    the samples one after another in one flat list.

    ``point(lines, x, state, tag, rhs, top)`` appends one evaluation at local
    names and returns the names of the right-hand side's values if ``rhs``,
    then of the top jets if ``top``. A non-finite new state raises
    :class:`EvaluationError`."""
    s = [f"s{i}" for i in range(n)]
    body = ["xm = x + hh", "xe = x + h"]
    first = point(body, "x", s, "_1", rhs=True, top=True)
    body.append(f"rows += (x, {', '.join(s + first[n:])})")
    ks = [first[:n]]
    for j, (xj, scale) in enumerate((("xm", "hh"), ("xm", "hh"), ("xe", "h")), 2):
        state = [f"a{i}_{j}" for i in range(n)]
        body += [f"{a} = {si} + {scale} * {k}" for a, si, k in zip(state, s, ks[-1])]
        ks.append(point(body, xj, state, f"_{j}", rhs=True, top=False))
    new = [f"r{i}" for i in range(n)]
    body += [f"{r} = {si} + h6 * ({a} + 2 * {b} + 2 * {c} + {d})"
             for r, si, a, b, c, d in zip(new, s, *ks)]
    body += [check_line(new, s), f"{', '.join(s)}, = {', '.join(new)},", "x = x + h"]
    last: list = []
    top = point(last, "x", s, "_f", rhs=False, top=True)
    return compile_float("_run", ["x", "h", "steps", *s], [
        "hh = h / 2", "h6 = h / 6", "rows = []", "for _ in range(steps):",
        *(f"    {line}" for line in body),
        *last, f"rows += (x, {', '.join(s + top)})", "return rows"], **names)


def _chart_flow(ctx: ChartContext, chart: LegendreChartData):
    """``point`` of :func:`_trajectory` on the chart: y(s;J)' = dH/dP(s;J,1) and
    P(s;K)' = -dH/dy(s;K minus one index) in state order, then the inverse."""
    ys, ps = _state_coords(ctx)
    grad = ([chart.H.partial(mom(c.sigma, c.J + (1,))) for c in ys]
            + [-chart.H.partial(jet(c.sigma, c.J[1:])) for c in ps])
    inverse = [chart.inverse[c] for c in _top_coords(ctx)]
    inputs = [base(1)] + ys + ps

    def point(lines, x, state, tag, rhs, top):
        emit = emitter(ctx, inputs, [x, *state], lines, tag)
        return emit((grad if rhs else []) + (inverse if top else []))
    return point


def _newton_flow(prob: LagrangianProblem):
    """``(point, names)`` of :func:`_trajectory`: the jets above order r-1 by Newton.

    Layer l solves the m relations P(s;1^(r-l)) = state momentum for the jets
    of order r+l, given x, the state jets and the lower layers' solutions, by
    the generated ``_newton<l>`` in ``names``; its Jacobian is block r+l of
    :func:`momenta_block`, transposed. Every point solves layer 0; the
    right-hand side evaluates the momentum equations' dL/dy inline, and the
    top jets solve the other layers.
    """
    ctx = prob.ctx
    r, m = ctx.r, ctx.m
    ys, ps = _state_coords(ctx)
    n_ys = len(ys)
    known = [base(1)] + ys
    P = momenta(prob)
    names, targets = {}, []
    for layer in range(r):
        unknowns, cols, block = momenta_block(prob, r + layer)
        relations = [P[c] for c in cols]
        jac = [e for column in zip(*block) for e in column]  # relation-major
        known = known + unknowns
        names[f"_newton{layer}"] = _newton_loop(ctx, layer, known, relations, jac)
        targets.append([n_ys + ps.index(c) for c in cols])
    dL_inputs = [base(1)] + ys + ctx.coords(jet, (r,))
    dL = [prob.L.partial(jet(c.sigma, c.J[1:])) for c in ps]

    def solve(lines, layer, args, state, tag):
        z = [f"z{layer}_{s}{tag}" for s in range(m)]
        inputs = ", ".join(args + [state[i] for i in targets[layer]])
        lines.append(f"{', '.join(z)}, = _newton{layer}(_m, {inputs})")
        return z

    def point(lines, x, state, tag, rhs, top):
        args, out = [x, *state[:n_ys]], []
        solved = [solve(lines, 0, args, state, tag)]
        if rhs:
            # y(s;1^k)' is y(s;1^(k+1)): the next state jet or the solved one;
            # P(s;1^k)' = dL/dy(s;1^(k-1)) - P(s;1^(k-1)), without P for k = 1
            u = solved[0]
            vals = emitter(ctx, dL_inputs, args + u, lines, tag)(dL)
            lines += [f"d{i}{tag} = {v} - {state[n_ys + i - 1]}"
                      for i, v in enumerate(vals) if i % r]
            out += ([state[i + 1] if (i + 1) % r else u[i // r] for i in range(n_ys)]
                    + [f"d{i}{tag}" if i % r else v for i, v in enumerate(vals)])
        if top:
            for layer in range(1, r):
                args = args + solved[-1]
                solved.append(solve(lines, layer, args, state, tag))
            out += [z for per_fiber in zip(*solved) for z in per_fiber]
        return out

    return point, names


def _newton_loop(ctx, layer: int, inputs, relations, jac):
    """Generated ``_newton(_m, w.., t..)``: from known values w, iterate z until
    every |relation - t| <= _NEWTON_TOL (never on NaN); keep z in the global
    ``_guess``, the next call's warm start, and return it. Each restart offset
    starts at ``_guess`` plus it; the last start's failure raises NewtonError.
    Relations and Jacobian share one atom table; one unknown steps by division."""
    import numpy as np
    m = len(relations)
    w = [f"w{i}" for i in range(len(inputs) - m)]
    z, t, F, d = ([f"{c}{i}" for i in range(m)] for c in "ztFd")
    zs = ", ".join(z)
    body = []
    emit = emitter(ctx, inputs, w + z, body)
    body += [f"{f} = {v} - {ti}" for f, v, ti in zip(F, emit(relations), t)]
    body.append(f"if {' and '.join(f'abs({f}) <= {_NEWTON_TOL!r}' for f in F)}: "
                f"_guess[:] = ({zs},); return ({zs},)")
    J = emit(jac)
    singular = f"_failure = 'singular Jacobian at layer {layer}'; break"
    if m == 1:
        body += [f"if {J[0]} == 0: {singular}", f"z0 = z0 - F0 / {J[0]}"]
    else:
        rows = ", ".join(f"({', '.join(J[i * m:(i + 1) * m])})" for i in range(m))
        body += [f"try: {', '.join(d)}, = _lapack(({rows}), ({', '.join(F)})).tolist()",
                 f"except _LinAlgError: {singular}",
                 *(f"{zi} = {zi} - {di}" for zi, di in zip(z, d))]
    return compile_float("_newton", w + t, [
        "for _r in (0.0, 1.0, -1.0, 0.5, -0.5):",
        f"    {zs}, = {', '.join(f'_guess[{i}] + _r' for i in range(m))},",
        f"    for _ in range({_NEWTON_MAX}):", *(f"        {line}" for line in body),
        f"    else: _failure = 'no convergence after {_NEWTON_MAX} iterations at layer {layer}'",
        "raise _NewtonError(_failure)"],
        _guess=[0.0] * m, _NewtonError=NewtonError,
        _lapack=np.linalg.solve, _LinAlgError=np.linalg.LinAlgError)


# -- a-posteriori trajectory checks ----------------------------------------------

def _grid_derivative(h: float, col: np.ndarray):
    """Derivative of data sampled at the step h and the index range where it is accurate.

    Uses the fourth-order five-point stencil on the interior so the check
    does not drown in second-order truncation error; np.gradient below 7
    samples. Fewer than three samples admit no second-order derivative and
    raise InputError.
    """
    import numpy as np
    if len(col) < 3:
        raise InputError(f"trajectory has {len(col)} samples; the derivative checks "
                         "need at least 3: reduce the step (--step)")
    if len(col) < 7:
        return np.gradient(col, h, edge_order=2), slice(1, -1)
    d = np.empty_like(col)
    d[2:-2] = (col[:-4] - 8 * col[1:-3] + 8 * col[3:-1] - col[4:]) / (12 * h)
    d[:2] = d[2]
    d[-2:] = d[-3]
    return d, slice(2, -2)


def holonomy_residual_column(traj: Trajectory, prob: LagrangianProblem):
    """Pointwise max |d/dx of a jet column minus the next column|.

    Returns the per-sample residual and the index range where the stencil
    is trustworthy.
    """
    import numpy as np
    ctx = prob.ctx
    xs = traj.xs
    col = np.zeros_like(xs)
    interior = slice(1, -1)
    for y in ctx.coords(jet, range(2 * ctx.r - 1)):
        lower = traj.columns.get(y)
        upper = traj.columns.get(jet(y.sigma, y.J + (1,)))
        if lower is None or upper is None:
            continue
        d, interior = _grid_derivative(traj.h, lower)
        col = np.maximum(col, np.abs(d - upper))
    return col, interior


def interior_max(col: np.ndarray, interior: slice) -> float:
    """Max of a residual column over the index range where it is accurate."""
    import numpy as np
    return float(np.max(col[interior])) if len(col) else 0.0


def euler_lagrange_residual_column(traj: Trajectory, prob: LagrangianProblem):
    """Pointwise |dL/dy o trajectory - d/dx of the first momentum column|."""
    import numpy as np
    ctx = prob.ctx
    xs = traj.xs
    col = np.zeros_like(xs)
    interior = slice(1, -1)
    dLdy = [prob.L.partial(jet(s, ())) for s in range(1, ctx.m + 1)]
    ev = Evaluator(dLdy, [base(1), *traj.columns])
    vals = numerics.grid(ev, xs, *traj.columns.values())
    for s, v in zip(range(1, ctx.m + 1), vals):
        d, interior = _grid_derivative(traj.h, traj.columns[mom(s, (1,))])
        col = np.maximum(col, np.abs(v - d))
    return col, interior
