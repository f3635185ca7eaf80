"""Regularity tests, Legendre coordinates and the canonical equations.

Regularity of a Lagrangian is rank-maximality of the blocks relating the
momentum functions of multi-index length 2r-s to jets of order s, for
r <= s <= 2r-1. The blocks are built directly from weighted second partials
of L and coincide entry-by-entry with the corresponding diagonal blocks of
the momenta Jacobian d P^K / d y^nu_P (the block-triangular matrix of the
full system); tests exercise that equality.

When every elimination layer is affine-linear in its unknown jets (true for
Lagrangians quadratic in the jets of order >= 1), the momenta relations can
be inverted symbolically layer by layer, producing the Legendre chart
(x, y up to order r-1, P), the function H on it, and the canonical
equations. The layered inversion is square only when n = 1 or r = 1; for
n >= 2 with r >= 2 the deeper layers are underdetermined and the symbolic
chart is refused.

For n = 1, :func:`hdd_integrate` runs classical RK4 as one generated float
function per step: its stages evaluate the gradient of H inline or, without
a chart, call a generated Newton loop on the top momentum relations (a
scalar division for one unknown, LAPACK for more) and evaluate dL/dy inline.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import multiindex as mi
from . import numerics
from .errors import (DegeneracyError, InputError, JetvarError, NewtonError,
                     UnsupportedSymbolicError)
from .numerics import IntegrationDomain, ResidualSummary
from .symcore import ChartContext, Coord, Evaluator, Expr, base, jet, mom
from .symcore.evaluator import FloatOps, check_line, compile_float, emitter
from .varcalc import LagrangianProblem, MomentaTable, momenta


# -- regularity ---------------------------------------------------------------

@dataclass
class RegularityBlock:
    s: int
    rows: list            # (nu, P) with |P| = s
    cols: list            # (sigma, K) with |K| = 2r - s
    entries: list         # entries[i][j] : Expr
    numeric: np.ndarray | None = None
    rank: int | None = None

    @property
    def max_rank(self) -> bool:
        return self.rank == min(len(self.rows), len(self.cols))


@dataclass
class RegularityReport:
    blocks: dict          # s -> RegularityBlock
    point: dict

    @property
    def regular(self) -> bool:
        return all(b.max_rank for b in self.blocks.values())


def _jet_labels(ctx: ChartContext, length: int):
    return [(sigma, K) for sigma in range(1, ctx.m + 1)
            for K in mi.tuples(ctx.n, length)]


def regularity_blocks(prob: LagrangianProblem) -> dict:
    """Symbolic rank blocks from weighted second partials of L.

    Block s has rows (nu, P), |P| = s, and columns (sigma, K), |K| = 2r-s;
    the entry sums over multiset splits P = Lam + Q with |Q| = r:

        (-1)^(s-r) N(Lam) / N(K+Lam) * d2L / dy^sigma_{K+Lam} dy^nu_Q

    which makes the block literally equal to the diagonal block
    d P^K / d y^nu_P of the momenta Jacobian.
    """
    ctx = prob.ctx
    r = ctx.r
    blocks = {}
    for s in range(r, 2 * r):
        rows = _jet_labels(ctx, s)
        cols = _jet_labels(ctx, 2 * r - s)
        sign = -1 if (s - r) % 2 else 1
        entries = []
        for nu, P in rows:
            row = []
            for sigma, K in cols:
                total = Expr.const(ctx, 0)
                for Lam, Q in mi.splits(P, s - r):
                    KL = mi.merge(K, *Lam)
                    d2 = prob.L.partial(jet(sigma, KL)).partial(jet(nu, Q))
                    if d2.is_zero():
                        continue
                    total = total + d2 * Fraction(sign * mi.count(Lam), mi.count(KL))
                row.append(total)
            entries.append(row)
        blocks[s] = RegularityBlock(s, rows, cols, entries)
    return blocks


def momenta_jacobian(prob: LagrangianProblem):
    """Full matrix d P^K_sigma / d y^nu_P for r <= |P| <= 2r-1, 1 <= |K| <= r."""
    ctx = prob.ctx
    table = momenta(prob)
    rows = [lab for s in range(ctx.r, 2 * ctx.r) for lab in _jet_labels(ctx, s)]
    cols = [lab for k in range(1, ctx.r + 1) for lab in _jet_labels(ctx, k)]
    entries = [[table[(sigma, K)].partial(jet(nu, P)) for sigma, K in cols]
               for nu, P in rows]
    return rows, cols, entries


def _eval_matrix(entries, point) -> np.ndarray:
    """All entries at one point, through one evaluator over the point's keys."""
    coords = [c for c in point if isinstance(c, Coord)]
    flat = [e for row in entries for e in row]
    vals = Evaluator(flat, coords)(*[point[c] for c in coords])
    return np.array(vals, dtype=float).reshape(len(entries), len(entries[0]) if entries else 0)


def matrix_rank(M: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Rank by singular values above rel_tol times the largest one."""
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def regularity_report(prob: LagrangianProblem, point: dict,
                      rel_tol: float = 1e-10) -> RegularityReport:
    blocks = regularity_blocks(prob)
    for b in blocks.values():
        b.numeric = _eval_matrix(b.entries, point)
        b.rank = matrix_rank(b.numeric, rel_tol)
    return RegularityReport(blocks, point)


def hessian_definiteness(prob: LagrangianProblem, point: dict,
                         pivot_tol: float = 1e-12):
    """Top-order Hessian d2L/dy^s_A dy^nu_B and its positive definiteness.

    Definiteness is decided by a plain symmetric triangular factorization;
    a pivot at or below the tolerance fails the test.
    """
    ctx = prob.ctx
    labels = _jet_labels(ctx, ctx.r)
    entries = [[prob.L.partial(jet(s, A)).partial(jet(nu, B)) for nu, B in labels]
               for s, A in labels]
    M = _eval_matrix(entries, point)
    if M.size and np.max(np.abs(M - M.T)) > 1e-9:
        raise JetvarError("definiteness matrix unexpectedly asymmetric")
    return M, _cholesky_positive(M, pivot_tol), labels


def _cholesky_positive(M: np.ndarray, pivot_tol: float) -> bool:
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

def solve_linear_system(A: list, b: list, ctx: ChartContext,
                        layer: int | None = None) -> list:
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

@dataclass
class HddEquation:
    """One canonical equation: algebraic(delta) + sum c d(comp o delta)/dx^i = 0."""

    label: str
    algebraic: Expr
    dterms: list  # (Fraction coefficient, component Coord, base direction)


@dataclass
class LegendreChartData:
    prob: LagrangianProblem
    table: MomentaTable
    chart_coords: list
    inverse: dict          # (sigma, A) -> Expr for r <= |A| <= 2r-1
    H: Expr
    equations: dict        # group name -> list[HddEquation]


def legendre_chart(prob: LagrangianProblem) -> LegendreChartData:
    ctx = prob.ctx
    r = ctx.r
    if ctx.n > 1 and r > 1:
        raise UnsupportedSymbolicError(
            "layered momentum inversion is square only for n = 1 or r = 1")
    table = momenta(prob)
    inverse: dict = {}
    for layer in range(r):
        eq_labels = _jet_labels(ctx, r - layer)
        unknowns = _jet_labels(ctx, r + layer)
        unknown_coords = [jet(nu, B) for nu, B in unknowns]
        A = []
        rhs = []
        zero_top = {c: Expr.const(ctx, 0) for c in unknown_coords}
        for sigma, K in eq_labels:
            expr = table[(sigma, K)]
            row = []
            for c in unknown_coords:
                coeff = expr.partial(c)
                if coeff.max_jet_order() >= r + layer:
                    raise UnsupportedSymbolicError(
                        f"momentum relation for P({sigma};{K}) is not affine in "
                        f"order-{r + layer} jets")
                row.append(coeff.subs(inverse_subs(ctx, inverse)))
            A.append(row)
            base_part = expr.subs(zero_top).subs(inverse_subs(ctx, inverse))
            rhs.append(Expr.coord(ctx, mom(sigma, K)) - base_part)
        sol = solve_linear_system(A, rhs, ctx, layer=layer)
        for (nu, B), e in zip(unknowns, sol):
            inverse[(nu, B)] = e
    subs = inverse_subs(ctx, inverse)
    L_hat = prob.L.subs(subs)
    H = -L_hat
    for sigma, K in ctx.momenta_indices():
        yK = (Expr.coord(ctx, jet(sigma, K)) if len(K) < r
              else inverse[(sigma, K)])
        H = H + Expr.coord(ctx, mom(sigma, K)) * yK * mi.count(K)
    chart = ([base(i) for i in range(1, ctx.n + 1)]
             + [jet(s, J) for s, J in ctx.jets(max_order=r - 1)]
             + [mom(s, K) for s, K in ctx.momenta_indices()])
    return LegendreChartData(prob, table, chart, inverse, H,
                             _canonical_equations(ctx, H))


def inverse_subs(ctx: ChartContext, inverse: dict) -> dict:
    return {jet(s, A): e for (s, A), e in inverse.items()}


def _canonical_equations(ctx: ChartContext, H: Expr) -> dict:
    r = ctx.r
    groups: dict = {"fiber0": [], "fiber": [], "momenta": []}
    for sigma in range(1, ctx.m + 1):
        for k in range(0, r):
            for J in mi.tuples(ctx.n, k):
                NJ = Fraction(mi.count(J))
                dterms = [(NJ, mom(sigma, mi.merge(J, i)), i)
                          for i in range(1, ctx.n + 1)]
                eq = HddEquation(f"dH/dy({sigma};{','.join(map(str, J))})",
                                 H.partial(jet(sigma, J)), dterms)
                groups["fiber0" if k == 0 else "fiber"].append(eq)
        for k in range(1, r + 1):
            for K in mi.tuples(ctx.n, k):
                dterms = [(-Fraction(mi.count(J)), jet(sigma, J), i)
                          for J, i in mi.parent_pairs(K)]
                groups["momenta"].append(HddEquation(
                    f"dH/dP({sigma};{','.join(map(str, K))})",
                    H.partial(mom(sigma, K)), dterms))
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


@dataclass
class Trajectory:
    xs: np.ndarray
    columns: dict  # Coord -> np.ndarray


def _state_coords(ctx: ChartContext):
    ys = [jet(s, (1,) * k) for s in range(1, ctx.m + 1) for k in range(ctx.r)]
    ps = [mom(s, (1,) * k) for s in range(1, ctx.m + 1) for k in range(1, ctx.r + 1)]
    return ys, ps


def _top_coords(ctx: ChartContext):
    """Jets of order r .. 2r-1 that a trajectory reconstructs, per fiber."""
    return [jet(s, (1,) * k) for s in range(1, ctx.m + 1) for k in range(ctx.r, 2 * ctx.r)]


def hdd_integrate(source, init: dict, x0: float, x1: float, step: float) -> Trajectory:
    """Integrate the canonical first-order system (n = 1) with classical RK4.

    ``source`` is either a :class:`LegendreChartData` (symbolic gradient of
    H drives the flow) or a :class:`LagrangianProblem` (top jets are
    recovered per stage by a Newton solve on the top momentum relations).
    Trajectories carry the state columns plus the reconstructed jets of
    order r .. 2r-1. Each step is one generated float function.
    """
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
        inputs = [base(1)] + state_coords
        rhs = _symbolic_rhs(ctx, chart)
        rk4 = _rk4_step(len(state_coords), lambda lines, x, state, tag: emitter(
            ctx, inputs, [x, *state], lines, tag)(rhs))
        recover = _sample_map(
            ctx, [chart.inverse[(c.sigma, c.J)] for c in _top_coords(ctx)], inputs)
    else:
        solver = _NewtonRecovery(prob, momenta(prob))
        rk4, recover = solver.step, solver.recover

    # Equal steps, never above the requested one: the derivative checks
    # need a uniform grid for their five-point stencil.
    nsteps = max(1, int(math.ceil((x1 - x0) / step - 1e-12)))
    xs = [x0]
    states = [tuple(float(init[c]) for c in state_coords)]
    x = x0
    for _ in range(nsteps):
        h = min((x1 - x0) / nsteps, x1 - x)
        states.append(rk4(FloatOps, x, h, *states[-1]))
        x += h
        xs.append(x)
        if x >= x1 - 1e-15:
            break

    arr = np.hstack([np.array(states), np.array(recover(xs, states))])
    return Trajectory(np.array(xs), dict(zip(state_coords + _top_coords(ctx), arr.T)))


def _rk4_step(n: int, stage, **names):
    """Generated ``_step(_m, x, h, s0, ..)``: the textbook RK4 step's float operations.

    ``stage(lines, x, state, tag)`` appends one right-hand-side evaluation at
    local names and returns the names of its values. A non-finite new state
    raises :class:`EvaluationError`."""
    s = [f"s{i}" for i in range(n)]
    lines = ["hh = h / 2", "xm = x + hh", "xe = x + h", "h6 = h / 6"]
    ks = [stage(lines, "x", s, "_1")]
    for j, (xj, scale) in enumerate((("xm", "hh"), ("xm", "hh"), ("xe", "h")), 2):
        state = [f"a{i}_{j}" for i in range(n)]
        lines += [f"{a} = {si} + {scale} * {k}" for a, si, k in zip(state, s, ks[-1])]
        ks.append(stage(lines, xj, state, f"_{j}"))
    new = [f"r{i}" for i in range(n)]
    lines += [f"{r} = {si} + h6 * ({a} + 2 * {b} + 2 * {c} + {d})"
              for r, si, a, b, c, d in zip(new, s, *ks)]
    lines += [check_line(new, s), f"return ({', '.join(new)},)"]
    return compile_float("_step", ["x", "h", *s], lines, **names)


def _sample_map(ctx: ChartContext, exprs, inputs):
    """``map(xs, states)``: ``exprs`` at every sample by one generated loop,
    as an :class:`Evaluator` called per sample (x, *state) gives them."""
    names = [f"i{k}" for k in range(len(inputs))]
    body = []
    body.append(f"out.append(({', '.join(emitter(ctx, inputs, names, body)(exprs))},))")
    loop = compile_float("_map", ["xs", "states"], [
        "out = []", f"for {names[0]}, ({', '.join(names[1:])},) in zip(xs, states):",
        *(f"    {line}" for line in body), "return out"])
    return lambda xs, states: loop(FloatOps, xs, states)


def _symbolic_rhs(ctx: ChartContext, chart: LegendreChartData):
    """y(s;J)' = dH/dP(s;J,1) and P(s;K)' = -dH/dy(s;K minus one index), in state order."""
    ys, ps = _state_coords(ctx)
    return ([chart.H.partial(mom(c.sigma, c.J + (1,))) for c in ys]
            + [-chart.H.partial(jet(c.sigma, c.J[1:])) for c in ps])


class _NewtonRecovery:
    """Stage-wise recovery of jets above order r-1 from the momentum relations.

    Layer l solves the m relations P(s;1^(r-l)) = state momentum for the jets
    of order r+l, given x, the state jets and the lower layers' solutions, by
    a generated Newton loop. Each stage of :attr:`step` calls the layer-0
    solve, then evaluates the momentum equations' dL/dy inline.
    """

    def __init__(self, prob: LagrangianProblem, table: MomentaTable):
        ctx = prob.ctx
        r, m = ctx.r, ctx.m
        ys, ps = _state_coords(ctx)
        self.n_ys = n_ys = len(ys)
        known = [base(1)] + ys
        self.loops, self.targets = [], []
        for layer in range(r):
            unknowns = [jet(s, (1,) * (r + layer)) for s in range(1, m + 1)]
            relations = [table[(s, (1,) * (r - layer))] for s in range(1, m + 1)]
            jac = [e.partial(c) for e in relations for c in unknowns]
            known = known + unknowns
            self.loops.append(_newton_loop(ctx, layer, known, relations, jac))
            self.targets.append([len(ys) + ps.index(mom(s, (1,) * (r - layer)))
                                 for s in range(1, m + 1)])
        self.guess = [(0.0,) * m for _ in range(r)]
        dL_inputs = [base(1)] + ys + [jet(s, (1,) * r) for s in range(1, m + 1)]
        dL = [prob.L.partial(jet(c.sigma, c.J[1:])) for c in ps]

        def stage(lines, x, state, tag):
            # y(s;1^k)' is y(s;1^(k+1)): the next state jet or the solved one;
            # P(s;1^k)' = dL/dy(s;1^(k-1)) - P(s;1^(k-1)), without P for k = 1
            u = [f"z{s}{tag}" for s in range(m)]
            args = [x, *state[:n_ys]]
            target = ", ".join(state[i] for i in self.targets[0])
            lines.append(f"{', '.join(u)}, = _solve(0, ({', '.join(args)},), ({target},))")
            vals = emitter(ctx, dL_inputs, args + u, lines, tag)(dL)
            lines += [f"d{i}{tag} = {v} - {state[n_ys + i - 1]}"
                      for i, v in enumerate(vals) if i % r]
            return ([state[i + 1] if (i + 1) % r else u[i // r] for i in range(n_ys)]
                    + [f"d{i}{tag}" if i % r else v for i, v in enumerate(vals)])

        self.step = _rk4_step(n_ys + len(ps), stage, _solve=self._solve_layer)

    def _solve_layer(self, k: int, known: tuple, target: tuple) -> tuple:
        last_error = None
        for restart in (0.0, 1.0, -1.0, 0.5, -0.5):
            try:
                start = (g + restart for g in self.guess[k])
                self.guess[k] = self.loops[k](FloatOps, *known, *start, *target)
                return self.guess[k]
            except NewtonError as exc:
                last_error = exc
        raise last_error

    def recover(self, xs, states) -> list:
        """Jets of order r .. 2r-1 at every trajectory sample, per fiber."""
        out = []
        for x, state in zip(xs, states):
            known, solved = (x, *state[:self.n_ys]), []
            for k, targets in enumerate(self.targets):
                solved.append(self._solve_layer(k, known, tuple(state[i] for i in targets)))
                known += solved[-1]
            out.append([v for per_fiber in zip(*solved) for v in per_fiber])
        return out


def _newton_loop(ctx, layer: int, inputs, relations, jac):
    """Generated ``_newton(_m, w.., z.., t..)``: from known values w and start z,
    iterate until every |relation - t| <= _NEWTON_TOL (never on NaN); return z.
    Relations and Jacobian share one atom table; one unknown steps by division."""
    m = len(relations)
    w = [f"w{i}" for i in range(len(inputs) - m)]
    z, t, F, d = ([f"{c}{i}" for i in range(m)] for c in "ztFd")
    body = []
    emit = emitter(ctx, inputs, w + z, body)
    body += [f"{f} = {v} - {ti}" for f, v, ti in zip(F, emit(relations), t)]
    body.append(f"if {' and '.join(f'abs({f}) <= {_NEWTON_TOL!r}' for f in F)}: "
                f"return ({', '.join(z)},)")
    J = emit(jac)
    singular = f"raise _NewtonError('singular Jacobian at layer {layer}')"
    if m == 1:
        body += [f"if {J[0]} == 0: {singular}", f"z0 = z0 - F0 / {J[0]}"]
    else:
        rows = ", ".join(f"({', '.join(J[i * m:(i + 1) * m])})" for i in range(m))
        body += [f"try: {', '.join(d)}, = _lapack(({rows}), ({', '.join(F)})).tolist()",
                 f"except _LinAlgError as exc: {singular} from exc",
                 *(f"{zi} = {zi} - {di}" for zi, di in zip(z, d))]
    return compile_float("_newton", w + z + t, [
        f"for _ in range({_NEWTON_MAX}):", *(f"    {line}" for line in body),
        f"raise _NewtonError('no convergence after {_NEWTON_MAX} iterations at layer {layer}')"],
        _NewtonError=NewtonError, _lapack=np.linalg.solve, _LinAlgError=np.linalg.LinAlgError)


# -- a-posteriori trajectory checks ----------------------------------------------

def _grid_derivative(xs: np.ndarray, col: np.ndarray):
    """Derivative of sampled data and the index range where it is accurate.

    Uses the fourth-order five-point stencil on the (uniform) interior so
    the check does not drown in second-order truncation error; falls back
    to np.gradient when the grid is too short or non-uniform. Fewer than
    three samples admit no second-order derivative and raise InputError.
    """
    if len(xs) < 3:
        raise InputError(f"trajectory has {len(xs)} samples; the derivative checks "
                         "need at least 3: reduce the step (--step)")
    h = np.diff(xs)
    if len(xs) < 7 or np.max(np.abs(h - h[0])) > 1e-9 * max(abs(h[0]), 1e-300):
        return np.gradient(col, xs, edge_order=2), slice(1, -1)
    d = np.empty_like(col)
    step = h[0]
    d[2:-2] = (col[:-4] - 8 * col[1:-3] + 8 * col[3:-1] - col[4:]) / (12 * step)
    d[:2] = d[2]
    d[-2:] = d[-3]
    return d, slice(2, -2)


def holonomy_residual_column(traj: Trajectory, prob: LagrangianProblem):
    """Pointwise max |d/dx of a jet column minus the next column|.

    Returns the per-sample residual and the index range where the stencil
    is trustworthy.
    """
    ctx = prob.ctx
    xs = traj.xs
    col = np.zeros_like(xs)
    interior = slice(1, -1)
    for s in range(1, ctx.m + 1):
        for k in range(2 * ctx.r - 1):
            lower = traj.columns.get(jet(s, (1,) * k))
            upper = traj.columns.get(jet(s, (1,) * (k + 1)))
            if lower is None or upper is None:
                continue
            d, interior = _grid_derivative(xs, lower)
            col = np.maximum(col, np.abs(d - upper))
    return col, interior


def interior_max(col: np.ndarray, interior: slice) -> float:
    """Max of a residual column over the index range where it is accurate."""
    return float(np.max(col[interior])) if len(col) else 0.0


def euler_lagrange_residual_column(traj: Trajectory, prob: LagrangianProblem):
    """Pointwise |dL/dy o trajectory - d/dx of the first momentum column|."""
    ctx = prob.ctx
    xs = traj.xs
    col = np.zeros_like(xs)
    interior = slice(1, -1)
    dLdy = [prob.L.partial(jet(s, ())) for s in range(1, ctx.m + 1)]
    ev = Evaluator(dLdy, [base(1), *traj.columns])
    vals = numerics.grid(ev, xs, *traj.columns.values())
    for s, v in zip(range(1, ctx.m + 1), vals):
        d, interior = _grid_derivative(xs, traj.columns[mom(s, (1,))])
        col = np.maximum(col, np.abs(v - d))
    return col, interior
