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
                 domain: IntegrationDomain,
                 resolution: int | None = None) -> ResidualSummary:
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
    return numerics.residual_grid(exprs, {}, domain, resolution)


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
    order r .. 2r-1. Both right-hand sides take the positional state
    (x, ys, ps) through evaluators compiled once.
    """
    if isinstance(source, LegendreChartData):
        prob = source.prob
        chart = source
    elif isinstance(source, LagrangianProblem):
        prob = source
        chart = None
    else:
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
        rhs = Evaluator(_symbolic_rhs(ctx, chart), inputs)
        recover = Evaluator([chart.inverse[(c.sigma, c.J)] for c in _top_coords(ctx)],
                            inputs)

        def f(x, state):
            return np.array(rhs(x, *state.tolist()))
    else:
        solver = _NewtonRecovery(prob, momenta(prob))
        f = solver.rhs
        recover = solver.recover

    xs = [x0]
    states = [np.array([float(init[c]) for c in state_coords])]
    x = x0
    state = states[0]
    nsteps = max(1, int(math.ceil((x1 - x0) / step - 1e-12)))
    for _ in range(nsteps):
        h = min(step, x1 - x)
        state = numerics.rk4_step(f, x, state, h)
        x += h
        xs.append(x)
        states.append(state)
        if x >= x1 - 1e-15:
            break

    xs = np.array(xs)
    arr = np.array(states)
    top = np.array([recover(xv, *row) for xv, row in zip(xs.tolist(), arr.tolist())])
    columns = {c: arr[:, i] for i, c in enumerate(state_coords)}
    columns.update((c, top[:, i]) for i, c in enumerate(_top_coords(ctx)))
    return Trajectory(xs, columns)


def _symbolic_rhs(ctx: ChartContext, chart: LegendreChartData):
    exprs = []
    for s in range(1, ctx.m + 1):
        for k in range(ctx.r):
            exprs.append(chart.H.partial(mom(s, (1,) * (k + 1))))
    for s in range(1, ctx.m + 1):
        for k in range(1, ctx.r + 1):
            exprs.append(-chart.H.partial(jet(s, (1,) * (k - 1))))
    return exprs


class _NewtonRecovery:
    """Stage-wise recovery of jets above order r-1 from the momentum relations.

    Layer l solves the m relations P(s;1^(r-l)) = state momentum for the jets
    of order r+l, given x, the state jets and the lower layers' solutions.
    Each layer's relations and Jacobian, and the dL/dy set of the momentum
    equations, are compiled once over positional inputs.
    """

    def __init__(self, prob: LagrangianProblem, table: MomentaTable):
        ctx = prob.ctx
        r, m = ctx.r, ctx.m
        self.m = m
        ys, ps = _state_coords(ctx)
        self.n_ys = len(ys)
        known = [base(1)] + ys
        self.layers = []
        for layer in range(r):
            unknowns = [jet(s, (1,) * (r + layer)) for s in range(1, m + 1)]
            relations = [table[(s, (1,) * (r - layer))] for s in range(1, m + 1)]
            jac = [e.partial(c) for e in relations for c in unknowns]
            targets = [len(ys) + ps.index(mom(s, (1,) * (r - layer)))
                       for s in range(1, m + 1)]
            inputs = known + unknowns
            self.layers.append((layer, Evaluator(relations, inputs),
                                Evaluator(jac, inputs), targets))
            known = inputs
        order_r = [jet(s, (1,) * r) for s in range(1, m + 1)]
        # dL/dy(s;1^(k-1)) for the momentum equations, one per (s, k)
        self.dL = Evaluator([prob.L.partial(jet(s, (1,) * (k - 1)))
                             for s in range(1, m + 1) for k in range(1, r + 1)],
                            [base(1)] + ys + order_r)
        # per (s, k): the momentum subtracted in that equation (none for k = 1)
        self.p_prev = [len(ys) + ps.index(mom(s, (1,) * (k - 1))) if k > 1 else None
                       for s in range(1, m + 1) for k in range(1, r + 1)]
        # per (s, k): the state jet of order k+1, or None for an order-r jet
        self.y_next = [ys.index(jet(s, (1,) * (k + 1))) if k + 1 < r else None
                       for s in range(1, m + 1) for k in range(r)]
        self.guess = [np.zeros(m) for _ in range(r)]

    def _solve_layer(self, k: int, known: list, state) -> np.ndarray:
        layer, rel, jac, targets = self.layers[k]
        target = np.array([state[i] for i in targets])
        last_error = None
        for restart in (0.0, 1.0, -1.0, 0.5, -0.5):
            try:
                x = self._newton(self.guess[k] + restart, rel, jac, known, target, layer)
            except NewtonError as exc:
                last_error = exc
                continue
            self.guess[k] = x
            return x
        raise last_error

    def _newton(self, x, rel, jac, known, target, layer):
        m = self.m
        for _ in range(_NEWTON_MAX):
            args = known + x.tolist()
            F = np.array(rel(*args)) - target
            if all(abs(v) <= _NEWTON_TOL for v in F.tolist()):  # False on NaN, like np.max
                return x
            J = np.array(jac(*args)).reshape(m, m)
            try:
                dx = np.linalg.solve(J, F)
            except np.linalg.LinAlgError as exc:
                raise NewtonError(f"singular Jacobian at layer {layer}") from exc
            x = x - dx
        raise NewtonError(
            f"no convergence after {_NEWTON_MAX} iterations at layer {layer}")

    def recover(self, x: float, *state) -> list:
        """Jets of order r .. 2r-1 at one trajectory sample, per fiber."""
        known = [x, *state[:self.n_ys]]
        solved = []
        for k in range(len(self.layers)):
            u = self._solve_layer(k, known, state)
            solved.append(u)
            known = known + u.tolist()
        return [u[s] for s in range(self.m) for u in solved]

    def rhs(self, x: float, state: np.ndarray) -> np.ndarray:
        ys = state[:self.n_ys].tolist()
        u = self._solve_layer(0, [x, *ys], state)  # the order-r jets
        r = len(self.layers)
        out = [u[n // r] if i is None else state[i] for n, i in enumerate(self.y_next)]
        dL = self.dL(x, *ys, *u.tolist())
        out += [v - (0.0 if i is None else state[i]) for v, i in zip(dL, self.p_prev)]
        return np.array(out)


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


def holonomy_residual(traj: Trajectory, prob: LagrangianProblem) -> float:
    """Max |d/dx of a jet column minus the next column| on the interior."""
    return interior_max(*holonomy_residual_column(traj, prob))


def euler_lagrange_residual_column(traj: Trajectory, prob: LagrangianProblem):
    """Pointwise |dL/dy o trajectory - d/dx of the first momentum column|."""
    ctx = prob.ctx
    xs = traj.xs
    col = np.zeros_like(xs)
    interior = slice(1, -1)
    dLdy = [prob.L.partial(jet(s, ())) for s in range(1, ctx.m + 1)]
    vals = Evaluator(dLdy, [base(1), *traj.columns]).grid(xs, *traj.columns.values())
    for s, v in zip(range(1, ctx.m + 1), vals):
        d, interior = _grid_derivative(xs, traj.columns[mom(s, (1,))])
        col = np.maximum(col, np.abs(v - d))
    return col, interior


def euler_lagrange_residual_along(traj: Trajectory, prob: LagrangianProblem) -> float:
    """Max |dL/dy o trajectory - d/dx of the first momentum column|."""
    return interior_max(*euler_lagrange_residual_column(traj, prob))
