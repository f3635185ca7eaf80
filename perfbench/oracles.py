"""Correctness oracles, run on each job's report outside the timed region.

Each oracle compares a report with an answer that comes from the mathematics
of the job, never from an earlier run of the program:

* ``derive``: the Euler-Lagrange expressions are compared with the
  independent alternating sum ``sum_J (-1)^|J| d_J dL/dy_J`` over canonical
  multi-indices. Polynomial jobs compare exactly. Quotients compare at seeded
  rational points, exactly when no transcendental atom occurs and to a
  relative 1e-9 otherwise, so any canonical form of the same function passes.
* Legendre and regularity jobs on ``sum a_s/2 y_top^2 + lower`` compare with
  ``H = sum P y - L`` under ``y_top = P_top/a_s`` and the Hessian ``diag(a)``.
* Numeric jobs compare with closed-form solutions: trigonometric and cubic
  extremals, conserved energy on the Newton path, boundary terms of the first
  variation, the action of the oscillator, and the excess of a free particle.

``check(job, report)`` returns ``None`` when the report is right and a short
reason otherwise.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from jetvar import multiindex as mi
from jetvar.symcore import ChartContext, Expr, jet, mom, parse_expr


def _ctx(n, m, r):
    ctx = ChartContext(n, m, r)
    ctx.ensure_max_order(2 * r)
    return ctx


def alternating_sum_euler_lagrange(ctx, L) -> dict:
    out = {}
    for sigma in range(1, ctx.m + 1):
        total = Expr.const(ctx, 0)
        for k in range(ctx.r + 1):
            sign = -1 if k % 2 else 1
            for J in mi.tuples(ctx.n, k):
                total = total + L.partial(jet(sigma, J)).iterated_total_derivative(J) * sign
        out[sigma] = total
    return out


def _same_function(a: Expr, b: Expr, rng: random.Random, points: int = 3) -> bool:
    """Equality at seeded rational points (exact unless transcendental)."""
    coords = sorted(set(a.coords()) | set(b.coords()), key=lambda c: c.sort_key())
    exact = not (a.has_transcendental() or b.has_transcendental())
    for _ in range(points):
        pt = {c: Fraction(rng.randint(1, 24), rng.randint(8, 16)) for c in coords}
        if exact:
            if a.subs(pt).as_fraction() != b.subs(pt).as_fraction():
                return False
        else:
            va, vb = a.eval(pt), b.eval(pt)
            if abs(va - vb) > 1e-9 * max(abs(va), abs(vb), 1.0):
                return False
    return True


def _failed_checks(report) -> list:
    return [k for k, v in report.get("checks", {}).items() if not v["pass"]]


def _close(value, expected, tol) -> bool:
    return abs(float(value) - float(expected)) <= tol * max(1.0, abs(float(expected)))


# -- symbolic jobs ------------------------------------------------------------------

def _derive(spec, report, seed):
    bad = _failed_checks(report)
    if bad:
        return f"failed checks {bad}"
    ctx = _ctx(spec["n"], spec["m"], spec["r"])
    oracle = alternating_sum_euler_lagrange(ctx, parse_expr(spec["L"], ctx))
    got = report["results"]["euler_lagrange"]
    if sorted(got) != [str(s) for s in sorted(oracle)]:
        return "wrong set of Euler-Lagrange components"
    rng = random.Random(seed)
    for sigma, expected in oracle.items():
        e = parse_expr(got[str(sigma)], ctx)
        ok = e.equal_exact(expected) if spec["exact"] else _same_function(e, expected, rng)
        if not ok:
            return f"Euler-Lagrange component {sigma} differs from the alternating sum"
    return None


def _legendre_quadratic(spec, report, seed):
    m, r = spec["m"], spec["r"]
    ctx = _ctx(1, m, r)
    a = [Fraction(q) for q in spec["a"]]
    top = {jet(s, (1,) * r): Expr.coord(ctx, mom(s, (1,) * r)) / a[s - 1]
           for s in range(1, m + 1)}
    H = -parse_expr(spec["L"], ctx)
    for s in range(1, m + 1):
        for k in range(1, r + 1):
            H = H + Expr.coord(ctx, mom(s, (1,) * k)) * Expr.coord(ctx, jet(s, (1,) * k))
    H = H.subs(top)
    res = report["results"]
    if not parse_expr(res["hamiltonian"], ctx).equal_exact(H):
        return "Hamiltonian differs from sum P y - L"
    for c, e in top.items():
        if not parse_expr(res["inverse_relations"][c.text()], ctx).equal_exact(e):
            return f"inverse relation for {c.text()} differs from P/a"
    return None


def _hessian_is(report, diag):
    M = report["results"]["hessian"]["numeric"]
    return len(M) == len(diag) and all(
        abs(M[i][j] - (diag[i] if i == j else 0.0)) <= 1e-12
        for i in range(len(diag)) for j in range(len(diag)))


def _regularity_quadratic(spec, report, seed):
    if _failed_checks(report):
        return "regularity check failed on a regular problem"
    a = [float(Fraction(q)) for q in spec["a"]]
    if not _hessian_is(report, a):
        return "top Hessian is not diag(a)"
    if report["results"]["hessian"]["positive_definite"] is not True:
        return "diag(a) with a > 0 reported not positive definite"
    return None


def _regularity_indefinite(spec, report, seed):
    if _failed_checks(report):
        return "regularity check failed on a regular problem"
    if not _hessian_is(report, [1.0, -1.0]):
        return "top Hessian is not diag(1, -1)"
    if report["results"]["hessian"]["positive_definite"] is not False:
        return "diag(1, -1) reported positive definite"
    return None


def _error(spec, report, seed):
    got = report.get("error", {}).get("type")
    return None if got == spec["type"] else f"error type {got}, expected {spec['type']}"


# -- numeric jobs -------------------------------------------------------------------

def _numeric_common(report, path=None):
    bad = _failed_checks(report)
    if bad:
        return f"failed checks {bad}"
    if path and report["results"].get("path") != path:
        return f"integration path {report['results'].get('path')}, expected {path}"
    return None


def _hdd_ho(spec, report, seed):
    err = _numeric_common(report, "symbolic")
    if err:
        return err
    a, b = float(Fraction(spec["a"])), float(Fraction(spec["b"]))
    fin = report["results"]["final"]
    if not _close(fin["y(1)"], a * math.sin(1) + b * math.cos(1), 1e-9):
        return "final y(1) differs from a sin 1 + b cos 1"
    if not _close(fin["P(1;1)"], a * math.cos(1) - b * math.sin(1), 1e-9):
        return "final P(1;1) differs from a cos 1 - b sin 1"
    return None


def _hdd_cubic(spec, report, seed):
    err = _numeric_common(report, "symbolic")
    if err:
        return err
    c0, c1, c2, c3 = (float(Fraction(q)) for q in spec["c"])
    fin = report["results"]["final"]
    expected = {"y(1)": c0 + c1 + c2 + c3, "y(1;1)": c1 + 2 * c2 + 3 * c3,
                "P(1;1)": -6 * c3, "P(1;1,1)": 2 * c2 + 6 * c3}
    for key, val in expected.items():
        if not _close(fin[key], val, 1e-9):
            return f"final {key} differs from the cubic extremal"
    return None


def _energy(y, v):
    return 0.5 * v * v + 0.25 * v ** 4 + 0.5 * y * y


def _hdd_energy(spec, report, seed):
    err = _numeric_common(report, "newton")
    if err:
        return err
    y0, p0 = float(Fraction(spec["y0"])), float(Fraction(spec["p0"]))
    lo, hi = -abs(p0) - 1.0, abs(p0) + 1.0  # v + v^3/3 = p0 is monotone in v
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid + mid ** 3 / 3 < p0 else (lo, mid)
    v0 = 0.5 * (lo + hi)
    fin = report["results"]["final"]
    y1, v1, p1 = fin["y(1)"], fin["y(1;1)"], fin["P(1;1)"]
    if not _close(p1, v1 + v1 ** 3 / 3, 1e-9):
        return "final momentum does not satisfy P = y' + y'^3/3"
    if not _close(_energy(y1, v1), _energy(y0, v0), 1e-8):
        return "energy 1/2 y'^2 + 1/4 y'^4 + 1/2 y^2 not conserved"
    return None


def _variation_ho(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    a, b, c, d = (float(Fraction(spec[k])) for k in "abcd")
    # Extremal: the variation is the boundary term [gamma' xi] from 0 to 1.
    expected = (a * math.cos(1) - b * math.sin(1)) * (c + d) - a * c
    res = report["results"]
    if not _close(res["lhs"], expected, 1e-6):
        return "first variation differs from the boundary term [gamma' xi]"
    if abs(res["interior"]) > 1e-6:
        return "interior term of an extremal is not zero"
    return None


def _variation_laplace(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    expected = 8 * float(Fraction(spec["g"])) * float(Fraction(spec["c"])) / 3
    # Trapezoid error on the 201^2 grid is h^2/2 = 1.25e-5 relative.
    if not _close(report["results"]["lhs"], expected, 1e-4):
        return "first variation differs from 8/3 g c"
    return None


def _hdd_residual(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    worst = max(v["max_abs"] for v in report["results"]["hdd_residuals"].values())
    return None if worst <= 1e-10 else f"canonical residual {worst:.3e} on an exact solution"


def _extremal_ho(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    a, b = float(Fraction(spec["a"])), float(Fraction(spec["b"]))
    action = 0.5 * ((a * a - b * b) * math.sin(2) / 2 - a * b * (1 - math.cos(2)))
    if not _close(report["results"]["action"], action, 1e-6 * max(1.0, a * a + b * b)):
        return "action differs from its closed form"
    return None


def _excess_free(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    ctx = _ctx(1, 1, 1)
    s = Fraction(spec["s"])
    expected = (Expr.coord(ctx, jet(1, (1,))) - s) ** 2 * Fraction(1, 2)
    if not parse_expr(report["results"]["excess"], ctx).equal_exact(expected):
        return "excess differs from 1/2 (y' - s)^2"
    return None


def _geodesic(spec, report, seed):
    err = _numeric_common(report)
    if err:
        return err
    status = report["results"]["status"]
    return None if status == "zero" else f"geodesic status {status}, expected zero"


ORACLES = {
    "derive": _derive, "legendre_quadratic": _legendre_quadratic,
    "regularity_quadratic": _regularity_quadratic,
    "regularity_indefinite": _regularity_indefinite, "error": _error,
    "hdd_ho": _hdd_ho, "hdd_cubic": _hdd_cubic, "hdd_energy": _hdd_energy,
    "variation_ho": _variation_ho, "variation_laplace": _variation_laplace,
    "hdd_residual": _hdd_residual, "extremal_ho": _extremal_ho,
    "excess_free": _excess_free, "geodesic": _geodesic,
}


def check(job: dict, report: dict, seed: int) -> str | None:
    spec = job["oracle"]
    try:
        return ORACLES[spec["kind"]](spec, report, seed)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
