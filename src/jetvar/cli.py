"""Batch command-line tool: problem files in, JSON reports out.

Problem files are blocks of ``key = value`` entries with quoted expression
strings::

    [problem]
    n = 1
    m = 1
    r = 1

    [lagrangian]
    L = "1/2*y(1;1)^2 - 1/2*y(1)^2"

    [gamma]            ; base section components, one per fiber index
    y(1) = "sin(x(1))"

    [delta]            ; chart components for canonical-equation residuals
    y(1) = "sin(x(1))"
    P(1;1) = "cos(x(1))"

    [field]            ; slope field components y(s;K) for r <= |K| <= 2r-1
    y(1;1) = "1"

    [variation]        ; vertical variation field components, one per fiber
    y(1) = "1"

    [g]                ; free coefficient table entries g(s;i|J)
    g(1;2|1) = "y(1)"

    [domain]
    lower = 0
    upper = 1
    resolution = 1000  ; default: the largest k <= 1000 with k^n <= 10^6

``resolution`` is the number of points per axis of residual grids. Quadrature
(the action, the first variation) integrates a polynomial integrand in
closed form, exactly and rounded once, whatever the resolution, and any
other integrand with about ``resolution`` Gauss-Legendre nodes per axis.

Point and init files are plain ``coordinate = value`` lines, without block
headers. One line reader serves all three kinds, read as UTF-8: ``[name]``
opens a block, ``key = value`` splits at the first ``=`` and strips both
sides, and a ``;`` or ``#`` that starts a line or follows whitespace starts
a comment. Nothing is interpolated and ``[DEFAULT]`` is an ordinary block.
A block or key given twice, an empty key, an entry before the first block,
a header in a point or init file and any other line (such as ``key: value``
or an indented continuation) are input errors naming ``path:line``, and an
input error in an entry's key or expression names its ``path:line: [block]
key``. A coordinate given twice, in a file or a block, is an input error,
and a value beyond float range counts as non-finite.
The numeric modules (``numerics``, ``legendre``, ``fields``) are registered
at import and run on their first use, so ``derive`` never runs them. Exit codes:
0 success, 1 input validation (usage errors included), 2 a computed check
failed, 3 degenerate or non-regular problem, 141 stdout closed before the
report was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import sys
import time

from . import forms
from . import multiindex as mi
from . import varcalc as V
from .errors import (DegeneracyError, InputError, JetvarError,
                     UnsupportedSymbolicError)
from .symcore import ChartContext, Coord, Expr, parse_expr


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` now and run on
    its first attribute access (tracers look the numeric layers up there)."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


FL = _lazy("fields")
LG = _lazy("legendre")
N = _lazy("numerics")

JET_BUDGET = 10_000  # jets of order <= 2r a problem's chart may have; see _jet_count

DEFAULT_TOLERANCES = {
    "holonomy": 1e-6,
    "trajectory_el": 1e-6,
    "extremal_residual": 1e-8,
    "hdd_residual": 1e-10,
    "first_variation": 1e-4,
    "compatibility": 1e-9,
    "rank_rel": 1e-10,
    "definiteness_pivot": 1e-12,
}


# -- problem file ----------------------------------------------------------------

class ProblemFile:
    """Parsed problem definition with validated cross-references."""

    def __init__(self, path: str, tol=()):
        try:
            self.blocks = _read_blocks(path, headers=True)
        except OSError as exc:
            raise InputError(f"cannot read problem file {path!r}") from exc
        self.path = path
        if "problem" not in self.blocks or "lagrangian" not in self.blocks:
            raise InputError("problem file needs [problem] and [lagrangian] blocks")
        try:
            n, m, r = (int(self.blocks["problem"][k][0]) for k in "nmr")
        except (KeyError, ValueError):
            raise InputError("bad [problem] block: n, m and r must be integers") from None
        self.ctx = ChartContext(n, m, r)
        jets = _jet_count(n, m, r)
        if jets is None or jets > JET_BUDGET:
            raise InputError(f"the chart n = {n}, m = {m}, r = {r} has {jets or 'over 10^100'} "
                             f"jets up to order 2r, over the budget of {JET_BUDGET}")
        self.ctx.ensure_max_order(2 * r)
        L = self._entries("lagrangian").get("L")
        if L is None:
            raise InputError("[lagrangian] block needs an L entry")
        self.problem = V.LagrangianProblem(self.ctx, _parsed(parse_expr, *L, self.ctx))
        self.tolerances = self._tolerances(tol)
        self.read_tolerances = {}

    def _entries(self, block: str) -> dict:
        """``{key: (value, where)}`` of the expression entries of ``block``: each
        value without its quotes, ``where`` its ``path:line: [block] key``."""
        return {key: (_unquote(val), f"{self.path}:{line}: [{block}] {key}")
                for key, (val, line) in self.blocks.get(block, {}).items()}

    def _tolerances(self, tol) -> dict:
        """The defaults, overridden by the [tolerances] entries and then by
        the ``KEY=VAL`` options ``tol``. Each value must be finite and >= 0."""
        items = [(key, val) for key, (val, _) in self.blocks.get("tolerances", {}).items()]
        for item in tol:
            if "=" not in item:
                raise InputError(f"bad --tol {item!r}; expected KEY=VAL")
            items.append(item.split("=", 1))
        tolerances = dict(DEFAULT_TOLERANCES)
        for key, val in items:
            if key not in tolerances:
                raise InputError(f"unknown tolerance key {key!r}")
            value = _number(val, f"tolerance {key}")
            if not (math.isfinite(value) and value >= 0):
                raise InputError(f"tolerance {key} = {val} must be finite and >= 0")
            tolerances[key] = value
        return tolerances

    def tolerance(self, key: str) -> float:
        """The tolerance ``key``, recorded as read: a report lists those read."""
        return self.read_tolerances.setdefault(key, self.tolerances[key])

    def digest(self) -> dict:
        ctx = self.ctx
        return {"n": ctx.n, "m": ctx.m, "r": ctx.r, "L": str(self.problem.L)}

    def has(self, block: str) -> bool:
        return bool(self.blocks.get(block))

    def require(self, block: str) -> None:
        if not self.has(block):
            raise InputError(f"this command needs a [{block}] block")

    def _coord_block(self, block: str, allowed, what: str) -> dict:
        """``{Coord: Expr}`` of a required block whose keys all pass ``allowed``."""
        self.require(block)
        comps = {}
        for key, (val, where) in self._entries(block).items():
            c = _parsed(_parse_coord, key, where, self.ctx)
            if not allowed(c):
                raise InputError(f"[{block}] keys must be {what}, got {key}")
            if c in comps:
                raise InputError(f"duplicate [{block}] entry {key!r}: {c.text()} "
                                 "is given twice")
            comps[c] = _parsed(parse_expr, val, where, self.ctx)
        return comps

    def sigma_block(self, block: str) -> dict:
        """``{s: Expr}`` of a block keyed by y(s) entries."""
        comps = self._coord_block(block, lambda c: c.kind == "y" and c.order == 0,
                                  "y(s) entries")
        return {c.sigma: e for c, e in comps.items()}

    def gamma(self) -> dict:
        """The base section ``{s: Expr}``, one component per fiber."""
        comps = self.sigma_block("gamma")
        for sigma in range(1, self.ctx.m + 1):
            if sigma not in comps:
                raise InputError(f"[gamma] misses component y({sigma})")
        return comps

    def delta_components(self) -> dict:
        return self._coord_block("delta", lambda c: c.kind in ("y", "P"),
                                 "jets or momenta")

    def field(self) -> FL.SlopeField:
        return FL.SlopeField(self.ctx, self._coord_block(
            "field", lambda c: c.kind == "y", "jet coordinates"))

    def gspec(self) -> V.GSpec:
        entries = {}
        pat = re.compile(r"^g\((\d+);(\d+)\|([\d,]*)\)$")
        for key, (val, where) in self._entries("g").items():
            mo = pat.match(key.replace(" ", ""))
            if not mo:
                raise InputError(f"bad [g] key {key!r}; expected g(s;i|j1,...)")
            sigma, i = int(mo.group(1)), int(mo.group(2))
            J = mi.canon(int(t) for t in mo.group(3).split(",") if t)
            if (sigma, i, J) in entries:
                raise InputError(f"duplicate [g] entry {key!r}")
            entries[(sigma, i, J)] = _parsed(parse_expr, val, where, self.ctx)
        return V.GSpec(entries)

    def domain(self, resolution: int | None = None) -> N.IntegrationDomain:
        self.require("domain")
        blk = {key: val for key, (val, _) in self.blocks["domain"].items()}
        n = self.ctx.n
        bounds = []
        for key, default in (("lower", "0"), ("upper", "1")):
            values = _num_list(blk.get(key, default), f"[domain] {key}")
            if len(values) not in (1, n):
                raise InputError(f"[domain] {key} has {len(values)} bounds; "
                                 f"expected 1 or n = {n}")
            bounds.append(tuple(values * n if len(values) == 1 else values))
        if resolution is None and "resolution" in blk:
            resolution = _number(blk["resolution"], "[domain] resolution", int)
        elif resolution is None:
            # the largest k <= 1000 whose grid, k^n points, is at most 10^6
            resolution = next((k for k in range(1000, 1, -1) if k ** n <= 10 ** 6), 2)
        return N.IntegrationDomain(*bounds, resolution)


def _jet_count(n: int, m: int, r: int) -> int | None:
    """m*C(n+2r, 2r), the jets up to order 2r, or None once it passes 10^100
    (the count of a chart with huge n and r takes long to compute)."""
    count = m
    for j in range(1, min(n, 2 * r) + 1):
        if count > 1e100:
            return None
        count = count * (n + 2 * r + 1 - j) // j
    return count if count <= 1e100 else None


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    return text


def _number(text: str, what: str, kind=float):
    """Parse one number from a problem file or the command line."""
    try:
        return kind(text)
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}; expected a number") from exc


def _num_list(text: str, what: str) -> list:
    return [_number(t, what) for t in text.split(",")]


def _parse_coord(text: str, ctx: ChartContext) -> Coord:
    """The coordinate ``text`` names: it must parse to one coordinate atom,
    to the first power, with coefficient 1."""
    e = parse_expr(text, ctx)
    mono = next(iter(e.num), ())
    if len(mono) == 1 and ctx.is_coord(mono[0][0]):
        c = ctx.atom(mono[0][0])
        if e == Expr.coord(ctx, c):
            return c
    raise InputError(f"{text!r} is not a single coordinate")


def _parsed(parse, text: str, where: str, ctx: ChartContext):
    """``parse(text, ctx)`` for a file entry: an input error is prefixed with
    ``where``, the entry's ``path:line: [block] key``."""
    try:
        return parse(text, ctx)
    except InputError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


_COMMENT = re.compile(r"(?:^|\s)[;#]")  # a comment starts a line or follows whitespace


def _read_blocks(path: str, headers: bool) -> dict:
    """The entries of a problem file, or with ``headers`` false of a point or
    init file, read as UTF-8: ``{block: {key: (value, line)}}``; a point or
    init file is the one block ``""``. ``[name]`` opens a block, ``key = value``
    splits at the first ``=`` and both sides are stripped, and ``;`` or ``#``
    at the start of a line or after whitespace starts a comment. A block or
    key given twice, an empty key and any other line are input errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        what = "problem" if headers else "values"
        raise InputError(f"malformed {what} file {path!r}: {exc}") from exc
    blocks = {} if headers else {"": {}}
    entries = blocks.get("")
    for lineno, raw in enumerate(lines, 1):
        comment = _COMMENT.search(raw)
        line = (raw[:comment.start()] if comment else raw).strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1].strip()
            if not headers:
                raise InputError(f"{where}: a values file has no [block] headers")
            if name in blocks:
                raise InputError(f"{where}: block [{name}] is given twice")
            entries = blocks[name] = {}
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise InputError(f"{where}: expected 'key = value' or '[block]', got {line!r}")
        if entries is None:
            raise InputError(f"{where}: {key} comes before the first [block]")
        if key in entries:
            raise InputError(f"{where}: {key} is given twice")
        entries[key] = (val.strip(), lineno)
    return blocks


def read_point_file(path: str, ctx: ChartContext) -> dict:
    """``{Coord: float}`` of a point or init file of ``coordinate = value`` lines."""
    point = {}
    for key, (val, lineno) in _read_blocks(path, headers=False)[""].items():
        where = f"{path}:{lineno}"
        c = _parsed(_parse_coord, key, f"{where}: {key}", ctx)
        if c in point:
            raise InputError(f"{where}: {c.text()} is given twice")
        try:
            point[c] = float(val)
        except ValueError:
            try:
                point[c] = float(_parsed(parse_expr, val, f"{where}: {key}", ctx).as_fraction())
            except OverflowError:  # an exact value beyond float range
                point[c] = math.inf
        if not math.isfinite(point[c]):
            raise InputError(f"{where}: {c.text()} = {val} is not finite")
    return point


# -- report helpers ----------------------------------------------------------------

def _indices(c: Coord) -> str:
    """A coordinate's text without its kind letter: ``(1;1,2)``, ``(1;|2)``."""
    return c.text()[1:]


def _coord_table(table: dict, letter: str) -> dict:
    """Canonical text of the entries of a Coord-keyed table in
    :meth:`Coord.sort_key` order, each keyed by ``letter`` and the indices of
    its coordinate: ``P(1;1,2)``, ``f(1;|2)``, ``H(1)``."""
    return {letter + _indices(c): str(e)
            for c, e in sorted(table.items(), key=lambda kv: kv[0].sort_key())}


def _form_list(form: forms.DiffForm) -> list:
    return [["^".join(cv.text() for cv in covs) or "1", str(c)]
            for covs, c in form.items_sorted()]


class Report:
    def __init__(self, command: str, pf: ProblemFile):
        self.data = {
            "command": command,
            "problem": pf.digest(),
            "tolerances": pf.read_tolerances,  # sorted in finalize
            "results": {},
            "checks": {},
            "exit_code": 0,
        }
        self._start = time.perf_counter()

    def result(self, key: str, value) -> None:
        self.data["results"][key] = value

    def check(self, name: str, passed: bool, detail) -> None:
        self.data["checks"][name] = {"pass": bool(passed), "detail": detail}

    def finalize(self) -> dict:
        if any(not c["pass"] for c in self.data["checks"].values()):
            self.data["exit_code"] = 2
        self.data["tolerances"] = dict(sorted(self.data["tolerances"].items()))
        self.data["timing"] = {"seconds": round(time.perf_counter() - self._start, 6)}
        return self.data


# -- commands -----------------------------------------------------------------------

def cmd_derive(pf: ProblemFile, args) -> Report:
    rep = Report("derive", pf)
    prob = pf.problem
    rep.result("momenta", _coord_table(V.momenta(prob), "P"))
    el = V.euler_lagrange(prob)
    rep.result("euler_lagrange", {str(s): str(e) for s, e in sorted(el.items())})
    lep = V.lepagean_from_g(prob, pf.gspec())
    rep.result("cartan_coefficients",
               _coord_table({v: e for v, e in lep.f.items() if not e.is_zero()}, "f"))
    if lep.correction:
        rep.result("coefficient_corrections", _coord_table(lep.correction, "q"))
    defect = V.lepagean_defect(lep.realize(), prob)
    rep.check("defect_zero", defect.is_lepagean, {
        "horizontal_mismatch": str(defect.horizontal_mismatch),
        "contact_defect": {f"({s};{','.join(map(str, J))})": str(e)
                           for (s, J), e in sorted(defect.contact_defect.items())},
    })
    el_match = all(defect.euler_lagrange.get(s, Expr.const(pf.ctx, 0)).equal_exact(e)
                   for s, e in el.items())
    rep.check("euler_lagrange_consistent", el_match,
              "1-contact density equals the recursion route")
    rep.result("hamilton_table", _coord_table(V.hamilton_form(lep).entries, "H"))
    return rep


def cmd_legendre(pf: ProblemFile, args) -> Report:
    rep = Report("legendre", pf)
    data = LG.legendre_chart(pf.problem)
    rep.result("hamiltonian", str(data.H))
    rep.result("inverse_relations", _coord_table(data.inverse, "y"))
    eqs = {}
    for group, lst in data.equations.items():
        eqs[group] = [{
            "label": eq.label,
            "algebraic": str(eq.algebraic),
            "derivative_terms": [[str(c), comp.text(), i] for c, comp, i in eq.dterms],
        } for eq in lst]
    rep.result("canonical_equations", eqs)
    if pf.has("delta"):
        summary = LG.hdd_residual(data, pf.delta_components(),
                                  pf.domain(args.resolution))
        rep.result("hdd_residuals", summary.as_dict())
        tol = pf.tolerance("hdd_residual")
        rep.check("hdd_residual", summary.global_max <= tol,
                  {"max": summary.global_max, "tolerance": tol})
    return rep


def cmd_regularity(pf: ProblemFile, args) -> Report:
    rep = Report("regularity", pf)
    if not args.at:
        raise InputError("regularity needs --at POINTFILE")
    point = read_point_file(args.at, pf.ctx)
    report = LG.regularity_report(pf.problem, point, pf.tolerance("rank_rel"))
    blocks = {}
    for s, b in sorted(report.blocks.items()):
        blocks[str(s)] = {
            "rows": [_indices(c) for c in b.rows],
            "cols": [_indices(c) for c in b.cols],
            "entries": [[str(e) for e in row] for row in b.entries],
            "numeric": [[float(v) for v in row] for row in b.numeric],
            "rank": b.rank,
            "max_rank": b.max_rank,
        }
    rep.result("blocks", blocks)
    M, pd, labels = LG.hessian_definiteness(pf.problem, point,
                                            pf.tolerance("definiteness_pivot"))
    rep.result("hessian", {
        "labels": [_indices(c) for c in labels],
        "numeric": [[float(v) for v in row] for row in M],
        "positive_definite": pd,
    })
    rep.check("regular", report.regular,
              {str(s): b.rank for s, b in sorted(report.blocks.items())})
    if not report.regular:
        raise DegeneracyError("a regularity block is rank-deficient")
    return rep


def cmd_hdd_solve(pf: ProblemFile, args) -> Report:
    rep = Report("hdd-solve", pf)
    if not args.init:
        raise InputError("hdd-solve needs --init INITFILE")
    if args.x0 is None or args.x1 is None or args.step is None:
        raise InputError("hdd-solve needs --x0, --x1 and --step")
    init = read_point_file(args.init, pf.ctx)
    try:
        source = LG.legendre_chart(pf.problem)
        rep.result("path", "symbolic")
    except UnsupportedSymbolicError:
        source = pf.problem
        rep.result("path", "newton")
    traj = LG.hdd_integrate(source, init, args.x0, args.x1, args.step)
    hol_col, hol_interior = LG.holonomy_residual_column(traj, pf.problem)
    el_col, el_interior = LG.euler_lagrange_residual_column(traj, pf.problem)
    stride = max(1, (len(traj.xs) - 1) // 10)
    cols = sorted(traj.columns, key=lambda c: (c.kind, c.sigma, len(c.J), c.J))
    rows = []
    for idx in range(0, len(traj.xs), stride):
        rows.append({"x": float(traj.xs[idx]),
                     **{c.text(): float(traj.columns[c][idx]) for c in cols},
                     "holonomy_residual": float(hol_col[idx]),
                     "el_residual": float(el_col[idx])})
    rep.result("trajectory", rows)
    rep.result("final", {c.text(): float(traj.columns[c][-1]) for c in cols})
    hol = LG.interior_max(hol_col, hol_interior)
    elr = LG.interior_max(el_col, el_interior)
    hol_tol, el_tol = pf.tolerance("holonomy"), pf.tolerance("trajectory_el")
    rep.check("holonomy", hol <= hol_tol, {"max": hol, "tolerance": hol_tol})
    rep.check("euler_lagrange_along", elr <= el_tol, {"max": elr, "tolerance": el_tol})
    return rep


def cmd_field_check(pf: ProblemFile, args) -> Report:
    rep = Report("field-check", pf)
    lep = V.poincare_cartan(pf.problem)
    geo = FL.geodesic_check(pf.field(), lep)
    rep.result("status", geo.status)
    rep.result("pulled_derivative", _form_list(geo.pulled_derivative))
    rep.check("geodesic", geo.is_geodesic, geo.status)
    return rep


def cmd_excess(pf: ProblemFile, args) -> Report:
    rep = Report("excess", pf)
    prob = pf.problem
    lep = V.poincare_cartan(prob)
    w = pf.field()
    wd = FL.weierstrass(prob, lep, w)
    rep.result("excess", str(wd.excess))
    rep.result("excess_form", _form_list(wd.form))
    rep.check("horizontal_density", wd.horizontal_matches,
              "horizontal density of the excess form equals the excess function")
    if pf.has("gamma"):
        cert = FL.minimum_certificate(
            prob, lep, w, wd, pf.gamma(), pf.domain(),
            compat_tol=pf.tolerance("compatibility"),
            pivot_tol=pf.tolerance("definiteness_pivot"))
        rep.result("certificate_caveat", cert.caveat)
        for cond in cert.conditions:
            rep.check(f"certificate:{cond.name}", cond.passed, cond.detail)
    return rep


def cmd_hj(pf: ProblemFile, args) -> Report:
    rep = Report("hj", pf)
    lep = V.poincare_cartan(pf.problem)
    w = pf.field()
    try:
        S = FL.hj_primitive(w, lep)
    except InputError as exc:
        # not closed: report the failed check rather than bailing out
        rep.check("closed", False, str(exc))
        return rep
    rep.result("primitive", _form_list(S))
    rep.check("closed", True, "pulled-back equivalent is closed")
    rep.check("primitive_differential", True,
              "exterior derivative of the primitive reproduces the pullback")
    return rep


def cmd_verify_extremal(pf: ProblemFile, args) -> Report:
    rep = Report("verify-extremal", pf)
    gamma = pf.gamma()
    dom = pf.domain(args.resolution)
    residual = FL.extremal_residual_via_field(pf.problem, gamma, pf.domain(25))
    tol = pf.tolerance("extremal_residual")
    rep.result("euler_lagrange_residual", residual)
    rep.result("action", N.action_value(pf.problem, gamma, dom))
    rep.check("extremal", residual <= tol, {"max": residual, "tolerance": tol})
    return rep


def cmd_first_variation(pf: ProblemFile, args) -> Report:
    rep = Report("first-variation", pf)
    gamma = pf.gamma()
    xi = pf.sigma_block("variation")
    lep = V.poincare_cartan(pf.problem)
    fv = N.first_variation_check(pf.problem, lep, xi, gamma,
                                 pf.domain(args.resolution))
    rep.result("lhs", fv.lhs)
    rep.result("interior", fv.interior)
    rep.result("boundary", fv.boundary)
    rep.result("rhs", fv.rhs)
    tol = pf.tolerance("first_variation")
    rep.check("first_variation", abs(fv.lhs - fv.rhs) <= tol,
              {"difference": abs(fv.lhs - fv.rhs), "tolerance": tol})
    return rep


COMMANDS = {
    "derive": cmd_derive,
    "legendre": cmd_legendre,
    "regularity": cmd_regularity,
    "hdd-solve": cmd_hdd_solve,
    "field-check": cmd_field_check,
    "excess": cmd_excess,
    "hj": cmd_hj,
    "verify-extremal": cmd_verify_extremal,
    "first-variation": cmd_first_variation,
}


def _render_text(data: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 with a report, not 2
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="jetvar",
        description="derivations and checks for higher-order variational problems")
    # "-1e-3" and "-inf" are values, not options, as "-1" is
    p._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.I)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="problem definition file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                   help="override a named tolerance")
    p.add_argument("--at", help="point file for regularity/definiteness")
    p.add_argument("--init", help="initial-data file for hdd-solve")
    for name in ("--x0", "--x1", "--step"):
        p.add_argument(name, type=float)
    p.add_argument("--resolution", type=int)
    return p


def run(args) -> tuple[dict, int]:
    try:
        pf = ProblemFile(args.file, args.tol)
        rep = COMMANDS[args.command](pf, args)
        data = rep.finalize()
        code = data["exit_code"]
    except (DegeneracyError, UnsupportedSymbolicError) as exc:
        data = _error_report(args, 3, exc)
        code = 3
    except (JetvarError, OSError) as exc:
        data = _error_report(args, 1, exc)
        code = 1
    return data, code


def _error_report(args, code: int, exc: Exception) -> dict:
    return {
        "command": args.command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "exit_code": code,
    }


_PARSER = None  # built on the first call of main, then reused by in-process callers


def main(argv=None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except InputError as exc:
        _PARSER.print_usage(sys.stderr)
        args = argparse.Namespace(command=None, format="json", out=None)
        return _emit(args, None, _error_report(args, 1, exc), 1)
    try:
        out = _open_out(args.out) if args.out else None
    except InputError as exc:
        return _emit(args, None, _error_report(args, 1, exc), 1)
    if out is None:
        return _emit(args, None, *run(args))
    with out:
        return _emit(args, out, *run(args))


def _open_out(path: str):
    """The report file, opened before the command runs so that an unusable
    path fails at once. An existing file is rewritten in place: truncating
    on open blocks about 1 ms per rewrite (ext4)."""
    try:
        return open(path, "r+" if os.path.isfile(path) else "w")
    except OSError as exc:
        raise InputError(f"cannot write the report to {path!r}: {exc.strerror}") from exc


def _emit(args, out, data: dict, code: int) -> int:
    """Write the report to the open file ``out``, or to stdout when None;
    return ``code``."""
    text = (json.dumps(data, indent=2, sort_keys=True)
            if args.format == "json" else _render_text(data))
    if out is None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader went away. Point stdout at devnull so that the
            # interpreter's exit flush cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    else:
        out.write(text + "\n")
        if out.mode == "r+":
            out.truncate()
    return code


if __name__ == "__main__":
    sys.exit(main())
