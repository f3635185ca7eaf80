"""Batch command-line tool: problem files in, JSON reports out.

Problem files are INI blocks with quoted expression strings::

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
    resolution = 1000

Point and init files are plain ``coordinate = value`` lines. Exit codes:
0 success, 1 input validation, 2 a computed check failed, 3 degenerate or
non-regular problem.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import re
import sys
import time

from . import fields as FL
from . import forms
from . import legendre as LG
from . import multiindex as mi
from . import numerics as N
from . import varcalc as V
from .errors import (CheckFailedError, DegeneracyError, InputError,
                     JetvarError, ParseError, UnsupportedSymbolicError)
from .symcore import ChartContext, Coord, Expr, parse_expr

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

    def __init__(self, path: str):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.optionxform = str
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise InputError(f"malformed problem file {path!r}: {exc}") from exc
        if not read:
            raise InputError(f"cannot read problem file {path!r}")
        if "problem" not in cp or "lagrangian" not in cp:
            raise InputError("problem file needs [problem] and [lagrangian] blocks")
        try:
            n = cp.getint("problem", "n")
            m = cp.getint("problem", "m")
            r = cp.getint("problem", "r")
        except (ValueError, configparser.NoOptionError) as exc:
            raise InputError(f"bad [problem] block: {exc}") from exc
        self.ctx = ChartContext(n, m, r)
        self.ctx.ensure_max_order(2 * r)
        ltext = _unquote(cp.get("lagrangian", "L", fallback=None))
        if ltext is None:
            raise InputError("[lagrangian] block needs an L entry")
        self.problem = V.LagrangianProblem(self.ctx, parse_expr(ltext, self.ctx))
        self.cp = cp
        self.tolerances = dict(DEFAULT_TOLERANCES)
        if "tolerances" in cp:
            for key, val in cp["tolerances"].items():
                if key not in self.tolerances:
                    raise InputError(f"unknown tolerance key {key!r}")
                self.tolerances[key] = _number(val, f"tolerance {key}")

    def digest(self) -> dict:
        ctx = self.ctx
        return {"n": ctx.n, "m": ctx.m, "r": ctx.r, "L": str(self.problem.L)}

    def has(self, block: str) -> bool:
        return block in self.cp and len(self.cp[block]) > 0

    def require(self, block: str) -> None:
        if not self.has(block):
            raise InputError(f"this command needs a [{block}] block")

    def gamma(self) -> N.Section:
        self.require("gamma")
        comps = {}
        for key, val in self.cp["gamma"].items():
            c = _parse_coord(key, self.ctx)
            if c.kind != "y" or c.order != 0:
                raise InputError(f"[gamma] keys must be y(s) entries, got {key}")
            comps[(c.sigma, ())] = parse_expr(_unquote(val), self.ctx)
        for sigma in range(1, self.ctx.m + 1):
            if (sigma, ()) not in comps:
                raise InputError(f"[gamma] misses component y({sigma})")
        return N.Section(self.ctx, comps)

    def delta_components(self) -> dict:
        self.require("delta")
        comps = {}
        for key, val in self.cp["delta"].items():
            c = _parse_coord(key, self.ctx)
            if c.kind not in ("y", "P"):
                raise InputError(f"[delta] keys must be jets or momenta, got {key}")
            comps[c] = parse_expr(_unquote(val), self.ctx)
        return comps

    def field(self) -> FL.SlopeField:
        self.require("field")
        comps = {}
        for key, val in self.cp["field"].items():
            c = _parse_coord(key, self.ctx)
            if c.kind != "y":
                raise InputError(f"[field] keys must be jet coordinates, got {key}")
            comps[(c.sigma, c.J)] = parse_expr(_unquote(val), self.ctx)
        return FL.SlopeField(self.ctx, comps)

    def gspec(self) -> V.GSpec:
        if not self.has("g"):
            return V.GSpec()
        entries = {}
        pat = re.compile(r"^g\((\d+);(\d+)\|([\d,]*)\)$")
        for key, val in self.cp["g"].items():
            mo = pat.match(key.replace(" ", ""))
            if not mo:
                raise InputError(f"bad [g] key {key!r}; expected g(s;i|j1,...)")
            sigma, i = int(mo.group(1)), int(mo.group(2))
            J = mi.canon(int(t) for t in mo.group(3).split(",") if t)
            if (sigma, i, J) in entries:
                raise InputError(f"duplicate [g] entry {key!r}")
            entries[(sigma, i, J)] = parse_expr(_unquote(val), self.ctx)
        return V.GSpec(entries)

    def domain(self, resolution: int | None = None) -> N.IntegrationDomain:
        if not self.has("domain"):
            raise InputError("this command needs a [domain] block")
        blk = self.cp["domain"]
        lower = _num_list(blk.get("lower", "0"), "[domain] lower")
        upper = _num_list(blk.get("upper", "1"), "[domain] upper")
        res = (_number(blk.get("resolution", "1000"), "[domain] resolution", int)
               if resolution is None else resolution)
        if len(lower) == 1 and self.ctx.n > 1:
            lower = lower * self.ctx.n
            upper = upper * self.ctx.n
        return N.IntegrationDomain(tuple(lower), tuple(upper), res)


def _unquote(text: str | None) -> str | None:
    if text is None:
        return None
    text = text.strip()
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
    e = parse_expr(text, ctx)
    ids = e.coord_support_ids()
    if len(ids) != 1 or not e.equal_exact(Expr.coord(ctx, ctx.atom(next(iter(ids))))):
        raise ParseError(f"{text!r} is not a single coordinate")
    return ctx.atom(next(iter(ids)))


def read_point_file(path: str, ctx: ChartContext) -> dict:
    point = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'coordinate = value'")
            key, val = line.split("=", 1)
            c = _parse_coord(key.strip(), ctx)
            val = val.strip()
            try:
                point[c] = float(val)
            except ValueError:
                point[c] = float(parse_expr(val, ctx).as_fraction())
            if not math.isfinite(point[c]):
                raise InputError(f"{path}:{lineno}: {c.text()} = {val} is not finite")
    return point


# -- report helpers ----------------------------------------------------------------

def _mi_text(J) -> str:
    return ",".join(str(j) for j in J)


def _momenta_dict(table: V.MomentaTable) -> dict:
    return {f"P({s};{_mi_text(K)})": str(e) for (s, K), e in table.items_sorted()}


def _coeff_dict(lep: V.LepageanForm) -> dict:
    return {f"f({s};{_mi_text(J)}|{i})": str(e)
            for (s, i, J), e in lep.items_sorted() if not e.is_zero()}


def _hamilton_dict(tab: V.HamiltonFormTable) -> dict:
    out = {}
    for (nu, P), e in tab.items_sorted():
        key = f"H({nu})" if not P else f"H({nu};{_mi_text(P)})"
        out[key] = str(e)
    return out


def _form_list(form: forms.DiffForm) -> list:
    return [["^".join(cv.text() for cv in covs) or "1", str(c)]
            for covs, c in form.items_sorted()]


class Report:
    def __init__(self, command: str, pf: ProblemFile):
        self.data = {
            "command": command,
            "problem": pf.digest(),
            "tolerances": dict(sorted(pf.tolerances.items())),
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
        self.data["timing"] = {"seconds": round(time.perf_counter() - self._start, 6)}
        return self.data


# -- commands -----------------------------------------------------------------------

def cmd_derive(pf: ProblemFile, args) -> Report:
    rep = Report("derive", pf)
    prob = pf.problem
    table = V.momenta(prob)
    rep.result("momenta", _momenta_dict(table))
    el = V.euler_lagrange(prob)
    rep.result("euler_lagrange", {str(s): str(e) for s, e in sorted(el.items())})
    g = pf.gspec()
    lep = V.lepagean_from_g(prob, g) if g.entries else V.poincare_cartan(prob)
    rep.result("cartan_coefficients", _coeff_dict(lep))
    if lep.correction:
        rep.result("coefficient_corrections",
                   {f"q({s};{_mi_text(J)}|{i})": str(e)
                    for (s, i, J), e in sorted(lep.correction.items(),
                                               key=lambda kv: (kv[0][0], len(kv[0][2]),
                                                               kv[0][2], kv[0][1]))})
    defect = V.lepagean_defect(lep.realize(), prob)
    rep.check("defect_zero", defect.is_lepagean, {
        "horizontal_mismatch": str(defect.horizontal_mismatch),
        "contact_defect": {f"({s};{_mi_text(J)})": str(e)
                           for (s, J), e in sorted(defect.contact_defect.items())},
    })
    el_match = all(defect.euler_lagrange.get(s, Expr.const(pf.ctx, 0)).equal_exact(e)
                   for s, e in el.items())
    rep.check("euler_lagrange_consistent", el_match,
              "1-contact density equals the recursion route")
    rep.result("extended_lagrangian", str(V.extended_lagrangian(lep)))
    rep.result("hamilton_table", _hamilton_dict(V.hamilton_form(lep)))
    return rep


def cmd_legendre(pf: ProblemFile, args) -> Report:
    rep = Report("legendre", pf)
    data = LG.legendre_chart(pf.problem)
    rep.result("hamiltonian", str(data.H))
    rep.result("inverse_relations",
               {f"y({s};{_mi_text(A)})": str(e)
                for (s, A), e in sorted(data.inverse.items(),
                                        key=lambda kv: (kv[0][0], len(kv[0][1]), kv[0][1]))})
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
        tol = pf.tolerances["hdd_residual"]
        rep.check("hdd_residual", summary.global_max <= tol,
                  {"max": summary.global_max, "tolerance": tol})
    return rep


def cmd_regularity(pf: ProblemFile, args) -> Report:
    rep = Report("regularity", pf)
    if not args.at:
        raise InputError("regularity needs --at POINTFILE")
    point = read_point_file(args.at, pf.ctx)
    report = LG.regularity_report(pf.problem, point, pf.tolerances["rank_rel"])
    blocks = {}
    for s, b in sorted(report.blocks.items()):
        blocks[str(s)] = {
            "rows": [f"({nu};{_mi_text(P)})" for nu, P in b.rows],
            "cols": [f"({sg};{_mi_text(K)})" for sg, K in b.cols],
            "entries": [[str(e) for e in row] for row in b.entries],
            "numeric": [[float(v) for v in row] for row in b.numeric],
            "rank": b.rank,
            "max_rank": b.max_rank,
        }
    rep.result("blocks", blocks)
    M, pd, labels = LG.hessian_definiteness(pf.problem, point,
                                            pf.tolerances["definiteness_pivot"])
    rep.result("hessian", {
        "labels": [f"({s};{_mi_text(A)})" for s, A in labels],
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
    rep.check("holonomy", hol <= pf.tolerances["holonomy"],
              {"max": hol, "tolerance": pf.tolerances["holonomy"]})
    rep.check("euler_lagrange_along", elr <= pf.tolerances["trajectory_el"],
              {"max": elr, "tolerance": pf.tolerances["trajectory_el"]})
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
    rep.check("horizontal_density", wd.horizontal_matches(),
              "horizontal density of the excess form equals the excess function")
    if pf.has("gamma"):
        cert = FL.minimum_certificate(prob, lep, w, pf.gamma(), pf.domain(),
                                      compat_tol=pf.tolerances["compatibility"])
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
    tol = pf.tolerances["extremal_residual"]
    rep.result("euler_lagrange_residual", residual)
    rep.result("action", N.action_value(pf.problem, gamma, dom))
    rep.check("extremal", residual <= tol, {"max": residual, "tolerance": tol})
    return rep


def cmd_first_variation(pf: ProblemFile, args) -> Report:
    rep = Report("first-variation", pf)
    gamma = pf.gamma()
    pf.require("variation")
    xi = {}
    for key, val in pf.cp["variation"].items():
        c = _parse_coord(key, pf.ctx)
        if c.kind != "y" or c.order != 0:
            raise InputError("[variation] keys must be y(s) entries")
        xi[c.sigma] = parse_expr(_unquote(val), pf.ctx)
    lep = V.poincare_cartan(pf.problem)
    fv = N.first_variation_check(pf.problem, lep, xi, gamma,
                                 pf.domain(args.resolution), eps=args.eps)
    rep.result("lhs", fv.lhs)
    rep.result("interior", fv.interior)
    rep.result("boundary", fv.boundary)
    rep.result("rhs", fv.rhs)
    tol = pf.tolerances["first_variation"]
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jetvar",
        description="derivations and checks for higher-order variational problems")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="problem definition file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                   help="override a named tolerance")
    p.add_argument("--at", help="point file for regularity/definiteness")
    p.add_argument("--init", help="initial-data file for hdd-solve")
    # Numbers are read as text and parsed in run(), so that a malformed
    # value exits 1 with a report instead of argparse's exit 2.
    p.add_argument("--x0")
    p.add_argument("--x1")
    p.add_argument("--step")
    p.add_argument("--resolution")
    p.add_argument("--eps", default="1e-5",
                   help="variation-parameter step for first-variation")
    return p


NUMERIC_OPTIONS = {"x0": float, "x1": float, "step": float, "resolution": int, "eps": float}


def _parse_numeric_options(args) -> argparse.Namespace:
    """A copy of ``args`` with the numeric options parsed from text."""
    parsed = dict(vars(args))
    for name, kind in NUMERIC_OPTIONS.items():
        if isinstance(parsed.get(name), str):
            parsed[name] = _number(parsed[name], f"--{name}", kind)
    return argparse.Namespace(**parsed)


def run(args) -> tuple[dict, int]:
    try:
        args = _parse_numeric_options(args)
        pf = ProblemFile(args.file)
        for item in args.tol:
            if "=" not in item:
                raise InputError(f"bad --tol {item!r}; expected KEY=VAL")
            key, val = item.split("=", 1)
            if key not in pf.tolerances:
                raise InputError(f"unknown tolerance key {key!r}")
            pf.tolerances[key] = _number(val, f"tolerance {key}")
        rep = COMMANDS[args.command](pf, args)
        data = rep.finalize()
        code = data["exit_code"]
    except CheckFailedError as exc:
        data = _error_report(args, 2, exc)
        code = 2
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
    args = _PARSER.parse_args(argv)
    data, code = run(args)
    text = (json.dumps(data, indent=2, sort_keys=True)
            if args.format == "json" else _render_text(data))
    if args.out:
        # Rewrite in place: truncating on open blocks about 1 ms per rewrite (ext4).
        with open(args.out, "r+" if os.path.isfile(args.out) else "w") as fh:
            fh.write(text + "\n")
            if fh.mode == "r+":
                fh.truncate()
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
