"""Span tracer that instruments jetvar from the outside.

``install(tracer)`` replaces the public functions of each jetvar module (and
the ``Expr``/``DiffForm`` operators) with wrappers that record one span per
call: ``{name, start, end, parent, job}``. No file of the program changes;
the wrappers are rebound on every ``jetvar.*`` module attribute and dict
entry that held the original function, because modules import each other's
functions by name (``fields`` holds ``euler_lagrange``, ``legendre`` holds
``momenta``, ``cli.COMMANDS`` holds the command functions).

Spans live in memory as parallel arrays and are written out by ``dump``
when the run ends. Self time (span time minus the time covered by child
spans) and inclusive time (outermost span of a name only, so recursion is
not counted twice) are accumulated as spans close. Output sizes (terms,
denominator degree, grid points) are computed from the returned objects
after the span has closed.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("_poly", "symcore", "forms", "varcalc", "legendre", "numerics", "fields", "cli")

# Kernel entry points that work on whole polynomials. The per-coefficient and
# per-monomial helpers (rat*, mono_*) and the O(1) constructors/predicates
# (poly_const, poly_atom, poly_is_const) run inside them, so their time is
# the kernel's self time.
POLY_FUNCS = ("poly_add", "poly_neg", "poly_sub", "poly_scale", "poly_mul", "poly_pow",
              "poly_diff", "poly_support", "poly_radial_scale")

EXPR_METHODS = {
    "__add__": "symcore.arith", "__radd__": "symcore.arith", "__sub__": "symcore.arith",
    "__rsub__": "symcore.arith", "__mul__": "symcore.arith", "__rmul__": "symcore.arith",
    "__truediv__": "symcore.arith", "__rtruediv__": "symcore.arith",
    "__neg__": "symcore.arith", "__pow__": "symcore.arith", "sum": "symcore.arith",
    "partial": "symcore.partial", "total_derivative": "symcore.total_derivative",
    "iterated_total_derivative": "symcore.iterated_total_derivative",
    "prolonged_total_derivative": "symcore.prolonged_total_derivative",
    "subs": "symcore.subs", "equal_exact": "symcore.equal_exact",
    "probably_equal": "symcore.probably_equal", "eval": "symcore.eval",
    "__str__": "symcore.str",
}

DIFFFORM_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "scaled", "coefficient")

RENAMES = {
    "legendre.holonomy_residual_column": "legendre.residual_columns",
    "legendre.euler_lagrange_residual_column": "legendre.residual_columns",
}

# Spans inside which Expr.eval calls are attributed to a numeric stage.
GRID_SPANS = ("numerics.quadrature", "numerics.residual_grid")
RK4_SPAN = "numerics.rk4_step"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self._stack: list = []            # [span index, child time, layer]
        self._active: dict[int, int] = {}  # name id -> open spans of that name
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = defaultdict(int)     # exceptions leaving a layer
        self.counts = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def active(self, name: str) -> bool:
        return self._active.get(self._ids.get(name, -1), 0) > 0

    def wrap(self, name: str, fn, after=None, before=None):
        """Return ``fn`` wrapped in a span; ``after(tracer, result, args, kw)``
        runs once the span has closed, ``before(tracer)`` before it opens."""
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        perf = time.perf_counter
        stack = self._stack
        active = self._active
        tr = self

        def wrapper(*args, **kw):
            if before is not None:
                before(tr)
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_job.append(tr.job)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            frame = [idx, 0.0, layer]
            stack.append(frame)
            active[nid] = active.get(nid, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kw)
            except Exception:
                if len(stack) < 2 or stack[-2][2] != layer:
                    tr.errors[layer] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                depth = active[nid] - 1
                active[nid] = depth
                tr.span_start[idx] = t0
                tr.span_end[idx] = t1
                dur = t1 - t0
                tr.calls[nid] += 1
                tr.self_s[nid] += dur - frame[1]
                if depth == 0:
                    tr.total_s[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(tr, result, args, kw)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line (gzip)."""
        names = self.names
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps({
                    "name": names[self.span_name[i]], "start": self.span_start[i],
                    "end": self.span_end[i], "parent": self.span_parent[i],
                    "job": self.span_job[i]}) + "\n")

    def by_name(self, table) -> dict:
        return {self.names[k]: v for k, v in table.items()}

    def metrics(self) -> dict:
        """Per-layer metric values, keyed as in BENCHMARK.json."""
        calls = self.by_name(self.calls)
        self_s = self.by_name(self.self_s)
        total_s = self.by_name(self.total_s)
        c = self.counts
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        out["_poly.calls"] = sum(v for k, v in calls.items() if k.startswith("_poly."))
        out["_poly.terms_out"] = c["_poly.terms_out"]
        out["_poly.poly_mul.self_s"] = self_s.get("_poly.poly_mul", 0.0)
        out["_poly.poly_mul.calls"] = calls.get("_poly.poly_mul", 0)
        out["_poly.poly_mul.terms_out"] = c["_poly.poly_mul.terms_out"]
        out["_poly.poly_diff.self_s"] = self_s.get("_poly.poly_diff", 0.0)
        out["_poly.poly_support.calls"] = calls.get("_poly.poly_support", 0)
        out["symcore.arith.calls"] = calls.get("symcore.arith", 0)
        out["symcore.arith.self_s"] = self_s.get("symcore.arith", 0.0)
        for part in ("partial", "total_derivative", "subs", "equal_exact", "str", "parse"):
            out[f"symcore.{part}.self_s"] = self_s.get(f"symcore.{part}", 0.0)
        out["symcore.eval.calls"] = calls.get("symcore.eval", 0)
        out["symcore.eval.self_s"] = self_s.get("symcore.eval", 0.0)
        out["symcore.errors"] = self.errors["symcore"]
        for part in ("ext_d", "contact_decompose", "pullback"):
            out[f"forms.{part}.total_s"] = total_s.get(f"forms.{part}", 0.0)
        out["forms.terms_out"] = c["forms.terms_out"]
        for part in ("momenta", "euler_lagrange", "lepagean_defect", "hamilton_form",
                     "first_variation_check", "action_value"):
            out[f"varcalc.{part}.total_s"] = total_s.get(f"varcalc.{part}", 0.0)
        out["varcalc.euler_lagrange.terms"] = c["varcalc.euler_lagrange.terms"]
        out["varcalc.euler_lagrange.den_degree"] = c["varcalc.euler_lagrange.den_degree"]
        out["varcalc.hamilton_form.terms"] = c["varcalc.hamilton_form.terms"]
        for part in ("legendre_chart", "regularity_report", "hdd_integrate", "hdd_residual"):
            out[f"legendre.{part}.total_s"] = total_s.get(f"legendre.{part}", 0.0)
        out["legendre.residual_columns.calls"] = calls.get("legendre.residual_columns", 0)
        out["legendre.residual_columns.total_s"] = total_s.get("legendre.residual_columns", 0.0)
        steps = calls.get(RK4_SPAN, 0)
        out["legendre.evals_per_rk4_step"] = c["rk4_evals"] / steps if steps else 0.0
        out["legendre.errors"] = self.errors["legendre"]
        for part in ("quadrature", "boundary_quadrature", "residual_grid"):
            out[f"numerics.{part}.total_s"] = total_s.get(f"numerics.{part}", 0.0)
        out["numerics.quadrature.points"] = c["numerics.quadrature.points"]
        out["numerics.residual_grid.points"] = c["numerics.residual_grid.points"]
        out["numerics.rk4_step.calls"] = steps
        points = c["numerics.quadrature.points"] + c["numerics.residual_grid.points"]
        out["numerics.evals_per_point"] = c["grid_evals"] / points if points else 0.0
        for part in ("geodesic_check", "weierstrass", "minimum_certificate",
                     "extremal_residual_via_field"):
            out[f"fields.{part}.total_s"] = total_s.get(f"fields.{part}", 0.0)
        for part in ("main", "problem_file", "command"):
            out[f"cli.{part}.total_s"] = total_s.get(f"cli.{part}", 0.0)
        out["trace.spans"] = len(self.span_start)
        # Metric names start with a letter: the _poly layer reports as "poly".
        return {k.lstrip("_"): v for k, v in out.items()}


# -- output sizes (run after the span closes) ------------------------------------

def _expr_terms(e) -> int:
    return len(e.num) + len(e.den)


def _den_degree(e) -> int:
    return max((sum(exp for _, exp in mono) for mono in e.den), default=0)


def _form_terms(obj) -> int:
    if hasattr(obj, "terms") and isinstance(obj.terms, dict):
        return len(obj.terms)
    if hasattr(obj, "contact_parts"):
        return len(obj.horizontal.terms) + sum(len(p.terms) for p in obj.contact_parts)
    return 0


def _poly_size(name):
    key = f"{name}.terms_out"

    def after(tr, result, args, kw):
        if isinstance(result, dict):
            tr.counts["_poly.terms_out"] += len(result)
            tr.counts[key] += len(result)
    return after


def _forms_size(tr, result, args, kw):
    tr.counts["forms.terms_out"] += _form_terms(result)


def _el_size(tr, result, args, kw):
    tr.counts["varcalc.euler_lagrange.terms"] += sum(_expr_terms(e) for e in result.values())
    tr.counts["varcalc.euler_lagrange.den_degree"] += max(
        (_den_degree(e) for e in result.values()), default=0)


def _hamilton_size(tr, result, args, kw):
    tr.counts["varcalc.hamilton_form.terms"] += sum(
        _expr_terms(e) for e in result.entries.values())


def _grid_points(key, domain_pos):
    def after(tr, result, args, kw):
        domain = args[domain_pos] if len(args) > domain_pos else kw["domain"]
        res = args[domain_pos + 1] if len(args) > domain_pos + 1 else kw.get("resolution")
        tr.counts[key] += math.prod(len(ax) for ax in domain.axes(res))
    return after


def _count_eval(tr):
    if tr.active(RK4_SPAN):
        tr.counts["rk4_evals"] += 1
    if any(tr.active(n) for n in GRID_SPANS):
        tr.counts["grid_evals"] += 1


AFTER = {
    "varcalc.euler_lagrange": _el_size,
    "varcalc.hamilton_form": _hamilton_size,
    "numerics.quadrature": _grid_points("numerics.quadrature.points", 1),
    "numerics.residual_grid": _grid_points("numerics.residual_grid.points", 2),
}


# -- installation ------------------------------------------------------------------

def _jetvar_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "jetvar" or name.startswith("jetvar."))]


def _rebind(modules, orig, wrapper) -> int:
    """Point every module attribute and module-level dict entry at ``wrapper``."""
    n = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                n += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = wrapper
                        n += 1
    return n


def _patch_class(tracer, cls, methods: dict, before=None) -> None:
    """Wrap methods; every class attribute bound to the same function (the
    ``__radd__ = __add__`` aliases) gets the same wrapper. ``before`` maps a
    method name to its pre-span hook."""
    before = before or {}
    wrapped = {}
    for attr, name in methods.items():
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(name, fn, before=before.get(attr))
        w = wrapped[id(fn)]
        setattr(cls, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
    for attr, raw in list(cls.__dict__.items()):
        if inspect.isfunction(raw) and id(raw) in wrapped:
            setattr(cls, attr, wrapped[id(raw)])


def install(tracer: Tracer) -> None:
    """Instrument every layer."""
    import jetvar._poly as K
    import jetvar.cli as cli
    from jetvar.forms import DiffForm
    from jetvar.symcore import Expr

    modules = _jetvar_modules()

    def rebind(name, orig, after=None, before=None):
        w = tracer.wrap(name, orig, after=after, before=before)
        if not _rebind(modules, orig, w):
            raise RuntimeError(f"nothing bound to {name}")

    for fn in POLY_FUNCS:
        rebind(f"_poly.{fn}", getattr(K, fn), after=_poly_size(f"_poly.{fn}"))

    _patch_class(tracer, Expr, EXPR_METHODS, before={"eval": _count_eval})
    rebind("symcore.parse", sys.modules["jetvar.symcore.parser"].parse_expr)

    _patch_class(tracer, DiffForm, {a: "forms.form_ops" for a in DIFFFORM_METHODS})
    for layer in ("forms", "varcalc", "legendre", "numerics", "fields"):
        mod = sys.modules[f"jetvar.{layer}"]
        for attr, obj in sorted(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            after = AFTER.get(name, _forms_size if layer == "forms" else None)
            rebind(name, obj, after=after)

    for attr, obj in sorted(vars(cli).items()):
        if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != cli.__name__:
            continue
        rebind("cli.command" if attr.startswith("cmd_") else f"cli.{attr}", obj)
    cli.ProblemFile.__init__ = tracer.wrap("cli.problem_file", cli.ProblemFile.__init__)
