"""Compiled numeric evaluation of expression sets on floats.

An :class:`Evaluator` turns a list of expressions and an ordered list of
input coordinates into one generated Python function. The function walks a
single atom table shared by the whole set: every coordinate and every
``sin``/``cos``/``exp``/``ln``/``sqrt`` or reciprocal (``1.0/D``, behind a
zero-denominator check) atom, nested ones included, is computed once per
call, where the expression-by-expression walk first reaches it. Each
monomial is ``cn/cd`` times its atom powers in monomial order, and each
polynomial is ``0.0`` plus its monomials in dict order, so results on floats
are bit-identical to that walk.

The generated function :attr:`Evaluator.fn` takes its math namespace as
first argument. Calling the evaluator runs it on Python floats with the
``math`` functions and checks that raise at once; the array path over the
same function lives in :func:`jetvar.numerics.grid`, so this module needs
no numeric library.
"""

from __future__ import annotations

import math

from ..errors import (DivisionByZeroError, DomainError, EvaluationError,
                      MissingCoordinateError)
from .context import _RECIP, Coord

_CHUNK = 64  # summands per generated line; keeps the compiler's nesting shallow
_OVERFLOW = "evaluation overflowed to a non-finite value"


def _missing(text: str):
    raise MissingCoordinateError(f"no value for coordinate {text}")


class _FloatOps:
    """Float namespace of the generated code: checks raise immediately."""

    sin = math.sin
    cos = math.cos
    exp = math.exp
    log = math.log
    sqrt = math.sqrt

    @staticmethod
    def recip_arg(v):
        if v == 0:
            raise DivisionByZeroError("denominator evaluated to zero")

    @staticmethod
    def ln_arg(v):
        if v <= 0:
            raise DomainError(f"ln of non-positive value {v}")

    @staticmethod
    def sqrt_arg(v):
        if v < 0:
            raise DomainError(f"sqrt of negative value {v}")


class Evaluator:
    """Evaluate ``exprs`` at values of ``inputs``, given positionally.

    Input coordinates are interned in ``ctx`` in the given order. A
    coordinate in the support of an expression but not among the inputs
    (or passed as ``None`` to the float path) raises
    :class:`MissingCoordinateError` where the walk first needs it.
    """

    __slots__ = ("inputs", "source", "fn")

    def __init__(self, exprs, inputs):
        exprs = list(exprs)
        self.inputs = tuple(inputs)
        if not exprs:
            self.source = ""
            self.fn = lambda _m, *xs: ()
            return
        self.source = _generate(exprs[0].ctx, exprs, self.inputs)
        namespace = {"_missing": _missing}
        exec(compile(self.source, "<jetvar evaluator>", "exec"), namespace)
        self.fn = namespace["_ev"]

    def __call__(self, *values) -> tuple:
        """Values of all expressions at one point of Python numbers."""
        xs = [None if v is None else float(v) for v in values]
        try:
            out = self.fn(_FloatOps, *xs)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(_OVERFLOW) from exc
        for v in out:
            if not math.isfinite(v):
                if all(x is not None and math.isfinite(x) for x in xs):
                    raise EvaluationError(_OVERFLOW)
                break
        return out


def _generate(ctx, exprs, inputs) -> str:
    """Source of ``_ev(_m, x0, x1, ...)`` returning a tuple of values."""
    slot = {ctx.coord_id(c): k for k, c in enumerate(inputs)}
    names: dict = {}
    lines: list = []

    def atom(aid: int) -> str:
        name = names.get(aid)
        if name is not None:
            return name
        a = ctx.atom(aid)
        if isinstance(a, Coord):
            k = slot.get(aid)
            if k is None:
                name = f"v{aid}"
                lines.append(f"{name} = _missing({a.text()!r})")
            else:
                name = f"x{k}"
                lines.append(f"if {name} is None: _missing({a.text()!r})")
        else:
            arg = f"u{aid}"
            poly(a.arg.num, arg)
            name = f"f{aid}"
            if a.name in ("ln", "sqrt", _RECIP):
                lines.append(f"_m.{a.name}_arg({arg})")
            op = {"ln": "_m.log", _RECIP: "1.0 / "}.get(a.name, f"_m.{a.name}")
            lines.append(f"{name} = {op}({arg})")
        names[aid] = name
        return name

    def poly(p: dict, target: str) -> None:
        terms = []
        for mono, (cn, cd) in p.items():
            try:
                c = cn / cd
            except OverflowError as exc:
                raise EvaluationError(_OVERFLOW) from exc
            factors = [atom(aid) if e == 1 else f"{atom(aid)}**{e}" for aid, e in mono]
            if c != 1.0 or not factors:
                factors.insert(0, f"({c!r})" if c < 0 else repr(c))
            terms.append("*".join(factors))
        if not terms:
            lines.append(f"{target} = 0.0")
        for start in range(0, len(terms), _CHUNK):
            head = "0.0" if start == 0 else target
            lines.append(f"{target} = {head} + " + " + ".join(terms[start:start + _CHUNK]))

    results = []
    for i, e in enumerate(exprs):
        poly(e.num, f"n{i}")
        results.append(f"n{i}")
    params = "".join(f", x{k}" for k in range(len(inputs)))
    body = "\n".join(f"    {line}" for line in lines)
    return f"def _ev(_m{params}):\n{body}\n    return ({', '.join(results)},)\n"
