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
no numeric library. Larger float functions, such as the RK4 steps of
:mod:`jetvar.legendre`, are built from the same :func:`emitter` lines, each
evaluation followed by the float path's finiteness check.
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


def _nonfinite(*inputs):
    """Raise as the float path does for a non-finite value, if ``inputs`` are finite."""
    if all(math.isfinite(x) for x in inputs):
        raise EvaluationError(_OVERFLOW)


class FloatOps:
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
        params = [f"x{k}" for k in range(len(self.inputs))]
        lines: list = []
        emit = emitter(exprs[0].ctx, self.inputs, params, lines, nullable=True)
        lines.append(f"return ({', '.join(emit(exprs))},)")
        self.source, self.fn = _compile("_ev", params, lines)

    def __call__(self, *values) -> tuple:
        """Values of all expressions at one point of Python numbers."""
        xs = [None if v is None else float(v) for v in values]
        try:
            out = self.fn(FloatOps, *xs)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(_OVERFLOW) from exc
        if not all(map(math.isfinite, out)) and None not in xs:
            _nonfinite(*xs)
        return out


def emitter(ctx, inputs, sources, lines: list, tag: str = "", nullable: bool = False):
    """``emit(exprs)``: append the lines computing ``exprs`` to ``lines``, return their names.

    One emitter is one atom table: each atom is computed once, where the
    first emitted expression reaches it, and later ``emit`` calls reuse it.
    Input coordinate ``k`` is the local name ``sources[k]``. ``nullable``
    sources (an :class:`Evaluator`'s, whose callers check values) may be
    ``None`` and are checked where first read; otherwise each ``emit`` ends
    with :func:`check_line`. Names the emitter makes end in ``tag``.
    """
    source = {ctx.coord_id(c): s for c, s in zip(inputs, sources)}
    names: dict = {}
    results: list = []

    def atom(aid: int) -> str:
        name = names.get(aid)
        if name is not None:
            return name
        a = ctx.atom(aid)
        if isinstance(a, Coord):
            name = source.get(aid)
            if name is None:
                name = f"v{aid}{tag}"
                lines.append(f"{name} = _missing({a.text()!r})")
            elif nullable:
                lines.append(f"if {name} is None: _missing({a.text()!r})")
        else:
            arg = f"u{aid}{tag}"
            poly(a.arg.num, arg)
            name = f"f{aid}{tag}"
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

    def emit(exprs) -> list:
        start = len(results)
        for e in exprs:
            results.append(f"n{len(results)}{tag}")
            poly(e.num, results[-1])
        if not nullable:
            lines.append(check_line(results[start:], sources))
        return results[start:]
    return emit


def check_line(names, inputs) -> str:
    """A line raising as the float path does if a value in ``names`` is not
    finite; ``v - v`` is ``0.0`` exactly when ``v`` is finite."""
    test = " + ".join(f"({n} - {n})" for n in names)
    return f"if {test} != 0.0: _nonfinite({', '.join(inputs)})"


def compile_float(name: str, params, body, **names):
    """``def name(_m, *params)`` with ``body``, called with :class:`FloatOps` as
    ``_m`` and ``names`` as extra globals. ``OverflowError`` and ``ValueError``
    become the :class:`EvaluationError` an :class:`Evaluator` raises."""
    return _compile(name, params, [
        "try:", *(f"    {line}" for line in body),
        "except (OverflowError, ValueError) as exc:",
        "    raise _EvaluationError(_OVERFLOW) from exc"], _nonfinite=_nonfinite,
        _EvaluationError=EvaluationError, _OVERFLOW=_OVERFLOW, **names)[1]


def _compile(name: str, params, body, **names):
    """Source and function of ``def name(_m, *params)`` with ``body``."""
    source = (f"def {name}(_m{''.join(f', {p}' for p in params)}):\n"
              + "".join(f"    {line}\n" for line in body))
    namespace = {"_missing": _missing, **names}
    exec(compile(source, "<jetvar evaluator>", "exec"), namespace)
    return source, namespace[name]
