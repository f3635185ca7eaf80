"""Canonical expressions over chart coordinates.

An :class:`Expr` is one canonical polynomial over interned atoms: chart
coordinates, elementary-function subexpressions (``sin``, ``cos``, ``exp``,
``ln``, ``sqrt`` of an Expr) and reciprocals ``1/D`` of polynomials ``D``
with leading coefficient 1 and no reciprocal atom. ``N/D^k`` is ``N`` times
a power of the reciprocal atom of ``D``, and derivatives raise that power
(``d(1/D) = -(1/D)^2 dD``) instead of multiplying denominators out.
Coefficients are exact rationals in the kernel's dicts (:mod:`jetvar._poly`).
Consequently:

* ``==`` is structural: it compares the stored polynomials;
* :meth:`Expr.is_zero` and :meth:`Expr.equal_exact` are exact for rational
  functions: they clear the reciprocal atoms, writing P/Q with P and Q free
  of them, and test P;
* expressions with transcendental atoms fall back to sampled evaluation
  (:meth:`Expr.probably_equal`), reported as probable equality only.

Numeric evaluation has one path: a compiled evaluator
(:class:`jetvar.symcore.evaluator.Evaluator`) built once per expression set
over an ordered list of input coordinates. It computes a shared atom table
in generated code that runs on Python floats here and on numpy arrays in
:func:`jetvar.numerics.grid`. :meth:`Expr.eval` delegates to the evaluator
of the single expression, cached on the expression; numeric callers build
evaluators for their sets and call them on positional floats or on whole
grids. Errors:

* :class:`MissingCoordinateError` when a needed coordinate has no value;
* :class:`DivisionByZeroError` when a denominator evaluates to zero;
* :class:`DomainError` for ``ln`` of a value <= 0 or ``sqrt`` of a value < 0;
* :class:`EvaluationError` when all inputs of a point are finite and a
  result is not (overflow); non-finite inputs propagate.

On a grid these are checked array-wide, and the error raised is the one a
point-by-point loop in row-major order would raise first.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .. import _poly as K
from ..errors import (DivisionByZeroError, DomainError, InputError,
                      OrderOverflowError)
from .context import _RECIP, ChartContext, Coord, FuncAtom, base, jet, vel
from .evaluator import Evaluator

_ONE = {K.ONE_MONO: (1, 1)}


def _as_rat(value):
    if isinstance(value, int):
        return (value, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class Expr:
    __slots__ = ("ctx", "num", "_support", "_compiled")

    # Every denominator is 1: perfbench/spans.py still reads e.den in its size counters.
    den = _ONE

    def __init__(self, ctx: ChartContext, num: dict):
        self.ctx = ctx
        self.num = num
        self._support = None
        self._compiled = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, ctx, value) -> "Expr":
        n, d = _as_rat(value if isinstance(value, (int, Fraction)) else Fraction(value))
        return cls(ctx, K.poly_const(n, d))

    @classmethod
    def coord(cls, ctx, c: Coord) -> "Expr":
        return cls(ctx, K.poly_atom(ctx.coord_id(c)))

    @classmethod
    def func(cls, ctx, name: str, arg: "Expr") -> "Expr":
        if name == _RECIP:
            return arg._inverse()
        if name == "ln" and arg.is_one():
            return cls.const(ctx, 0)
        if name == "sqrt" and arg.is_constant():
            q = arg.as_fraction()
            if q >= 0:
                rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
                if rn * rn == q.numerator and rd * rd == q.denominator:
                    return cls.const(ctx, Fraction(rn, rd))
        return cls(ctx, K.poly_atom(ctx.func_id(name, arg)))

    def _lift(self, other):
        if isinstance(other, Expr):
            if other.ctx is not self.ctx:
                raise InputError("expressions belong to different chart contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Expr.const(self.ctx, other)
        return NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        """Exact for rational functions (reciprocal atoms are cleared)."""
        return not self.num or (bool(self.ctx._recip_ids) and not self._split()[0])

    def is_one(self) -> bool:
        return self.num == _ONE

    def is_constant(self) -> bool:
        return K.poly_is_const(self.num)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise InputError("expression is not a constant")
        if not self.num:
            return Fraction(0)
        n, d = self.num[K.ONE_MONO]
        return Fraction(n, d)

    def is_polynomial(self) -> bool:
        """True when the expression is a polynomial in coordinates alone."""
        return all(self.ctx.is_coord(a) for a in K.poly_support(self.num))

    def has_transcendental(self) -> bool:
        """True when a function atom occurs; reciprocals of rational
        arguments count as rational."""
        for aid in K.poly_support(self.num):
            if not self.ctx.is_coord(aid):
                a = self.ctx.atom(aid)
                if a.name != _RECIP or a.arg.has_transcendental():
                    return True
        return False

    # -- support -------------------------------------------------------------

    def coord_support_ids(self) -> frozenset:
        if self._support is None:
            ids = set()
            for aid in K.poly_support(self.num):
                if self.ctx.is_coord(aid):
                    ids.add(aid)
                else:
                    ids |= self.ctx.func_coord_support(aid)
            self._support = frozenset(ids)
        return self._support

    def coords(self) -> list[Coord]:
        return [self.ctx.atom(a) for a in sorted(self.coord_support_ids())]

    def max_jet_order(self) -> int:
        orders = [c.order for c in self.coords() if c.kind == "y"]
        return max(orders, default=0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Expr(self.ctx, K.poly_add(self.num, other.num))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, K.poly_neg(self.num))

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Expr(self.ctx, K.poly_mul(self.num, other.num))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        return Expr.const(self.ctx, other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k >= 0:
            return Expr(self.ctx, K.poly_pow(self.num, k))
        return self._inverse() ** -k

    @staticmethod
    def sum(ctx, terms) -> "Expr":
        """Fold a sum of expressions into one polynomial."""
        acc = {}
        for t in terms:
            acc = K.poly_add(acc, t.num)
        return Expr(ctx, acc)

    # -- reciprocal atoms ----------------------------------------------------

    def _split(self):
        """``(P, Q)``, free of reciprocal atoms, with self = P/Q: Q is each
        reciprocal's argument to its highest exponent in self (1 if none)."""
        recips = self.ctx._recip_ids
        top = {}
        for mono in self.num:
            for aid, e in mono:
                if aid in recips and e > top.get(aid, 0):
                    top[aid] = e
        if not top:
            return self.num, _ONE
        groups = {}  # reciprocal part of a monomial -> polynomial of the rest
        for mono, c in self.num.items():
            key = tuple((a, e) for a, e in mono if a in top)
            groups.setdefault(key, {})[tuple((a, e) for a, e in mono if a not in top)] = c
        P, Q = {}, _ONE
        for key, part in groups.items():
            exps = dict(key)
            for aid, e in top.items():
                if e > exps.get(aid, 0):
                    part = K.poly_mul(part, K.poly_pow(self.ctx.atom(aid).arg.num,
                                                       e - exps.get(aid, 0)))
            P = K.poly_add(P, part)
        for aid, e in top.items():
            Q = K.poly_mul(Q, K.poly_pow(self.ctx.atom(aid).arg.num, e))
        return P, Q

    def _inverse(self) -> "Expr":
        """1/self = Q/P as Q/c times the reciprocal atom of P/c, where c is
        the leading coefficient of P (a constant P needs no atom)."""
        P, Q = self._split()
        if not P:
            raise DivisionByZeroError("division by the zero expression")
        n, d = P[max(P)]
        Q = K.poly_scale(Q, d, n)
        if K.poly_is_const(P):
            return Expr(self.ctx, Q)
        arg = Expr(self.ctx, K.poly_scale(P, d, n))
        return Expr(self.ctx, K.poly_mul(K.poly_atom(self.ctx.func_id(_RECIP, arg)), Q))

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                other = Expr.const(self.ctx, other)
            else:
                return NotImplemented
        return self.ctx is other.ctx and self.num == other.num

    __hash__ = None

    def equal_exact(self, other) -> bool:
        """Exact equality: the difference is zero once reciprocal atoms
        are cleared.

        Sound whenever both sides are defined; complete for rational
        functions of the coordinates (no trigonometric identities).
        """
        other = self._lift(other)
        return self.num == other.num or (self - other).is_zero()

    def probably_equal(self, other) -> bool:
        """Sampled equality at 8 random rational points (probabilistic).

        The points are drawn from a fixed seed, so the answer is
        deterministic; a sample differs when it exceeds 1e-9 relative to
        the larger side (at least 1).
        """
        other = self._lift(other)
        if self.equal_exact(other):
            return True
        diff = self - other
        rng = random.Random(20831)
        coords = diff.coords()
        samples = 8
        done = 0
        attempts = 0
        while done < samples:
            attempts += 1
            if attempts > 20 * samples:
                raise DomainError("could not find admissible sample points")
            point = {c: Fraction(rng.randint(1, 24), rng.randint(8, 24))
                     for c in coords}
            try:
                d = diff.eval(point)
                scale = max(abs(self.eval(point)), abs(other.eval(point)), 1.0)
            except (DivisionByZeroError, DomainError):
                continue
            if abs(d) > 1e-9 * scale:
                return False
            done += 1
        return True

    def probably_zero(self) -> bool:
        return self.is_zero() or self.probably_equal(Expr.const(self.ctx, 0))

    # -- calculus ------------------------------------------------------------

    def partial(self, c: Coord) -> "Expr":
        """Partial derivative treating every atom as independent; function
        and reciprocal atoms contribute through the chain rule."""
        ctx = self.ctx
        cid = ctx.coord_id(c)
        p = self.num
        out = Expr(ctx, K.poly_diff(p, cid))
        for aid in sorted(K.poly_support(p)):
            if ctx.is_coord(aid) or cid not in ctx.func_coord_support(aid):
                continue
            fa = ctx.atom(aid)
            chain = Expr(ctx, K.poly_diff(p, aid)) * _func_derivative(ctx, aid, fa)
            out = out + chain * fa.arg.partial(c)
        return out

    def total_derivative(self, i: int) -> "Expr":
        """Formal derivative along the i-th base direction.

        Jet coordinates are treated as functions: d_i y^s_J = y^s_{J+i}.
        Raises when the input already sits at the registered order bound.
        """
        return self._formal_derivative(i, prolonged=False)

    def iterated_total_derivative(self, J) -> "Expr":
        out = self
        for i in J:
            out = out.total_derivative(i)
        return out

    def prolonged_total_derivative(self, q: int) -> "Expr":
        """Formal derivative on the once-prolonged space.

        Every jet coordinate gets an independent velocity: the derivative of
        y^s_J in direction q is the velocity atom v(s;J|q). Velocity-dependent
        input is rejected (no second velocities exist here).
        """
        return self._formal_derivative(q, prolonged=True)

    def _formal_derivative(self, i: int, prolonged: bool) -> "Expr":
        """d/dx^i plus, per jet coordinate y^s_J, its image times the partial:
        y^s_{J+i} (total derivative) or v(s;J|i) (prolonged)."""
        ctx = self.ctx
        if not 1 <= i <= ctx.n:
            raise InputError(f"base direction {i} outside 1..{ctx.n}")
        out = self.partial(base(i))
        for c in self.coords():
            if c.kind == "x":
                continue
            if c.kind != "y":
                raise InputError(
                    ("prolonged total derivative acts on velocity-free jet functions"
                     if prolonged else
                     "total derivative is defined for base/jet functions")
                    + f" only; found {c.text()}")
            dc = self.partial(c)
            if dc.is_zero():
                continue
            if prolonged:
                image = vel(c.sigma, c.J, i)
            elif c.order + 1 > ctx.max_order:
                raise OrderOverflowError(
                    f"total derivative of {c.text()} needs jet order "
                    f"{c.order + 1} > max_order {ctx.max_order}")
            else:
                image = jet(c.sigma, c.J + (i,))
            out = out + Expr.coord(ctx, image) * dc
        return out

    # -- substitution and evaluation ------------------------------------------

    def subs(self, mapping: dict) -> "Expr":
        """Substitute expressions for coordinates (others map to themselves)."""
        ctx = self.ctx
        idmap = {}
        for c, e in mapping.items():
            if not isinstance(c, Coord):
                raise InputError("substitution keys must be coordinates")
            if not isinstance(e, Expr):
                e = Expr.const(ctx, e)
            elif e.ctx is not ctx:
                raise InputError("substitution values belong to a different context")
            idmap[ctx.coord_id(c)] = e
        if not (self.coord_support_ids() & idmap.keys()):
            return self
        terms = []
        for mono, coeff in self.num.items():
            term = Expr(ctx, K.poly_const(*coeff))
            for aid, exp in mono:
                if aid in idmap:
                    factor = idmap[aid]
                elif ctx.is_coord(aid):
                    factor = Expr(ctx, K.poly_atom(aid))
                else:
                    fa = ctx.atom(aid)
                    if ctx.func_coord_support(aid) & idmap.keys():
                        arg = fa.arg.subs({ctx.atom(k): v for k, v in idmap.items()})
                        factor = Expr.func(ctx, fa.name, arg)
                    else:
                        factor = Expr(ctx, K.poly_atom(aid))
                term = term * factor ** exp
            terms.append(term)
        return Expr.sum(ctx, terms)

    def eval(self, point: dict) -> float:
        """Evaluate at a point mapping coordinates to numbers.

        Every coordinate key of the point is interned and range-checked;
        the compiled evaluator of this expression is built on first use.
        """
        ctx = self.ctx
        for c in point:
            if isinstance(c, Coord):
                ctx.coord_id(c)
        ev = self._compiled
        if ev is None:
            ev = self._compiled = Evaluator([self], self.coords())
        return ev(*[point.get(c) for c in ev.inputs])[0]

    # -- canonical text --------------------------------------------------------

    def sort_signature(self):
        items = []
        for mono, coeff in self.num.items():
            tm = tuple(sorted((self.ctx.atom_sort_key(a), e) for a, e in mono))
            items.append((tm, coeff))
        return tuple(sorted(items))

    def __str__(self):
        """Canonical text; the reciprocal atom of D to the power k is (D)^-k."""
        if not self.num:
            return "0"
        rendered = []
        for mono, coeff in self.num.items():
            tm = tuple(sorted((self.ctx.atom_sort_key(a), e, a) for a, e in mono))
            deg = sum(e for a, e in mono)
            rendered.append((-deg, tm, coeff, mono))
        rendered.sort(key=lambda t: (t[0], t[1]))
        parts = []
        for _, tm, (cn, cd), mono in rendered:
            factors = []
            for _, exp, aid in tm:
                a = self.ctx.atom(aid)
                if isinstance(a, FuncAtom) and a.name == _RECIP:
                    factors.append(f"({a.arg})^-{exp}")
                else:
                    factors.append(a.text() if exp == 1 else f"{a.text()}^{exp}")
            mag = abs(cn)
            body = "*".join(factors)
            if not factors:
                body = f"{mag}" if cd == 1 else f"{mag}/{cd}"
            elif not (mag == 1 and cd == 1):
                coef = f"{mag}" if cd == 1 else f"{mag}/{cd}"
                body = f"{coef}*{body}"
            parts.append(("-" if cn < 0 else "+", body))
        sign, body = parts[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"Expr({self})"


def _func_derivative(ctx, aid: int, fa: FuncAtom) -> Expr:
    """Derivative of the atom with respect to its argument."""
    if fa.name == _RECIP:
        return Expr(ctx, K.poly_neg(K.poly_atom(aid, 2)))
    if fa.name == "sin":
        return Expr.func(ctx, "cos", fa.arg)
    if fa.name == "cos":
        return -Expr.func(ctx, "sin", fa.arg)
    if fa.name == "exp":
        return Expr(ctx, K.poly_atom(aid))
    if fa.name == "ln":
        return Expr.const(ctx, 1) / fa.arg
    # sqrt: 1 / (2 sqrt(u)), reusing the interned atom
    return Expr.const(ctx, 1) / (Expr.const(ctx, 2) * Expr(ctx, K.poly_atom(aid)))
