"""Canonical expressions over chart coordinates.

An :class:`Expr` is a quotient of two canonical polynomials over interned
atoms. Atoms are chart coordinates or elementary-function subexpressions
(``sin``, ``cos``, ``exp``, ``ln``, ``sqrt`` of an Expr). Coefficients are
exact rationals, sums and products are flattened into the polynomial dicts
of the kernel (:mod:`jetvar._poly`), and the denominator is normalized to leading coefficient 1
(a constant denominator is folded away). Consequently:

* two polynomial expressions are equal iff their dicts are identical;
* quotients are compared exactly by cross-multiplication
  (:meth:`Expr.equal_exact`), with no gcd cancellation needed;
* expressions with transcendental atoms fall back to sampled evaluation
  (:meth:`Expr.probably_equal`), reported as probable equality only.

Numeric evaluation has one path: a compiled evaluator
(:class:`jetvar.symcore.evaluator.Evaluator`) built once per expression set
over an ordered list of input coordinates. It computes a shared atom table
and runs the same generated code on Python floats and on numpy arrays.
:meth:`Expr.eval` delegates to the evaluator of the single expression,
cached on the expression; numeric callers build evaluators for their sets
and call them on positional floats or on whole grids. Errors:

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
from .context import ChartContext, Coord, FuncAtom, base, jet, vel
from .evaluator import Evaluator

_ONE = {K.ONE_MONO: (1, 1)}


def _as_rat(value):
    if isinstance(value, int):
        return (value, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class Expr:
    __slots__ = ("ctx", "num", "den", "_support", "_compiled")

    def __init__(self, ctx: ChartContext, num: dict, den: dict | None = None):
        self.ctx = ctx
        if den is None or den == _ONE:
            den = _ONE
        elif not den:
            raise DivisionByZeroError("zero denominator in expression")
        elif K.poly_is_const(den):
            n, d = den[K.ONE_MONO]
            num = K.poly_scale(num, d, n)
            den = _ONE
        else:
            if not num:
                den = _ONE
            else:
                lead = den[max(den)]
                if lead != (1, 1):
                    num = K.poly_scale(num, lead[1], lead[0])
                    den = K.poly_scale(den, lead[1], lead[0])
        self.num = num
        self.den = den
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
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    def is_constant(self) -> bool:
        return K.poly_is_const(self.num) and self.den == _ONE

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise InputError("expression is not a constant")
        if not self.num:
            return Fraction(0)
        n, d = self.num[K.ONE_MONO]
        return Fraction(n, d)

    def is_polynomial(self) -> bool:
        """True when the expression is a polynomial in coordinates alone."""
        if self.den != _ONE:
            return False
        return all(self.ctx.is_coord(a) for a in K.poly_support(self.num))

    def has_transcendental(self) -> bool:
        for p in (self.num, self.den):
            for aid in K.poly_support(p):
                if not self.ctx.is_coord(aid):
                    return True
        return False

    # -- support -------------------------------------------------------------

    def coord_support_ids(self) -> frozenset:
        if self._support is None:
            ids = set()
            for p in (self.num, self.den):
                for aid in K.poly_support(p):
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

    def velocity_degree(self) -> int:
        """Largest total degree in velocity atoms over all monomials.

        Defined for expressions where velocities appear only as explicit
        polynomial atoms (not inside denominators or function arguments).
        """
        vids = set()
        for a in K.poly_support(self.num):
            if self.ctx.is_coord(a):
                if self.ctx.atom(a).kind == "v":
                    vids.add(a)
            elif any(self.ctx.atom(c).kind == "v"
                     for c in self.ctx.func_coord_support(a)):
                raise InputError("velocity atoms inside a function argument")
        if any(c.kind == "v" for c in self.coords()) and self.den != _ONE:
            raise InputError("velocity atoms in a quotient denominator")
        best = 0
        for mono in self.num:
            d = sum(e for a, e in mono if a in vids)
            best = max(best, d)
        return best

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == _ONE and other.den == _ONE:
            return Expr(self.ctx, K.poly_add(self.num, other.num))
        num = K.poly_add(K.poly_mul(self.num, other.den),
                         K.poly_mul(other.num, self.den))
        return Expr(self.ctx, num, K.poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.ctx, K.poly_neg(self.num), self.den)

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
        if self.den == _ONE and other.den == _ONE:
            return Expr(self.ctx, K.poly_mul(self.num, other.num))
        return Expr(self.ctx, K.poly_mul(self.num, other.num),
                    K.poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZeroError("division by the zero expression")
        return Expr(self.ctx, K.poly_mul(self.num, other.den),
                    K.poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return Expr.const(self.ctx, other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        if k >= 0:
            return Expr(self.ctx, K.poly_pow(self.num, k), K.poly_pow(self.den, k))
        if self.is_zero():
            raise DivisionByZeroError("zero raised to a negative power")
        return Expr(self.ctx, K.poly_pow(self.den, -k), K.poly_pow(self.num, -k))

    @staticmethod
    def sum(ctx, terms) -> "Expr":
        """Fold a sum; fast path for plain polynomial summands."""
        acc = {}
        pending = None
        for t in terms:
            if t.den == _ONE:
                acc = K.poly_add(acc, t.num)
            else:
                pending = t if pending is None else pending + t
        out = Expr(ctx, acc)
        return out if pending is None else out + pending

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                other = Expr.const(self.ctx, other)
            else:
                return NotImplemented
        return (self.ctx is other.ctx and self.num == other.num
                and self.den == other.den)

    __hash__ = None

    def equal_exact(self, other) -> bool:
        """Exact equality of quotients via cross-multiplication.

        Sound whenever both sides are defined; complete for rational
        functions of the coordinates (no trigonometric identities).
        """
        other = self._lift(other)
        if self.den == _ONE and other.den == _ONE:
            return self.num == other.num
        cross = K.poly_sub(K.poly_mul(self.num, other.den),
                           K.poly_mul(other.num, self.den))
        return not cross

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
        """Partial derivative treating every atom as independent."""
        cid = self.ctx.coord_id(c)
        dnum = self._poly_partial(self.num, cid)
        if self.den == _ONE:
            return dnum
        dden = self._poly_partial(self.den, cid)
        den_e = Expr(self.ctx, self.den)
        return (dnum * den_e - Expr(self.ctx, self.num) * dden) / (den_e * den_e)

    def _poly_partial(self, p: dict, cid: int) -> "Expr":
        ctx = self.ctx
        out = Expr(ctx, K.poly_diff(p, cid))
        for aid in sorted(K.poly_support(p)):
            if ctx.is_coord(aid) or cid not in ctx.func_coord_support(aid):
                continue
            fa = ctx.atom(aid)
            chain = Expr(ctx, K.poly_diff(p, aid)) * _func_derivative(ctx, aid, fa)
            out = out + chain * fa.arg.partial(ctx.atom(cid))
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
        num = self._poly_subs(self.num, idmap)
        if self.den == _ONE:
            return num
        den = self._poly_subs(self.den, idmap)
        return num / den

    def _poly_subs(self, p: dict, idmap: dict) -> "Expr":
        ctx = self.ctx
        terms = []
        for mono, coeff in p.items():
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
        def poly_sig(p):
            items = []
            for mono, coeff in p.items():
                tm = tuple(sorted((self.ctx.atom_sort_key(a), e) for a, e in mono))
                items.append((tm, coeff))
            return tuple(sorted(items))
        return (poly_sig(self.num), poly_sig(self.den))

    def _poly_text(self, p: dict) -> str:
        if not p:
            return "0"
        rendered = []
        for mono, coeff in p.items():
            tm = tuple(sorted((self.ctx.atom_sort_key(a), e, a) for a, e in mono))
            deg = sum(e for a, e in mono)
            rendered.append((-deg, tm, coeff, mono))
        rendered.sort(key=lambda t: (t[0], t[1]))
        parts = []
        for _, tm, (cn, cd), mono in rendered:
            factors = []
            for _, exp, aid in tm:
                a = self.ctx.atom(aid)
                t = a.text() if isinstance(a, Coord) else f"{a.name}({a.arg})"
                factors.append(t if exp == 1 else f"{t}^{exp}")
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

    def __str__(self):
        if self.den == _ONE:
            return self._poly_text(self.num)
        return f"({self._poly_text(self.num)})/({self._poly_text(self.den)})"

    def __repr__(self):
        return f"Expr({self})"


def _func_derivative(ctx, aid: int, fa: FuncAtom) -> Expr:
    """Derivative of the atom with respect to its argument."""
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
