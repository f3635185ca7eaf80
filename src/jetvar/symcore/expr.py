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
  functions. An expression with reciprocal atoms is first evaluated modulo
  a prime at one fixed point of the context (:meth:`Expr.residue`): a
  nonzero residue proves it nonzero. Only when that cannot decide (the
  residue is 0, or a coefficient denominator or a reciprocal's argument is
  0 there) are the reciprocal atoms cleared, writing P/Q with P and Q free
  of them, and P tested;
* expressions with transcendental atoms fall back to sampled evaluation
  (:meth:`Expr.probably_equal`), reported as probable equality only.

Every derivative is one walk (:meth:`Expr._derive`): D(f) is the sum of
df/da * D(a) over the atoms a of f's gradient, D(g(u)) = g'(u) * D(u) on
function and reciprocal atoms, and callers fix D on coordinates only. The
gradient (:func:`jetvar._poly.poly_grad`) is made in one walk over the terms
and cached, so each expression is walked once however many derivatives the
momenta, Euler-Lagrange expressions and Hamilton table take. Canonical text
(:meth:`Expr.__str__`) reads each atom's text and sort key from per-atom
caches of the context, and writes the terms that share a reciprocal part
as one group, ``(N)*(D)^-k``.

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
from .context import _RECIP, RESIDUE_PRIME, ChartContext, Coord, FuncAtom, jet, vel
from .evaluator import Evaluator

_ONE = {K.ONE_MONO: (1, 1)}
_AT_ZERO = {"exp": 1, "sin": 0, "cos": 1}  # functions folded at argument 0


def _as_rat(value):
    if isinstance(value, int):
        return (value, 1)
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class Expr:
    __slots__ = ("ctx", "num", "_support", "_grad", "_compiled", "_residue")

    # Every denominator is 1: perfbench/spans.py still reads e.den in its size counters.
    den = _ONE

    def __init__(self, ctx: ChartContext, num: dict):
        self.ctx = ctx
        self.num = num
        self._support = None
        self._grad = None
        self._compiled = None
        self._residue = None

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
        if name in _AT_ZERO and not arg.num:
            return cls.const(ctx, _AT_ZERO[name])
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
        """Exact for rational functions.

        An expression free of reciprocal atoms is zero only when it has no
        terms. Otherwise a nonzero :meth:`residue` proves "nonzero"; when the
        residue is 0 the reciprocal atoms are cleared and P is tested.
        """
        if not self.num:
            return True
        recips = self.ctx._recip_ids
        if not recips or not any(a in recips for mono in self.num for a, _ in mono):
            return False
        return not self.residue() and not self._split()[0]

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

    def degrees(self, coords) -> list[int] | None:
        """The largest exponent of each of ``coords``, or None unless the
        expression is a polynomial in coordinates alone."""
        if not self.is_polynomial():
            return None
        pos = {self.ctx.coord_id(c): i for i, c in enumerate(coords)}
        out = [0] * len(coords)
        for mono in self.num:
            for aid, k in mono:
                i = pos.get(aid)
                if i is not None and k > out[i]:
                    out[i] = k
        return out

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
        return Expr(self.ctx, K.poly_sub(self.num, other.num))

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
    def sum(ctx, terms, minus=()) -> "Expr":
        """Fold ``terms`` and then the negated ``minus`` into one polynomial,
        in place: the terms and order of ``t1 + t2 + ... - m1 - m2 - ...``."""
        acc = {}
        for t in terms:
            K.poly_add_into(acc, t.num)
        for t in minus:
            K.poly_add_into(acc, t.num, True)
        return Expr(ctx, acc)

    # -- zero certificate ----------------------------------------------------

    def residue(self) -> int:
        """self modulo ``RESIDUE_PRIME`` at the context's certificate point,
        or 0 when that cannot be computed.

        Every atom takes its residue from :meth:`ChartContext.residues`.
        The residue of P/Q (:meth:`_split`) is that of P over that of Q, so
        a nonzero residue proves P != 0. A coefficient denominator that is
        0 modulo the prime, or a reciprocal atom whose argument has residue
        0, gives 0: no certificate. Cached on the expression.
        """
        r = self._residue
        if r is None:
            r = self._residue = _residue(self.ctx, self.num)
        return r

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
            K.poly_add_into(P, part)
        for aid, e in top.items():
            Q = K.poly_mul(Q, K.poly_pow(self.ctx.atom(aid).arg.num, e))
        return P, Q

    def _inverse(self) -> "Expr":
        """1/self = Q/P as Q/c times the reciprocal atom of P/c, where c is
        the coefficient of the monomial of P that prints first, so the atom
        does not depend on the order atoms were interned (a constant P
        needs no atom)."""
        P, Q = self._split()
        if not P:
            raise DivisionByZeroError("division by the zero expression")
        key = self.ctx.atom_sort_key
        n, d = P[min(P, key=lambda mono: (-K.mono_degree(mono),
                                          sorted((key(a), e) for a, e in mono)))]
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
        """Exact equality: the difference is zero by :meth:`is_zero` (a
        nonzero residue decides "unequal"; otherwise the reciprocal atoms
        are cleared).

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
        # Both sides' coordinates: one may cancel from the difference.
        ids = self.coord_support_ids() | other.coord_support_ids()
        coords = [self.ctx.atom(a) for a in sorted(ids)]
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
        """Partial derivative treating every atom as independent: :meth:`_derive`
        with c mapped to 1, through the atoms whose argument holds c."""
        cid = self.ctx.coord_id(c)
        return Expr(self.ctx, self._derive(lambda aid: _ONE if aid == cid else None, cid))

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
        """:meth:`_derive` with x(i) -> 1 and y(s;J) -> y(s;J+i) (v(s;J|i) if
        prolonged); a jet at the order bound raises if its partial is nonzero."""
        ctx = self.ctx
        if not 1 <= i <= ctx.n:
            raise InputError(f"base direction {i} outside 1..{ctx.n}")

        def image(aid):
            c = ctx.atom(aid)
            if c.kind == "x":
                return _ONE if c.i == i else None
            if c.kind != "y":
                what = ("prolonged total derivative acts on velocity-free jet functions"
                        if prolonged else "total derivative is defined for base/jet functions")
                raise InputError(f"{what} only; found {c.text()}")
            if prolonged or c.order < ctx.max_order:
                d = vel(c.sigma, c.J, i) if prolonged else jet(c.sigma, c.J + (i,))
                return K.poly_atom(ctx.coord_id(d))
            if not self.partial(c).is_zero():
                raise OrderOverflowError(
                    f"total derivative of {c.text()} needs jet order "
                    f"{c.order + 1} > max_order {ctx.max_order}")
        return Expr(ctx, self._derive(image))

    def _derive(self, image, holds=None) -> dict:
        """D(self) for the derivation D that is ``image(aid)`` on coordinates (a
        polynomial, or None for 0): df/da * D(a) summed in place over the
        cached gradient's atoms a in id order, D(g(u)) = g'(u) * D(u) on the
        function atoms whose argument holds the coordinate id ``holds`` (all if None)."""
        ctx = self.ctx
        grad = self._grad
        if grad is None:
            grad = self._grad = K.poly_grad(self.num)
        acc = {}
        for aid in sorted(grad):
            if ctx.is_coord(aid):
                d = image(aid)
                if d:
                    K.poly_add_into(acc, grad[aid] if d is _ONE else K.poly_mul(grad[aid], d))
            elif holds is None or holds in ctx.func_coord_support(aid):
                fa = ctx.atom(aid)
                d = fa.arg._derive(image, holds)
                if d:
                    chain = K.poly_mul(grad[aid], _func_derivative(ctx, aid, fa).num)
                    K.poly_add_into(acc, K.poly_mul(chain, d))
        return acc

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
        key = self.ctx.atom_sort_key
        items = []
        for mono, coeff in self.num.items():
            tm = tuple(sorted((key(a), e) for a, e in mono))
            items.append((tm, coeff))
        return tuple(sorted(items))

    def __str__(self):
        """Canonical text. The reciprocal atom of D to the power k is
        ``(D)^-k``, and the terms that share one reciprocal part print as one
        group, ``(N)*(D1)^-k1*(D2)^-k2`` with N the canonical text of their
        other factors::

            (8*y(1;1)*y(1;1,1)*v(1;|1) - 8*y(1;1)^2*y(1;1,1))*(y(1;1)^2 + 1)^-3
              + (-2*y(1;1,1) + 2*v(1;1|1))*(y(1;1)^2 + 1)^-2

        Terms are ordered by descending degree, then by their factors in
        :meth:`ChartContext.atom_sort_key` order, where reciprocal atoms
        come last. A group prints where its first term does; a group of one
        term, and every term free of reciprocals, prints as a plain term.

        The atoms are sorted once per render, with their texts read from
        the context's per-atom caches, and terms are sorted on the atoms'
        ranks; each group's reciprocal text is built once."""
        if not self.num:
            return "0"
        ctx = self.ctx
        present = {a for mono in self.num for a, _ in mono}
        atoms = sorted(present, key=ctx.atom_sort_key)
        rank = dict(zip(atoms, range(len(atoms))))
        texts = list(map(ctx.atom_text, atoms))
        first_recip = len(atoms) - len(present & ctx._recip_ids)  # reciprocals sort last
        terms = []
        for mono, coeff in self.num.items():
            deg = 0
            tm = []
            for a, e in mono:
                deg += e
                tm.append((rank[a], e))
            tm.sort()
            terms.append((-deg, tm, coeff))
        terms.sort()  # monomials differ in tm, so the coefficient never decides
        parts = []   # (sign, body) of each plain term and each group, in print order
        groups = {}  # reciprocal part -> (its index in parts, [(factor texts, coefficient)])
        for _, tm, coeff in terms:
            factors = []
            tail = []
            for r, e in tm:
                if r < first_recip:
                    factors.append(texts[r] if e == 1 else f"{texts[r]}^{e}")
                else:
                    tail.append((r, e))
            if not tail:
                parts.append(_term_text(factors, coeff))
                continue
            tail = tuple(tail)
            group = groups.get(tail)
            if group is None:
                group = groups[tail] = (len(parts), [])
                parts.append(None)  # the group prints where its first term does
            group[1].append((factors, coeff))
        for tail, (i, members) in groups.items():
            recip = "*".join([f"{texts[r]}^-{e}" for r, e in tail])
            if len(members) == 1:
                factors, coeff = members[0]
                factors.append(recip)
                parts[i] = _term_text(factors, coeff)
            else:
                inner = _join_terms([_term_text(f, c) for f, c in members])
                parts[i] = ("+", f"({inner})*{recip}")
        return _join_terms(parts)

    def __repr__(self):
        return f"Expr({self})"


def _term_text(factors, coeff):
    """``(sign, body)`` of one term: its factor texts times the coefficient."""
    cn, cd = coeff
    mag = abs(cn)
    coef = f"{mag}" if cd == 1 else f"{mag}/{cd}"
    if not factors:
        body = coef
    elif mag == 1 and cd == 1:
        body = "*".join(factors)
    else:
        body = f"{coef}*" + "*".join(factors)
    return ("-" if cn < 0 else "+"), body


def _join_terms(parts):
    """The text of a sum of ``(sign, body)`` terms."""
    sign, body = parts[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _residue(ctx, num) -> int:
    """The residue of the polynomial ``num`` (see :meth:`Expr.residue`)."""
    p = RESIDUE_PRIME
    res = ctx._residues
    if len(res) < len(ctx._atoms):  # atoms were interned since the last fill
        res = ctx.residues(max((mono[-1][0] for mono in num if mono), default=-1))
    total = 0
    fractional = {}  # coefficient denominator other than 1 -> sum of its terms
    for mono, (n, d) in num.items():
        for aid, e in mono:
            r = res[aid]
            if r is None:
                return 0
            n = n * (r if e == 1 else pow(r, e, p)) % p
        if d == 1:
            total += n
        else:
            fractional[d] = fractional.get(d, 0) + n
    for d, s in fractional.items():
        if d % p == 0:
            return 0
        total += s * pow(d, -1, p)
    return total % p


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
