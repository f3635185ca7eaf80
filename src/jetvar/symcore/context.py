"""Chart coordinates and the interning context they live in.

Everything happens in a single global chart on the trivial bundle
R^n x R^m -> R^n. Coordinates are:

* ``x(i)``            base coordinates, 1 <= i <= n
* ``y(s;J)``          jet coordinates y^s_J, J a canonical multi-index
* ``v(s;J|p)``        first-order velocity of the jet coordinate y^s_J on
                      the once-prolonged jet space (J and p independent)
* ``P(s;J)``          conjugate momentum coordinates, 1 <= |J| <= r

A :class:`ChartContext` validates index ranges, interns every atom (chart
coordinate, elementary-function subexpression or reciprocal ``1/D``) under
a small integer id used by the polynomial kernel, and carries the order
bound for jets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import multiindex as mi
from ..errors import IndexRangeError, OrderOverflowError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
_RECIP = "recip"  # atom name of 1/D; not a function of the expression language

_KIND_ORDER = {"x": 0, "y": 1, "v": 2, "P": 3}


@dataclass(frozen=True)
class Coord:
    """A chart coordinate; ``i`` is the base index for kind "x" and the
    velocity direction for kind "v"."""

    kind: str
    i: int = 0
    sigma: int = 0
    J: tuple = ()

    def sort_key(self):
        if self.kind == "x":
            return (0, self.i)
        if self.kind == "v":
            return (_KIND_ORDER["v"], self.sigma, len(self.J), self.J, self.i)
        return (_KIND_ORDER[self.kind], self.sigma, len(self.J), self.J)

    @property
    def order(self) -> int:
        """Jet order (base coordinates count as order 0)."""
        return len(self.J)

    def text(self) -> str:
        if self.kind == "x":
            return f"x({self.i})"
        J = ",".join(str(j) for j in self.J)
        if self.kind == "y":
            return f"y({self.sigma};{J})" if J else f"y({self.sigma})"
        if self.kind == "v":
            return f"v({self.sigma};{J}|{self.i})"
        return f"P({self.sigma};{J})"

    def __repr__(self):
        return self.text()


def base(i: int) -> Coord:
    return Coord("x", i=i)


def jet(sigma: int, J=()) -> Coord:
    return Coord("y", sigma=sigma, J=mi.canon(J))


def vel(sigma: int, J, p: int) -> Coord:
    return Coord("v", i=p, sigma=sigma, J=mi.canon(J))


def mom(sigma: int, J) -> Coord:
    return Coord("P", sigma=sigma, J=mi.canon(J))


class FuncAtom:
    """An elementary function or the reciprocal ``recip`` of an expression."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg):
        self.name = name
        self.arg = arg

    def text(self) -> str:
        return f"{self.name}({self.arg})"

    def __repr__(self):
        return self.text()


class ChartContext:
    """Shared chart data: dimensions, order bound and the atom arena.

    ``max_order`` defaults to ``2r - 1`` and can only be raised
    (:meth:`ensure_max_order`); operations that would create jets above the
    current bound raise :class:`OrderOverflowError`. The intern tables only
    grow, so already-built expressions stay valid; contexts are safe to
    share between workers under CPython.
    """

    def __init__(self, n: int, m: int, r: int, max_order: int | None = None):
        if n < 1 or m < 1 or r < 1:
            raise IndexRangeError(f"need n, m, r >= 1, got n={n} m={m} r={r}")
        self.n = n
        self.m = m
        self.r = r
        self.max_order = max_order if max_order is not None else 2 * r - 1
        if self.max_order < r:
            raise IndexRangeError("max_order must be at least r")
        self._atoms: list = []            # id -> Coord | FuncAtom
        self._coord_ids: dict = {}        # Coord -> id
        self._func_ids: dict = {}         # (name, arg-sig) -> id
        self._func_coord_support: dict = {}  # FuncAtom id -> frozenset of coord ids
        self._recip_ids: set = set()      # ids of the reciprocal atoms

    # -- intern table ------------------------------------------------------

    def ensure_max_order(self, order: int) -> None:
        if order > self.max_order:
            self.max_order = order

    def _check_coord(self, c: Coord) -> None:
        if c.kind == "x":
            if not 1 <= c.i <= self.n:
                raise IndexRangeError(f"base index {c.i} outside 1..{self.n}")
            return
        if not 1 <= c.sigma <= self.m:
            raise IndexRangeError(f"fiber index {c.sigma} outside 1..{self.m}")
        for j in c.J:
            if not 1 <= j <= self.n:
                raise IndexRangeError(f"jet index {j} outside 1..{self.n}")
        if c.kind == "y":
            if len(c.J) > self.max_order:
                raise OrderOverflowError(
                    f"jet order {len(c.J)} exceeds max_order {self.max_order}")
        elif c.kind == "v":
            if not 1 <= c.i <= self.n:
                raise IndexRangeError(f"velocity direction {c.i} outside 1..{self.n}")
            if len(c.J) > 2 * self.r - 1:
                raise OrderOverflowError(
                    f"velocity of jet order {len(c.J)} exceeds {2 * self.r - 1}")
        elif c.kind == "P":
            if not 1 <= len(c.J) <= self.r:
                raise IndexRangeError(
                    f"momentum index length {len(c.J)} outside 1..{self.r}")
        else:
            raise IndexRangeError(f"unknown coordinate kind {c.kind!r}")

    def coord_id(self, c: Coord) -> int:
        aid = self._coord_ids.get(c)
        if aid is not None:
            return aid
        self._check_coord(c)
        aid = len(self._atoms)
        self._atoms.append(c)
        self._coord_ids[c] = aid
        return aid

    def func_id(self, name: str, arg) -> int:
        if name not in FUNCTIONS and name != _RECIP:
            raise IndexRangeError(f"unknown function {name!r}")
        key = (name, tuple(sorted(arg.num.items())))
        aid = self._func_ids.get(key)
        if aid is not None:
            return aid
        aid = len(self._atoms)
        self._atoms.append(FuncAtom(name, arg))
        self._func_ids[key] = aid
        self._func_coord_support[aid] = frozenset(arg.coord_support_ids())
        if name == _RECIP:
            self._recip_ids.add(aid)
        return aid

    def atom(self, aid: int):
        return self._atoms[aid]

    def is_coord(self, aid: int) -> bool:
        return isinstance(self._atoms[aid], Coord)

    def func_coord_support(self, aid: int) -> frozenset:
        return self._func_coord_support[aid]

    def atom_sort_key(self, aid: int):
        a = self._atoms[aid]
        if isinstance(a, Coord):
            return (a.sort_key(),)
        rank = len(FUNCTIONS) if a.name == _RECIP else FUNCTIONS.index(a.name)
        return ((4, rank), a.arg.sort_signature())

    # -- coordinate enumeration -------------------------------------------

    def jets(self, max_order: int | None = None, min_order: int = 0):
        """All (sigma, J) with min_order <= |J| <= max_order."""
        top = self.max_order if max_order is None else max_order
        for sigma in range(1, self.m + 1):
            for k in range(min_order, top + 1):
                for J in mi.tuples(self.n, k):
                    yield sigma, J

    def momenta_indices(self):
        for sigma in range(1, self.m + 1):
            for k in range(1, self.r + 1):
                for J in mi.tuples(self.n, k):
                    yield sigma, J
