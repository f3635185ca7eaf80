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
bound for jets. It also holds the point of the exact zero certificate
(:meth:`jetvar.symcore.expr.Expr.is_zero`): one residue modulo
``RESIDUE_PRIME`` per atom, drawn from a fixed seed.

Atoms are immutable, so the context also keeps, per atom id, its canonical
text (:meth:`ChartContext.atom_text`) and sort key
(:meth:`ChartContext.atom_sort_key`), each made on first use. A reciprocal
or function atom's argument is rendered and sorted once, not again in every
term that holds the atom. These caches live as long as the context; each
CLI job builds its own.

Every family of coordinates the theory indexes (the jets of some orders,
the momenta) is enumerated by :meth:`ChartContext.coords`, in
:meth:`Coord.sort_key` order: fiber, then multi-index length, then the
multi-index itself. Tables built from one family, and the float sums taken
over them, therefore come out in the same order in every module.
"""

from __future__ import annotations

import random
import threading

from .. import multiindex as mi
from ..errors import IndexRangeError, OrderOverflowError

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
_RECIP = "recip"  # atom name of 1/D; not a function of the expression language

RESIDUE_PRIME = (1 << 61) - 1  # modulus of the zero certificate (a Mersenne prime)
_RESIDUE_SEED = 61

_KIND_ORDER = {"x": 0, "y": 1, "v": 2, "P": 3}


class Coord:
    """A chart coordinate; ``i`` is the base index for kind "x" and the
    velocity direction for kind "v".

    Immutable by convention, like :class:`jetvar.forms.Cov`: nothing assigns
    a field after construction, because the hash is computed once there."""

    __slots__ = ("kind", "i", "sigma", "J", "_hash")

    def __init__(self, kind: str, i: int = 0, sigma: int = 0, J: tuple = ()):
        self.kind = kind
        self.i = i
        self.sigma = sigma
        self.J = J
        # Interning looks coordinates up by hash: compute it once. It is made
        # of integers only, so it is the same in every process.
        self._hash = hash((_KIND_ORDER.get(kind, -1), i, sigma, J))

    def __eq__(self, other):
        if not isinstance(other, Coord):
            return NotImplemented
        return (self.kind == other.kind and self.i == other.i
                and self.sigma == other.sigma and self.J == other.J)

    def __hash__(self):
        return self._hash

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
    share between workers under CPython. The per-atom text and sort-key
    caches need no lock: threads that fill the same entry at once store
    equal values.
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
        self._sort_keys: dict = {}        # id -> atom_sort_key, made on first use
        self._texts: dict = {}            # id -> atom_text, made on first use
        self._residues: list = []         # id -> residue at the certificate point
        self._residue_rng = None          # draws the residues, made on first use
        self._residue_lock = threading.Lock()  # one thread fills _residues at a time

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

    def residues(self, top: int) -> list:
        """Atom residues modulo ``RESIDUE_PRIME`` at the certificate point,
        filled in id order through atom ``top``.

        Coordinates and function atoms are indeterminates: each draws an
        independent nonzero residue from the fixed seed. A reciprocal atom
        gets the inverse of its argument's residue (the argument only holds
        atoms of smaller id, filled before it), or None when that residue is
        0, so that no expression holding the atom gets a certificate.
        """
        res = self._residues
        if len(res) <= top:
            with self._residue_lock:
                if self._residue_rng is None:
                    self._residue_rng = random.Random(_RESIDUE_SEED)
                for aid in range(len(res), top + 1):
                    if aid in self._recip_ids:
                        r = self._atoms[aid].arg.residue()
                        res.append(pow(r, -1, RESIDUE_PRIME) if r else None)
                    else:
                        res.append(self._residue_rng.randrange(1, RESIDUE_PRIME))
        return res

    def atom_sort_key(self, aid: int):
        """Key that orders atoms in canonical text and sort signatures:
        coordinates by kind and index, then function atoms by name and
        argument. Made once per atom."""
        key = self._sort_keys.get(aid)
        if key is None:
            a = self._atoms[aid]
            if isinstance(a, Coord):
                key = (a.sort_key(),)
            else:
                rank = len(FUNCTIONS) if a.name == _RECIP else FUNCTIONS.index(a.name)
                key = ((4, rank), a.arg.sort_signature())
            self._sort_keys[aid] = key
        return key

    def atom_text(self, aid: int) -> str:
        """Canonical text of an atom: ``y(1;2)``, ``sin(...)``, or ``(D)`` for
        the reciprocal of D (rendered with a negative exponent). Made once
        per atom."""
        text = self._texts.get(aid)
        if text is None:
            a = self._atoms[aid]
            text = f"({a.arg})" if aid in self._recip_ids else a.text()
            self._texts[aid] = text
        return text

    # -- coordinate enumeration -------------------------------------------

    def coords(self, kind, orders) -> list:
        """``kind(s, K)`` for each fiber s, each length in ``orders`` and each
        canonical K of that length, in :meth:`Coord.sort_key` order."""
        return [kind(s, K) for s in range(1, self.m + 1) for k in sorted(orders)
                for K in mi.tuples(self.n, k)]
