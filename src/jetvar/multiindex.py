"""Symmetric multi-index bookkeeping.

A multi-index is a nondecreasing tuple of base indices (each in 1..n). It is
the canonical representative of a symmetric derivative slot: appending an
index always goes through :func:`merge`, which re-sorts, so every tuple that
reaches the rest of the code is canonical.
"""

from __future__ import annotations

import itertools
from math import factorial

MultiIndex = tuple  # nondecreasing tuple of ints >= 1


def canon(entries) -> MultiIndex:
    """Sort ``entries`` into the canonical nondecreasing representative."""
    return tuple(sorted(entries))


def merge(J: MultiIndex, *extra: int) -> MultiIndex:
    """Append indices to ``J`` and re-sort (the only concatenation)."""
    return tuple(sorted(J + extra))


def count(J: MultiIndex) -> int:
    """Number of distinct rearrangements of ``J`` (multinomial weight).

    This is the weight that converts sums over ordered index tuples into sums
    over canonical multi-indices; the empty index counts 1.
    """
    c = factorial(len(J))
    denom = 1
    i = 0
    while i < len(J):
        j = i
        while j < len(J) and J[j] == J[i]:
            j += 1
        denom *= factorial(j - i)
        i = j
    return c // denom


def tuples(n: int, k: int):
    """All canonical multi-indices of length ``k`` over 1..n."""
    return itertools.combinations_with_replacement(range(1, n + 1), k)


def parent_pairs(K: MultiIndex):
    """Distinct pairs ``(J, i)`` with ``merge(J, i) == K``, ``i`` increasing.

    Summing ``count(J)`` over these pairs gives ``count(K)``.
    """
    for i in sorted(set(K)):
        at = K.index(i)
        yield K[:at] + K[at + 1:], i
