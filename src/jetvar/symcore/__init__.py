"""Exact symbolic expressions over jet-space coordinates."""

from .context import (FUNCTIONS, ChartContext, Coord, FuncAtom, base, jet,
                      mom, vel)
from .expr import Expr
from .parser import parse_expr

__all__ = [
    "ChartContext", "Coord", "FuncAtom", "Expr", "FUNCTIONS",
    "base", "jet", "vel", "mom",
    "parse_expr",
]
