"""jetvar: higher-order variational calculus on trivial fibered spaces.

Symbolic derivation of conjugate momenta, Cartan-type equivalents and
canonical equations for Lagrangians of arbitrary finite order, with numeric
verification tools: regularity and definiteness tests, canonical-equation
integration, extremal fields and excess-function minimality certificates.
"""

from .symcore import ChartContext, Expr, parse_expr

__version__ = "0.1.0"

__all__ = ["ChartContext", "Expr", "parse_expr", "__version__"]
