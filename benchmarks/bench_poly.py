"""Time two symbolic workloads that stress the polynomial kernel.

Prints the best-of-N wall time of each workload, run in this process:

    python benchmarks/bench_poly.py [--repeat N]

End-to-end CLI timings and per-layer metrics come from
``python3 perfbench/run.py``.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from jetvar import multiindex as mi
from jetvar import varcalc as V
from jetvar.symcore import ChartContext, Expr, base, jet, parse_expr


def random_lagrangian(ctx, rng, n_terms, degree):
    atoms = [base(i) for i in range(1, ctx.n + 1)]
    atoms += [jet(s, J) for s in range(1, ctx.m + 1)
              for k in range(ctx.r + 1) for J in mi.tuples(ctx.n, k)]
    total = Expr.const(ctx, 0)
    for _ in range(n_terms):
        term = Expr.const(ctx, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
        for _ in range(rng.randint(1, degree)):
            term = term * Expr.coord(ctx, rng.choice(atoms))
        total = total + term
    return total


def poly_stress():
    ctx = ChartContext(2, 2, 2)
    e = parse_expr("1 + x(1) + 2*y(1) + y(2;1,2) - 3*y(1;1)*y(2)", ctx)
    acc = e ** 9
    f = parse_expr("y(1;1,1) - x(2)*y(2;2)", ctx)
    for _ in range(6):
        acc = acc * f
    return acc


def derivation_batch():
    rng = random.Random(12345)
    out = []
    for shape in [(1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3)]:
        ctx = ChartContext(*shape)
        prob = V.LagrangianProblem(ctx, random_lagrangian(ctx, rng, 5, 3))
        out.append(V.euler_lagrange(prob))
        lep = V.poincare_cartan(prob)
        V.lepagean_defect(lep.realize(), prob)
        V.hamilton_form(lep)
    return out


def best_time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3,
                    help="best-of-N timing per workload")
    args = ap.parse_args()
    workloads = {"poly_stress": poly_stress, "derivation_batch": derivation_batch}
    width = max(len(n) for n in workloads)
    for name, fn in workloads.items():
        print(f"{name:<{width}}  {best_time(fn, args.repeat):>9.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
