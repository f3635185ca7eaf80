"""Time the polynomial kernel, quotient derivations and numeric evaluation.

Two symbolic workloads stress the polynomial kernel; ``rational_derive``
runs the derive pipeline (Euler-Lagrange, canonical equivalent, its defect,
Hamilton table) on the quotient densities ``y(1;1,1)^2/(1+y(1;1)^2)^2``
(r = 2) and ``(y(1;1,1)+y(1;2,2))^2/(1+y(1;1)^2+y(1;2)^2)`` (n = 2). Three
numeric workloads run generated float code at many points (the problem and
chart setup is done once, outside the timed region):

* ``laplace_action_201``: trapezoid quadrature of the Laplace action
  integrand along a varied section, as in ``first-variation``, on a 201^2
  grid;
* ``ho_hdd_integrate``: RK4 on the harmonic oscillator's canonical
  equations over [0, 1] at step 2.5e-4 (4000 steps), with recovery of y';
* ``newton_hdd_integrate``: RK4 on the anharmonic density
  ``1/2*y(1;1)^2 + 1/12*y(1;1)^4 - 1/2*y(1)^2`` over [0, 1] at step
  1.25e-3 (800 steps); its momentum relation has no closed-form inverse,
  so every stage and every sample recovers y' by a Newton solve (the
  momenta and the generated solver are built inside ``hdd_integrate``, so
  they are timed).

Prints the best-of-N wall time of each workload:

    python benchmarks/bench_poly.py [--repeat N]

End-to-end CLI timings and per-layer metrics come from
``python3 perfbench/run.py``.
"""

import argparse
import random
import sys
import time
from fractions import Fraction

from jetvar import legendre as LG
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.symcore import ChartContext, Expr, base, jet, mom, parse_expr


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


def derive_pipeline(prob):
    """What ``jetvar derive`` computes: EL, canonical equivalent, defect,
    Hamilton table."""
    el = V.euler_lagrange(prob)
    lep = V.poincare_cartan(prob)
    V.lepagean_defect(lep.realize(), prob)
    V.hamilton_form(lep)
    return el


def derivation_batch():
    rng = random.Random(12345)
    out = []
    for shape in [(1, 1, 2), (2, 1, 2), (2, 2, 2), (1, 1, 3), (2, 1, 3), (2, 2, 3)]:
        ctx = ChartContext(*shape)
        out.append(derive_pipeline(V.LagrangianProblem(ctx, random_lagrangian(ctx, rng, 5, 3))))
    return out


def rational_derive():
    out = []
    for n, text in ((1, "y(1;1,1)^2/(1+y(1;1)^2)^2"),
                    (2, "(y(1;1,1)+y(1;2,2))^2/(1+y(1;1)^2+y(1;2)^2)")):
        ctx = ChartContext(n, 1, 2)
        out.append(derive_pipeline(V.LagrangianProblem(ctx, parse_expr(text, ctx))))
    return out


def laplace_action_201():
    ctx = ChartContext(2, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*(y(1;1)^2 + y(1;2)^2)", ctx))
    varied = parse_expr("x(1)^2 - x(2)^2 + 1/100000*(1/2 + x(1)*x(2))", ctx)
    pro = N.jet_prolong_section(N.Section.of_base(ctx, {1: varied}), 1)
    integrand = prob.L.subs(pro.subs_map())
    domain = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    return lambda: N.quadrature(integrand, domain)


def ho_hdd_integrate():
    ctx = ChartContext(1, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1)^2 - 1/2*y(1)^2", ctx))
    chart = LG.legendre_chart(prob)
    init = {jet(1): 0.0, mom(1, (1,)): 1.0}
    return lambda: LG.hdd_integrate(chart, init, 0.0, 1.0, 2.5e-4)


def newton_hdd_integrate():
    ctx = ChartContext(1, 1, 1)
    prob = V.LagrangianProblem(
        ctx, parse_expr("1/2*y(1;1)^2 + 1/12*y(1;1)^4 - 1/2*y(1)^2", ctx))
    init = {jet(1): 0.0, mom(1, (1,)): 1.0}
    return lambda: LG.hdd_integrate(prob, init, 0.0, 1.0, 1.25e-3)


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
    workloads = {"poly_stress": poly_stress, "derivation_batch": derivation_batch,
                 "rational_derive": rational_derive,
                 "laplace_action_201": laplace_action_201(),
                 "ho_hdd_integrate": ho_hdd_integrate(),
                 "newton_hdd_integrate": newton_hdd_integrate()}
    width = max(len(n) for n in workloads)
    for name, fn in workloads.items():
        print(f"{name:<{width}}  {best_time(fn, args.repeat):>9.4f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
