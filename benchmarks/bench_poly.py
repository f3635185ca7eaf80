"""Time the polynomial kernel, quotient derivations and numeric evaluation.

Two symbolic workloads stress the polynomial kernel; ``rational_derive``
runs the derive pipeline (Euler-Lagrange, canonical equivalent, its defect,
Hamilton table) on the quotient densities ``y(1;1,1)^2/(1+y(1;1)^2)^2``
(r = 2) and ``(y(1;1,1)+y(1;2,2))^2/(1+y(1;1)^2+y(1;2)^2)`` (n = 2), and
``quotient_stress`` runs it on the n = 2, r = 3 quotient
``(y(1;1,1,1)+y(1;2,2,2))^2/(1+y(1;1)^2+y(1;2)^2)``, where exact zero tests
on large quotient expressions dominate. ``quotient_report`` is what
``jetvar derive`` does on the n = 3, r = 3 quotient
``(y(1;1,1,1)+y(1;2,2,2)+y(1;3,3,3))^2/(1+y(1;1)^2+y(1;2)^2+y(1;3)^2)``: the
same pipeline plus the momenta, then the canonical text of every expression
the report prints (the extended density, which the Hamilton table is built
from, is not printed). ``defect_stress`` is the check
of the canonical equivalent of that quotient alone: ``realize`` and
``lepagean_defect`` (the equivalent's coefficients are computed once,
outside the timed region). Five numeric workloads run generated float
code or exact quadrature (the problem and chart setup is done once, outside
the timed region, except in ``laplace_first_variation_201``):

* ``laplace_action_201``: quadrature of the Laplace action integrand along
  a section, as in ``verify-extremal``, on a domain of resolution 201. The
  integrand is a quadratic polynomial, so it is integrated in closed form,
  with no generated code and no grid;
* ``laplace_first_variation_201``: what ``jetvar first-variation`` computes
  for a harmonic section of the Laplace density and a quadratic variation
  on a domain of resolution 201: the canonical equivalent, the left-side
  integrand, the interior and boundary terms (symbolic setup included) and
  their quadratures, each polynomial and so in closed form;
* ``ho_action_13000``: quadrature of the harmonic oscillator's action
  integrand along ``sin(x(1))`` on [0, 1] at resolution 13,000. The
  integrand is transcendental, so it takes 2,600 panels of the 5-point
  Gauss-Legendre rule: 13,000 nodes of generated array code;
* ``ho_hdd_integrate``: RK4 on the harmonic oscillator's canonical
  equations over [0, 1] at step 2.5e-4 (4000 steps), with recovery of y';
* ``newton_hdd_integrate``: RK4 on the anharmonic density
  ``1/2*y(1;1)^2 + 1/12*y(1;1)^4 - 1/2*y(1)^2`` over [0, 1] at step
  1.25e-3 (800 steps); its momentum relation has no closed-form inverse,
  so every stage recovers y' by a Newton solve, each sample takes the one
  of the stage at it, and the last sample has its own (the momenta and the
  generated solver are built inside ``hdd_integrate``, so they are timed).

The last two rows are start-up: ``import jetvar.cli`` in fresh interpreters
on a temporary copy of the package this script imports, timed inside each
child by the snippet that ``perfbench/run.py`` times for ``setup_s``.
``cli_import_source`` runs with ``PYTHONDONTWRITEBYTECODE=1`` and no bytecode
for the copy, so every import compiles the package's source, as in the fresh
checkouts that ``setup_s`` is measured on; ``cli_import_cached`` reads the
copy's bytecode, written by one untimed import. Neither row depends on the
caller's ``PYTHONDONTWRITEBYTECODE`` or ``PYTHONPYCACHEPREFIX``, and neither
writes into the package.

Prints the best-of-N wall time of each workload in milliseconds, and for
``quotient_report`` also the number of characters of text it renders:

    python benchmarks/bench_poly.py [--repeat N]

End-to-end CLI timings and per-layer metrics come from
``python3 perfbench/run.py``.
"""

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import jetvar
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


def quotient_stress():
    ctx = ChartContext(2, 1, 3)
    L = parse_expr("(y(1;1,1,1)+y(1;2,2,2))^2/(1+y(1;1)^2+y(1;2)^2)", ctx)
    return derive_pipeline(V.LagrangianProblem(ctx, L))


def by_coord(table):
    """The entries of a coordinate-keyed table in report order."""
    return [e for _, e in sorted(table.items(), key=lambda kv: kv[0].sort_key())]


N3R3_QUOTIENT = "(y(1;1,1,1)+y(1;2,2,2)+y(1;3,3,3))^2/(1+y(1;1)^2+y(1;2)^2+y(1;3)^2)"


def quotient_report():
    ctx = ChartContext(3, 1, 3)
    prob = V.LagrangianProblem(ctx, parse_expr(N3R3_QUOTIENT, ctx))
    exprs = list(by_coord(V.momenta(prob)))
    exprs += V.euler_lagrange(prob).values()
    lep = V.poincare_cartan(prob)
    exprs += [e for e in by_coord(lep.f) if not e.is_zero()]
    defect = V.lepagean_defect(lep.realize(), prob)
    exprs += [defect.horizontal_mismatch, *defect.contact_defect.values()]
    exprs += by_coord(V.hamilton_form(lep).entries)
    return [str(e) for e in exprs]


def defect_stress():
    ctx = ChartContext(3, 1, 3)
    prob = V.LagrangianProblem(ctx, parse_expr(N3R3_QUOTIENT, ctx))
    f = V.poincare_cartan(prob).f
    return lambda: V.lepagean_defect(V.LepageanForm(prob, f).realize(), prob)


def laplace_action_201():
    ctx = ChartContext(2, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*(y(1;1)^2 + y(1;2)^2)", ctx))
    varied = parse_expr("x(1)^2 - x(2)^2 + 1/100000*(1/2 + x(1)*x(2))", ctx)
    integrand = prob.L.subs(N.jet_prolong_section(ctx, {1: varied}, 1))
    domain = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    return lambda: N.quadrature(integrand, domain)


def laplace_first_variation_201():
    ctx = ChartContext(2, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*(y(1;1)^2 + y(1;2)^2)", ctx))
    gamma = {1: parse_expr("2/3*(x(1)^2 - x(2)^2) + 1/3*x(1)*x(2)", ctx)}
    xi = {1: parse_expr("3/4*(x(1)^2 - x(2)^2)", ctx)}
    domain = N.IntegrationDomain((0.0, 0.0), (1.0, 1.0), 201)
    return lambda: N.first_variation_check(prob, V.poincare_cartan(prob), xi,
                                           gamma, domain)


def ho_action_13000():
    ctx = ChartContext(1, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1)^2 - 1/2*y(1)^2", ctx))
    integrand = prob.L.subs(N.jet_prolong_section(ctx, {1: parse_expr("sin(x(1))", ctx)}, 1))
    domain = N.IntegrationDomain((0.0,), (1.0,), 13000)
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


# perfbench/run.py's setup_s snippet: argv[1] is the directory holding jetvar
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                  "import jetvar.cli; print(repr(time.perf_counter() - t))")


def cli_import(repeat):
    """Best of ``repeat`` times of ``import jetvar.cli`` from source and from
    cached bytecode, each measured inside a fresh interpreter on a temporary
    copy of the package this script imported."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    with tempfile.TemporaryDirectory() as src:
        shutil.copytree(os.path.dirname(os.path.abspath(jetvar.__file__)),
                        os.path.join(src, "jetvar"),
                        ignore=shutil.ignore_patterns("__pycache__"))

        def seconds(**extra):
            return float(subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, src],
                                        env={**env, **extra}, capture_output=True,
                                        text=True, check=True).stdout)

        source = min(seconds(PYTHONDONTWRITEBYTECODE="1") for _ in range(repeat))
        seconds()  # writes the copy's bytecode
        return source, min(seconds() for _ in range(repeat))


def best_time(fn, repeat):
    """Best wall time of ``repeat`` calls, and what the last call returned."""
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3,
                    help="best-of-N timing per workload")
    args = ap.parse_args()
    workloads = {"poly_stress": poly_stress, "derivation_batch": derivation_batch,
                 "rational_derive": rational_derive, "quotient_stress": quotient_stress,
                 "quotient_report": quotient_report, "defect_stress": defect_stress(),
                 "laplace_action_201": laplace_action_201(),
                 "laplace_first_variation_201": laplace_first_variation_201(),
                 "ho_action_13000": ho_action_13000(),
                 "ho_hdd_integrate": ho_hdd_integrate(),
                 "newton_hdd_integrate": newton_hdd_integrate()}
    width = max(len(n) for n in workloads)
    for name, fn in workloads.items():
        best, out = best_time(fn, args.repeat)
        size = f"  {sum(map(len, out)):>9} chars" if name == "quotient_report" else ""
        print(f"{name:<{width}}  {best * 1e3:>10.3f} ms{size}")
    for name, best in zip(("cli_import_source", "cli_import_cached"), cli_import(args.repeat)):
        print(f"{name:<{width}}  {best * 1e3:>10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
