"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite targets well under five minutes.
"""

import json
import os
import random
import time
from fractions import Fraction

import numpy as np

from jetvar import fields as FL
from jetvar import forms as F
from jetvar import legendre as LG
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.cli import DEFAULT_TOLERANCES
from jetvar.symcore import ChartContext, Expr, base, jet, mom, parse_expr, vel
from conftest import (alternating_sum_euler_lagrange, assert_sym_equal, interval,
                      prolonged_horizontalization, random_polynomial, reconstruct,
                      run_jetvar, scalar_form)

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_euler_lagrange_oracle(corpus):
    start = time.perf_counter()
    assert len(corpus) == 20
    for prob in corpus:
        got = V.euler_lagrange(prob)
        want = alternating_sum_euler_lagrange(prob)
        for s in got:
            assert got[s] == want[s], f"mismatch for L = {prob.L}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"recursion EL == alternating-sum oracle on 20 problems "
              f"({elapsed:.2f}s)")


def test_criterion_02_lepagean_conditions(corpus):
    start = time.perf_counter()
    for prob in corpus:
        rep = V.lepagean_defect(V.poincare_cartan(prob).realize(), prob)
        assert rep.horizontal_mismatch.is_zero()
        assert not rep.contact_defect, f"defect for L = {prob.L}"
    rng = random.Random(314)
    ctx = ChartContext(2, 1, 2)
    prob = V.LagrangianProblem(
        ctx, parse_expr("1/2*(y(1;1,1)^2 + y(1;2,2)^2) + y(1;1,2)*y(1)", ctx))
    passed = 0
    for _ in range(5):
        a = random_polynomial(ctx, rng, [base(1), base(2), jet(1, ()),
                                         jet(1, (1,)), jet(1, (2,))],
                              n_terms=2, degree=1)
        g = V.GSpec({(1, 2, (1,)): a, (1, 1, (2,)): -a})
        lep = V.lepagean_from_g(prob, g)
        rep = V.lepagean_defect(lep.realize(), prob)
        assert rep.is_lepagean
        passed += 1
    elapsed = time.perf_counter() - start
    assert passed == 5 and elapsed < 30.0
    report(2, f"canonical equivalents defect-free on the corpus and 5 random "
              f"admissible free tables ({elapsed:.2f}s)")


def test_criterion_03_worked_derivations():
    ctx = ChartContext(1, 1, 2)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1,1)^2", ctx))
    P = V.momenta(prob)
    assert_sym_equal(P[mom(1, (1, 1))], parse_expr("y(1;1,1)", ctx))
    assert_sym_equal(P[mom(1, (1,))], parse_expr("-y(1;1,1,1)", ctx))
    assert_sym_equal(V.euler_lagrange(prob)[1], parse_expr("y(1;1,1,1,1)", ctx))
    c2 = ChartContext(2, 1, 1)
    lap = V.LagrangianProblem(c2, parse_expr("1/2*(y(1;1)^2 + y(1;2)^2)", c2))
    assert_sym_equal(V.euler_lagrange(lap)[1],
                     parse_expr("-(y(1;1,1) + y(1;2,2))", c2))
    report(3, "quartic momenta/EL and Laplace EL match hand oracles exactly")


def test_criterion_04_hamilton_defining_property(corpus):
    rng = random.Random(2718)
    for prob in corpus:
        ctx = prob.ctx
        lep = V.poincare_cartan(prob)
        tab = V.hamilton_form(lep)
        drho = F.ext_d(lep.realize())
        for _ in range(10):
            comps = {s: random_polynomial(
                ctx, rng, [base(i) for i in range(1, ctx.n + 1)]
                + [jet(sg, ()) for sg in range(1, ctx.m + 1)],
                n_terms=2, degree=2) for s in range(1, ctx.m + 1)}
            pro = V.prolong_vector_field(ctx, comps, 2 * ctx.r - 1)
            rhs_expr = F.horizontal_density(
                prolonged_horizontalization(F.interior_product(pro, drho)))
            point = {base(i): rng.uniform(-1, 1) for i in range(1, ctx.n + 1)}
            for y in ctx.coords(jet, range(2 * ctx.r)):
                point[y] = rng.uniform(-1, 1)
                for p in range(1, ctx.n + 1):
                    point[vel(y.sigma, y.J, p)] = rng.uniform(-1, 1)
            lhs = sum(pro[key].eval(point) * tab.entries[key].eval(point)
                      for key in tab.entries)
            assert abs(lhs - rhs_expr.eval(point)) <= 1e-9
    report(4, "canonical-form contraction identity holds to 1e-9 on 10 random "
              "field/point pairs per problem")


def test_criterion_05_canonical_equations_match_extremals():
    ctx = ChartContext(1, 1, 1)
    osc = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1)^2 - 1/2*y(1)^2", ctx))
    data = LG.legendre_chart(osc)
    traj = LG.hdd_integrate(data, {jet(1, ()): 0.0, mom(1, (1,)): 1.0},
                            0.0, 1.0, 1e-3)
    sin_err = np.max(np.abs(traj.columns[jet(1, ())] - np.sin(traj.xs)))
    cos_err = np.max(np.abs(traj.columns[mom(1, (1,))] - np.cos(traj.xs)))
    assert sin_err <= 1e-6 and cos_err <= 1e-6
    assert LG.interior_max(*LG.holonomy_residual_column(traj, osc)) <= 1e-6

    c2 = ChartContext(1, 1, 2)
    quart = V.LagrangianProblem(c2, parse_expr("1/2*y(1;1,1)^2", c2))
    data2 = LG.legendre_chart(quart)
    init = {jet(1, ()): 0.0, jet(1, (1,)): 0.0,
            mom(1, (1,)): -6.0, mom(1, (1, 1)): 0.0}
    traj2 = LG.hdd_integrate(data2, init, 0.0, 1.0, 1e-3)
    cubic_err = np.max(np.abs(traj2.columns[jet(1, ())] - traj2.xs ** 3))
    assert cubic_err <= 1e-6
    assert LG.interior_max(*LG.holonomy_residual_column(traj2, quart)) <= 1e-6
    report(5, f"oscillator (err {sin_err:.1e}) and cubic (err {cubic_err:.1e}) "
              "trajectories match closed forms; holonomy within 1e-6")


def test_criterion_06_regularity_and_definiteness():
    rng = random.Random(4242)
    pd_problems = [
        ("1/2*y(1;1,1)^2", 1, 2),
        ("1/2*(y(1;1)^2 + y(1;2)^2)", 2, 1),
    ]
    for text, n, r in pd_problems:
        ctx = ChartContext(n, 1, r)
        prob = V.LagrangianProblem(ctx, parse_expr(text, ctx))
        pt = {base(i): 0.1 * i for i in range(1, n + 1)}
        for y in ctx.coords(jet, range(r + 1)):
            pt[y] = rng.uniform(-1, 1)
        assert LG.regularity_report(prob, pt, DEFAULT_TOLERANCES["rank_rel"]).regular
    ctx = ChartContext(1, 1, 2)
    lin = V.LagrangianProblem(ctx, parse_expr("y(1;1,1)*y(1;1)", ctx))
    pt = {base(1): 0.0, jet(1, ()): 0.3, jet(1, (1,)): 0.4, jet(1, (1, 1)): 0.5}
    rep = LG.regularity_report(lin, pt, DEFAULT_TOLERANCES["rank_rel"])
    assert not rep.regular and rep.blocks[2].rank == 0

    checked = 0
    for trial in range(40):
        if checked >= 20:
            break
        n, m, r = [(2, 1, 1), (1, 2, 1), (1, 1, 2)][trial % 3]
        ctx = ChartContext(n, m, r)
        labels = [(s, A) for s in range(1, m + 1) for A in mi.tuples(n, r)]
        k = len(labels)
        raw = np.array([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        M = raw + raw.T
        L = Expr.const(ctx, 0)
        for i, (s, A) in enumerate(labels):
            for j, (nu, B) in enumerate(labels):
                if j < i or M[i, j] == 0:
                    continue
                factor = Fraction(int(M[i, j]), 2 if i == j else 1)
                L = L + Expr.coord(ctx, jet(s, A)) * Expr.coord(ctx, jet(nu, B)) * factor
        prob = V.LagrangianProblem(ctx, L)
        pt = {base(i): 0.0 for i in range(1, n + 1)}
        for y in ctx.coords(jet, range(r + 1)):
            pt[y] = rng.uniform(-1, 1)
        got, pd, _ = LG.hessian_definiteness(prob, pt,
                                             DEFAULT_TOLERANCES["definiteness_pivot"])
        assert np.allclose(got, M)
        assert pd == bool(np.all(np.linalg.eigvalsh(M.astype(float)) > 1e-12))
        checked += 1
    assert checked >= 20
    report(6, "block ranks full for definite examples, deficient for the "
              "top-linear density; definiteness matches the eigenvalue oracle "
              "on 20 instances")


def test_criterion_07_first_variation():
    ctx = ChartContext(1, 1, 1)
    osc = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1)^2 - 1/2*y(1)^2", ctx))
    gamma = {1: parse_expr("sin(x(1))", ctx)}
    fv = N.first_variation_check(osc, V.poincare_cartan(osc),
                                 {1: Expr.const(ctx, 1)}, gamma,
                                 interval(0.0, 1.0, 10 ** 4))
    diff = abs(fv.lhs - fv.rhs)
    assert diff <= 1e-4
    report(7, f"exact variation (chain rule in L) matches interior+boundary "
              f"quadrature to {diff:.1e} (<= 1e-4)")


def test_criterion_08_extremal_fields():
    ctx = ChartContext(1, 1, 1)
    prob = V.LagrangianProblem(ctx, parse_expr("1/2*y(1;1)^2", ctx))
    lep = V.poincare_cartan(prob)
    c = Fraction(1)
    w = FL.SlopeField(ctx, {jet(1, (1,)): Expr.const(ctx, c)})
    assert FL.geodesic_check(w, lep).status == "zero"
    S = FL.hj_primitive(w, lep)
    assert (F.ext_d(S) - F.pullback(lep.realize(), w.components)).is_zero()
    wd = FL.weierstrass(prob, lep, w)
    assert_sym_equal(wd.excess, parse_expr("1/2*(y(1;1) - 1)^2", ctx))
    top = w.top_subs_map()
    assert wd.excess.subs(top).is_zero()
    assert wd.excess.partial(base(1)).subs(top).is_zero()
    assert wd.excess.partial(jet(1, ())).subs(top).is_zero()
    assert wd.excess.partial(jet(1, (1,))).subs(top).is_zero()
    cjet = jet(1, (1,))
    assert wd.excess.partial(cjet).partial(cjet).subs(top) == \
        prob.L.partial(cjet).partial(cjet).subs(top)
    report(8, "constant slope field: geodesic, primitive (dS equals the "
              "pulled-back equivalent, so its integral is path independent), "
              "excess and its vanishing/Hessian identities all symbolic")


def test_criterion_09_forms_engine():
    ctx = ChartContext(2, 1, 2, max_order=3)
    rng = random.Random(5050)
    covs = [F.d_(base(1)), F.d_(base(2)), F.d_(jet(1, ())),
            F.d_(jet(1, (1,))), F.d_(jet(1, (2,))), F.d_(jet(1, (1, 2)))]
    atoms = [base(1), base(2), jet(1, ()), jet(1, (1,)), jet(1, (2,))]
    subst = {jet(1, ()): parse_expr("x(1)*x(2)", ctx),
             jet(1, (1,)): parse_expr("x(2)^2 + y(1)", ctx),
             jet(1, (1, 2)): parse_expr("y(1;2)^2 - x(1)", ctx)}
    checked = 0
    for _ in range(50):
        degree = rng.randint(0, 2)
        if degree == 0:
            a = scalar_form(ctx, random_polynomial(ctx, rng, atoms,
                                                         n_terms=3, degree=2))
        else:
            terms = []
            for _ in range(3):
                picked = tuple(rng.sample(covs, degree))
                terms.append(F.DiffForm(ctx, degree, {picked: random_polynomial(
                    ctx, rng, atoms, n_terms=2, degree=2)}))
            a = F.form_sum(terms)
        assert F.ext_d(F.ext_d(a)).is_zero()
        assert F.pullback(F.ext_d(a), subst) == F.ext_d(F.pullback(a, subst))
        if degree:
            assert reconstruct(F.contact_decompose(a)) == a
        checked += 1
    assert checked == 50

    c1 = ChartContext(1, 1, 2, max_order=4)
    rng2 = random.Random(17)
    for _ in range(5):
        gamma = {1: random_polynomial(c1, rng2, [base(1)], n_terms=3, degree=3)}
        coeff = random_polynomial(c1, rng2, [base(1), jet(1, ()), jet(1, (1,))],
                                  n_terms=3, degree=2)
        a = F.DiffForm(c1, 1, {(F.d_(jet(1, (1,))),): coeff})
        h = F.contact_decompose(a, 0)[0]
        pro = N.jet_prolong_section(c1, gamma, 3)
        lhs = F.horizontal_density(F.pullback(a, pro))
        rhs = F.horizontal_density(F.pullback(h, pro))
        for xv in (0.15, 0.4, 0.85):
            assert abs(lhs.eval({base(1): xv}) - rhs.eval({base(1): xv})) <= 1e-10
    report(9, "d^2 = 0, pullback/d commutation and contact reconstruction on "
              "50 random forms; section-pullback identity within 1e-10")


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        proc = run_jetvar(*args)
        try:
            return proc.returncode, json.loads(proc.stdout)
        except json.JSONDecodeError:
            return proc.returncode, None

    shipped = [
        ("derive", os.path.join(PROBLEMS, "harmonic_oscillator.prob")),
        ("legendre", os.path.join(PROBLEMS, "harmonic_oscillator.prob")),
        ("derive", os.path.join(PROBLEMS, "quartic_r2.prob")),
        ("derive", os.path.join(PROBLEMS, "laplace.prob")),
        ("field-check", os.path.join(PROBLEMS, "free_particle_field.prob")),
        ("excess", os.path.join(PROBLEMS, "free_particle_field.prob")),
        ("hj", os.path.join(PROBLEMS, "free_particle_field.prob")),
        ("verify-extremal", os.path.join(PROBLEMS, "harmonic_oscillator.prob")),
    ]
    for args in shipped:
        code1, data1 = run(*args)
        code2, data2 = run(*args)
        assert code1 == code2 == 0, args
        data1.pop("timing")
        data2.pop("timing")
        assert data1 == data2, args

    assert run("legendre", os.path.join(PROBLEMS, "degenerate.prob"))[0] == 3
    bad = tmp_path / "bad.prob"
    bad.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n[lagrangian]\nL = \"y(1;\"\n")
    assert run("derive", str(bad))[0] == 1
    nongeo = tmp_path / "nongeo.prob"
    nongeo.write_text("[problem]\nn = 1\nm = 1\nr = 1\n\n"
                      "[lagrangian]\nL = \"1/2*y(1;1)^2\"\n\n"
                      "[field]\ny(1;1) = \"y(1)\"\n")
    assert run("field-check", str(nongeo))[0] == 2
    report(10, "shipped reports byte-identical modulo timing; exit codes "
               "0/1/2/3 observed as documented")
