"""Shared fixtures: random problem corpus, independent oracles, test
conveniences, CLI runner."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from jetvar import forms as F
from jetvar import multiindex as mi
from jetvar import numerics as N
from jetvar import varcalc as V
from jetvar.errors import InputError
from jetvar.symcore import ChartContext, Expr, base, jet, vel


def random_polynomial(ctx, rng, atoms, n_terms=4, degree=3, allow_const=True):
    """Random polynomial with small rational coefficients in the atoms
    (coordinates or expressions)."""
    total = Expr.const(ctx, 0)
    for _ in range(n_terms):
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        term = Expr.const(ctx, coeff)
        for _ in range(rng.randint(0 if allow_const else 1, degree)):
            a = rng.choice(atoms)
            term = term * (a if isinstance(a, Expr) else Expr.coord(ctx, a))
        total = total + term
    return total


def lagrangian_atoms(ctx):
    atoms = [base(i) for i in range(1, ctx.n + 1)]
    atoms += [jet(s, J) for s in range(1, ctx.m + 1)
              for k in range(ctx.r + 1) for J in mi.tuples(ctx.n, k)]
    return atoms


def random_problem(n, m, r, seed):
    rng = random.Random(seed)
    ctx = ChartContext(n, m, r)
    L = random_polynomial(ctx, rng, lagrangian_atoms(ctx), n_terms=4, degree=3)
    return V.LagrangianProblem(ctx, L)


CORPUS_SHAPES = [
    (1, 1, 1), (1, 1, 1), (1, 1, 1),
    (1, 2, 1), (1, 2, 1),
    (2, 1, 1), (2, 1, 1), (2, 1, 1),
    (2, 2, 1), (2, 2, 1),
    (1, 1, 2), (1, 1, 2), (1, 1, 2),
    (2, 1, 2), (2, 1, 2),
    (2, 2, 2),
    (1, 1, 3), (1, 1, 3),
    (2, 1, 3),
    (2, 2, 3),
]


@pytest.fixture(scope="session")
def corpus():
    """Twenty random polynomial Lagrangian problems, n,m <= 2, r <= 3."""
    return [random_problem(n, m, r, seed=1000 + i)
            for i, (n, m, r) in enumerate(CORPUS_SHAPES)]


def regular_quadratic_problem(m, r, seed):
    """n = 1 problem, quadratic in jets with invertible top layer."""
    rng = random.Random(seed)
    ctx = ChartContext(1, m, r)
    top = (1,) * r
    L = Expr.const(ctx, 0)
    for s in range(1, m + 1):
        a = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        L = L + Expr.coord(ctx, jet(s, top)) ** 2 * (a / 2)
    lower = [jet(s, (1,) * k) for s in range(1, m + 1) for k in range(r)]
    lower += [base(1)]
    L = L + random_polynomial(ctx, rng, lower, n_terms=3, degree=2)
    return V.LagrangianProblem(ctx, L)


@pytest.fixture(scope="session")
def quadratic_corpus():
    return [regular_quadratic_problem(m, r, seed=77 + 10 * m + r)
            for m in (1, 2) for r in (1, 2)]


def alternating_sum_euler_lagrange(prob):
    """Independent oracle: sum over canonical J of (-1)^|J| d_J dL/dy^s_J."""
    ctx = prob.ctx
    ctx.ensure_max_order(2 * ctx.r)
    out = {}
    for sigma in range(1, ctx.m + 1):
        total = Expr.const(ctx, 0)
        for k in range(ctx.r + 1):
            sign = -1 if k % 2 else 1
            for J in mi.tuples(ctx.n, k):
                term = prob.L.partial(jet(sigma, J)).iterated_total_derivative(J)
                total = total + term * sign
        out[sigma] = total
    return out


def prolonged_horizontalization(a):
    """Independent oracle: horizontalization on the once-prolonged space.

    Jet differentials become velocity-weighted base differentials,
    dy^s_J -> v(s;J|l) dx^l, for forms that live on the unprolonged space
    but are evaluated against first-order prolongations.
    """
    ctx = a.ctx

    def image(cov):
        if cov.kind == "w":
            raise InputError("expand contact symbols before horizontalizing")
        c = cov.coord
        if c.kind == "x":
            return None
        if c.kind != "y":
            raise InputError(f"cannot horizontalize d{c.text()}")
        return F.DiffForm(ctx, 1, {(F.d_(base(l)),): Expr.coord(ctx, vel(c.sigma, c.J, l))
                                   for l in range(1, ctx.n + 1)})

    return F._substitute(a, image)


def reconstruct(parts):
    """Independent oracle: the form the contact parts came from.

    Each k-contact part re-expands om^s_J -> dy^s_J - y^s_{J+l} dx^l and is
    added to the horizontal part.
    """
    def expand(part):
        return F._substitute(part, lambda cov: (
            F.omega_contact(part.ctx, cov.coord.sigma, cov.coord.J)
            if cov.kind == "w" else None))

    return F.form_sum([parts[0], *map(expand, parts[1:])])


def interval(a, b, resolution=100):
    """The integration domain [a, b] of a one-dimensional base."""
    return N.IntegrationDomain((a,), (b,), resolution)


def scalar_form(ctx, e):
    """The 0-form with coefficient ``e``."""
    return F.DiffForm(ctx, 0, {(): e})


def assert_sym_equal(a, b, msg=""):
    if isinstance(b, (int, Fraction)):
        b = Expr.const(a.ctx, b)
    assert a.equal_exact(b), f"{msg}: {a} != {b}"


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def child_env():
    """The environment of a child process that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_python(*args, **env):
    """Run ``python *args`` in a child process on this checkout's package, with
    the environment variables ``env`` set."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**child_env(), **env})


def run_jetvar(*args):
    """Run ``python -m jetvar.cli`` in a child process on this checkout's package."""
    return run_python("-m", "jetvar.cli", *args)
