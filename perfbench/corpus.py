"""Seeded problem generator for the three workloads.

``build(workload, seed, root)`` writes ``.prob``/``.init``/``.at`` files under
``root`` and returns the job list. A job is one CLI invocation plus what the
correctness oracle needs to know about it: the exit code the mathematics
predicts and the closed-form quantities to compare the report against. The
generator uses only the standard library, so the program under test sees
nothing but the files.

Every number the program sees comes from ``random.Random`` seeded with the
workload seed, so the same seed always gives byte-identical files and jobs.
A job's cost depends on the structure of its input (which jets occur, in
which quotient), so the structure of each slot is fixed (a template, or a
draw from a fixed stream) and the seed draws coefficients and amplitudes;
that keeps the cost of one pass steady from seed to seed.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

WORKLOADS = ("derive_poly", "derive_rational", "verify_numeric")

# Shipped polynomial problems, verbatim from the repository's problems/
# directory, so the benchmark input does not change when those files do.
SHIPPED = {
    "harmonic_oscillator": (1, 1, 1, "1/2*y(1;1)^2 - 1/2*y(1)^2",
                            '[gamma]\ny(1) = "sin(x(1))"\n\n[delta]\ny(1) = "sin(x(1))"\n'
                            'P(1;1) = "cos(x(1))"\n\n[variation]\ny(1) = "1"\n\n'
                            "[domain]\nlower = 0\nupper = 1\nresolution = 10000\n"),
    "free_particle_field": (1, 1, 1, "1/2*y(1;1)^2",
                            '[field]\ny(1;1) = "1"\n\n[gamma]\ny(1) = "x(1)"\n\n'
                            "[domain]\nlower = 0\nupper = 1\nresolution = 1000\n"),
    "g_family_r2": (2, 1, 2, "1/2*(y(1;1,1)^2 + y(1;2,2)^2) + y(1;1,2)*y(1)",
                    '[g]\ng(1;2|1) = "y(1)"\ng(1;1|2) = "-y(1)"\n'),
    "laplace": (2, 1, 1, "1/2*(y(1;1)^2 + y(1;2)^2)",
                '[gamma]\ny(1) = "x(1)^2 - x(2)^2"\n\n'
                "[domain]\nlower = 0, 0\nupper = 1, 1\nresolution = 60\n"),
    "quartic_r2": (1, 1, 2, "1/2*y(1;1,1)^2",
                   '[gamma]\ny(1) = "x(1)^3"\n\n[delta]\ny(1) = "x(1)^3"\n'
                   'y(1;1) = "3*x(1)^2"\nP(1;1) = "-6"\nP(1;1,1) = "6*x(1)"\n\n'
                   "[domain]\nlower = 0\nupper = 1\nresolution = 1000\n"),
    "indefinite": (2, 1, 1, "1/2*(y(1;1)^2 - y(1;2)^2)", ""),
    "degenerate": (1, 1, 1, "y(1;1)", ""),
}

# Named densities of derive_rational, verbatim. Why each is here:
NAMED_RATIONAL = {
    # ROADMAP baseline: r=2 quotient whose EL swells to 355/121 terms over a
    # degree-240 denominator (reduced form: 7 terms over (1+y(1;1)^2)^4).
    "r2_quotient": (1, 1, 2, "y(1;1,1)^2/(1+y(1;1)^2)^2"),
    # ROADMAP's transcendental case: the same shape through a sqrt atom.
    "r2_sqrt": (1, 1, 2, "y(1;1,1)^2*sqrt(1+y(1;1)^2)^-5"),
    # Minimal-surface area density: n=2, a transcendental atom over two jets.
    "minimal_surface": (2, 1, 1, "sqrt(1+y(1;1)^2+y(1;2)^2)"),
    # The r2 quotient with k=1: the same swell, a quarter of the cost.
    "r2_quotient_k1": (1, 1, 2, "y(1;1,1)^2/(1+y(1;1)^2)"),
}

# ROADMAP's n=2 analogue: did not finish in 10 min at the baseline, so it
# runs once per derive_rational run under the job time limit, outside the
# timed loop (see run.py).
LIMIT_PROBE = ("roadmap_n2", (2, 1, 2, "(y(1;1,1)+y(1;2,2))^2/(1+y(1;1)^2+y(1;2)^2)"))

# derive_poly shapes (n, m, r): n, m <= 3 and r <= 4, restricted to the
# combinations whose derive stays within a few tens of milliseconds.
POLY_SHAPES = [
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4),
    (1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 2, 4),
    (1, 3, 1), (1, 3, 2), (1, 3, 3),
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1),
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 3, 1),
]
POLY_REPS = 4
POLY_TERMS = 6
POLY_DEGREE = 4

# derive_rational quotient templates N/D^k and draws per pass: the structure
# is fixed, the seed draws the coefficients {a}, {b}, {c}. They span r = 1, 2;
# k = 1, 2, 3; denominators in order-0 and order-1 jets; m = 2 and n = 2. The
# r=1, k=2 template is the workload's median job: with ten draws per pass the
# median stays inside one template whatever the number of passes.
QUOTIENT_TEMPLATES = [
    (1, 1, 1, "({a}*y(1;1)^2 + {b}*y(1)^2 + {c}*x(1)*y(1))/(1+y(1)^2)", 4),
    (1, 1, 1, "({a}*y(1;1)^2 + {b}*y(1)*y(1;1) + {c})/(1+y(1;1)^2)^2", 10),
    (1, 1, 1, "({a}*y(1;1) + {b}*x(1)*y(1))/(1+y(1;1)^2)^3", 4),
    (1, 2, 1, "({a}*y(1;1)^2 + {b}*y(2;1)^2 + {c}*y(1)*y(2))/(1+y(1)^2)", 4),
    (2, 1, 1, "({a}*y(1;1)^2 + {b}*y(1;2)^2 + {c}*y(1))/(1+y(1)^2)^2", 4),
    (1, 1, 2, "({a}*y(1;1,1) + {b}*y(1;1)*y(1) + {c}*x(1))/(1+y(1;1)^2)", 4),
    (1, 1, 2, "({a}*y(1;1,1)^2 + {b}*y(1)^2)/(1+y(1)^2)", 4),
]

# Transcendental potentials: exp/sin/cos/ln atoms on polynomial kinetic terms,
# two draws each.
TRANSCENDENTAL_TEMPLATES = [
    (1, 1, 1, "1/2*y(1;1)^2 - {a}*exp({b}*y(1))", 2),
    (1, 1, 1, "1/2*y(1;1)^2 + {a}*sin({b}*y(1))", 2),
    (2, 1, 1, "1/2*(y(1;1)^2 - y(1;2)^2) + {a}*cos(y(1))", 2),
    (1, 2, 1, "1/2*(y(1;1)^2 + y(2;1)^2) + {a}*exp(y(1) - y(2))", 2),
    (1, 1, 2, "1/2*y(1;1,1)^2 + {a}*sin(y(1;1))", 2),
    (1, 1, 1, "exp({a}*x(1))*y(1;1)^2/(1+y(1)^2)", 2),
    (1, 1, 1, "1/2*y(1;1)^2 + {a}*ln(1+y(1)^2)", 2),
]

# verify_numeric: jobs per pass on the Newton path and on the n=2 grid. With
# the HO step and resolution below, the HO hdd-solve, the HO variation and the
# Newton jobs cost about the same, so the median job of a pass is one of six
# alike jobs and the tail one of the six Laplace variations: even a run of two
# passes has more than ten of them.
NEWTON_JOBS = 4
LAPLACE_JOBS = 6


def _rat(rng, nums=(1, 2, 3, 5), dens=(1, 2, 3, 4), signed=True) -> Fraction:
    q = Fraction(rng.choice(nums), rng.choice(dens))
    return -q if signed and rng.random() < 0.5 else q


def _txt(q: Fraction) -> str:
    """Rational as problem-file text; negative values are parenthesised."""
    body = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return f"({body})" if q < 0 else body


def _jet_text(s: int, J) -> str:
    return f"y({s};{','.join(map(str, J))})" if J else f"y({s})"


def _tuples(n: int, k: int):
    """Nondecreasing k-tuples over 1..n (canonical multi-indices)."""
    if k == 0:
        return [()]
    return [J + (i,) for J in _tuples(n, k - 1) for i in range(J[-1] if J else 1, n + 1)]


def _prob_text(n, m, r, L, extra="", comment=""):
    head = f"; {comment}\n" if comment else ""
    return (f"{head}[problem]\nn = {n}\nm = {m}\nr = {r}\n\n"
            f'[lagrangian]\nL = "{L}"\n' + (f"\n{extra}" if extra else ""))


class _Writer:
    def __init__(self, root: str):
        self.root = root
        self.jobs = []
        os.makedirs(os.path.join(root, "out"), exist_ok=True)

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def job(self, jid: str, command: str, prob: str, oracle: dict,
            expect_exit: int = 0, extra_args=()) -> None:
        out = os.path.join(self.root, "out", f"{jid}.json")
        argv = [command, prob, *extra_args, "--out", out]
        self.jobs.append({"id": jid, "argv": argv, "out": out,
                          "expect_exit": expect_exit, "oracle": oracle})


def _derive_oracle(n, m, r, L, exact: bool) -> dict:
    return {"kind": "derive", "n": n, "m": m, "r": r, "L": L, "exact": exact}


# -- derive_poly ---------------------------------------------------------------

def _random_poly(shape, rng, n, m, r) -> str:
    atoms = [f"x({i})" for i in range(1, n + 1)]
    atoms += [_jet_text(s, J) for s in range(1, m + 1)
              for k in range(r + 1) for J in _tuples(n, k)]
    parts = []
    for _ in range(POLY_TERMS):
        factors = [shape.choice(atoms) for _ in range(shape.randint(1, POLY_DEGREE))]
        parts.append(f"{_txt(_rat(rng))}*{'*'.join(factors)}")
    return " + ".join(parts)


def _regular_quadratic(shape, rng, m, r):
    """n = 1 density sum a_s/2 y(s;1^r)^2 + lower-order polynomial.

    The top Hessian is diag(a_s), so the problem is regular and the Legendre
    inverse is y(s;1^r) = P(s;1^r)/a_s.
    """
    top = [_jet_text(s, (1,) * r) for s in range(1, m + 1)]
    a = [_rat(rng, nums=(1, 2, 3), dens=(1, 2), signed=False) for _ in range(m)]
    lower = ["x(1)"] + [_jet_text(s, (1,) * k) for s in range(1, m + 1) for k in range(r)]
    parts = [f"{_txt(ak / 2)}*{t}^2" for ak, t in zip(a, top)]
    for _ in range(3):
        factors = [shape.choice(lower) for _ in range(shape.randint(1, 2))]
        parts.append(f"{_txt(_rat(rng))}*{'*'.join(factors)}")
    return " + ".join(parts), a


def _derive_poly(w: _Writer, rng) -> None:
    # Monomial structure from a fixed stream, coefficients from the seed: the
    # cost of a derive depends on which jets occur, so drawing the structure
    # per seed would move one pass's cost (and the tail) from seed to seed.
    shape = random.Random("derive_poly:structure")
    for idx, (n, m, r) in enumerate(POLY_SHAPES * POLY_REPS):
        L = _random_poly(shape, rng, n, m, r)
        p = w.file(f"poly{idx:03d}.prob", _prob_text(n, m, r, L, comment="seeded random polynomial"))
        w.job(f"derive_poly{idx:03d}", "derive", p, _derive_oracle(n, m, r, L, True))
    for name, (n, m, r, L, extra) in SHIPPED.items():
        p = w.file(f"{name}.prob", _prob_text(n, m, r, L, extra, comment="shipped problem"))
        w.job(f"derive_{name}", "derive", p, _derive_oracle(n, m, r, L, True))
    for m in (1, 2):
        for r in (1, 2, 3):
            L, a = _regular_quadratic(shape, rng, m, r)
            p = w.file(f"quad_m{m}_r{r}.prob", _prob_text(1, m, r, L, comment="regular quadratic"))
            spec = {"m": m, "r": r, "a": [str(q) for q in a], "L": L}
            w.job(f"legendre_quad_m{m}_r{r}", "legendre", p, {"kind": "legendre_quadratic", **spec})
            at = {"x(1)": _rat(rng)}
            at.update({_jet_text(s, (1,) * k): _rat(rng)
                       for s in range(1, m + 1) for k in range(2 * r)})
            atp = w.file(f"quad_m{m}_r{r}.at", "".join(f"{c} = {float(v)!r}\n" for c, v in at.items()))
            w.job(f"regularity_quad_m{m}_r{r}", "regularity", p,
                  {"kind": "regularity_quadratic", **spec}, extra_args=("--at", atp))
    deg = os.path.join(w.root, "degenerate.prob")
    # Linear in the top jet: the inversion layer is singular (exit 3).
    w.job("legendre_degenerate", "legendre", deg, {"kind": "error", "type": "DegeneracyError"},
          expect_exit=3)
    ind = os.path.join(w.root, "indefinite.prob")
    atp = w.file("origin.at", "x(1) = 0.0\nx(2) = 0.0\ny(1) = 0.1\ny(1;1) = 0.2\ny(1;2) = 0.3\n")
    # Regular but indefinite: diag(1, -1), exit 0 with positive_definite false.
    w.job("regularity_indefinite", "regularity", ind,
          {"kind": "regularity_indefinite"}, extra_args=("--at", atp))


# -- derive_rational -------------------------------------------------------------

def _fill(rng, template: str) -> str:
    return template.format(**{k: _txt(_rat(rng)) for k in "abc"})


def _derive_rational(w: _Writer, rng) -> None:
    for name, (n, m, r, L) in NAMED_RATIONAL.items():
        p = w.file(f"{name}.prob", _prob_text(n, m, r, L, comment="named density"))
        w.job(f"derive_{name}", "derive", p, _derive_oracle(n, m, r, L, False))
    for kind, templates in (("quot", QUOTIENT_TEMPLATES), ("trans", TRANSCENDENTAL_TEMPLATES)):
        for t, (n, m, r, tmpl, reps) in enumerate(templates):
            for rep in range(reps):
                L = _fill(rng, tmpl)
                p = w.file(f"{kind}{t}_{rep}.prob", _prob_text(n, m, r, L, comment="seeded"))
                w.job(f"derive_{kind}{t}_{rep}", "derive", p, _derive_oracle(n, m, r, L, False))


def limit_probe(root: str) -> dict:
    """The over-limit job, written on its own (not part of any pass)."""
    w = _Writer(root)
    name, (n, m, r, L) = LIMIT_PROBE
    p = w.file(f"{name}.prob", _prob_text(n, m, r, L, comment="ROADMAP n=2 density"))
    w.job(f"derive_{name}", "derive", p, _derive_oracle(n, m, r, L, False))
    return w.jobs[0]


# -- verify_numeric ----------------------------------------------------------------

def _verify_numeric(w: _Writer, rng) -> None:
    def amp():
        return _rat(rng, nums=(1, 2, 3, 4, 5), dens=(2, 3, 4))

    a, b = amp(), amp()
    ho = _prob_text(1, 1, 1, "1/2*y(1;1)^2 - 1/2*y(1)^2", comment="harmonic oscillator")
    p = w.file("ho.prob", ho)
    init = w.file("ho.init", f"y(1) = {float(b)!r}\nP(1;1) = {float(a)!r}\n")
    # y = a sin x + b cos x, P = y'.
    w.job("hdd_ho", "hdd-solve", p, {"kind": "hdd_ho", "a": str(a), "b": str(b)},
          extra_args=("--init", init, "--x0", "0", "--x1", "1", "--step", "0.00025"))

    c = [amp() for _ in range(4)]
    p = w.file("quartic.prob", _prob_text(1, 1, 2, "1/2*y(1;1,1)^2", comment="extremals are cubics"))
    init = w.file("quartic.init", f"y(1) = {float(c[0])!r}\ny(1;1) = {float(c[1])!r}\n"
                  f"P(1;1) = {float(-6 * c[3])!r}\nP(1;1,1) = {float(2 * c[2])!r}\n")
    w.job("hdd_quartic", "hdd-solve", p, {"kind": "hdd_cubic", "c": [str(q) for q in c]},
          extra_args=("--init", init, "--x0", "0", "--x1", "1", "--step", "0.01"))

    # Not invertible in closed form: hdd-solve takes the Newton path.
    p = w.file("anharmonic.prob", _prob_text(
        1, 1, 1, "1/2*y(1;1)^2 + 1/12*y(1;1)^4 - 1/2*y(1)^2", comment="Newton path"))
    for k in range(NEWTON_JOBS):
        y0, p0 = amp(), amp()
        init = w.file(f"anharmonic{k}.init", f"y(1) = {float(y0)!r}\nP(1;1) = {float(p0)!r}\n")
        w.job(f"hdd_newton{k}", "hdd-solve", p,
              {"kind": "hdd_energy", "y0": str(y0), "p0": str(p0)},
              extra_args=("--init", init, "--x0", "0", "--x1", "1", "--step", "0.00125"))

    cv, dv = amp(), amp()
    p = w.file("ho_variation.prob", _prob_text(
        1, 1, 1, "1/2*y(1;1)^2 - 1/2*y(1)^2",
        f'[gamma]\ny(1) = "{_txt(a)}*sin(x(1)) + {_txt(b)}*cos(x(1))"\n\n'
        f'[variation]\ny(1) = "{_txt(cv)} + {_txt(dv)}*x(1)"\n\n'
        "[domain]\nlower = 0\nupper = 1\nresolution = 13000\n", comment="HO variation"))
    w.job("first_variation_ho", "first-variation", p,
          {"kind": "variation_ho", "a": str(a), "b": str(b), "c": str(cv), "d": str(dv)})

    # Amplitudes at most 1, the shipped scale: the CLI's first-variation
    # tolerance is absolute (1e-4), and at resolution 201 the two quadratures
    # differ by about 1.9e-5 times the variation itself. Six draws, so
    # that these jobs are the tail of a pass.
    for k in range(LAPLACE_JOBS):
        g2, h2, c2 = (_rat(rng, nums=(1, 2, 3), dens=(3, 4)) for _ in range(3))
        p = w.file(f"laplace_variation{k}.prob", _prob_text(
            2, 1, 1, "1/2*(y(1;1)^2 + y(1;2)^2)",
            f'[gamma]\ny(1) = "{_txt(g2)}*(x(1)^2 - x(2)^2) + {_txt(h2)}*x(1)*x(2)"\n\n'
            f'[variation]\ny(1) = "{_txt(c2)}*(x(1)^2 - x(2)^2)"\n\n'
            "[domain]\nlower = 0, 0\nupper = 1, 1\nresolution = 60\n", comment="harmonic section"))
        # lhs = int grad(gamma).grad(xi) = 8/3 g c (the x1*x2 part cancels).
        w.job(f"first_variation_laplace{k}", "first-variation", p,
              {"kind": "variation_laplace", "g": str(g2), "c": str(c2)},
              extra_args=("--resolution", "201"))

    p = w.file("ho_delta.prob", _prob_text(
        1, 1, 1, "1/2*y(1;1)^2 - 1/2*y(1)^2",
        f'[delta]\ny(1) = "{_txt(a)}*sin(x(1)) + {_txt(b)}*cos(x(1))"\n'
        f'P(1;1) = "{_txt(a)}*cos(x(1)) - {_txt(b)}*sin(x(1))"\n\n'
        "[domain]\nlower = 0\nupper = 1\nresolution = 400\n", comment="canonical solution"))
    w.job("legendre_delta_ho", "legendre", p, {"kind": "hdd_residual"})

    cub = f"{_txt(c[0])} + {_txt(c[1])}*x(1) + {_txt(c[2])}*x(1)^2 + {_txt(c[3])}*x(1)^3"
    dcub = f"{_txt(c[1])} + {_txt(2 * c[2])}*x(1) + {_txt(3 * c[3])}*x(1)^2"
    p = w.file("quartic_delta.prob", _prob_text(
        1, 1, 2, "1/2*y(1;1,1)^2",
        f'[delta]\ny(1) = "{cub}"\ny(1;1) = "{dcub}"\nP(1;1) = "{_txt(-6 * c[3])}"\n'
        f'P(1;1,1) = "{_txt(2 * c[2])} + {_txt(6 * c[3])}*x(1)"\n\n'
        "[domain]\nlower = 0\nupper = 1\nresolution = 400\n", comment="cubic extremal"))
    w.job("legendre_delta_quartic", "legendre", p, {"kind": "hdd_residual"})

    p = w.file("ho_extremal.prob", _prob_text(
        1, 1, 1, "1/2*y(1;1)^2 - 1/2*y(1)^2",
        f'[gamma]\ny(1) = "{_txt(a)}*sin(x(1)) + {_txt(b)}*cos(x(1))"\n\n'
        "[domain]\nlower = 0\nupper = 1\nresolution = 2001\n", comment="extremal section"))
    w.job("verify_extremal_ho", "verify-extremal", p,
          {"kind": "extremal_ho", "a": str(a), "b": str(b)})

    s, y0 = amp(), amp()
    p = w.file("free_field.prob", _prob_text(
        1, 1, 1, "1/2*y(1;1)^2",
        f'[field]\ny(1;1) = "{_txt(s)}"\n\n[gamma]\ny(1) = "{_txt(s)}*x(1) + {_txt(y0)}"\n\n'
        "[domain]\nlower = 0\nupper = 1\nresolution = 1000\n", comment="constant slope field"))
    # Excess of 1/2 y'^2 against slope s is 1/2 (y' - s)^2 >= 0.
    w.job("excess_free", "excess", p, {"kind": "excess_free", "s": str(s)})
    w.job("field_check_free", "field-check", p, {"kind": "geodesic"})


_BUILDERS = {"derive_poly": _derive_poly, "derive_rational": _derive_rational,
             "verify_numeric": _verify_numeric}


def build(workload: str, seed: int, root: str) -> list:
    """Write the workload's problem files under ``root``; return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(root)
    _BUILDERS[workload](w, rng)
    return w.jobs
