"""The benchmark's span tracer still hooks the package.

``perfbench/spans.py`` wraps jetvar functions and methods by name, so a
rename in the package breaks ``perfbench/run.py --trace 1`` without failing
anything else. This runs the tracer on three small jobs in a child process,
so its patches do not leak into the other tests.
"""

import json
import os

from conftest import run_python

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PERFBENCH = os.path.abspath(os.path.join(ROOT, "perfbench"))
PROBLEMS = os.path.abspath(os.path.join(ROOT, "problems"))

SCRIPT = """
import json, os, sys
sys.path.insert(0, {perfbench!r})
import spans
from jetvar import cli

tracer = spans.Tracer()
spans.install(tracer)
codes = [cli.main(argv + ["--out", os.devnull]) for argv in {jobs!r}]
metrics = tracer.metrics()
print(json.dumps({{"codes": codes, "metrics": metrics}}))
"""


def test_traced_jobs_run_and_count(tmp_path):
    prob = tmp_path / "cubic_m2.prob"
    prob.write_text("[problem]\nn = 1\nm = 2\nr = 1\n\n"
                    "[lagrangian]\nL = \"1/3*y(1;1)^3 + 1/3*y(2;1)^3\"\n")
    init = tmp_path / "cubic_m2.init"
    init.write_text("y(1) = 0.0\ny(2) = 0.0\nP(1;1) = 1.0\nP(2;1) = 1.0\n")
    jobs = [
        ["hdd-solve", str(prob), "--init", str(init),
         "--x0", "0", "--x1", "1", "--step", "0.01"],
        ["verify-extremal", os.path.join(PROBLEMS, "laplace.prob")],
        ["derive", os.path.join(PROBLEMS, "quotient_r2.prob")],
    ]
    proc = run_python("-c", SCRIPT.format(perfbench=PERFBENCH, jobs=jobs))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    assert out["metrics"]["legendre.hdd_integrate.total_s"] > 0
    assert out["metrics"]["numerics.quadrature.points"] > 0
    assert out["metrics"]["forms.contact_decompose.total_s"] > 0
