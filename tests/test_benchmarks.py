"""The benchmark scripts under ``benchmarks/`` still run against the package.

Nothing else calls them, so an API change in the package would break them
silently. Each runs once, in a child process on this checkout's package.
"""

import os

from conftest import run_python

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


def test_bench_poly_runs_every_workload():
    proc = run_python(os.path.join(BENCHMARKS, "bench_poly.py"), "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == ["poly_stress", "derivation_batch", "rational_derive",
                     "quotient_stress", "quotient_report", "defect_stress",
                     "laplace_action_201", "laplace_first_variation_201",
                     "ho_action_13000", "ho_hdd_integrate", "newton_hdd_integrate",
                     "cli_import_source", "cli_import_cached"]


def test_report_digest_prints_one_line_per_report():
    proc = run_python(os.path.join(BENCHMARKS, "report_digest.py"))
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    ids = [jid for jid, _, _ in lines]
    assert len(ids) == len(set(ids))
    assert "problems/degenerate.prob:regularity:problems/origin.at" in ids
    for workload in ("derive_poly", "derive_rational", "verify_numeric"):
        for seed in (1, 2, 3):
            assert any(jid.startswith(f"{workload}:{seed}:") for jid in ids)
    assert all(code in ("0", "1", "2", "3") and len(digest) == 64 for _, code, digest in lines)
