"""Layered benchmark of the jetvar CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload derive_rational --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, human table

One run of a workload:

1. writes the seeded problem files for ``--seed`` (corpus.py) under
   ``.bench_build/perfbench/``;
2. times ``import jetvar.cli`` inside fresh interpreters (``setup_s``,
   median of SETUP_RUNS, half of them after step 3; one untimed import
   first writes the bytecode);
3. starts a fresh worker that runs the jobs in a closed loop for
   ``--seconds``, with the reference samples of calib.py interleaved, checks
   every report and applies the oracles
   (worker.py, oracles.py);
4. derive_rational, with ``--trace 1`` or ``--workload all`` only: runs the
   ROADMAP n=2 density once under the job time limit, outside the timed
   loop, and reports whether it finished (it costs 6-12 s, so untraced runs
   of one workload leave it out);
5. with ``--trace 1``: one more worker makes one instrumented pass
   (spans.py) and the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means the
benchmark ran (``correct`` says whether the program's outputs were right);
any other exit code means it could not run, and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402

# Imports timed per run, half before and half after the timed worker, so
# that one short slow spell of the machine does not set the median.
SETUP_RUNS = 12
# Per-job time limit. The slowest job that finishes at the baseline takes
# 0.7-1.9 s (the r=2 quotient); the ROADMAP n=2 density runs for minutes.
JOB_LIMIT_S = 6.0
# Instrumentation slows jobs down; the traced pass gets a proportionally
# wider limit so that it runs the same jobs to completion.
TRACED_LIMIT_S = 8 * JOB_LIMIT_S
# One workload's run must end within 180 s: a child still running at this
# budget is stopped and the run fails.
RUN_BUDGET_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the program)."""


def _python(args, deadline, cwd):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S} s used up before {args[0]}")
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def import_seconds(src: str, cwd: str, deadline: float, count: int) -> list:
    """Times of ``import jetvar.cli``, each inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import jetvar.cli; print(repr(time.perf_counter() - t))")
    return [float(_python(["-c", code, src], deadline, cwd)) for _ in range(count)]


def worker(mode, src, jobs_path, args, limit, cwd, deadline, trace_out=None) -> dict:
    cmd = [os.path.join(HERE, "worker.py"), "--src", src, "--jobs", jobs_path,
           "--mode", mode, "--seconds", str(args.seconds), "--limit", str(limit),
           "--seed", str(args.seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return json.loads(_python(cmd, deadline, cwd))


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_workload(workload: str, args, root: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    src = os.path.join(root, "src")
    work = os.path.join(root, ".bench_build", "perfbench", f"run-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = corpus.build(workload, args.seed, os.path.join(work, "problems"))
        jobs_path = os.path.join(work, "jobs.json")
        with open(jobs_path, "w") as fh:
            json.dump(jobs, fh)

        import_seconds(src, root, deadline, 1)  # writes the bytecode
        imports = import_seconds(src, root, deadline, SETUP_RUNS // 2)
        res = worker("timed", src, jobs_path, args, JOB_LIMIT_S, root, deadline)
        imports += import_seconds(src, root, deadline, SETUP_RUNS - SETUP_RUNS // 2)
        probe = None
        if workload == "derive_rational" and (args.trace or args.workload == "all"):
            probe_path = os.path.join(work, "probe.json")
            with open(probe_path, "w") as fh:
                json.dump([corpus.limit_probe(os.path.join(work, "probe"))], fh)
            probe = worker("probe", src, probe_path, args, JOB_LIMIT_S, root, deadline)
        traced = None
        if args.trace:
            trace_out = os.path.join(root, ".bench_build", "perfbench", "traces",
                                     f"{workload}-seed{args.seed}.jsonl.gz")
            traced = worker("traced", src, jobs_path, args, TRACED_LIMIT_S, root, deadline,
                            trace_out)
            traced["trace_out"] = os.path.relpath(trace_out, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = res["ref_latencies"]
    jobs_per_ref_s = len(ref) / sum(ref)
    tail_s, tail_pct, n = tail(ref)
    e2e = {
        "setup_s": statistics.median(imports),
        "jobs_per_ref_s": jobs_per_ref_s,
        "latency_p50_ref_s": statistics.median(ref),
        "latency_tail_ref_s": tail_s,
        "ok_ratio": 1.0 - res["failed"] / res["attempted"],
        "report_bytes": res["report_bytes"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    out = {"workload": workload, "e2e": e2e, "res": res, "probe": probe,
           "tail_pct": tail_pct, "samples": n, "traced": traced}
    if traced:
        lm = dict(traced["metrics"])
        lm["trace.jobs_per_s"] = traced["jobs_per_pass"] / traced["pass"]
        wall_jobs_per_s = len(res["latencies"]) / sum(res["latencies"])
        lm["trace.overhead"] = 1.0 - lm["trace.jobs_per_s"] / wall_jobs_per_s
        out["per_layer"] = lm
    return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def summarize(r: dict, units: dict) -> None:
    wl, res = r["workload"], r["res"]
    for name, unit in units.items():
        print(f"{wl:16s} {name:16s} {_fmt(r['e2e'][name]):>14s} {unit}")
    wall = res["latencies"]
    print(f"{wl:16s} wall clock: {len(wall) / sum(wall):.6g} jobs/s, p50 "
          f"{statistics.median(wall):.6g} s; wall/ref factor {res['wall_per_ref']:.4g}")
    print(f"{wl:16s} latency_tail_ref_s is p{r['tail_pct']:.2f} of {r['samples']} jobs; "
          f"{len(res['passes'])} passes of {res['jobs_per_pass']} jobs")
    print(f"{wl:16s} failed_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']}; {res['timeouts']} jobs timed out, "
          f"{res['wrong_jobs']} jobs wrong)")
    for jid, why in sorted(res["reasons"].items()):
        print(f"{wl:16s}   FAILED {jid}: {why}")
    if r["probe"] is not None:
        p = r["probe"]
        state = ("timed out" if p["outcome"] == "timeout"
                 else f"finished (exit {p['outcome']}, {p['problem'] or 'oracle passed'})")
        print(f"{wl:16s} limit probe {corpus.LIMIT_PROBE[0]}: {state} "
              f"after {p['seconds']:.3f} s (limit {JOB_LIMIT_S} s)")
    if r["traced"]:
        t = r["traced"]
        print(f"{wl:16s} traced pass {t['pass']:.3f} s, spans in {t['trace_out']}; "
              f"tracing overhead {r['per_layer']['trace.overhead']:.3f} of wall-clock jobs/s")
        for name, value in sorted(r["per_layer"].items()):
            print(f"{wl:16s}   {name:40s} {_fmt(value)}")
        for jid, why in sorted(t["reasons"].items()):
            print(f"{wl:16s}   TRACED FAILED {jid}: {why}")


def _units(kind: str) -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Layered benchmark of the jetvar CLI.")
    p.add_argument("--workload", required=True, choices=(*corpus.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetvar", "cli.py")):
        print("run from the root of a jetvar checkout: src/jetvar/cli.py not found",
              file=sys.stderr)
        return 2
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(wl, args, root) for wl in workloads]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3

    kind = "per_layer" if args.trace else "end_to_end"
    units = _units(kind)
    metrics = {}
    for r in results:
        summarize(r, _units("end_to_end"))
        values = r["per_layer"] if args.trace else r["e2e"]
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    correct = all(r["res"]["wrong_jobs"] == 0
                  and not (r["traced"] and r["traced"]["failed"])
                  and not (r["probe"] and r["probe"]["outcome"] != "timeout"
                           and r["probe"]["problem"])
                  for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["res"]["attempted"] for r in results),
        "failed": sum(r["res"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
