"""One workload's worker: runs CLI jobs in process, one after another.

``run.py`` starts a fresh interpreter on this file for every workload, so no
workload inherits another's heap or caches. A job is one
``jetvar.cli.main([cmd, file, ..., "--out", path])`` call: the user's path
minus interpreter start-up (which ``setup_s`` measures separately).

Modes:

* ``timed``: one untimed warm-up job, then whole passes over the job list in
  a closed loop with one client until ``--seconds`` have passed. Reference
  samples (calib.py) run on a CPU-time timer throughout; their time is taken
  out of each job's latency, and each latency is also stated in reference
  seconds.
  Every report is checked outside the timed call: exit code, and the report
  (minus ``timing``) must equal the job's first report. After the loop the
  oracles check each job's first report.
* ``traced``: one warm-up job, then one pass with every layer instrumented
  (see spans.py); writes the spans and returns the per-layer metrics.
* ``probe``: one job under the time limit, reported on its own.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from collections import defaultdict

import calib


class JobTimeout(BaseException):
    """Raised by the per-job alarm.

    Derived from BaseException because the CLI turns every OSError,
    TimeoutError included, into an exit-1 report; an Exception subclass would
    make a timed-out job look like a finished one.
    """


def _alarm(signum, frame):
    raise JobTimeout()


def load_cli(src: str):
    """Import jetvar.cli from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import jetvar.cli
    here = os.path.realpath(jetvar.cli.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"jetvar was imported from {here}, not from {src}")
    return jetvar.cli


def run_job(cli, job: dict, limit: float):
    """Run one job; return (seconds, exit code or a failure string)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        try:
            code = cli.main(job["argv"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return limit, "timeout"
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, f"exception {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code


def report_text(path: str) -> str:
    """The report as the CLI writes it, without the ``timing`` key."""
    with open(path, "rb") as fh:
        data = json.loads(fh.read())
    data.pop("timing", None)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def outcome(job: dict, code) -> str | None:
    if isinstance(code, str):
        return code
    if code != job["expect_exit"]:
        return f"exit {code}, expected {job['expect_exit']}"
    return None


def timed(cli, jobs, seconds, limit, seed) -> dict:
    sampler = calib.Sampler()
    sampler.start()
    run_job(cli, jobs[0], limit)
    first: dict[str, str] = {}
    executions = defaultdict(int)
    failures = defaultdict(int)
    reasons: dict[str, str] = {}
    passes, latencies = [], []
    spans = []
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < seconds:
        pass_time = 0.0
        for job in jobs:
            spent, start = sampler.spent, time.perf_counter()
            dt, code = run_job(cli, job, limit)
            dt -= sampler.spent - spent
            spans.append((dt, start, time.perf_counter()))
            pass_time += dt
            latencies.append(dt)
            jid = job["id"]
            executions[jid] += 1
            problem = outcome(job, code)
            if problem is None:
                text = report_text(job["out"])
                if first.setdefault(jid, text) != text:
                    problem = "report differs from the job's first report"
            if problem is not None:
                failures[jid] += 1
                reasons.setdefault(jid, problem)
        passes.append(pass_time)
    sampler.stop()
    ref_latencies = [sampler.ref_seconds(*span) for span in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracles
    wrong = sum(1 for r in reasons.values() if r != "timeout")
    for job in jobs:
        jid = job["id"]
        if jid in first:
            why = oracles.check(job, json.loads(first[jid]), seed)
            if why is not None:
                failures[jid] = executions[jid]
                if reasons.get(jid) in (None, "timeout"):
                    wrong += 1
                reasons[jid] = why
    return {
        "passes": passes, "jobs_per_pass": len(jobs), "latencies": latencies,
        "ref_latencies": ref_latencies, "wall_per_ref": sum(latencies) / sum(ref_latencies),
        "attempted": sum(executions.values()), "failed": sum(failures.values()),
        "timeouts": sum(1 for r in reasons.values() if r == "timeout"),
        "wrong_jobs": wrong, "reasons": reasons,
        "report_bytes": sum(len(t.encode()) for t in first.values()),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(cli, jobs, limit, trace_out) -> dict:
    import spans
    run_job(cli, jobs[0], limit)
    tracer = spans.Tracer()
    spans.install(tracer)
    reasons = {}
    busy = 0.0
    for idx, job in enumerate(jobs):
        tracer.job = idx
        dt, code = run_job(cli, job, limit)
        busy += dt
        problem = outcome(job, code)
        if problem is not None:
            reasons[job["id"]] = problem
    tracer.job = -1
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    tracer.dump(trace_out)
    return {"pass": busy, "jobs_per_pass": len(jobs), "attempted": len(jobs),
            "failed": len(reasons), "reasons": reasons, "metrics": tracer.metrics()}


def probe(cli, job, limit, seed) -> dict:
    import oracles
    dt, code = run_job(cli, job, limit)
    why = outcome(job, code)
    if why is None:
        why = oracles.check(job, json.loads(report_text(job["out"])), seed)
    return {"seconds": dt, "outcome": code, "problem": why}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory holding the jetvar package")
    p.add_argument("--jobs", required=True, help="job list written by run.py")
    p.add_argument("--mode", choices=("timed", "traced", "probe"), required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--limit", type=float, required=True, help="per-job time limit (s)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace-out")
    args = p.parse_args(argv)
    cli = load_cli(args.src)
    with open(args.jobs) as fh:
        jobs = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    if args.mode == "timed":
        result = timed(cli, jobs, args.seconds, args.limit, args.seed)
    elif args.mode == "traced":
        result = traced(cli, jobs, args.limit, args.trace_out)
    else:
        result = probe(cli, jobs[0], args.limit, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
