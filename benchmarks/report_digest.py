"""Print one digest line per report, to compare two checkouts byte for byte.

Runs, in this process and on this checkout's package:

* all 9 commands on every ``problems/*.prob``;
* ``regularity`` with each ``problems/*.at`` point file and ``hdd-solve``
  with each ``problems/*.init`` file (``--x0 0 --x1 1 --step 0.01``), on
  every problem;
* every job that ``perfbench/corpus.py`` builds for its workloads at seeds
  1-3, its input files written to a temporary directory.

Each line is the job id, the exit code and the sha256 of the JSON report
without its ``timing`` key::

    python benchmarks/report_digest.py > digest.txt

Comparing two checkouts is then a ``diff`` of their outputs.
"""

import glob
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from jetvar import cli  # noqa: E402
from perfbench import corpus  # noqa: E402

PARSER = cli.build_parser()
SEEDS = (1, 2, 3)
HDD = ("--x0", "0", "--x1", "1", "--step", "0.01")


def digest(jid: str, argv: list) -> str:
    data, code = cli.run(PARSER.parse_args(argv))
    data.pop("timing", None)
    text = json.dumps(data, indent=2, sort_keys=True)
    return f"{jid} {code} {hashlib.sha256(text.encode()).hexdigest()}"


def problem_jobs():
    """``(id, argv)`` of the shipped problems' jobs, paths relative to the root."""
    probs = sorted(glob.glob("problems/*.prob"))
    for prob in probs:
        for command in sorted(cli.COMMANDS):
            yield f"{prob}:{command}", [command, prob]
        for at in sorted(glob.glob("problems/*.at")):
            yield f"{prob}:regularity:{at}", ["regularity", prob, "--at", at]
        for init in sorted(glob.glob("problems/*.init")):
            yield f"{prob}:hdd-solve:{init}", ["hdd-solve", prob, "--init", init, *HDD]


def main() -> int:
    os.chdir(ROOT)
    for jid, argv in problem_jobs():
        print(digest(jid, argv))
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative job paths: reports that name a file match across runs
        for workload in corpus.WORKLOADS:
            for seed in SEEDS:
                for job in corpus.build(workload, seed, f"{workload}-{seed}"):
                    print(digest(f"{workload}:{seed}:{job['id']}", job["argv"]))
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
