"""Seeded front-end fuzz: mutated problem, point and init files through every
command, in process.

Each case takes a shipped problem file (and, for ``regularity`` and
``hdd-solve``, a shipped point or init file) on which its command makes a
report, applies 1-3 token insertions or deletions to one of them, and runs
the command on the result under a per-case alarm, as ``perfbench/worker.py``
runs its jobs. Every case must end in a report with exit code 0, 1, 2 or 3, and no
exception may escape ``cli.main``. The seed is fixed: a case that fails names
its command and its input, so it can be rerun.
"""

import glob
import json
import os
import random
import re
import signal

from jetvar.cli import COMMANDS, main

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
SEED = 15
CASES = 297  # 33 per command
LIMIT_S = 2.0
HDD = ["--x0", "0", "--x1", "1", "--step", "0.01"]


class CaseTimeout(BaseException):
    """Raised by the per-case alarm; not an Exception, so the CLI's handlers
    cannot turn it into a report."""


def _alarm(signum, frame):
    raise CaseTimeout()


def _text(pattern):
    out = {}
    for path in sorted(glob.glob(os.path.join(PROBLEMS, pattern))):
        with open(path, encoding="utf-8") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def mutate(text, rng):
    """``text`` after 1-3 edits of its tokens (runs of whitespace, words and
    single other characters): each deletes one, or inserts a copy of one at
    a random place."""
    tokens = re.findall(r"\s+|\w+|[^\w\s]", text)
    for _ in range(rng.randint(1, 3)):
        if tokens and rng.random() < 0.5:
            del tokens[rng.randrange(len(tokens))]
        else:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(tokens or ["="]))
    return "".join(tokens)


def _argv(command, prob, extra, where, out):
    argv = [command, os.path.join(where, prob), "--out", out]
    if extra is not None:
        argv += ["--at" if command == "regularity" else "--init", os.path.join(where, extra)]
        argv += HDD if command == "hdd-solve" else []
    return argv


def cases(out):
    """``(command, problem name, values file name or None, mutated file name,
    {file name: text})`` of every case. Each command draws from the shipped
    inputs on which it makes a report, not an input error, so that the
    mutants reach past the check for the blocks a command needs; ``out`` is
    a scratch report path."""
    rng = random.Random(SEED)
    probs, values = _text("*.prob"), {"regularity": _text("*.at"), "hdd-solve": _text("*.init")}
    commands = sorted(COMMANDS)
    inputs = {command: [(prob, extra) for prob in probs
                        for extra in sorted(values.get(command, [None]))
                        if main(_argv(command, prob, extra, PROBLEMS, out)) != 1]
              for command in commands}
    for i in range(CASES):
        command = commands[i % len(commands)]
        prob, extra = rng.choice(inputs[command])
        target = prob if extra is None or rng.random() < 0.5 else extra
        texts = {prob: probs[prob]}
        if extra is not None:
            texts[extra] = values[command][extra]
        texts[target] = mutate(texts[target], rng)
        yield command, prob, extra, target, texts


def test_mutated_inputs_end_in_a_report(tmp_path):
    out = tmp_path / "report.json"
    previous = signal.signal(signal.SIGALRM, _alarm)
    failures = []
    try:
        for command, prob, extra, target, texts in cases(str(out)):
            for name, text in texts.items():
                (tmp_path / name).write_text(text, encoding="utf-8")
            argv = _argv(command, prob, extra, str(tmp_path), str(out))
            case = f"{command} {prob} {extra or ''}, {target} mutated to {texts[target]!r}"
            out.unlink(missing_ok=True)
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                code = main(argv)
            except CaseTimeout:
                failures.append(f"{case}: no report within {LIMIT_S} s")
                continue
            except (Exception, SystemExit) as exc:  # escaped cli.main
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            report = json.loads(out.read_text())
            if code not in (0, 1, 2, 3) or report["exit_code"] != code:
                failures.append(f"{case}: exit {code}, report {report['exit_code']}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, "\n".join(failures)

