"""Reference work that measures how fast the machine is right now.

On a shared host the speed of one core drifts by up to 2x, in spells from
well under a second to minutes, and a process's CPU time drifts with it, so
neither the wall nor the CPU time of a job is steady from run to run. The
timed worker therefore interleaves a small fixed piece of reference work with
the jobs, a *sample*, and states each job's time in *reference seconds*:

    ref_s = job seconds * REF_SAMPLE_S / median(samples taken during and around the job)

that is, what the job would have taken on the host at the speed at which one
sample takes ``REF_SAMPLE_S``. A change to the program moves the job's time
and not the samples', so the ratio moves; a change in the host's speed moves
both and cancels.

Samples are taken from a ``SIGVTALRM`` handler every ``SAMPLE_EVERY_S`` of
the process's CPU time, so they fall inside jobs as well as between them and
a job of a second sees the speed the host had while it ran. The time spent
in samples is taken out of the job's time. The samples around a job are
those that started within ``WINDOW_S`` of it, widened until there are at
least ``MIN_SAMPLES``.

The work mixes what jetvar's jobs do: a product of two small sparse
polynomials held as dicts from exponent tuples to gcd-reduced integer
fractions (as in the ``_poly`` kernel), a loop of float arithmetic through
``math`` functions (as in per-point evaluation), and the same kind of
accumulation fed from scattered reads of a 4 MB table. The last part is
there because the host's slow spells are not all alike: some slow compute
that stays in the core's caches most, others slow code whose data is spread
over more memory (derive_poly's many small jobs) most, and a sample of only
one kind follows only one kind of spell. The work uses only the standard
library and never imports jetvar, so no change to the program moves it; the
table adds 4 MB to the worker's resident memory.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time
from array import array
from math import gcd

# Time of one sample taken inside a job on the machine the benchmark was
# tuned on (2 vCPUs of a shared x86-64 host, CPython 3.11, at its usual
# speed). Only the scale of the reported figures depends on it.
REF_SAMPLE_S = 0.001
# CPU seconds between samples: sampling costs about 5% of the run.
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.25
MIN_SAMPLES = 9

_TABLE_MASK = (1 << 19) - 1
_TABLE = array("q", (random.Random(3).randrange(1, 1 << 20) for _ in range(_TABLE_MASK + 1)))
_A = {(i, j, (i * j) % 3): (i + 1, 2 * j + 3) for i in range(5) for j in range(4)}
_B = {(j, i, (i + j) % 2): (2 * i + 1, j + 2) for i in range(4) for j in range(4)}


def _poly_product() -> int:
    out = {}
    for m1, (n1, d1) in _A.items():
        for m2, (n2, d2) in _B.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            n, d = n1 * n2, d1 * d2
            old = out.get(m)
            if old is not None:
                n, d = old[0] * d + n * old[1], old[1] * d
            g = gcd(n, d)
            out[m] = (n // g, d // g)
    return len(out)


def _float_loop() -> float:
    s = 0.0
    for k in range(300):
        x = k * 3.1e-3
        s += math.sin(x) * x - math.exp(-x) / (1.0 + x * x)
    return s


def _scattered_accumulate(start: int) -> int:
    out = {}
    table = _TABLE
    for k in range(start, start + 500):
        h = (k * 2654435761) & _TABLE_MASK
        a = table[h]
        m = (a & 3, (a >> 2) & 3, (a >> 4) & 1)
        n, d = ((a >> 5) & 63) | 1, (table[h ^ 1] & 63) | 1
        old = out.get(m)
        if old is not None:
            n, d = old[0] * d + n * old[1], old[1] * d
        g = gcd(n, d)
        out[m] = (n // g, d // g)
    return len(out)


class Sampler:
    """Takes samples on a CPU-time timer and converts job times."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # total time spent in samples

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _poly_product()
        _float_loop()
        _scattered_accumulate(500 * len(self.starts))
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.seconds.append(dt)
        self.spent += dt

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def ref_seconds(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of job time, run from ``start`` to ``end``, in reference seconds."""
        pad = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, start - pad)
            hi = bisect.bisect_right(self.starts, end + pad)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.starts):
                break
            pad *= 2
        return seconds * REF_SAMPLE_S / statistics.median(self.seconds[lo:hi])
