"""A reference loop that measures how fast the machine runs Python during a
run, so that the run's times can be stated at one reference speed.

On a shared host the speed of a core drifts, by up to about 1.8x, over spans
of seconds to minutes, and it drifts for every process alike: a fixed loop
slows down when the MCE jobs do. Raw job times then follow the host's load
more than the program. The benchmark therefore reads this loop before
start-up, after each set-up and after each job, always outside the timed
regions, and states the times of each phase at the reference speed::

    set-up time * REF_S / median(set-up readings)
    job time    * REF_S / median(job readings)

``REF_S`` is the loop's time on an idle core of the machine the benchmark was
calibrated on (a 4-vCPU Intel Xeon VM, Python 3.11); there the scaled and the
raw times agree. One factor per phase, not per job: a single reading is too
jittery to correct a single job, and Spark jobs, which span several
processes, do not follow the loop job by job. After a long job or set-up the
loop is read several times (``readings_after``), so that a run of a few long
Spark jobs still has enough readings for a steady median.

The loop does the kind of work the program does, set intersections and small
tuples and dicts over a fixed random graph. It imports nothing from the
program and runs with the garbage collector off, so no change to the program
can change its time.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

#: The loop's time in seconds on an idle core of the calibration machine.
REF_S = 0.022
#: After work of ``t`` seconds the loop runs for at least ``SHARE * t``.
SHARE = 0.05

_rng = random.Random(20250425)
_N = 3000
_ADJ = [frozenset(_rng.sample(range(_N), 12)) for _ in range(_N)]


def _loop() -> int:
    out, deg = [], {}
    for v, nb in enumerate(_ADJ):
        for u in nb:
            common = nb & _ADJ[u]
            if common:
                out.append((v, u, len(common)))
        deg[v] = len(nb)
    return len(out) + len(deg)


def reference_s() -> float:
    """One timed pass of the reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def readings_after(seconds: float) -> list[float]:
    """Readings to take after ``seconds`` of work: at least one, and enough
    to add up to ``SHARE`` of that time."""
    out = [reference_s()]
    while sum(out) < SHARE * seconds:
        out.append(reference_s())
    return out


def factor(readings: list[float]) -> float:
    """What the run's raw times are multiplied by to state them at the
    reference speed."""
    return REF_S / statistics.median(readings)
