"""A fixed reference job, independent of rwlearn, that measures host speed.

The CPU speed this benchmark gets drifts by up to a factor of two over a few
minutes on a shared host (see README.md, Caveats), and all of rwlearn's work
slows with it.  So the benchmark times this job next to every measured
duration and reports the duration scaled to one reference speed: the speed
at which the job takes REFERENCE_S.  A change to rwlearn does not change the
job, so it moves the scaled times as much as the raw ones.

The job mixes the two kinds of work whose slow-down tracked rwlearn's best
in probes on the host where this was written: an integer loop, and building
and walking a tree of small frozen objects, as rwlearn does with terms.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# a round figure inside the range of the job's median time, 0.85-1.3 ms, on the
# 2-vCPU 2.1 GHz Xeon VM where the benchmark was written
REFERENCE_S = 1.0e-3


@dataclass(frozen=True)
class _Node:
    head: str
    args: tuple = ()


def _walk(t: _Node, seen: dict) -> _Node:
    seen[t.head] = seen.get(t.head, 0) + 1
    return _Node(t.head, tuple(_walk(a, seen) for a in t.args))


def _job() -> int:
    x = 0
    for i in range(7000):
        x = (x * 31 + i) & 0xFFFF
    t = _Node("z")
    for i in range(80):
        t = _Node("s", (t, _Node("z"))) if i % 2 else _Node("s", (t,))
    seen = {}
    for _ in range(2):
        t = _walk(t, seen)
    return x + seen["s"]


def scale() -> float:
    """The factor that brings a duration measured now to the reference speed:
    REFERENCE_S over the median time of three runs of the job."""
    clock = time.perf_counter
    times = []
    for _ in range(3):
        start = clock()
        _job()
        times.append(clock() - start)
    return REFERENCE_S / statistics.median(times)
