"""Host speed probe: scales each measured time to one fixed reference speed.

The benchmark's machine is a share of a host whose speed drifts: the same
loop of interpreter work takes 1.0x to 1.7x its fastest time, in stretches
from milliseconds to tens of seconds (README.md, *Host drift*).  Run-to-run
spread of raw wall times therefore measures the host, not the code.

The probe times a fixed *chunk* of interpreter work (tuples, a dict, integer
arithmetic; about the mix the library runs) right before and right after each
request, and every ``PERIOD_S`` during it from a ``SIGALRM`` handler in the
client itself, so no thread or process is added.  A request's adjusted time
is its wall time minus the time its handler chunks took, times
``REFERENCE_CHUNK_S`` over the mean chunk time around and during it: the
time the request would have taken on a host that runs one chunk in
``REFERENCE_CHUNK_S``.  The probe's chunk is fixed code outside the library,
so a change to the library moves adjusted times as it moves wall times.

The client and every child it starts are pinned to one CPU (see run.py), so
the chunks run on the CPU that does the request's work.
"""

from __future__ import annotations

import signal
import time

CHUNK_LOOPS = 600
# Seconds one chunk takes at the reference speed: about the median chunk time
# on the reference machine (README.md).  A pure scale: it sets the unit of
# adjusted times, not their spread.
REFERENCE_CHUNK_S = 250e-6
# Chunks timed right before and right after each request.
EDGE_CHUNKS = 4
# Interval of the in-request samples.
PERIOD_S = 0.01


def chunk() -> float:
    """Seconds one fixed chunk of interpreter work takes now."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CHUNK_LOOPS):
        t = (i, i * 3 % 17, i ^ 5)
        table[t[1]] = t
        acc += sum(t)
    return time.perf_counter() - t0


class SpeedProbe:
    """Chunk times taken around and during timed regions.

    Use as a context manager: the interval timer runs inside it.  Time a
    region as::

        start = probe.before()
        t0 = time.perf_counter(); ...; t1 = time.perf_counter()
        adjusted = probe.adjusted(start, t1 - t0)
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(chunk())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def before(self) -> int:
        """Time the leading edge chunks; return the mark of the region's start."""
        self.samples.extend(chunk() for _ in range(EDGE_CHUNKS))
        return len(self.samples)

    def adjusted(self, start: int, wall: float) -> float:
        """Adjusted seconds of the region that began at mark ``start`` and took ``wall``.

        Call right after the region ends: the chunks from ``start`` on are
        the ones the timer ran inside it.
        """
        inside = self.samples[start:]
        busy = wall - sum(inside)
        self.samples.extend(chunk() for _ in range(EDGE_CHUNKS))
        around = self.samples[start - EDGE_CHUNKS:]
        return busy * REFERENCE_CHUNK_S * len(around) / sum(around)
