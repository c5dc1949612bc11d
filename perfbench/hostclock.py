"""Host seconds corrected for the momentary speed of a shared machine.

On a shared host the same work can take anywhere from 1x to 2x the
wall time as neighbouring load comes and goes, within seconds.  While
a phase is timed, an interval timer interrupts it every
``INTERVAL_S`` of wall time to time a fixed pure-Python reference
computation.  The reference shares nothing with the program under
test, so a change to the program cannot change it.  A phase's host
seconds are its wall seconds, less the time spent in the reference,
divided by the slowdown the reference saw meanwhile: the mean of its
samples over ``NOMINAL_S``.  Time spent descheduled is sampled in the
same proportion as it is billed, so it cancels too.

Only interpreter-bound phases are corrected this way.  A teardown is
one long ``gc.collect``, a memory-bound C loop that no sample can
interrupt and that contention slows far less than interpreted code;
it is reported raw.

With probing off the clock reports raw wall seconds (the traced run
uses it that way, so layer spans are never interrupted).
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Optional

#: wall seconds between reference samples, normally and in a phase
#: marked dense (a world's set-up can take a few milliseconds)
INTERVAL_S = 0.02
DENSE_INTERVAL_S = 0.004
#: reference time on an uncontended core (2.1 GHz Xeon, Python 3.11);
#: only the scale of the reported seconds depends on it
NOMINAL_S = 0.0004
#: a phase with fewer samples than this borrows another's slowdown
MIN_SAMPLES = 10


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: float) -> None:
        self.key = key
        self.value = value


def _accumulate():
    total = 0.0
    while True:
        total += yield total


def reference(n: int = 300) -> int:
    """Object allocation, a heap, a dict and a coroutine: the kind of
    interpreter work the simulator does."""
    heap: list = []
    table: dict = {}
    acc = _accumulate()
    next(acc)
    for i in range(n):
        item = _Item(i * 1e-6 + (i * 7919 % 104729) * 1e-9, float(i))
        heapq.heappush(heap, (item.key, i, item))
        table[(i * 31) & 255] = [item, i]
        if len(heap) > 64:
            acc.send(heapq.heappop(heap)[2].value)
    return len(table)


class Segment:
    """One timed phase: raw wall seconds, seconds spent in the
    reference, and the reference samples taken meanwhile."""

    __slots__ = ("raw_s", "probe_s", "samples")

    def __init__(self, raw_s: float, probe_s: float,
                 samples: List[float]) -> None:
        self.raw_s = raw_s
        self.probe_s = probe_s
        self.samples = samples


class HostClock:
    """Times segments; with ``probe`` set, samples the machine's speed
    between ``start`` and ``stop``."""

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        self.samples: List[float] = []
        self.probe_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.probe_s += dt

    def start(self) -> None:
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            self._pace(INTERVAL_S)

    def stop(self) -> None:
        if self.probe:
            self._pace(0)
            signal.signal(signal.SIGALRM, self._previous)

    def _pace(self, interval: float) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def mark(self, dense: bool = False) -> tuple:
        """Start a segment (sampled every ``DENSE_INTERVAL_S`` when
        ``dense``)."""
        if dense:
            self._pace(DENSE_INTERVAL_S)
        return (time.perf_counter(), self.probe_s, len(self.samples),
                dense)

    def segment(self, mark: tuple) -> Segment:
        t1, probe_s, n = time.perf_counter(), self.probe_s, len(self.samples)
        t0, probe0, n0, dense = mark
        if dense:
            self._pace(INTERVAL_S)
        return Segment(t1 - t0, probe_s - probe0, self.samples[n0:n])


def slowdown(samples: List[float]) -> Optional[float]:
    return sum(samples) / len(samples) / NOMINAL_S if samples else None


def corrected(segments: List[Segment],
              fallback: Optional[float] = None) -> float:
    """Host seconds of one phase's ``segments``: their raw seconds less
    the reference time, over the slowdown of all their samples pooled.
    With fewer than ``MIN_SAMPLES``, over ``fallback`` instead (raw
    when that is None)."""
    samples = [x for seg in segments for x in seg.samples]
    work = sum(seg.raw_s - seg.probe_s for seg in segments)
    factor = slowdown(samples) if len(samples) >= MIN_SAMPLES else fallback
    return work / factor if factor else work
