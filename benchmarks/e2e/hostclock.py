"""Host time on a shared sandbox: a calibration kernel and a quiet clock.

The sandbox this benchmark grew up on slows down by 30-70% for seconds
at a time (CPU time inflates with wall time, so it is not scheduling
the process out). A 5 s timed section can sit entirely inside such a
phase, and two back-to-back runs of one commit then differ by more than
any regression bound worth having.

So host time is reported *as a quiet host would have spent it*: the
timed work runs in pieces, a fixed pure-Python kernel is timed between
the pieces, and each piece's wall time is divided by how much slower
than :data:`REFERENCE_S` the kernel ran around it. The kernel never
touches the program under test, so a real speed-up or regression of the
program moves the quiet time exactly as it moves the wall time. The raw
wall time is kept beside it.

The slow phases are per core (a busy SMT sibling, by the look of the
1.65x step), so this works for work done in this process. For a call
that waits on a pool of workers, :meth:`QuietClock.timed_pool` watches
every core from pinned background threads instead.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Any, Callable, List

#: The kernel's duration on this sandbox's quiet phases. A constant: it
#: only fixes the unit ("seconds on a host this fast"), and cancels out
#: of every comparison between two commits.
REFERENCE_S = 0.0055
_LOOPS = 20_000

#: The background samplers' smaller kernel (thread CPU time) and pace.
_SMALL_LOOPS = 4_000
_SMALL_REFERENCE_S = 0.0011
_SAMPLE_EVERY_S = 0.1


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def f(self, x: int) -> int:
        return self.a * x + self.b


#: A heap of small objects well past the private caches. The program is
#: an interpreter chasing pointers through dicts, lists and objects; a
#: tight arithmetic loop alone slows down only 1.55x when the core's
#: sibling is busy, the program's own ``step()`` 1.7x, this mix 1.7x.
_CELLS = [_Cell(i, i + 1) for i in range(100_000)]
_PAIRS = {i: (i, 2 * i) for i in range(100_000)}


def kernel(loops: int = _LOOPS, clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds for a fixed pure-Python loop: arithmetic on a small dict
    and list, plus pseudo-random walks over the object heap."""
    t0 = clock()
    acc = 0
    j = 7
    table = {}
    ring: List[int] = [0] * 64
    cells, pairs, n = _CELLS, _PAIRS, len(_CELLS)
    for i in range(loops):
        acc += i * i % 7
        table[i & 255] = acc
        ring[i & 63] = table[i & 127 if i > 127 else 0]
        if i & 1:
            j = (j * 1103515245 + 12345) % n
            acc += cells[j].f(i) + pairs[j][1]
    return clock() - t0


class QuietClock:
    """Accumulates wall time and its quiet-host equivalent.

    ``timed(fn)`` runs ``fn`` between kernel samples (the trailing
    sample of one call is the leading sample of the next) and scales
    the call's wall time by their mean over :data:`REFERENCE_S`.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last_at = float("-inf")

    def _take(self) -> float:
        self.samples.append(kernel())
        self._last_at = time.perf_counter()
        return self.samples[-1]

    def sample(self, n: int = 1) -> None:
        """Take ``n`` kernel samples now (host-noise guard checkpoints)."""
        for _ in range(n):
            self._take()

    def timed(self, fn: Callable[[], Any]) -> "Timed":
        """Run ``fn`` between two kernel samples; scale its wall time."""
        recent = time.perf_counter() - self._last_at < 0.002
        before = self.samples[-1] if recent else self._take()
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        slowdown = (before + self._take()) / 2 / REFERENCE_S
        return Timed(value, wall, wall / slowdown)

    def timed_pool(self, fn: Callable[[], Any]) -> "Timed":
        """Like :meth:`timed`, for a call that waits on worker processes.

        The sandbox's cores slow down one at a time, and the workers run
        on all of them while this thread sleeps: samples taken here
        before and after say little. So one thread per core, pinned,
        keeps timing a small kernel (in thread CPU time: it must not
        count waiting for the core a worker is using) while ``fn``
        runs, and the wall time is scaled by the mean over cores and
        samples.
        """
        cores = sorted(os.sched_getaffinity(0))
        seen: List[float] = []
        stop = threading.Event()

        def watch(core: int) -> None:
            os.sched_setaffinity(threading.get_native_id(), {core})
            while not stop.wait(_SAMPLE_EVERY_S):
                seen.append(kernel(_SMALL_LOOPS, time.thread_time))

        watchers = [
            threading.Thread(target=watch, args=(core,), daemon=True)
            for core in cores
        ]
        for t in watchers:
            t.start()
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            wall = time.perf_counter() - t0
            stop.set()
            for t in watchers:
                t.join()
        slowdown = (
            statistics.mean(seen) / _SMALL_REFERENCE_S if seen else 1.0
        )
        self.samples.extend(s * (REFERENCE_S / _SMALL_REFERENCE_S) for s in seen)
        return Timed(value, wall, wall / slowdown)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3


class Timed:
    """One timed call: its value, wall seconds, quiet-host seconds."""

    __slots__ = ("value", "wall_s", "quiet_s")

    def __init__(self, value: Any, wall_s: float, quiet_s: float) -> None:
        self.value = value
        self.wall_s = wall_s
        self.quiet_s = quiet_s
