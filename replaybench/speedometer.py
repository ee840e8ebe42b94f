"""Host-speed correction for wall-clock timings on a shared machine.

On a small cloud VM the speed of one vCPU is not constant.  A neighbour
on the same physical core can halve it for seconds at a time.  On the
2-vCPU cloud VM where these figures were taken, an identical warm
replay took 0.23 s in one second and 0.61 s a few seconds later.  A
median over a 30-second run then reports how busy the neighbours
were, not how fast the program is.

A :class:`Speedometer` measures that speed while a timed section runs.
A background thread wakes every ``PERIOD_S`` and times a fixed
pure-Python loop, which holds the interpreter lock for its whole
length.  At the reference speed the loop takes ``REFERENCE_S``.  The
section's corrected time is its wall time multiplied by the mean of
``REFERENCE_S / probe``.  That mean is the host's average speed
relative to the reference while the section ran, so the product is
the time the section would have taken at the reference speed.

The probe's code is fixed and its data fits in a few cache lines, so
the program under test can neither change its work nor evict its
data.  README.md records the check: a replay slowed down by extra CPU
work, or by sweeping memory, read slower by the same ratio after
correction as in wall time, within 2 %.  The thread takes about 1 % of
the CPU during every timed section, the same way on every commit.  On
the same host, the correction cut the coefficient of variation of
single warm replays from 14-24 % to 5-7 %.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any

__all__ = ["Speedometer"]

#: Time between probes.
PERIOD_S = 0.01
#: Probe time at the reference speed, close to the fastest the probe
#: ran on the 2-vCPU VM above (73-88 us minimum, 85-97 us 5th
#: percentile).  Only a scale: corrected times equal wall times at that
#: speed.
REFERENCE_S = 85e-6


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


# Small enough to stay in a few cache lines: a program that touches
# more memory cannot evict the probe's data and so move its speed.
_TABLE = {i: i for i in range(16)}
_SLOTS = [_Slot(i, i) for i in range(4)]


def _probe() -> float:
    """Time a fixed loop of dict lookups and attribute reads and writes.

    That mix tracks the simulator's slowdown more closely than a bare
    integer loop does.  The loop allocates no tracked objects, so it
    never triggers a garbage collection inside the timed section.
    """
    clock = time.perf_counter
    t0 = clock()
    total = 0
    for k in range(800):
        slot = _SLOTS[k & 3]
        slot.a = _TABLE[(k * 7) & 15]
        total += slot.a + slot.b
    return clock() - t0


class Speedometer:
    """Context manager timing a section and the host's speed during it.

    After the ``with`` block, :attr:`wall_s` is the section's wall time
    and :attr:`corrected_s` that time at the reference speed.
    """

    def __init__(self) -> None:
        self._probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._t0 = 0.0
        self.wall_s = 0.0

    def _sample(self) -> None:
        while True:
            self._probes.append(_probe())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "Speedometer":
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self._stop.set()
        self._thread.join()

    @property
    def speed(self) -> float:
        """Mean host speed during the section, relative to the reference."""
        return statistics.fmean(REFERENCE_S / p for p in self._probes)

    @property
    def corrected_s(self) -> float:
        return self.wall_s * self.speed
