"""Host-speed sampler, so that timings are comparable across host states.

On a shared host the same pass runs up to 1.5x faster or slower from one
stretch of seconds to the next, and a stretch can last minutes.  To take
that out of a timing, a ``SIGALRM`` interval timer interrupts the timed
work every ``period`` seconds and runs ``kernel``, a fixed piece of pure
Python owned by the benchmark (Fractions, tuple-keyed dicts, tuple words
and floats, the kinds of work the package does).  A kernel call's time
says how fast the host runs at that moment.  Each stretch of work between
two samples is rescaled by the mean of the two kernel times around it, to
the time it would take on a host where one kernel call takes
``REFERENCE_S``; the corrected time is the sum of the rescaled stretches,
so the sampler's own time is left out.  The kernel does not touch
``freebycyclic``, so a change to the package moves the corrected time and
not the scale.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# about one kernel call's time on a 2-vCPU Intel Xeon VM under CPython
# 3.11.7; it only sets the scale of corrected times
REFERENCE_S = 0.001


def kernel() -> tuple:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    word: tuple = ()
    x = 1.0
    for i in range(1, 160):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        key = (i % 31, i & 7)
        table[key] = table.get(key, 0) + i
        word = word[-40:] + ((chr(97 + i % 3), 1 - 2 * (i & 1)),)
        x = x * 1.0001 + i / (i + 1)
    return acc, len(table), len(word), x


class Sampler:
    """Kernel times sampled while a block runs, and the stretches of work
    between them."""

    def __init__(self, period: float):
        self.period = period
        self.kernels: list[float] = []
        self.stretches: list[float] = []
        self._last_end = 0.0

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if self.kernels:
            self.stretches.append(start - self._last_end)
        self.kernels.append(end - start)
        self._last_end = end

    @contextmanager
    def running(self):
        """Sample on entry, every ``period`` seconds, and on exit."""
        self.kernels, self.stretches = [], []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    @property
    def kernel_s(self) -> float:
        """Mean kernel time over the block."""
        return sum(self.kernels) / len(self.kernels)

    def corrected(self) -> float:
        """Seconds of work between the entry and exit samples, at the
        reference speed."""
        return sum(stretch * 2 * REFERENCE_S / (before + after)
                   for stretch, before, after in zip(
                       self.stretches, self.kernels, self.kernels[1:]))
