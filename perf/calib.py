"""Reference kernel and noise-normalised host timing.

Host time on a small shared box moves in modes that last seconds (the
same pure-Python loop reads ≈27 ms in one and ≈35 ms in the other), so
raw wall seconds of two runs of the same code differ by more than any
bound worth gating on.  Every timed unit is therefore bracketed by a
fixed reference kernel, and its wall time is divided by how slow the
kernel ran just then::

    normalised = wall × CALIB_REF_S / mean(kernel before, kernel after)

The result reads as "seconds on a machine that runs the kernel in
``CALIB_REF_S``".  The kernel is frozen: changing it, or
``CALIB_REF_S``, re-bases every ``wall_norm_s`` and ``setup_s`` ever
recorded.
"""

from __future__ import annotations

import heapq
import time

__all__ = [
    "CALIB_ITERATIONS",
    "CALIB_REF_S",
    "NOISY_SPREAD",
    "Bracket",
    "machine_speed",
    "reference_kernel",
    "time_kernel",
]

#: Reference speed: normalised seconds are seconds on a machine where
#: :func:`reference_kernel` takes exactly this long.
CALIB_REF_S = 0.030
CALIB_ITERATIONS = 60_000
#: Two bracketing readings further apart than this (relative to the
#: smaller) mean the machine changed speed inside the unit; such units
#: are counted, as ``bench.noisy_units``.  Re-running them was tried and
#: dropped: it cost 18 % more time and narrowed nothing (interleaved,
#: fourteen repetitions each: 3.1 % between quartiles without, 3.0 % with).
NOISY_SPREAD = 0.15


def _ticker():
    total = 0
    while True:
        total += yield total


def reference_kernel(iterations: int = CALIB_ITERATIONS) -> int:
    """The simulator's inner loop in miniature: heap + generator send.

    ``heappush``/conditional ``heappop`` on a small tuple key plus one
    generator ``send`` per iteration — the same interpreter work the
    event kernel does per event, so it speeds up and slows down with it.
    """
    heap: list[tuple[float, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    gen = _ticker()
    send = gen.send
    send(None)
    acc = 0
    for i in range(iterations):
        push(heap, ((i * 7919) % 1013 * 0.001, 1, i))
        if len(heap) > 32:
            acc += pop(heap)[2]
        acc = send(1)
    return acc + len(heap)


def time_kernel() -> float:
    """Wall seconds of one reference-kernel run."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def machine_speed() -> float:
    """The faster of two kernel runs.

    Disturbances only ever add time, and a single 30 ms run catches a
    pre-emption often enough to matter: interleaved on one box, twelve
    repetitions normalised by single runs spread 7.6 % between
    quartiles, by the faster of two 3.1 %.
    """
    return min(time_kernel(), time_kernel())


class Bracket:
    """Normalise wall intervals by the kernel timed around them.

    Successive units share a reading: the one after unit *i* is the one
    before unit *i+1*, so a repetition of *n* units costs *n + 1*.
    """

    def __init__(self):
        self.series: list[float] = [machine_speed()]

    def close(self) -> tuple[float, bool]:
        """Read the speed after a unit; returns (scale factor, noisy?)."""
        before, after = self.series[-1], machine_speed()
        self.series.append(after)
        noisy = abs(after - before) > NOISY_SPREAD * min(after, before)
        return CALIB_REF_S / ((before + after) / 2.0), noisy
