"""CPU service model.

Protocol work is charged to a node's CPU as seconds of *reference-speed
work*; a node with ``speed`` 1.3 completes 1 second of work in
1/1.3 simulated seconds.  The CPU is a multi-core FIFO resource, so a
busy server delays request processing — the mechanism behind the
paper's "client and server CPU performance becomes the limiting
factor" observation for warm-cache reads (§6.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import _PROCESSED, Event, Simulator
from repro.sim.resources import Resource

__all__ = ["CpuSpec", "Cpu"]


@dataclass(frozen=True)
class CpuSpec:
    """Core count and relative speed (1.0 = reference core)."""

    cores: int = 2
    speed: float = 1.0

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


class Cpu:
    """Multi-core FIFO processor."""

    def __init__(self, sim: Simulator, spec: CpuSpec, name: str = "cpu"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.cores = Resource(sim, spec.cores, name=f"{name}.cores")
        #: What every zero-work charge returns: already fired, so a
        #: process yielding it runs straight on.
        self._no_work = Event(sim)
        self._no_work._state = _PROCESSED

    def consume(self, work_seconds: float) -> Event:
        """Occupy one core for ``work / speed``; returns the event that
        fires when the work is done (``yield`` it, or hand it to
        :meth:`Simulator.spawn` to overlap it with something else).

        One event per charge, busy or not (:meth:`Resource.serve`); zero
        work is an event that has already fired.  Interrupting the
        waiter before the end returns the core (or withdraws the
        request) and charges no ``busy_time``.
        """
        if work_seconds < 0:
            raise ValueError("work must be >= 0")
        if work_seconds == 0:
            return self._no_work
        return self.cores.serve(work_seconds / self.spec.speed)

    @property
    def busy_time(self) -> float:
        """Core-seconds of completed charges."""
        return self.cores.busy_time
