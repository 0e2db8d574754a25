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

from repro.sim.engine import Simulator
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
        self.busy_time = 0.0

    def consume(self, work_seconds: float):
        """Process generator: occupy one core for ``work / speed``.

        One event per charge, busy or not: the core's grant event fires
        at the *end* of the service time (``acquire(hold=)``), scheduled
        here when a core is free and by the releasing job when queued.
        An interrupt before that returns the core (or withdraws the
        request) and charges no ``busy_time``.
        """
        if work_seconds < 0:
            raise ValueError("work must be >= 0")
        if work_seconds == 0:
            return
        duration = work_seconds / self.spec.speed
        yield self.cores.acquire(hold=duration)
        self.busy_time += duration
        self.cores.release()

    @property
    def queue_len(self) -> int:
        """Work items waiting for a core (instantaneous queue depth)."""
        return self.cores.queue_len
