"""Rotating-disk model.

The paper's storage nodes carry one (two, in the 3-tier configuration)
Seagate 80 GB 7200 rpm ATA/100 drives.  Writes in the evaluation are
disk-bound, so the disk model matters for every Figure-6 curve; reads
come from the warm server cache, so the model mostly matters for cache
misses and commit traffic.

The model charges, per request on a single arm (capacity-1 resource):

* a positioning cost (average seek + half-rotation) whenever the
  request does not continue the previous request's byte range, and
* a media-transfer cost at the platter rate, issued in chunks through
  the owning node's I/O bus so that two disks on one node share the
  node's I/O ceiling (the reason 3-tier storage nodes with two disks do
  not deliver twice the bandwidth — paper §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["DiskFailed", "DiskSpec", "Disk"]


class DiskFailed(Exception):
    """An I/O was issued to (or caught mid-flight by) a failed disk.

    Deliberately not an :class:`~repro.vfs.api.FsError`: media failure
    is a hardware event the storage daemon must translate into protocol
    errors (or mask via recovery) itself.
    """

#: Chunk used to interleave media transfers through a shared I/O bus.
DISK_CHUNK = 512 * 1024


@dataclass(frozen=True)
class DiskSpec:
    """Performance envelope of one drive.

    ``read_bw``/``write_bw`` are sustained media rates in bytes/second;
    ``positioning`` is the *full* average seek + rotational latency in
    seconds, charged for long jumps.  Short forward jumps (an elevator
    sweeping a dense batch of sorted requests) cost ``settle`` plus the
    pass-over time of the skipped bytes, capped at the full positioning
    cost — the reason a sorted queue of nearby small writes vastly
    outperforms scattered ones.  Defaults approximate a 2002-era
    7200 rpm ATA drive as seen through a journalled filesystem (see
    DESIGN.md §4.3).
    """

    read_bw: float = 55e6
    write_bw: float = 24e6
    positioning: float = 0.0085
    settle: float = 0.0012

    def __post_init__(self):
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError("disk bandwidths must be positive")
        if self.positioning < 0 or self.settle < 0:
            raise ValueError("positioning/settle times must be >= 0")
        # settle > positioning is harmless: position_cost caps at the
        # full positioning time.

    def position_cost(self, gap_bytes: int) -> float:
        """Arm-movement cost for a jump of ``gap_bytes`` (0 = contiguous)."""
        if gap_bytes == 0:
            return 0.0
        sweep = self.settle + gap_bytes / self.read_bw
        return min(self.positioning, sweep)


class Disk:
    """One disk arm attached to a node's I/O bus.

    ``io_bus`` is an optional capacity-1 resource shared by all disks of
    a node; ``bus_bw`` is that bus's bandwidth.  When absent, the disk
    is limited only by its own media rate.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: DiskSpec,
        name: str = "disk",
        io_bus: Optional[Resource] = None,
        bus_bw: float = float("inf"),
    ):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.arm = Resource(sim, 1, name=f"{name}.arm")
        self.io_bus = io_bus
        self.bus_bw = bus_bw
        self._last_end: int = -1
        self.read_bytes = 0
        self.write_bytes = 0
        self.requests = 0
        self.busy_time = 0.0
        #: Set by the fault injector; requests against a failed disk
        #: raise :class:`DiskFailed` instead of touching the media.
        self.failed = False

    def fail(self) -> None:
        """Fail the media: every request raises :class:`DiskFailed`
        until :meth:`restore`.  Requests already past their failure
        check complete normally (the drive's track buffer drains)."""
        self.failed = True

    def restore(self) -> None:
        """Bring the media back (a drive swap: the arm position is no
        longer meaningful, so the next request pays full positioning)."""
        self.failed = False
        self._last_end = -1

    def _check_failed(self) -> None:
        if self.failed:
            raise DiskFailed(f"{self.name}: media failed")

    def io(self, offset: int, nbytes: int, write: bool):
        """Process generator of one request against the media."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        self._check_failed()
        if not self.arm.try_acquire():
            yield self.arm.acquire()
        t_start = self.sim.now
        try:
            self._check_failed()
            self.requests += 1
            if offset != self._last_end:
                # Forward sweeps over short gaps are cheap; anything
                # else (including backward jumps) pays the full cost.
                gap = offset - self._last_end
                if self._last_end >= 0 and 0 < gap:
                    cost = self.spec.position_cost(gap)
                else:
                    cost = self.spec.positioning
                if cost > 0:
                    yield self.sim.timeout(cost)
            media_bw = self.spec.write_bw if write else self.spec.read_bw
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, DISK_CHUNK)
                # The bus is held only for the wire time of the chunk;
                # the media-transfer residual overlaps with the other
                # disk's bus usage (buffered DMA pipeline).
                bus_time = chunk / self.bus_bw if self.io_bus is not None else 0.0
                media_time = chunk / media_bw
                if self.io_bus is not None:
                    yield self.io_bus.serve(bus_time)
                residual = media_time - bus_time
                if residual > 0:
                    yield self.sim.timeout(residual)
                remaining -= chunk
            self._last_end = offset + nbytes
            if write:
                self.write_bytes += nbytes
            else:
                self.read_bytes += nbytes
        finally:
            self.busy_time += self.sim.now - t_start
            self.arm.release()
