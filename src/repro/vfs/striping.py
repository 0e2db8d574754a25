"""Striped placement: which device holds which byte.

Every placement in this repository — PVFS2's ``simple_stripe`` and
``varstrip`` distributions, and the round-robin and varstrip
aggregations of paper §4.3 — is one thing: a cycle of
``(device, length)`` strips laid end to end and repeated for the length
of the file, each device storing the strips it is handed densely, in
logical order, in its own byte stream.  (It is also what PVFS list-I/O
runs and Clusterfile's two-level striping reduce to.)
:class:`StripPattern` is that cycle, and the only code that decides
which device holds a byte; the rows of
:data:`repro.pvfs2.distribution.DISTRIBUTIONS` and
:data:`repro.core.aggregation.AGGREGATIONS` turn a ``{"type": ...}``
description into strips, nothing more.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

__all__ = ["Run", "StripPattern", "round_robin"]


class Run(NamedTuple):
    """A maximal contiguous byte run on one server.

    ``logical`` is the file offset of the run's first byte; ``local`` is
    the offset inside the server's bstream; ``length`` is in bytes.  A
    tuple, so the planners that walk runs by the hundred per request
    unpack them instead of reading attributes.
    """

    server: int
    local: int
    length: int
    logical: int


def round_robin(n: int, unit: int, first: int = 0) -> list[tuple[int, int]]:
    """Round-robin strips: unit *i* on device *(first + i) mod n* (PVFS2's
    ``start_server``, RFC 5661's first stripe index)."""
    if not 0 <= first < n:
        raise ValueError(f"first device {first} out of range for {n} devices")
    return [((first + i) % n, unit) for i in range(n)]


class StripPattern:
    """A repeating cycle of ``(device, length)`` strips.

    A device may hold several strips of a cycle (weighted striping) or
    none.  ``ndevices`` defaults to one more than the highest device
    named.
    """

    def __init__(self, strips: Sequence[tuple[int, int]], ndevices: int | None = None):
        self.strips = [(int(device), int(length)) for device, length in strips]
        if not self.strips:
            raise ValueError("a strip pattern needs at least one strip")
        if ndevices is None:
            ndevices = max(device for device, _ in self.strips) + 1
        self.ndevices = ndevices
        #: bytes each device stores per cycle
        self.per_cycle = [0] * ndevices
        # Where each strip starts: in the cycle, and in its device's
        # per-cycle share.
        self._logical_base: list[int] = []
        self._local_base: list[int] = []
        logical = 0
        for device, length in self.strips:
            if not 0 <= device < ndevices:
                raise ValueError(f"strip device {device} out of range")
            if length < 1:
                raise ValueError("strip lengths must be >= 1")
            self._logical_base.append(logical)
            self._local_base.append(self.per_cycle[device])
            self.per_cycle[device] += length
            logical += length
        #: logical bytes per cycle
        self.cycle = logical
        # With one strip length the strip holding a byte is found by
        # division; otherwise by bisecting the strip bases.
        lengths = {length for _, length in self.strips}
        self._unit = lengths.pop() if len(lengths) == 1 else 0

    def locate(self, offset: int) -> tuple[int, int, int]:
        """Map logical ``offset`` to ``(device, local_offset, run_remaining)``.

        ``run_remaining`` is the number of bytes from ``offset`` (incl.)
        that stay contiguous on that device.
        """
        k, rem = divmod(offset, self.cycle)
        if self._unit:
            idx = rem // self._unit
        else:
            idx = bisect_right(self._logical_base, rem) - 1
        device, length = self.strips[idx]
        within = rem - self._logical_base[idx]
        local = k * self.per_cycle[device] + self._local_base[idx] + within
        return device, local, length - within

    def runs(self, offset: int, nbytes: int) -> list[Run]:
        """Split ``[offset, offset+nbytes)`` into per-device runs in logical order."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        out: list[Run] = []
        locate = self.locate
        pos = offset
        end = offset + nbytes
        while pos < end:
            device, local, length = locate(pos)
            if length > end - pos:
                length = end - pos
            # Merge with the previous run when it abuts it on the same device.
            if out and (prev := out[-1]).server == device and prev.local + prev.length == local:
                out[-1] = Run(device, prev.local, prev.length + length, prev.logical)
            else:
                out.append(Run(device, local, length, pos))
            pos += length
        return out

    def local_sizes(self, size: int) -> list[int]:
        """Each device's byte-stream size in a file of ``size`` logical bytes."""
        if size < 0:
            raise ValueError("size must be >= 0")
        k, rem = divmod(size, self.cycle)
        sizes = [k * per for per in self.per_cycle]
        for (device, length), base in zip(self.strips, self._logical_base):
            if base >= rem:
                break
            sizes[device] += min(length, rem - base)
        return sizes

    def logical_size(self, local_sizes: Sequence[int]) -> int:
        """Logical EOF implied by each device's byte-stream size."""
        if len(local_sizes) != self.ndevices:
            raise ValueError(
                f"expected {self.ndevices} bstream sizes, got {len(local_sizes)}"
            )
        eof = 0
        for (device, length), logical, local in zip(
            self.strips, self._logical_base, self._local_base
        ):
            if local_sizes[device] == 0:
                continue
            # The device's last byte, if this is the strip it falls in.
            k, rem = divmod(local_sizes[device] - 1, self.per_cycle[device])
            if local <= rem < local + length:
                eof = max(eof, k * self.cycle + logical + rem - local + 1)
        return eof
