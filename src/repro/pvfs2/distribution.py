"""File data distributions: how logical bytes map onto storage servers.

A :class:`Distribution` answers three questions:

* which server stores logical offset *o* and at which *local* offset in
  that server's bstream (``runs`` splits a byte range into per-server
  contiguous runs; ``extents`` groups those runs into the one bstream
  extent each server holds of the range),
* how large is the logical file given each server's bstream size
  (``logical_size`` — PVFS2 derives file size from its datafiles), and
* how to describe itself portably (``describe`` /
  :func:`distribution_from_description`) — the contract the Direct-pNFS
  layout translator relies on (paper §4.2: the translator does not
  interpret file-system-specific layout information, it forwards the
  aggregation type and parameters).

``SimpleStripe`` is PVFS2's default round-robin striping;
``VarStrip`` expresses arbitrary repeating (server, length) patterns —
the "variable stripe size" scheme the paper cites as needing an
optional aggregation driver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = [
    "Distribution",
    "Extent",
    "Run",
    "SimpleStripe",
    "VarStrip",
    "distribution_from_description",
]


@dataclass(frozen=True)
class Run:
    """A maximal contiguous byte run on one server.

    ``logical`` is the file offset of the run's first byte; ``local`` is
    the offset inside the server's bstream; ``length`` is in bytes.
    """

    server: int
    local: int
    length: int
    logical: int


@dataclass(frozen=True)
class Extent:
    """One server's share of a contiguous logical range.

    Bstream bytes ``[local, local + length)`` on ``server``; ``pieces``
    are the runs that tile it, in logical and local order alike.
    """

    server: int
    local: int
    length: int
    pieces: tuple[Run, ...]


class Distribution(ABC):
    """Mapping between a file's logical bytes and server bstreams."""

    #: registry key used by ``describe``/``distribution_from_description``
    name: str = "abstract"

    def __init__(self, nservers: int):
        if nservers < 1:
            raise ValueError("distribution needs at least one server")
        self.nservers = nservers

    @abstractmethod
    def locate(self, offset: int) -> tuple[int, int, int]:
        """Map logical ``offset`` to ``(server, local_offset, run_remaining)``.

        ``run_remaining`` is the number of bytes from ``offset`` (incl.)
        that stay contiguous on that server.
        """

    @abstractmethod
    def logical_size(self, local_sizes: list[int]) -> int:
        """Logical EOF implied by each server's bstream size."""

    @abstractmethod
    def describe(self) -> dict:
        """Portable description: ``{"type": name, ...params}``."""

    def runs(self, offset: int, nbytes: int) -> list[Run]:
        """Split ``[offset, offset+nbytes)`` into per-server runs in logical order."""
        if offset < 0 or nbytes < 0:
            raise ValueError("offset/nbytes must be >= 0")
        out: list[Run] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            server, local, remaining = self.locate(pos)
            length = min(remaining, end - pos)
            # Merge with previous run when contiguous on the same server.
            if out and out[-1].server == server and out[-1].local + out[-1].length == local:
                prev = out.pop()
                out.append(Run(server, prev.local, prev.length + length, prev.logical))
            else:
                out.append(Run(server, local, length, pos))
            pos += length
        return out

    def extents(self, offset: int, nbytes: int) -> list[Extent]:
        """Group ``runs(offset, nbytes)`` into per-server bstream extents.

        Striping hands a server its stripe units at consecutive local
        offsets, so the runs a contiguous logical range leaves on one
        server abut: each server touched gets exactly one extent,
        listed in order of first touch.  This is the only place that
        relies on that; a distribution whose runs did not abut would
        simply start a second extent for the server.
        """
        groups: list[list[Run]] = []
        current: dict[int, list[Run]] = {}
        for run in self.runs(offset, nbytes):
            group = current.get(run.server)
            if group is not None and group[-1].local + group[-1].length == run.local:
                group.append(run)
            else:
                group = current[run.server] = [run]
                groups.append(group)
        return [
            Extent(
                g[0].server,
                g[0].local,
                g[-1].local + g[-1].length - g[0].local,
                tuple(g),
            )
            for g in groups
        ]


class SimpleStripe(Distribution):
    """Round-robin striping with a fixed stripe unit (PVFS2 default).

    ``start_server`` rotates which server holds stripe 0.  PVFS2
    rotates the first datafile per file so concurrent streams do not
    convoy on one server; the NFSv4.1 file layout carries the same
    information as ``first_stripe_index``.
    """

    name = "simple_stripe"

    def __init__(self, nservers: int, stripe_size: int, start_server: int = 0):
        super().__init__(nservers)
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        if not 0 <= start_server < nservers:
            raise ValueError("start_server out of range")
        self.stripe_size = stripe_size
        self.start_server = start_server

    def locate(self, offset: int) -> tuple[int, int, int]:
        unit = self.stripe_size
        stripe_no = offset // unit
        within = offset - stripe_no * unit
        server = (stripe_no + self.start_server) % self.nservers
        local = (stripe_no // self.nservers) * unit + within
        return server, local, unit - within

    def logical_size(self, local_sizes: list[int]) -> int:
        if len(local_sizes) != self.nservers:
            raise ValueError(
                f"expected {self.nservers} bstream sizes, got {len(local_sizes)}"
            )
        unit = self.stripe_size
        eof = 0
        for server, lsize in enumerate(local_sizes):
            if lsize == 0:
                continue
            # Position of this server in the rotated round-robin order.
            rr = (server - self.start_server) % self.nservers
            last = lsize - 1  # last local byte index on this server
            full = last // unit
            within = last - full * unit
            logical_last = (full * self.nservers + rr) * unit + within
            eof = max(eof, logical_last + 1)
        return eof

    def describe(self) -> dict:
        return {
            "type": self.name,
            "nservers": self.nservers,
            "stripe_size": self.stripe_size,
            "start_server": self.start_server,
        }


class VarStrip(Distribution):
    """Repeating pattern of (server, length) strips of arbitrary sizes.

    ``pattern=[(0, 1 MB), (1, 64 KB), (2, 1 MB)]`` lays the file out in
    repeating cycles of those strips — the Exedra-style variable stripe
    size scheme (paper §4.3, ref [24]).
    """

    name = "varstrip"

    def __init__(self, nservers: int, pattern: list[tuple[int, int]]):
        super().__init__(nservers)
        if not pattern:
            raise ValueError("pattern must be non-empty")
        for server, length in pattern:
            if not 0 <= server < nservers:
                raise ValueError(f"pattern server {server} out of range")
            if length < 1:
                raise ValueError("pattern strip lengths must be >= 1")
        self.pattern = [(int(s), int(l)) for s, l in pattern]
        self.cycle = sum(l for _, l in self.pattern)
        # Per-server bytes contributed by one full cycle, and the local
        # offset of each strip within its server's per-cycle share.
        per_server = [0] * nservers
        self._strip_local_base: list[int] = []
        self._strip_logical_base: list[int] = []
        logical = 0
        for server, length in self.pattern:
            self._strip_local_base.append(per_server[server])
            self._strip_logical_base.append(logical)
            per_server[server] += length
            logical += length
        self.per_cycle = per_server

    def locate(self, offset: int) -> tuple[int, int, int]:
        k, rem = divmod(offset, self.cycle)
        for idx, (server, length) in enumerate(self.pattern):
            if rem < length:
                local = k * self.per_cycle[server] + self._strip_local_base[idx] + rem
                return server, local, length - rem
            rem -= length
        raise AssertionError("unreachable: rem < cycle by construction")

    def logical_size(self, local_sizes: list[int]) -> int:
        if len(local_sizes) != self.nservers:
            raise ValueError(
                f"expected {self.nservers} bstream sizes, got {len(local_sizes)}"
            )
        eof = 0
        for server, lsize in enumerate(local_sizes):
            if lsize == 0 or self.per_cycle[server] == 0:
                continue
            last = lsize - 1
            k, rem = divmod(last, self.per_cycle[server])
            # Find the strip of this server containing per-cycle local `rem`.
            for idx, (s, length) in enumerate(self.pattern):
                if s != server:
                    continue
                base = self._strip_local_base[idx]
                if base <= rem < base + length:
                    logical_last = (
                        k * self.cycle + self._strip_logical_base[idx] + (rem - base)
                    )
                    eof = max(eof, logical_last + 1)
                    break
        return eof

    def describe(self) -> dict:
        return {
            "type": self.name,
            "nservers": self.nservers,
            "pattern": list(self.pattern),
        }


def distribution_from_description(desc: dict) -> Distribution:
    """Rebuild a distribution from ``describe()`` output."""
    kind = desc.get("type")
    if kind == SimpleStripe.name:
        return SimpleStripe(
            desc["nservers"], desc["stripe_size"], desc.get("start_server", 0)
        )
    if kind == VarStrip.name:
        return VarStrip(desc["nservers"], [tuple(p) for p in desc["pattern"]])
    raise ValueError(f"unknown distribution type {kind!r}")
