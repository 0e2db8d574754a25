"""File data distributions: how logical bytes map onto storage servers.

A :class:`Distribution` is a :class:`~repro.vfs.striping.StripPattern`
over the file system's storage servers, and answers three questions:

* which server stores logical offset *o* and at which *local* offset in
  that server's bstream (``runs`` splits a byte range into per-server
  contiguous runs; ``extents`` groups those runs into the one bstream
  extent each server holds of the range),
* how large is the logical file given each server's bstream size, and
  the reverse (``logical_size`` — PVFS2 derives file size from its
  datafiles; ``local_sizes`` — what a truncate leaves on each server),
* how to describe itself portably (``describe`` /
  :func:`distribution_from_description`) — the contract the Direct-pNFS
  layout translator relies on (paper §4.2: the translator does not
  interpret file-system-specific layout information, it forwards the
  aggregation type and parameters).

The first two are the strip pattern's; a distribution class only builds
its strips and describes them.  ``SimpleStripe`` is PVFS2's default
round-robin striping — one stripe unit per server, starting at
``start_server``; ``VarStrip`` takes the strips as given — the
"variable stripe size" scheme the paper cites as needing an optional
aggregation driver.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.vfs.striping import Run, StripPattern

__all__ = [
    "Distribution",
    "Extent",
    "Run",
    "SimpleStripe",
    "VarStrip",
    "distribution_from_description",
]


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


class Distribution(StripPattern, ABC):
    """Mapping between a file's logical bytes and server bstreams.

    A strip pattern over the file system's storage servers: ``locate``,
    ``runs``, ``logical_size`` and ``local_sizes`` are inherited; a
    subclass builds its strips and describes itself.
    """

    #: registry key used by ``describe``/``distribution_from_description``
    name: str = "abstract"

    def __init__(self, nservers: int, strips: list[tuple[int, int]]):
        if nservers < 1:
            raise ValueError("distribution needs at least one server")
        super().__init__(strips, nservers)
        self.nservers = nservers

    @abstractmethod
    def describe(self) -> dict:
        """Portable description: ``{"type": name, ...params}``."""

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
        if stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        if not 0 <= start_server < nservers:
            raise ValueError("start_server out of range")
        super().__init__(
            nservers,
            [((start_server + i) % nservers, stripe_size) for i in range(nservers)],
        )
        self.stripe_size = stripe_size
        self.start_server = start_server

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
        super().__init__(nservers, pattern)
        self.pattern = self.strips

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
