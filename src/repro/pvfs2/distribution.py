"""File data distributions: how logical bytes map onto storage servers.

A distribution is its portable description, ``{"type": ..., params}``:
the MDS stores it per file, hands it to clients, and the Direct-pNFS
layout translator forwards it (paper §4.2: the translator does not
interpret file-system-specific layout information, only the aggregation
type and parameters).  :data:`DISTRIBUTIONS` has one row per type,
building the file's :class:`~repro.vfs.striping.StripPattern` over the
file system's ``nservers`` storage servers:

* ``simple_stripe`` — PVFS2's default round-robin striping, one
  ``stripe_size`` unit per server starting at ``start_server`` (PVFS2
  rotates the first datafile per file so concurrent streams do not
  convoy on one server);
* ``varstrip`` — the ``pattern`` of ``(server, length)`` strips as
  given: the "variable stripe size" scheme (ref [24]) the paper cites
  as needing an optional aggregation driver.

The pattern answers where a byte lives (``runs``) and how bstream sizes
and the logical size relate (``logical_size`` / ``local_sizes``);
:func:`extents` groups runs into the one bstream extent each server
holds of a range.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.vfs.striping import Run, StripPattern, round_robin

__all__ = ["DISTRIBUTIONS", "Extent", "extents"]

#: distribution type -> fn(description) -> its strip pattern
DISTRIBUTIONS: dict[str, Callable[[dict], StripPattern]] = {
    "simple_stripe": lambda d: StripPattern(
        round_robin(d["nservers"], d["stripe_size"], d.get("start_server", 0)),
        d["nservers"],
    ),
    "varstrip": lambda d: StripPattern(d["pattern"], d["nservers"]),
}


class Extent(NamedTuple):
    """One server's share of a contiguous logical range.

    Bstream bytes ``[local, local + length)`` on ``server``; ``pieces``
    are the runs that tile it, in logical and local order alike.
    """

    server: int
    local: int
    length: int
    pieces: tuple[Run, ...]


def extents(pattern: StripPattern, offset: int, nbytes: int) -> list[Extent]:
    """Group ``pattern.runs(offset, nbytes)`` into per-server bstream extents.

    Striping hands a server its stripe units at consecutive local
    offsets, so the runs a contiguous logical range leaves on one
    server abut: each server touched gets exactly one extent, listed in
    order of first touch.  This is the only place that relies on that;
    a placement whose runs did not abut would simply start a second
    extent for the server.
    """
    groups: list[list[Run]] = []
    current: dict[int, list[Run]] = {}
    for run in pattern.runs(offset, nbytes):
        server, local, _length, _logical = run
        group = current.get(server)
        if group is not None and (last := group[-1]).local + last.length == local:
            group.append(run)
        else:
            group = current[server] = [run]
            groups.append(group)
    out = []
    for group in groups:
        server, local, _length, _logical = group[0]
        _server, last_local, last_length, _logical = group[-1]
        out.append(Extent(server, local, last_local + last_length - local, tuple(group)))
    return out
