"""Aggregation drivers (paper §4.3): the client's side of a placement.

The NFSv4.1 file layout natively expresses round-robin striping and a
cyclical device pattern; anything richer — variable stripe sizes,
replicated or hierarchical striping — needs an *aggregation driver*: a
small, OS-independent component that tells the client how the parallel
file system maps file bytes onto storage nodes.  The layout carries
``{"type": <name>, ...params}``; :data:`AGGREGATIONS` has one row per
type, turning that description into the client's
``map(offset, nbytes, for_write) -> [Run]``.  A run's ``server`` is a
*device slot* (an index into the layout's device list); data servers
are addressed with logical file offsets (sparse packing), so the client
sends ``run.logical``.

The striping rows are a :class:`~repro.vfs.striping.StripPattern` over
device slots, ``for_write`` moving nothing; ``replicated`` wraps an
inner description and is the one row that is not a strip pattern.  A
new scheme is a new row.
"""

from __future__ import annotations

from typing import Callable

from repro.vfs.striping import Run, StripPattern, round_robin

__all__ = ["AGGREGATIONS", "aggregation_for"]

#: ``map(offset, nbytes, for_write) -> [Run]`` in logical order.
Map = Callable[..., list[Run]]


def _strips(build: Callable[[dict], list[tuple[int, int]]]) -> Callable[[dict], Map]:
    """A row whose placement is the strip pattern ``build`` lays out."""

    def row(desc: dict) -> Map:
        runs = StripPattern(build(desc)).runs
        return lambda offset, nbytes, for_write=False: runs(offset, nbytes)

    return row


def _hierarchical(d: dict) -> list[tuple[int, int]]:
    """Two-level striping (Clusterfile-style): outer units round-robin
    across groups, inner units round-robin across the slots of a group."""
    size, outer, inner = d["group_size"], d["outer_unit"], d["inner_unit"]
    if outer % inner:
        raise ValueError("outer_unit must be a multiple of inner_unit")
    return [
        (group * size + i % size, inner)
        for group in range(d["ngroups"])
        for i in range(outer // inner)
    ]


def _replicated(d: dict) -> Map:
    """Mirrored striping (RAID-1 over an inner placement, refs [25, 26]).

    Writes fan out to every replica; reads alternate between replicas
    by run for load spreading.  Replica *r* of inner slot *s* is slot
    ``s + replicas[r]``.
    """
    inner, replicas = aggregation_for(d["inner"]), list(d["replicas"])
    if not replicas:
        raise ValueError("need at least one replica offset")

    def map_(offset: int, nbytes: int, for_write: bool = False) -> list[Run]:
        runs = inner(offset, nbytes, for_write)
        if for_write:
            return [
                Run(run.server + off, run.local, run.length, run.logical)
                for run in runs
                for off in replicas
            ]
        return [
            Run(run.server + replicas[i % len(replicas)], run.local, run.length, run.logical)
            for i, run in enumerate(runs)
        ]

    return map_


#: aggregation type -> fn(description) -> the client's ``map``
AGGREGATIONS: dict[str, Callable[[dict], Map]] = {
    # Standard NFSv4.1 striping (RFC 5661's first stripe index).
    "round_robin": _strips(
        lambda d: round_robin(d["nslots"], d["stripe_unit"], d.get("first_slot", 0))
    ),
    # NFSv4.1's cyclical device pattern; a repeated slot weights it.
    "device_cycle": _strips(lambda d: [(slot, d["stripe_unit"]) for slot in d["cycle"]]),
    # Variable stripe sizes: a repeating (slot, length) pattern (ref [24]).
    "varstrip": _strips(lambda d: d["pattern"]),
    "hierarchical": _strips(_hierarchical),
    "replicated": _replicated,
}


def aggregation_for(desc: dict) -> Map:
    """The client's ``map`` for the layout's aggregation description."""
    try:
        row = AGGREGATIONS[desc.get("type")]
    except KeyError:
        raise ValueError(f"no aggregation driver for {desc.get('type')!r}") from None
    return row(desc)
