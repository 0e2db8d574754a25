"""Aggregation drivers (paper §4.3): the client's side of a placement.

The NFSv4.1 file layout natively expresses round-robin striping;
anything richer — variable stripe sizes — needs an *aggregation
driver*: a small, OS-independent component that tells the client how
the parallel file system maps file bytes onto storage nodes.  The
layout carries ``{"type": <name>, ...params}``; :data:`AGGREGATIONS` has
one row per type, turning that description into the client's
``map(offset, nbytes) -> [Run]``.  A run's ``server`` is a
*device slot* (an index into the layout's device list); data servers
are addressed with logical file offsets (sparse packing), so the client
sends ``run.logical``.

Each row's map is the ``runs`` of a
:class:`~repro.vfs.striping.StripPattern` over device slots, and
reads and writes place alike.  There is one row per aggregation type
the layout translator (:data:`repro.core.layout_translator.TRANSLATIONS`)
can emit; a new scheme is a new row there and here.
"""

from __future__ import annotations

from typing import Callable

from repro.vfs.striping import Run, StripPattern, round_robin

__all__ = ["AGGREGATIONS", "aggregation_for"]

#: ``map(offset, nbytes) -> [Run]`` in logical order.
Map = Callable[[int, int], list[Run]]

#: aggregation type -> fn(description) -> the client's ``map``
AGGREGATIONS: dict[str, Callable[[dict], Map]] = {
    # Standard NFSv4.1 striping (RFC 5661's first stripe index).
    "round_robin": lambda d: StripPattern(
        round_robin(d["nslots"], d["stripe_unit"], d.get("first_slot", 0))
    ).runs,
    # Variable stripe sizes: a repeating (slot, length) pattern (ref [24]).
    "varstrip": lambda d: StripPattern(d["pattern"]).runs,
}


def aggregation_for(desc: dict) -> Map:
    """The client's ``map`` for the layout's aggregation description."""
    try:
        row = AGGREGATIONS[desc.get("type")]
    except KeyError:
        raise ValueError(f"no aggregation driver for {desc.get('type')!r}") from None
    return row(desc)
