"""Pluggable aggregation drivers (paper §4.3).

The NFSv4.1 file layout natively expresses round-robin striping and a
cyclical device pattern; anything richer — variable stripe sizes,
replicated or hierarchical striping — needs an *aggregation driver*: a
small, OS-independent component that tells the client how the parallel
file system maps file bytes onto storage nodes.  Drivers are modelled
on PVFS2's distribution drivers and registered by name; the layout
carries ``{"type": <name>, ...params}`` and the client instantiates the
matching driver.

A driver's single job is :meth:`AggregationDriver.map`: split a byte
range into :class:`IoSegment`\\ s, each naming a *device slot* (an index
into the layout's device list).  Data servers are addressed with
logical file offsets (sparse packing), so segments carry the logical
offset unchanged.

Like the PVFS2 distributions they mirror, the striping drivers are
each a :class:`~repro.vfs.striping.StripPattern` over device slots: a
driver builds its strips and describes its parameters, and the
inherited ``map`` walks them.  ``ReplicatedDriver`` wraps another
driver and is the one ``map`` written out here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.vfs.striping import StripPattern

__all__ = [
    "AggregationDriver",
    "DeviceCycleDriver",
    "HierarchicalDriver",
    "IoSegment",
    "ReplicatedDriver",
    "RoundRobinDriver",
    "VarStripDriver",
    "driver_for",
    "register_driver",
]


@dataclass(frozen=True)
class IoSegment:
    """One contiguous piece of an I/O, bound for one device slot."""

    device_slot: int
    offset: int  # logical file offset (sparse data-server addressing)
    length: int


class AggregationDriver(ABC):
    """Maps logical byte ranges onto layout device slots.

    A striping scheme sets ``strips`` in its constructor; a scheme that
    is not a strip pattern overrides :meth:`map`.
    """

    name: str = "abstract"
    strips: StripPattern

    def map(self, offset: int, nbytes: int, for_write: bool = False) -> list[IoSegment]:
        """Split ``[offset, offset+nbytes)`` into per-device segments.

        Segments are returned in logical order.  ``for_write`` matters
        for replicated placements (writes fan out to every replica).
        """
        return [
            IoSegment(run.server, run.logical, run.length)
            for run in self.strips.runs(offset, nbytes)
        ]

    @abstractmethod
    def describe(self) -> dict:
        """Self-description: ``{"type": name, ...params}``."""


class RoundRobinDriver(AggregationDriver):
    """Standard NFSv4.1 file-layout striping: stripe *i* on slot
    *(i + first_stripe_index) mod n* (RFC 5661's first stripe index)."""

    name = "round_robin"

    def __init__(self, nslots: int, stripe_unit: int, first_slot: int = 0):
        if nslots < 1 or stripe_unit < 1:
            raise ValueError("nslots and stripe_unit must be >= 1")
        if not 0 <= first_slot < nslots:
            raise ValueError("first_slot out of range")
        self.nslots = nslots
        self.stripe_unit = stripe_unit
        self.first_slot = first_slot
        self.strips = StripPattern(
            [((first_slot + i) % nslots, stripe_unit) for i in range(nslots)]
        )

    def describe(self) -> dict:
        return {
            "type": self.name,
            "nslots": self.nslots,
            "stripe_unit": self.stripe_unit,
            "first_slot": self.first_slot,
        }


class DeviceCycleDriver(AggregationDriver):
    """Explicit cyclical device pattern — the second scheme NFSv4.1
    supports natively: stripe *i* goes to ``cycle[i mod len(cycle)]``.

    A slot may appear several times per cycle, giving weighted striping.
    """

    name = "device_cycle"

    def __init__(self, cycle: list[int], stripe_unit: int):
        self.cycle = list(cycle)
        self.stripe_unit = stripe_unit
        self.strips = StripPattern([(slot, stripe_unit) for slot in self.cycle])

    def describe(self) -> dict:
        return {"type": self.name, "cycle": list(self.cycle), "stripe_unit": self.stripe_unit}


class VarStripDriver(AggregationDriver):
    """Variable stripe sizes: repeating (slot, length) pattern (ref [24])."""

    name = "varstrip"

    def __init__(self, pattern: list[tuple[int, int]]):
        self.strips = StripPattern(pattern)
        self.pattern = self.strips.strips
        self.cycle = self.strips.cycle

    def describe(self) -> dict:
        return {"type": self.name, "pattern": list(self.pattern)}


class ReplicatedDriver(AggregationDriver):
    """Mirrored striping (RAID-1 over an inner placement, refs [25, 26]).

    Writes fan out to every replica group; reads alternate between
    replicas by stripe for load spreading.  ``replicas`` is a list of
    slot *offsets*: replica *r* of inner slot *s* is slot
    ``s + replicas[r]``.
    """

    name = "replicated"

    def __init__(self, inner: AggregationDriver, replicas: list[int]):
        if not replicas:
            raise ValueError("need at least one replica offset")
        self.inner = inner
        self.replicas = list(replicas)

    def map(self, offset: int, nbytes: int, for_write: bool = False) -> list[IoSegment]:
        segments = self.inner.map(offset, nbytes, for_write)
        if for_write:
            return [
                IoSegment(seg.device_slot + off, seg.offset, seg.length)
                for seg in segments
                for off in self.replicas
            ]
        out = []
        for i, seg in enumerate(segments):
            off = self.replicas[i % len(self.replicas)]
            out.append(IoSegment(seg.device_slot + off, seg.offset, seg.length))
        return out

    def describe(self) -> dict:
        return {
            "type": self.name,
            "inner": self.inner.describe(),
            "replicas": list(self.replicas),
        }


class HierarchicalDriver(AggregationDriver):
    """Two-level striping: outer units round-robin across groups, inner
    units round-robin across the slots of a group (Clusterfile-style)."""

    name = "hierarchical"

    def __init__(self, ngroups: int, group_size: int, outer_unit: int, inner_unit: int):
        if ngroups < 1 or group_size < 1:
            raise ValueError("ngroups/group_size must be >= 1")
        if outer_unit < inner_unit or outer_unit % inner_unit:
            raise ValueError("outer_unit must be a multiple of inner_unit")
        self.ngroups = ngroups
        self.group_size = group_size
        self.outer_unit = outer_unit
        self.inner_unit = inner_unit
        self.strips = StripPattern(
            [
                (group * group_size + i % group_size, inner_unit)
                for group in range(ngroups)
                for i in range(outer_unit // inner_unit)
            ]
        )

    def describe(self) -> dict:
        return {
            "type": self.name,
            "ngroups": self.ngroups,
            "group_size": self.group_size,
            "outer_unit": self.outer_unit,
            "inner_unit": self.inner_unit,
        }


# -- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Callable[[dict], AggregationDriver]] = {}


def register_driver(name: str, factory: Callable[[dict], AggregationDriver]) -> None:
    """Register an aggregation-driver factory (pluggable, §4.3)."""
    if name in _REGISTRY:
        raise ValueError(f"aggregation driver {name!r} already registered")
    _REGISTRY[name] = factory


def driver_for(desc: dict) -> AggregationDriver:
    """Instantiate the driver described by ``desc`` (from a layout)."""
    kind = desc.get("type")
    try:
        factory = _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"no aggregation driver registered for {kind!r}") from None
    return factory(desc)


register_driver(
    RoundRobinDriver.name,
    lambda d: RoundRobinDriver(d["nslots"], d["stripe_unit"], d.get("first_slot", 0)),
)
register_driver(
    DeviceCycleDriver.name,
    lambda d: DeviceCycleDriver(d["cycle"], d["stripe_unit"]),
)
register_driver(
    VarStripDriver.name,
    lambda d: VarStripDriver([tuple(p) for p in d["pattern"]]),
)
register_driver(
    ReplicatedDriver.name,
    lambda d: ReplicatedDriver(driver_for(d["inner"]), d["replicas"]),
)
register_driver(
    HierarchicalDriver.name,
    lambda d: HierarchicalDriver(
        d["ngroups"], d["group_size"], d["outer_unit"], d["inner_unit"]
    ),
)
