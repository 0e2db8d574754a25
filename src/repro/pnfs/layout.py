"""pNFS file-based layout types (paper §3.4).

A file-based layout carries what the paper lists: aggregation type and
stripe size, data-server identifiers, one filehandle per data server,
and a policy parameter (whether COMMIT goes through the metadata
server).  Layouts govern the whole file and stay valid until returned
or recalled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FileLayout"]


@dataclass
class FileLayout:
    """An issued file-based layout.

    ``device_slots`` indexes the file system's device list (GETDEVLIST
    order); ``fhs`` gives the filehandle to use at each slot;
    ``aggregation`` describes how bytes map to slots and is interpreted
    by an aggregation driver on the client (round-robin for the two
    schemes NFSv4.1 supports natively, richer types via optional
    drivers).  COMMIT goes to the data servers that took the writes.
    """

    device_slots: list[int]
    fhs: list
    aggregation: dict
    #: Assigned by the issuing metadata server from its simulation's id
    #: stream (``Simulator.next_id``); 0 means "not yet issued".  Ids
    #: must never come from process-global state: replayed runs have to
    #: hand out identical stateids.
    stateid: int = 0

    def __post_init__(self):
        if len(self.device_slots) != len(self.fhs):
            raise ValueError("one filehandle per device slot required")
        if not self.device_slots:
            raise ValueError("layout needs at least one device")
        if "type" not in self.aggregation:
            raise ValueError("aggregation description needs a 'type'")
