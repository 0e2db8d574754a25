"""Direct-pNFS data servers (paper §5).

A data server is a stock NFSv4.1 server placed *on* a parallel-FS
storage node.  Its backend is a local-only parallel-FS client — the
loopback conduit of the prototype: "the Direct-pNFS data servers
simulate direct storage access by way of the existing PVFS2 client and
the loopback device.  The PVFS2 client on the data servers functions
solely as a conduit between the NFSv4 server and the PVFS2 storage node
on the node."  Because clients hold accurate layouts, a data server is
only ever asked for bytes its own node stores; data servers never
communicate with each other.

The loopback hop costs an extra user↔kernel copy per byte, charged via
``loopback_copy_per_byte`` — the reason PVFS2 edges past Direct-pNFS at
eight clients in the single-file read experiment (§6.2, Figure 7b).
"""

from __future__ import annotations

from repro.nfs.config import NfsConfig
from repro.nfs.server import Nfs4Server
from repro.sim.engine import Simulator
from repro.sim.node import Node

__all__ = ["build_data_server", "DEFAULT_LOOPBACK_COPY", "DEFAULT_LOOPBACK_READ_EXTRA"]

#: Default per-byte CPU cost of the loopback conduit copy (s/byte), and
#: the additional read-side copy (replies cross the conduit's transfer
#: buffers once more than writes do).
DEFAULT_LOOPBACK_COPY = 8e-9
DEFAULT_LOOPBACK_READ_EXTRA = 12e-9


def build_data_server(
    sim: Simulator,
    node: Node,
    pvfs_system,
    cfg: NfsConfig,
    loopback_copy_per_byte: float = DEFAULT_LOOPBACK_COPY,
) -> Nfs4Server:
    """NFSv4.1 data server on ``node`` over a local-only conduit."""
    conduit = pvfs_system.make_client(node, local_only=True)
    return Nfs4Server(
        sim,
        node,
        conduit,
        cfg,
        name=f"{node.name}.direct-ds",
        loopback_copy_per_byte=loopback_copy_per_byte,
        extra_read_per_byte=DEFAULT_LOOPBACK_READ_EXTRA,
    )
