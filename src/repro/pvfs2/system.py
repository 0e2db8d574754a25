"""Deployment helper: wire a complete PVFS2 file system.

The paper's testbed runs six storage nodes with one of them doubling as
the metadata manager (§6.1); :class:`Pvfs2System` reproduces that
wiring and hands out clients (native, or local-only conduits for
Direct-pNFS data servers).  ``n_meta > 1`` hash-partitions the
namespace over that many metadata managers
(:mod:`repro.pvfs2.sharding`, an extension beyond the paper).
"""

from __future__ import annotations

from dataclasses import replace

from repro.pvfs2.client import Pvfs2Client
from repro.pvfs2.config import Pvfs2Config
from repro.pvfs2.metadata import MetadataServer
from repro.pvfs2.sharding import SHARD_HANDLE_STRIDE, ShardedPvfs2Client
from repro.pvfs2.storage import StorageDaemon
from repro.sim.engine import Simulator
from repro.sim.node import Node

__all__ = ["Pvfs2System"]


class Pvfs2System:
    """A running PVFS2 deployment: daemons + MDS(es) + client factory."""

    def __init__(
        self,
        sim: Simulator,
        storage_nodes: list[Node],
        cfg: Pvfs2Config | None = None,
        n_meta: int = 1,
    ):
        if not 1 <= n_meta <= len(storage_nodes):
            raise ValueError("need 1..n_storage metadata servers")
        self.sim = sim
        self.cfg = cfg or Pvfs2Config()
        self.storage_nodes = storage_nodes
        self.daemons = [
            StorageDaemon(sim, node, self.cfg) for node in storage_nodes
        ]
        # The first ``n_meta`` storage nodes double as metadata managers;
        # all of them place data on the same daemons.
        self.metadata_servers = [
            MetadataServer(
                sim, node, self.daemons, self.cfg, handle_base=k * SHARD_HANDLE_STRIDE
            )
            for k, node in enumerate(storage_nodes[:n_meta])
        ]
        self.mds = self.metadata_servers[0]

    def make_client(
        self, node: Node, local_only: bool = False
    ) -> Pvfs2Client | ShardedPvfs2Client:
        """A PVFS2 client running on ``node``.

        ``local_only=True`` builds the loopback conduit used by
        Direct-pNFS data servers: it may only touch the daemon
        colocated on ``node``, and its request-posting path is cheaper
        (no BMI/TCP endpoint work — the conduit feeds a same-node
        daemon through the loopback device).

        With several metadata servers the client is a router over one
        plain client per shard.
        """
        cfg = self.cfg
        if local_only:
            cfg = replace(
                cfg,
                request_setup_client=cfg.request_setup_client * 0.4,
            )
        shards = [
            Pvfs2Client(self.sim, node, mds, self.daemons, cfg, local_only=local_only)
            for mds in self.metadata_servers
        ]
        return shards[0] if len(shards) == 1 else ShardedPvfs2Client(node, shards)
